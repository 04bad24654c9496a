/**
 * @file
 * Batch-means output analysis.
 *
 * The paper uses the batch-means method with the first batch discarded
 * to remove initialization bias; this class reproduces that protocol.
 * Samples are tagged with their completion cycle; the collector
 * assigns them to fixed-length batches, drops every sample completed
 * during the warmup (batch 0), and reports the grand mean together
 * with a confidence half-width computed from the variance of the batch
 * means.
 *
 * Two modes share the storage:
 *
 *  - Fixed (the paper's protocol, and the default): a predetermined
 *    warmup window plus a fixed number of measured batches. Samples
 *    past the horizon are ignored.
 *  - Adaptive (BatchMeans::adaptive()): no a-priori warmup; batches
 *    start at cycle 0 and the batch vector grows as the run advances.
 *    A RunController (stats/run_controller.hh) later decides the
 *    warmup truncation (MSER) and the stopping cycle, then pins them
 *    with setTruncation(); mean()/halfWidth95()/sampleCount() report
 *    over the retained range only. The adaptive half-width uses a
 *    Student-t quantile because the retained batch count can be small.
 */

#ifndef HRSIM_STATS_BATCH_MEANS_HH
#define HRSIM_STATS_BATCH_MEANS_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "stats/running_stats.hh"

namespace hrsim
{

/** Two-sided 95% Student-t quantile for @a df degrees of freedom. */
double tQuantile95(std::uint64_t df);

class BatchMeans
{
  public:
    /**
     * Fixed-length protocol.
     * @param warmup_cycles Length of the discarded initial batch.
     * @param batch_cycles Length of each measured batch.
     * @param num_batches Number of measured batches.
     */
    BatchMeans(Cycle warmup_cycles, Cycle batch_cycles,
               std::uint32_t num_batches);

    /**
     * Adaptive collector: batches of @a batch_cycles from cycle 0,
     * growing without bound until the controller stops the run.
     */
    static BatchMeans adaptive(Cycle batch_cycles);

    /** True for a collector built by adaptive(). */
    bool isAdaptive() const { return adaptive_; }

    /** Record a sample that completed at @a now. */
    void add(Cycle now, double value);

    /**
     * Cycle at which all batches are filled and the run may stop.
     * Adaptive collectors have no predetermined horizon: before
     * setTruncation() this is the maximum representable cycle.
     */
    Cycle endCycle() const;

    /** True once @a now has passed endCycle(). */
    bool done(Cycle now) const { return now >= endCycle(); }

    /** True while @a now is inside the measured window. */
    bool
    inMeasurement(Cycle now) const
    {
        return now >= warmupCycles_ && now < endCycle();
    }

    /** Samples recorded in measured (retained) batches. */
    std::uint64_t sampleCount() const;

    /** Grand mean over all measured (retained) samples. */
    double mean() const;

    /**
     * 95% confidence half-width from the batch-mean variance
     * (normal quantile in fixed mode, Student-t in adaptive mode).
     */
    double halfWidth95() const;

    /** Mean of one measured batch (0-based, after warmup). */
    double batchMean(std::uint32_t batch) const;

    /** Sample count of one measured batch. */
    std::uint64_t batchCount(std::uint32_t batch) const;

    std::uint32_t numBatches() const
    {
        return static_cast<std::uint32_t>(batches_.size());
    }

    /**
     * Pin the retained window of an adaptive collector: batches
     * [first_batch, batch_limit) feed mean()/halfWidth95()/
     * sampleCount(); batch_limit also pins endCycle() so
     * inMeasurement() closes. Idempotent; re-applied at every
     * controller checkpoint as the MSER truncation moves.
     */
    void setTruncation(std::uint32_t first_batch,
                       std::uint32_t batch_limit);

    std::uint32_t truncationBatch() const { return truncFirst_; }

    Cycle warmupCycles() const { return warmupCycles_; }
    Cycle batchCycles() const { return batchCycles_; }

    /**
     * Checkpoint hooks: batch accumulators and truncation only. The
     * protocol parameters (warmup/batch lengths, mode) are config and
     * must match between saver and restorer — the file-level config
     * key guarantees it.
     */
    void saveState(CkptWriter &w) const;
    void loadState(CkptReader &r);

  private:
    /** The one field list saveState() and loadState() both run. */
    template <class Io, class Self>
    static void layout(Io &io, Self &self);

    BatchMeans() = default;

    Cycle warmupCycles_ = 0;
    Cycle batchCycles_ = 1;
    std::vector<RunningStats> batches_;
    RunningStats all_;

    bool adaptive_ = false;
    std::uint32_t truncFirst_ = 0;
    /** One past the last retained batch; 0 = not yet pinned. */
    std::uint32_t truncLimit_ = 0;
};

} // namespace hrsim

#endif // HRSIM_STATS_BATCH_MEANS_HH
