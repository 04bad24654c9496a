/**
 * @file
 * Adaptive run control: MSER warmup detection, a sequential
 * relative-precision stopping rule, and a saturation (divergence)
 * detector.
 *
 * The fixed-length batch-means protocol spends the same simulated
 * cycle budget on every sweep point even though low-load points
 * converge in a fraction of it and near-saturation points never
 * converge at all. A RunController instead watches the run at
 * deterministic checkpoints (one per adaptive batch boundary) and
 * stops it as soon as one of three conditions holds:
 *
 *  - Converged: after MSER truncation the 95% relative confidence
 *    half-width of the latency estimate is at or below the target
 *    (StopPolicy::relHw) with at least StopPolicy::minBatches
 *    retained batches.
 *  - Saturated: the latency batch means are still climbing across
 *    the divergence window while the outstanding-transaction
 *    occupancy is pegged near its cap or still filling toward it —
 *    the signature of a point past its saturation knee, whose
 *    transient would burn the entire budget without yielding a
 *    steady state.
 *  - MaxCycles: the hard bound StopPolicy::maxCycles was reached.
 *
 * Warmup detection is MSER: at every checkpoint, over the non-empty
 *  batch means Y_0..Y_{n-1}, pick the truncation d (at most n/2) that
 * minimizes stddev(Y_d..Y_{n-1}) / sqrt(n - d), i.e. the standard
 * error of what remains. The truncation is re-evaluated from scratch
 * each checkpoint, so the final choice is independent of when the run
 * stops relative to when bias decayed.
 *
 * Determinism contract (DESIGN.md section 11): every decision is a
 * pure function of the checkpoint statistics, which are themselves a
 * pure function of config + seed. No wall-clock time, no thread
 * identity, no sweep scheduling enters the decision sequence, so an
 * adaptive run stops at the same cycle with the same stop reason
 * under --jobs 1, --jobs N, and across reruns.
 *
 * Under a fault plan (DESIGN.md section 12) the controller only ever
 * sees survivors: dropped and abandoned transactions contribute no
 * latency sample, so the rule converges on the survivors' estimate —
 * hrsim_cli warns about the combination, and degradation studies
 * should prefer the fixed-length protocol plus the drop.* / retry.*
 * counters.
 */

#ifndef HRSIM_STATS_RUN_CONTROLLER_HH
#define HRSIM_STATS_RUN_CONTROLLER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "stats/batch_means.hh"

namespace hrsim
{

class CkptWriter;
class CkptReader;

/** Why a run ended (RunResult::stopReason, run.stop_reason). */
enum class StopReason : std::uint8_t
{
    FixedLength = 0, //!< fixed-length protocol ran its full horizon
    Converged = 1,   //!< relative half-width target reached
    MaxCycles = 2,   //!< adaptive bound hit before convergence
    Saturated = 3,   //!< divergence detector aborted the point
};

/** Stable short name ("fixed", "converged", "max_cycles",
 *  "saturated") for manifests, CSV and logs. */
const char *toString(StopReason reason);

/** Adaptive-stopping parameters; relHw == 0 keeps the fixed-length
 *  protocol (the bit-identical default). */
struct StopPolicy
{
    /** Target 95% relative confidence half-width (e.g. 0.05);
     *  0 disables adaptive control entirely. */
    double relHw = 0.0;

    /** Adaptive batch/checkpoint length in cycles; 0 derives
     *  max(SimConfig::batchCycles / 4, 1). */
    Cycle batchCycles = 0;

    /** Hard cycle bound; 0 derives 8x the fixed-length horizon. */
    Cycle maxCycles = 0;

    /** Retained batches required before convergence may be declared
     *  (also the minimum history for the divergence detector). */
    std::uint32_t minBatches = 8;

    /** Minimum post-truncation checkpoints (window + 1) before the
     *  divergence detector may fire. */
    std::uint32_t divergenceWindow = 4;

    /** Occupancy fraction (outstanding / cap) that counts as
     *  "queues pegged" for the divergence detector. Saturated closed
     *  systems hover below 1.0 (completions drain the cap in bursts),
     *  so the default is deliberately below the naive 0.95. */
    double divergenceOccupancy = 0.75;

    /** Minimum relative latency growth between the first and second
     *  half of the divergence window (half-window averages) for a
     *  point to be declared saturated. */
    double divergenceGrowth = 0.10;

    bool enabled() const { return relHw > 0.0; }
};

class RunController
{
  public:
    struct Decision
    {
        bool stop = false;
        StopReason reason = StopReason::FixedLength;
    };

    /**
     * @param policy Resolved policy: batchCycles and maxCycles must
     *        already be non-zero (System resolves the 0 defaults).
     * @param collector Adaptive BatchMeans fed by the run; the
     *        controller reads batch statistics from it and pins the
     *        MSER truncation back into it at every checkpoint.
     */
    RunController(const StopPolicy &policy, BatchMeans &collector);

    /** Cycle of the next checkpoint (batch boundary) to run to. */
    Cycle nextCheckpoint() const;

    /**
     * Evaluate the stopping rule at a checkpoint. @a now must equal
     * nextCheckpoint(); @a occupancy is the outstanding-transaction
     * fraction of its cap in [0, 1] sampled at the checkpoint.
     */
    Decision onCheckpoint(Cycle now, double occupancy);

    /** Decision history length so far (checkpoints evaluated). */
    std::uint32_t checkpoints() const
    {
        return static_cast<std::uint32_t>(history_.size());
    }

    /** MSER truncation of the latest checkpoint, in batches. */
    std::uint32_t warmupBatches() const { return truncation_; }

    /** MSER truncation in cycles (warmupBatches * batch length). */
    Cycle warmupCycles() const
    {
        return static_cast<Cycle>(truncation_) * policy_.batchCycles;
    }

    /** Relative half-width at the latest checkpoint (inf until the
     *  retained mean is positive). */
    double relHalfWidth() const { return relHw_; }

    const StopPolicy &policy() const { return policy_; }

    /**
     * MSER truncation over @a means: the index d <= n/2 minimizing
     * the standard error of means[d..n). Exposed for unit tests.
     */
    static std::uint32_t mserTruncation(const std::vector<double> &means);

    /** Checkpoint hooks: decision history and truncation state (the
     *  policy and the collector binding are config). */
    void saveState(CkptWriter &w) const;
    void loadState(CkptReader &r);

  private:
    /** The one field list saveState() and loadState() both run. */
    template <class Io, class Self>
    static void layout(Io &io, Self &self);

    struct CheckpointStats
    {
        double batchMean = 0.0; //!< mean of the batch just closed
        double occupancy = 0.0;
    };

    bool convergedAt(std::uint32_t completed_batches);
    bool saturatedAt() const;

    StopPolicy policy_;
    BatchMeans &collector_;
    std::vector<CheckpointStats> history_;
    std::uint32_t truncation_ = 0;
    double relHw_ = 0.0;
    bool stopped_ = false;
};

} // namespace hrsim

#endif // HRSIM_STATS_RUN_CONTROLLER_HH
