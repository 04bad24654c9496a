/**
 * @file
 * Parallel sweep engine.
 *
 * Every figure of the paper is a sweep: dozens of fully independent
 * runSystem(cfg) points. A SweepRunner owns a fixed pool of worker
 * threads and evaluates a vector of SystemConfig points concurrently,
 * returning RunResults in submission order.
 *
 * Determinism contract: a System is self-contained (its RNG streams
 * derive from cfg.sim.seed, and no simulator state is shared between
 * points), so the metrics of every point are a pure function of its
 * config. Serial (jobs = 1) and parallel (jobs = N) sweeps therefore
 * produce bit-identical RunResults in the same order, regardless of
 * scheduling. The optional reseedPoints mode derives per-point seeds
 * from (base seed, point index) — also independent of scheduling.
 *
 * The contract extends through the observability layer: each point's
 * RunResult carries the materialized MetricRegistry samples
 * (RunResult::metrics), which are part of the same pure function of
 * the config — wall-clock timing lives only in the run manifest, so
 * `--jobs 1` and `--jobs N` serialize byte-identical metric sections.
 *
 * It also extends through the tick scheduler (src/sim/columns.hh):
 * which components tick and which cycles fast-forward is itself a
 * pure function of the config.
 *
 * Scheduling: workers claim points from a shared atomic cursor, so a
 * point that finishes early (an adaptive run that converged after a
 * fraction of its budget, see stats/run_controller.hh) immediately
 * frees its worker for the next point — no static partitioning to
 * rebalance. On top of that, parallel runs claim points in descending
 * estimated-cost order (horizon upper bound x processor count, see
 * estimatedCostWeight()), so a saturated 121-PM point cannot be
 * dealt last and straggle behind an otherwise-drained pool. Point
 * results are written by submission index, so claim order is
 * invisible in the output: serial and parallel sweeps stay
 * bit-identical.
 */

#ifndef HRSIM_CORE_SWEEP_HH
#define HRSIM_CORE_SWEEP_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "core/system.hh"

namespace hrsim
{

struct SweepOptions
{
    /** Worker threads; 0 selects hardware_concurrency(). */
    unsigned jobs = 0;

    /**
     * Give every point its own seed derived from (its configured
     * seed, its index) via pointSeed(). Off by default so a sweep of
     * explicit configs reproduces the exact serial runSystem() calls.
     */
    bool reseedPoints = false;

    /**
     * Crash-safe journaling: when non-empty, every completed point
     * writes its RunResult to <journalDir>/point_<idx>.result
     * (atomic, config-key stamped), and in-progress points
     * periodically checkpoint to <journalDir>/point_<idx>.ckpt when
     * checkpointEvery is set. The directory must already exist.
     */
    std::string journalDir;

    /**
     * Resume a journaled sweep: points whose .result file exists are
     * loaded instead of re-run (a config-key mismatch throws — the
     * journal belongs to a different sweep), and points with only a
     * .ckpt restore from it and continue. Because a restored run is
     * bit-identical to an uninterrupted one, the resumed sweep's
     * results and journal bytes match the never-killed sweep exactly.
     */
    bool resume = false;

    /** Periodic checkpoint interval for journaled in-progress points
     *  (cycles; 0 = journal completed results only). */
    Cycle checkpointEvery = 0;
};

class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opts = {});
    ~SweepRunner();

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    /** Resolved worker count (>= 1). */
    unsigned jobs() const { return jobs_; }

    /**
     * Run every point and return the results in submission order.
     * With jobs() == 1 the points run inline on the calling thread,
     * exactly like a hand-written serial loop. If any point throws
     * (e.g. StallError), the remaining points still run and the
     * lowest-index exception is rethrown afterwards.
     */
    std::vector<RunResult> run(const std::vector<SystemConfig> &points);

    /** Deterministic per-point seed stream (splitmix64-based). */
    static std::uint64_t pointSeed(std::uint64_t base,
                                   std::size_t index);

    /**
     * Upper-bound cost estimate of one point: horizon cycles (the
     * adaptive maxCycles bound, or the fixed-length end cycle) times
     * the processor count. Used to order parallel claims
     * longest-first; has no effect on any result.
     */
    static double estimatedCostWeight(const SystemConfig &cfg);

  private:
    struct Batch
    {
        const std::vector<SystemConfig> *points = nullptr;
        std::vector<RunResult> *results = nullptr;
        std::vector<std::exception_ptr> *errors = nullptr;
        /** Claim order: submission indices, costliest first. */
        const std::vector<std::size_t> *order = nullptr;
        std::atomic<std::size_t> next{0};
        std::size_t completed = 0; //!< guarded by mu_
        std::size_t attached = 0;  //!< workers inside drain(); mu_
    };

    void workerLoop();
    void runPoint(Batch &batch, std::size_t index) const;
    void drain(Batch &batch);

    SweepOptions opts_;
    unsigned jobs_ = 1;

    std::mutex mu_;
    std::condition_variable wake_;
    std::condition_variable done_;
    Batch *batch_ = nullptr; //!< guarded by mu_
    std::uint64_t generation_ = 0;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

/**
 * Convenience one-shot sweep: evaluate @a points on @a jobs workers
 * (0 = hardware concurrency) and return results in order.
 */
std::vector<RunResult>
runSweep(const std::vector<SystemConfig> &points, unsigned jobs = 0);

/**
 * Warm-start a replica sweep: pay the donor's warmup exactly once
 * per config, then fork every measurement replica from the shared
 * snapshot with its own RNG stream.
 *
 * If @a checkpointPath does not already hold a snapshot produced by
 * @a base, the donor runs base to its warmup boundary
 * (save-at-warmup + stop-after-save) to create it. The returned
 * configs — one per entry of @a seeds — restore from that snapshot
 * and reseed via CheckpointOptions::forkSeed, so each replica's
 * measurement phase draws from its own stream while sharing the
 * donor's warmed-up queues and tables. With warmupCycles == 0 there
 * is nothing to share and the configs are returned as plain
 * reseeded runs.
 */
std::vector<SystemConfig>
warmStartReplicas(const SystemConfig &base,
                  const std::string &checkpointPath,
                  const std::vector<std::uint64_t> &seeds);

} // namespace hrsim

#endif // HRSIM_CORE_SWEEP_HH
