/**
 * @file
 * Whole-system configuration and simulation driver.
 *
 * A System assembles an interconnect (hierarchical ring or 2D mesh),
 * one M-MRP processor and one memory module per PM, and the
 * measurement machinery, then runs the batch-means protocol and
 * returns the paper's metrics: average remote round-trip latency and
 * network / per-ring-level utilization.
 *
 * Every system also owns a MetricRegistry (src/obs/) into which it
 * and its network register named counters and gauges at
 * construction; run() materializes them into RunResult::metrics
 * (plus periodic RunResult::snapshots when SimConfig::metricsEvery
 * is set), and setTracer() attaches an opt-in flit-event tracer.
 */

#ifndef HRSIM_CORE_SYSTEM_HH
#define HRSIM_CORE_SYSTEM_HH

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hh"
#include "fault/fault_controller.hh"
#include "fault/fault_plan.hh"
#include "obs/metric_registry.hh"
#include "proto/packet_factory.hh"
#include "ring/ring_network.hh"
#include "sim/network.hh"
#include "stats/batch_means.hh"
#include "stats/histogram.hh"
#include "stats/run_controller.hh"
#include "workload/memory.hh"
#include "workload/processor.hh"
#include "workload/trace.hh"
#include "workload/workload_config.hh"

namespace hrsim
{

/** Thrown when the simulation makes no forward progress. */
class StallError : public std::runtime_error
{
  public:
    explicit StallError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {}
};

enum class NetworkKind
{
    HierarchicalRing,
    Mesh,
};

/** Measurement-protocol parameters. */
struct SimConfig
{
    Cycle warmupCycles = 5000; //!< discarded first batch
    Cycle batchCycles = 5000;
    std::uint32_t numBatches = 5;
    std::uint64_t seed = 0x9b1c6e7a2d4f5031ULL;
    /** Cycles without any delivery before declaring a stall. */
    Cycle watchdogCycles = 50000;
    /**
     * Must be true. Every run skips provably-idle components
     * (saturated processors, memories with empty completion queues,
     * asleep network components) and fast-forwards quiescent cycles;
     * the every-cycle tick loop this flag once selected is gone. The
     * System constructor rejects false with a ConfigError. The field
     * survives only because the end-to-end benchmark's traced system
     * (bench/e2e/traced_system.cc) still reads it; the next change to
     * that benchmark deletes the read and this field with it.
     */
    bool idleSkip = true;
    /**
     * Record a mid-run metric snapshot every N cycles (0 = none, the
     * default). Snapshots land in RunResult::snapshots; reading them
     * never perturbs the simulation, so results stay bit-identical
     * with snapshots on or off.
     */
    Cycle metricsEvery = 0;
    /**
     * Must be 1. This field once sized the intra-run shard-parallel
     * tick engine, which is gone: every run ticks serially, and the
     * only parallelism axis is whole sweep points (SweepOptions::jobs,
     * hrsim_cli --jobs). The System constructor rejects any other
     * value with a ConfigError. The field survives only because the
     * end-to-end benchmark's traced system (bench/e2e/traced_system.cc)
     * still reads it; the next change to that benchmark deletes the
     * read and this field with it.
     */
    int tickThreads = 1;
    /**
     * Adaptive run control (stats/run_controller.hh): stop.relHw > 0
     * replaces the fixed warmup + batch schedule above with MSER
     * warmup detection and a sequential stopping rule bounded by
     * stop.maxCycles. The default (relHw == 0) keeps the fixed-length
     * protocol bit-identical to earlier releases. Zero-valued
     * stop.batchCycles / stop.maxCycles are derived from the fixed
     * schedule; see resolveStopPolicy().
     */
    StopPolicy stop;
};

/**
 * Fill in the derived defaults of @a sim.stop: batchCycles == 0
 * becomes max(sim.batchCycles / 4, 1) (checkpoints fine enough to
 * stop well before the fixed horizon), maxCycles == 0 becomes 8x the
 * fixed-length horizon. Pure function of @a sim.
 */
StopPolicy resolveStopPolicy(const SimConfig &sim);

/**
 * Checkpoint/restore knobs (src/ckpt/; DESIGN.md section 13). All
 * fields are process mechanics, not simulation identity: they never
 * enter configKey(), and a run with any combination of them produces
 * (or resumes into) exactly the cycle sequence of a run without them.
 */
struct CheckpointOptions
{
    /** Write snapshots to this path; empty disables saving. */
    std::string savePath;
    /** Save once when the run reaches the start of this cycle
     *  (0 = never). The snapshot captures state *before* cycle
     *  saveAt evaluates. */
    Cycle saveAt = 0;
    /** Also save at every multiple of this cycle count (0 = never);
     *  each save atomically replaces savePath (crash-safe sweeps). */
    Cycle saveEvery = 0;
    /** End the run right after the saveAt snapshot (warm-start
     *  generation: pay for the warmup once, then stop). */
    bool stopAfterSave = false;

    /** Restore this snapshot before running; empty disables. */
    std::string restorePath;
    /**
     * Warm-start forking: after restoring, reseed every processor's
     * random stream from (forkSeed, pm) so replicas forked from one
     * warmup snapshot are statistically independent (0 = resume the
     * saved streams exactly). Also relaxes the config-key check to
     * ignore the seed field — a fork deliberately diverges there.
     */
    std::uint64_t forkSeed = 0;
};

struct SystemConfig
{
    NetworkKind kind = NetworkKind::HierarchicalRing;

    // Ring-specific knobs.
    RingTopology ringTopo{{4}};
    std::uint32_t globalRingSpeed = 1;
    bool ringBypass = true;
    bool ringWrapRegion = true;
    std::uint32_t ringIriWaitLimit = 0;    //!< 0 = default (32 * cl)
    std::uint32_t ringIriQueuePackets = 1; //!< paper: 1
    /** Slotted (Hector-style) switching instead of wormhole. */
    bool ringSlotted = false;

    // Mesh-specific knobs.
    int meshWidth = 2;
    std::uint32_t meshBufferFlits = 4; //!< 0 selects cl-sized buffers
    bool meshRoundRobin = true; //!< arbitration (ablation switch)

    std::uint32_t cacheLineBytes = 32;
    WorkloadConfig workload;
    SimConfig sim;
    CheckpointOptions ckpt;

    /**
     * Deterministic fault schedule (src/fault/). An empty plan — the
     * default — allocates no fault state anywhere and keeps every
     * artifact byte-identical to a fault-free build; a non-empty plan
     * arms the FaultController, the processors' retry engine and the
     * fault.* / drop.* / retry.* metrics. Not supported with
     * ringSlotted (the slotted data path has no worm-drain story).
     */
    FaultPlan faultPlan;

    /**
     * Replay this trace instead of the synthetic M-MRP generator.
     * The trace must reference only PM ids < numProcessors(); the
     * outstanding limit T and memory model still apply. Not owned;
     * must outlive the System.
     */
    const Trace *trace = nullptr;

    /** Number of PMs implied by the topology. */
    int numProcessors() const;

    /** Convenience constructor for a ring system. */
    static SystemConfig ring(const std::string &topo,
                             std::uint32_t cache_line_bytes);

    /** Convenience constructor for a square mesh system. */
    static SystemConfig mesh(int width, std::uint32_t cache_line_bytes,
                             std::uint32_t buffer_flits);
};

/** Metrics of one simulation run. */
struct RunResult
{
    double avgLatency = 0.0;   //!< remote round-trip, network cycles
    double latencyCI95 = 0.0;  //!< batch-means confidence half-width
    std::uint64_t samples = 0; //!< measured remote completions

    /** Latency distribution percentiles (network cycles). */
    double latencyP50 = 0.0;
    double latencyP95 = 0.0;
    double latencyP99 = 0.0;

    /** Mesh-link utilization, or all-ring utilization for rings. */
    double networkUtilization = 0.0;
    /** Per-hierarchy-level ring utilization; [0] is the global ring. */
    std::vector<double> ringLevelUtilization;

    WorkloadCounters counters;
    /** Cycles actually simulated (the adaptive stop cycle, or the
     *  fixed horizon). */
    Cycle cycles = 0;
    /** Remote completions per cycle per PM over the whole run. */
    double throughputPerPm = 0.0;

    /** Why the run ended; FixedLength for the classic protocol. */
    StopReason stopReason = StopReason::FixedLength;
    /** Final 95% relative half-width (adaptive runs; 0 otherwise). */
    double relHalfWidth = 0.0;
    /** MSER-detected warmup truncation in cycles (adaptive runs;
     *  the configured warmup for fixed-length runs). */
    Cycle warmupCycles = 0;

    /**
     * End-of-run materialization of the system's MetricRegistry,
     * sorted by name. Deterministic: a pure function of the config,
     * byte-identical between serial and parallel sweeps.
     */
    std::vector<MetricSample> metrics;
    /** Mid-run snapshots (SimConfig::metricsEvery; empty if 0). */
    std::vector<MetricSnapshot> snapshots;
};

class System
{
  public:
    explicit System(const SystemConfig &cfg);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Run the full batch-means protocol and collect metrics. */
    RunResult run();

    /** Advance @a cycles cycles (white-box testing hook). */
    void step(Cycle cycles);

    Network &network() { return *network_; }
    const SystemConfig &config() const { return cfg_; }
    Cycle now() const { return now_; }

    /** Transactions currently outstanding across all PMs. */
    int totalOutstanding() const;

    /** Responses still waiting in memory completion queues. */
    std::size_t totalPendingResponses() const;

    const WorkloadCounters &counters() const { return counters_; }
    const BatchMeans &latency() const { return latency_; }
    const Histogram &latencyHistogram() const { return histogram_; }

    /** Every named metric of this system (see src/obs/). */
    const MetricRegistry &metrics() const { return metrics_; }

    /** The fault controller, or nullptr without a fault plan. */
    const FaultController *faults() const { return faults_.get(); }

    /** Retry-engine event counts (all zero without a fault plan). */
    const RetryCounters &retryCounters() const
    {
        return retryCounters_;
    }

    /**
     * Attach (or detach, with nullptr) a flit-event tracer. The
     * tracer observes inject/hop/eject events without touching any
     * simulation state, so results are identical with tracing on or
     * off. Not owned; must outlive the System or be detached first.
     */
    void setTracer(FlitTracer *tracer);

    /**
     * Snapshot the complete simulator state to @a path (atomic
     * temporary-file + rename write). Read-only: saving perturbs
     * nothing, so a run that saves is bit-identical to one that does
     * not. Must be called at a tick boundary (between tickOnce()
     * calls) — mid-cycle staged state has no on-disk representation.
     * Throws CheckpointError on I/O failure or an unsupported network
     * (the slotted ring).
     */
    void saveCheckpoint(const std::string &path) const;

    /**
     * Replace this freshly-constructed System's state with the
     * snapshot at @a path. The file's config key must match this
     * run's — a mismatch throws CheckpointError naming both keys.
     * After restoring, run() continues the saved run: running to
     * cycle Y yields byte-identical metrics and flit events to an
     * uninterrupted run reaching Y. With CheckpointOptions::forkSeed,
     * processor streams are reseeded instead for warm-start replicas.
     */
    void restoreCheckpoint(const std::string &path);

    /** Did this System restore from a snapshot? (manifest field) */
    bool restored() const { return restored_; }

  private:
    void buildNetwork();
    void buildWorkload();
    void registerSystemMetrics();
    void tickOnce();

    /** The classic fixed-length batch-means protocol. */
    RunResult runFixed();

    /**
     * Adaptive protocol: run checkpoint to checkpoint under a
     * RunController until it declares the point converged, saturated
     * or out of budget. The decision sequence is a pure function of
     * checkpoint statistics (config + seed), so adaptive runs are
     * bit-identical across reruns and sweep parallelism.
     */
    RunResult runAdaptive();

    /** Fill the result fields shared by both protocols. */
    void finishResult(RunResult &result, Cycle end,
                      Cycle measured_cycles);

    /**
     * Save-point hook, called at the top of each run-loop iteration
     * (tick boundary): writes the snapshot when now_ hits saveAt or a
     * saveEvery multiple, and raises saveStopRequested_ when the
     * saveAt snapshot should also end the run. Returns true when a
     * snapshot was written — the run loop then retries its
     * fast-forward so a quiescent gap the boundary interrupted
     * resumes jumping instead of ticking, keeping skipped-cycle
     * totals identical to a run without saving.
     */
    bool maybeSaveCheckpoint();

    /** Outstanding transactions as a fraction of the T cap. */
    double outstandingOccupancy() const;

    /**
     * Cycle fast-forward: when the network is empty and every
     * component is asleep, jump now_ straight to the earliest future
     * event — the soonest processor wake, the soonest pending memory
     * completion — clamped so no protocol boundary (warmup start,
     * metrics snapshot, watchdog check) is stepped over. The skipped
     * cycles are provably no-ops, so results stay bit-identical; the
     * count lands in the sched.skipped_cycles metric.
     */
    void fastForwardQuiescent(Cycle limit);

    SystemConfig cfg_;
    /** Resolved adaptive policy (enabled() == false for fixed). */
    StopPolicy stopPolicy_;
    std::unique_ptr<Network> network_;
    /** Non-null only when cfg_.faultPlan is non-empty. */
    std::unique_ptr<FaultController> faults_;
    RetryCounters retryCounters_;
    std::unique_ptr<PacketFactory> factory_;
    std::vector<std::unique_ptr<TrafficSource>> processors_;
    std::vector<std::unique_ptr<MemoryModule>> memories_;
    BatchMeans latency_;
    Histogram histogram_;
    WorkloadCounters counters_;
    MetricRegistry metrics_;
    FlitTracer *tracer_ = nullptr;

    Cycle now_ = 0;
    Cycle lastProgress_ = 0;
    std::uint64_t lastActivity_ = 0;

    /** Quiescent cycles fast-forwarded over (sched.skipped_cycles). */
    std::uint64_t skippedCycles_ = 0;

    // Adaptive-run introspection (run.* gauges; see DESIGN.md s11).
    /** Stop reason code; FixedLength (0) while still running. */
    StopReason stopReason_ = StopReason::FixedLength;

    // Checkpoint/restore state (src/ckpt/; DESIGN.md section 13).
    /** Adaptive-run controller; a member (not a runAdaptive() local)
     *  so its decision history can travel in snapshots. Created by
     *  runAdaptive() on first use or by restoreCheckpoint(). */
    std::unique_ptr<RunController> controller_;
    /** Mid-run metric snapshots (SimConfig::metricsEvery); a member
     *  so a restored run's artifact reproduces the snapshots taken
     *  before the save. */
    std::vector<MetricSnapshot> snapshots_;
    /** Restored from a snapshot: runAdaptive() must not restart the
     *  utilization window the snapshot already carries. */
    bool restored_ = false;
    /** The saveAt + stopAfterSave snapshot fired: end the run. */
    bool saveStopRequested_ = false;
    /** The saveAt snapshot fired; releases its fast-forward clamp. */
    bool saveAtDone_ = false;
    /** Cycle of the last saveEvery snapshot (0 = none yet); a
     *  boundary's clamp releases once its save has fired. */
    Cycle lastEverySave_ = 0;

    // Skip-idle bookkeeping.
    /** Per-PM cycle of the next required processor tick. */
    std::vector<Cycle> procWake_;
    /** PMs whose memory has a non-empty completion queue. */
    std::vector<NodeId> activeMems_;
    /** Membership flags for activeMems_ (one per PM). */
    std::vector<std::uint8_t> memActive_;
};

/** Build a System from @a cfg, run it, and return the metrics. */
RunResult runSystem(const SystemConfig &cfg);

} // namespace hrsim

#endif // HRSIM_CORE_SYSTEM_HH
