/**
 * @file
 * The benchmark's traced driver: System's cycle loop re-run from
 * outside the library so that every call into a layer can be timed.
 *
 * TracedSystem constructs an ordinary hrsim::System, takes over its
 * network through setDeliveryHandler(), and owns its own Processor and
 * MemoryModule per PM. It then replays System::step()'s schedule: the
 * quiescent fast-forward with its warmup and watchdog clamps, then the
 * idle-skip tick order (processors, active memories, network). It
 * times the Processor::tick, MemoryModule::tick and Network::tick
 * loops, plus the delivery callbacks the network makes into the
 * workload. Whatever engine plane the System configured on its network
 * is inherited untouched; the driver never switches one.
 *
 * The schedule itself (fast-forward, wake check, active-memory list) is
 * the driver's copy of System's. The fast-forward is not timed; the
 * wake check and the list upkeep fall inside the processor and memory
 * loop times. A change to System's own loop therefore shows only in
 * the end-to-end metrics. Replacing this copy with a timing hook
 * inside System::tickOnce is the intended follow-up.
 *
 * The traced run is only trusted when its model outputs equal those of
 * System::step() on the same config (the trace.identical metric).
 */

#ifndef HRSIM_BENCH_E2E_TRACED_SYSTEM_HH
#define HRSIM_BENCH_E2E_TRACED_SYSTEM_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/system.hh"

namespace hrsim::e2e
{

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** What a run computed: the numbers a host-speed change must keep. */
struct ModelOutputs
{
    WorkloadCounters counters;
    std::uint64_t samples = 0; //!< measured remote completions
    double mean = 0.0;         //!< remote round-trip latency, cycles
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    std::uint64_t skippedCycles = 0; //!< fast-forwarded cycles
    std::int64_t outstanding = 0;    //!< transactions in flight

    bool operator==(const ModelOutputs &other) const;

    /** issued - completed == outstanding, samples <= completions. */
    bool conserved() const;
};

/** Outputs of a System driven by System::step(). */
ModelOutputs outputsOf(System &system);

/** Outputs of a finished System::run(). */
ModelOutputs outputsOf(const RunResult &result);

/** System's sched.skipped_cycles counter (0 without fast-forward). */
std::uint64_t skippedCycles(const System &system);

/**
 * Link traversals counted by @a network's utilization tracker since
 * its window opened. The tracker has no public count, so this decodes
 * its checkpoint record and throws if the layout is not the one
 * UtilizationTracker::saveState() writes today. Used only for the
 * per-layer hop metrics, never for the output check.
 */
std::uint64_t flitHops(const Network &network);

/** Sum of the registry's *.streamed_flits gauges (0 when none). */
std::uint64_t streamedFlits(const System &system);

/** The layers the traced driver times separately. */
enum class Layer : std::uint8_t
{
    Proc,    //!< the processor loop: wake check + Processor::tick
    Mem,     //!< the active-memory loop: MemoryModule::tick
    Net,     //!< Network::tick, minus the deliveries it makes
    Deliver, //!< delivery callbacks into processors and memories
    Count,
};

/** Self time and call count per layer over the traced region. */
struct LayerTotals
{
    std::array<std::uint64_t, static_cast<int>(Layer::Count)> ns{};
    std::array<std::uint64_t, static_cast<int>(Layer::Count)> calls{};
    /** Sum over sampled cycles of Network::activeNodeCount() (what
     *  System's sched.active_nodes gauge reads) / network components. */
    double activeFracSum = 0.0;
    std::uint64_t activeSamples = 0;

    std::uint64_t &nsOf(Layer l) { return ns[static_cast<int>(l)]; }
    std::uint64_t &callsOf(Layer l) { return calls[static_cast<int>(l)]; }
};

/**
 * In-memory span log plus the per-layer totals. Every cycle feeds the
 * totals; one loop iteration in every sampleEvery gets real spans
 * (one per call), up to a fixed span budget. Spans are written as
 * JSON Lines only when the run ends.
 */
class Tracer
{
  public:
    /** Open a span (end filled in by close()); returns its id. */
    std::int64_t open(const char *name, std::int64_t parent,
                      std::uint32_t op, std::uint64_t start);
    void close(std::int64_t span, std::uint64_t end);
    void record(const char *name, std::int64_t parent, std::uint32_t op,
                std::uint64_t start, std::uint64_t end);

    /** Should the next loop iteration record per-call spans? */
    bool sampleNext();

    /** Span one loop iteration in @a every (0, the default, records
     *  no cycle spans). */
    void setSampleEvery(std::uint64_t every) { sampleEvery_ = every; }

    /** Write every span as one JSON object per line. */
    void writeJsonl(const std::string &path) const;

    std::size_t spans() const { return spans_.size(); }

    LayerTotals totals;

  private:
    struct Span
    {
        const char *name;
        std::int64_t parent;
        std::uint32_t op;
        std::uint64_t start;
        std::uint64_t end;
    };

    std::vector<Span> spans_;
    std::uint64_t sampleEvery_ = 0;
    std::uint64_t iterations_ = 0;
};

class TracedSystem
{
  public:
    /** Build the System for @a cfg and take over its network. Throws
     *  std::invalid_argument for configs whose System loop has
     *  features the driver does not replay (faults, trace replay, the
     *  slotted ring, idle-skip off, metric snapshots, checkpoints,
     *  adaptive stopping, tick threads). */
    TracedSystem(const SystemConfig &cfg, Tracer &tracer);

    TracedSystem(const TracedSystem &) = delete;
    TracedSystem &operator=(const TracedSystem &) = delete;

    /** System::step(@a cycles), timed. Sampled cycles become spans
     *  under @a parent, tagged with operation @a op. */
    void step(Cycle cycles, std::int64_t parent, std::uint32_t op);

    /** The end-of-run credit System::run() gives sleeping processors. */
    void syncSkipped();

    ModelOutputs outputs();

    System &system() { return system_; }
    Network &network() { return system_.network(); }
    Cycle now() const { return now_; }

  private:
    void fastForward(Cycle limit);
    void tickOnce(std::int64_t cycle_span);

    Tracer &tracer_;
    System system_;
    PacketFactory factory_;
    BatchMeans latency_;
    Histogram histogram_;
    WorkloadCounters counters_;
    std::vector<std::unique_ptr<Processor>> processors_;
    std::vector<std::unique_ptr<MemoryModule>> memories_;

    /** Does the System fast-forward (sched.* metrics registered)? */
    bool activeSched_ = false;
    /** Network components (NICs, IRIs, routers) for active_frac. */
    double components_ = 1.0;

    Cycle now_ = 0;
    Cycle lastProgress_ = 0;
    std::uint64_t lastActivity_ = 0;
    std::uint64_t skippedCycles_ = 0;
    std::vector<Cycle> procWake_;
    std::vector<NodeId> activeMems_;
    std::vector<std::uint8_t> memActive_;

    /** Span of the Network::tick in progress (-1 when unsampled). */
    std::int64_t netSpan_ = -1;
    std::uint32_t op_ = 0;
    std::uint64_t deliverNs_ = 0;
};

} // namespace hrsim::e2e

#endif // HRSIM_BENCH_E2E_TRACED_SYSTEM_HH
