/**
 * @file
 * Processor model for the M-MRP synthetic workload.
 *
 * Every cycle, with probability C, the processor suffers a cache miss
 * to a target drawn uniformly from its access region (which includes
 * the local PM). Misses are reads with probability 0.7. The processor
 * may have up to T transactions outstanding; when a miss cannot be
 * issued (T outstanding, or the NIC output queue full) the processor
 * blocks: it retries the same miss each cycle and generates no new
 * ones, mimicking a multiple-context processor whose contexts are all
 * stalled. The generation rate is otherwise independent of the number
 * outstanding.
 *
 * Local misses never touch the network: they complete after the
 * memory latency. Only remote misses contribute to the round-trip
 * latency statistic, measured from issue (entry into the NIC output
 * queue) to receipt of the response's tail flit.
 *
 * Under a fault plan (setRetryPolicy) the processor additionally
 * keeps a pending-transaction table for its remote misses: a
 * transaction unanswered for timeoutCycles is reissued as a fresh
 * request packet (same target, same original issue cycle, so the
 * latency sample still measures the full outage), and abandoned —
 * its outstanding slot freed — once maxRetries reissues have gone
 * unanswered. Responses are matched through Packet::reqId against
 * every id the transaction ever issued (the original answer may
 * arrive after a timeout-triggered reissue; either completes it);
 * responses matching no live transaction are counted stale and
 * dropped. Without a policy none of this state exists and the issue
 * path is byte-identical to a build without the fault subsystem.
 */

#ifndef HRSIM_WORKLOAD_PROCESSOR_HH
#define HRSIM_WORKLOAD_PROCESSOR_HH

#include <cstdint>
#include <vector>

#include "common/ring_deque.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "fault/fault_plan.hh"
#include "proto/packet.hh"
#include "proto/packet_factory.hh"
#include "sim/network.hh"
#include "stats/batch_means.hh"
#include "stats/histogram.hh"
#include "workload/traffic_source.hh"
#include "workload/workload_config.hh"

namespace hrsim
{

/** Aggregated per-run workload event counts, shared by all PMs. */
struct WorkloadCounters
{
    std::uint64_t missesGenerated = 0;
    std::uint64_t remoteIssued = 0;
    std::uint64_t remoteCompleted = 0;
    std::uint64_t localIssued = 0;
    std::uint64_t localCompleted = 0;
    std::uint64_t blockedCycles = 0;
};

/** Checkpoint the counters (a System snapshot and a RunResult). */
template <class Io, class Counters>
void
ckptWorkloadCounters(Io &io, Counters &c)
{
    io.u64(c.missesGenerated);
    io.u64(c.remoteIssued);
    io.u64(c.remoteCompleted);
    io.u64(c.localIssued);
    io.u64(c.localCompleted);
    io.u64(c.blockedCycles);
}

class Processor : public TrafficSource
{
  public:
    /**
     * @param pm Linear id of this PM.
     * @param targets Access region (must include @a pm).
     * @param cfg Workload parameters.
     * @param factory Packet factory shared across the system.
     * @param network Interconnect used for remote accesses.
     * @param latency Collector of remote round-trip latencies.
     * @param counters Shared event counters.
     * @param seed Master seed; the stream is derived from @a pm.
     */
    Processor(NodeId pm, std::vector<NodeId> targets,
              const WorkloadConfig &cfg, PacketFactory &factory,
              Network &network, BatchMeans &latency,
              WorkloadCounters &counters, std::uint64_t seed);

    /** Advance one cycle: generate/issue misses, retire local ones. */
    void tick(Cycle now) override;

    /** Called by the system when a response packet arrives. */
    void onResponse(const Packet &pkt, Cycle now) override;

    /**
     * Skip-idle contract. While blocked with all T transactions
     * outstanding the processor's tick is pure bookkeeping (one
     * blocked cycle counted, a retry that cannot succeed), so it
     * sleeps until the next local completion — or, with none in
     * flight, until a response delivery re-arms it. While unblocked
     * it sleeps until its pre-drawn next miss cycle or the next local
     * completion, whichever is sooner: the per-cycle Bernoulli miss
     * draws a per-cycle tick would make are consumed eagerly (see
     * advanceNextMiss), so the RNG stream is bit-identical whether or
     * not the intermediate no-op ticks actually run.
     */
    Cycle nextWake(Cycle now) const override;

    /** Credit blockedCycles for ticks skipped while asleep. */
    void syncSkipped(Cycle now) override;

    /** Also record remote latencies into @a histogram (optional). */
    void
    setHistogram(Histogram *histogram) override
    {
        histogram_ = histogram;
    }

    NodeId pm() const { return pm_; }
    int outstanding() const override { return outstanding_; }
    bool blocked() const override { return stalled_; }

    /** Arm the timeout/reissue engine (see the file comment). */
    void setRetryPolicy(const RetryPolicy *policy,
                        RetryCounters *counters) override;

    /** Remote transactions currently in the retry table (tests). */
    std::size_t pendingRetries() const { return txns_.size(); }

    /** Checkpoint hooks: RNG stream, generator cursor, stall state,
     *  local completion queue, and the retry table. */
    void saveState(CkptWriter &w) const override;
    void loadState(CkptReader &r) override;

    /** Warm-start fork: fresh (seed, pm) stream, fresh miss draw. */
    void reseed(std::uint64_t seed, Cycle now) override;

  private:
    /** The one field list saveState() and loadState() both run. */
    template <class Io, class Self>
    static void layout(Io &io, Self &self);

    struct PendingMiss
    {
        NodeId target;
        bool isRead;
    };

    /**
     * One remote transaction tracked by the retry engine. `ids`
     * holds every request id issued for it — original first — since
     * any of them may still draw the matching response.
     */
    struct RemoteTxn
    {
        NodeId target;
        bool isRead;
        std::uint32_t retries = 0;
        Cycle issueCycle;         //!< original issue (latency base)
        Cycle deadline;           //!< reissue/abandon at this cycle
        std::vector<PacketId> ids;
    };

    /** Try to issue @a miss; true on success. */
    bool tryIssue(const PendingMiss &miss, Cycle now);

    /** Reissue or abandon every transaction past its deadline. */
    void processTimeouts(Cycle now);

    /** Earliest retry deadline, or neverWake with none pending. */
    Cycle nextDeadline() const;

    /**
     * Pre-draw the Bernoulli(C) miss sequence starting at cycle
     * @a from: consumes exactly the failure draws a tick-every-cycle
     * loop would make for cycles [from, nextMissAt_)
     * plus the success at nextMissAt_. With C <= 0 no draw ever
     * succeeds (and no dependent draws follow), so the stream
     * position is unobservable and none are consumed.
     */
    void advanceNextMiss(Cycle from);

    NodeId pm_;
    std::vector<NodeId> targets_;
    WorkloadConfig cfg_;
    PacketFactory &factory_;
    Network &network_;
    BatchMeans &latency_;
    WorkloadCounters &counters_;
    Histogram *histogram_ = nullptr;
    Rng rng_;

    int outstanding_ = 0;
    bool stalled_ = false;
    PendingMiss stalledMiss_{invalidNode, true};
    /** Cycle of the last tick() (neverWake until the first one). */
    Cycle lastTick_ = neverWake;
    /** Pre-drawn cycle of the next miss (stale while stalled). */
    Cycle nextMissAt_ = 0;

    /** Completion times of in-flight local accesses (sorted). */
    RingDeque<Cycle> localDue_;

    // Retry engine (active only under a fault plan; see the file
    // comment). retry_ == nullptr is the fast, byte-identical case.
    const RetryPolicy *retry_ = nullptr;
    RetryCounters *retryCounters_ = nullptr;
    /** Live remote transactions, at most outstandingT of them. */
    std::vector<RemoteTxn> txns_;
};

} // namespace hrsim

#endif // HRSIM_WORKLOAD_PROCESSOR_HH
