/**
 * @file
 * Trace-driven workload: record format, file I/O, synthesis, and a
 * TrafficSource that replays a trace.
 *
 * The paper drives its simulator with the synthetic M-MRP generator;
 * a production library also needs deterministic replay of recorded
 * reference streams (for cross-simulator validation and regression
 * pinning). The trace format is line-oriented text:
 *
 *     # comment
 *     <cycle> <pm> <target> R|W
 *
 * sorted by cycle (enforced on load). Replay honours the same
 * outstanding-transaction limit T as the synthetic generator: a
 * record whose time has come waits until a slot and the NIC output
 * queue are available, so a trace can also be replayed onto a slower
 * network than it was recorded on.
 *
 * Not to be confused with the flit-event tracer (obs/flit_trace.hh,
 * `hrsim_cli --trace-flits`): this module feeds memory references
 * *into* a simulation, the tracer logs flit movements *out* of one.
 */

#ifndef HRSIM_WORKLOAD_TRACE_HH
#define HRSIM_WORKLOAD_TRACE_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "common/ring_deque.hh"
#include "common/types.hh"
#include "proto/packet_factory.hh"
#include "sim/network.hh"
#include "stats/batch_means.hh"
#include "workload/processor.hh"
#include "workload/traffic_source.hh"

namespace hrsim
{

/** One memory reference of a trace. */
struct TraceRecord
{
    Cycle cycle = 0;
    NodeId pm = 0;
    NodeId target = 0;
    bool isRead = true;

    bool
    operator==(const TraceRecord &other) const
    {
        return cycle == other.cycle && pm == other.pm &&
               target == other.target && isRead == other.isRead;
    }
};

/** An immutable, time-sorted reference trace. */
class Trace
{
  public:
    Trace() = default;

    /** Build from records; sorts by cycle (stably). */
    explicit Trace(std::vector<TraceRecord> records);

    /** Parse the text format; throws ConfigError on bad input. */
    static Trace load(std::istream &in);

    /** Write the text format. */
    void save(std::ostream &out) const;

    /**
     * Generate an M-MRP-like trace: every processor issues misses at
     * rate @a miss_rate to uniform targets among @a num_processors,
     * with P(read) = @a read_fraction, for @a cycles cycles.
     */
    static Trace synthesizeUniform(int num_processors, Cycle cycles,
                                   double miss_rate,
                                   double read_fraction,
                                   std::uint64_t seed);

    const std::vector<TraceRecord> &records() const
    {
        return records_;
    }

    std::size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }

    /** Records belonging to one PM, in time order. */
    std::vector<TraceRecord> forPm(NodeId pm) const;

    /** Largest PM or target id referenced, or -1 when empty. */
    NodeId maxNode() const;

  private:
    std::vector<TraceRecord> records_;
};

/**
 * Replays one PM's slice of a trace, honouring the outstanding limit
 * T and network back-pressure; remote completions feed the same
 * latency statistics as the synthetic Processor.
 */
class TraceProcessor : public TrafficSource
{
  public:
    TraceProcessor(NodeId pm, std::vector<TraceRecord> records,
                   int outstanding_limit,
                   std::uint32_t memory_latency,
                   PacketFactory &factory, Network &network,
                   BatchMeans &latency, WorkloadCounters &counters);

    void tick(Cycle now) override;
    void onResponse(const Packet &pkt, Cycle now) override;
    int outstanding() const override { return outstanding_; }
    bool blocked() const override;

    /**
     * Skip-idle contract: with no NIC back-pressure the replay is
     * event-driven — nothing happens before the next local
     * completion or the next record's due cycle (or a response
     * delivery, which re-arms via the delivery path).
     */
    Cycle nextWake(Cycle now) const override;

    /** Credit blockedCycles for ticks skipped while asleep. */
    void syncSkipped(Cycle now) override;

    void setHistogram(Histogram *histogram) override
    {
        histogram_ = histogram;
    }

    /** Trace references not yet issued. */
    std::size_t remaining() const { return queue_.size(); }

    /**
     * Checkpoint hooks. The replay queue only ever shrinks from the
     * front, so the snapshot stores the remaining record count and
     * the load pops the freshly-rebuilt queue down to it.
     */
    void saveState(CkptWriter &w) const override;
    void loadState(CkptReader &r) override;

  private:
    /** The one field list saveState() and loadState() both run;
     *  @a remaining is the replay cursor. */
    template <class Io, class Self>
    static void layout(Io &io, Self &self, std::uint32_t &remaining);

    NodeId pm_;
    RingDeque<TraceRecord> queue_;
    int limit_;
    std::uint32_t memoryLatency_;
    PacketFactory &factory_;
    Network &network_;
    BatchMeans &latency_;
    WorkloadCounters &counters_;
    Histogram *histogram_ = nullptr;

    int outstanding_ = 0;
    RingDeque<Cycle> localDue_;
    /** NIC back-pressure seen this tick: must retry next cycle. */
    bool netBlocked_ = false;
    /** blocked() snapshot at end of tick, for syncSkipped credit. */
    bool sleepBlocked_ = false;
    /** Cycle of the last tick() (neverWake until the first one). */
    Cycle lastTick_ = neverWake;
};

} // namespace hrsim

#endif // HRSIM_WORKLOAD_TRACE_HH
