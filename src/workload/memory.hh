/**
 * @file
 * Memory module of a processing module.
 *
 * Each PM owns a slice of the flat global address space. The memory
 * serves requests with a fixed service time, either one at a time
 * (the default: a single-banked memory, matching the Hector stations
 * the paper's simulator was validated against) or fully pipelined.
 * Completed responses are injected into the NIC's output response
 * queue in FIFO order; when the queue is full they wait in the
 * completion queue (bounded in practice by P * T outstanding
 * transactions system-wide).
 */

#ifndef HRSIM_WORKLOAD_MEMORY_HH
#define HRSIM_WORKLOAD_MEMORY_HH

#include "common/log.hh"
#include "common/ring_deque.hh"
#include "common/types.hh"
#include "proto/packet.hh"
#include "proto/packet_factory.hh"
#include "sim/network.hh"

namespace hrsim
{

class CkptWriter;
class CkptReader;

class MemoryModule
{
  public:
    MemoryModule(NodeId pm, std::uint32_t latency,
                 PacketFactory &factory, Network &network,
                 bool serialized = true)
        : pm_(pm), latency_(latency), serialized_(serialized),
          factory_(factory), network_(network)
    {}

    /** Accept a request packet delivered by the network at @a now. */
    void onRequest(const Packet &pkt, Cycle now);

    /** Inject responses whose service completed by @a now. */
    void tick(Cycle now);

    NodeId pm() const { return pm_; }

    /** Responses accepted but not yet injected. */
    std::size_t pendingResponses() const { return pending_.size(); }

    /**
     * Cycle the oldest pending response becomes injectable. Only
     * valid while pendingResponses() != 0. The front is minimal:
     * ready times are monotone in arrival order both serialized
     * (FIFO service) and pipelined (fixed latency).
     */
    Cycle
    nextReady() const
    {
        HRSIM_ASSERT(!pending_.empty());
        return pending_.front().ready;
    }

    /** Checkpoint hooks: completion queue and the serialization
     *  cursor (ckpt/codec.hh). */
    void saveState(CkptWriter &w) const;
    void loadState(CkptReader &r);

  private:
    /** The one field list saveState() and loadState() both run. */
    template <class Io, class Self>
    static void layout(Io &io, Self &self);

    struct PendingResponse
    {
        Cycle ready;
        Packet response;
    };

    NodeId pm_;
    std::uint32_t latency_;
    bool serialized_;
    PacketFactory &factory_;
    Network &network_;
    RingDeque<PendingResponse> pending_;
    /** When serialized: cycle the module next becomes free. */
    Cycle busyUntil_ = 0;
};

} // namespace hrsim

#endif // HRSIM_WORKLOAD_MEMORY_HH
