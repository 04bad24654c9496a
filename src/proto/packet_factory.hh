/**
 * @file
 * Constructs correctly-sized packets for a given network geometry.
 */

#ifndef HRSIM_PROTO_PACKET_FACTORY_HH
#define HRSIM_PROTO_PACKET_FACTORY_HH

#include "common/log.hh"
#include "common/types.hh"
#include "proto/packet.hh"

namespace hrsim
{

/**
 * Stamps out request and response packets with sizes determined by
 * the channel geometry and cache-line size, assigning fresh ids.
 */
class PacketFactory
{
  public:
    PacketFactory(ChannelSpec spec, std::uint32_t cache_line_bytes)
        : spec_(spec), cacheLineBytes_(cache_line_bytes)
    {
        HRSIM_ASSERT(cache_line_bytes > 0);
    }

    /** Create a read or write request from @a src to @a dst. */
    Packet
    makeRequest(NodeId src, NodeId dst, bool is_read, Cycle now)
    {
        Packet pkt;
        pkt.id = nextId_++;
        pkt.type = is_read ? PacketType::ReadRequest
                           : PacketType::WriteRequest;
        pkt.src = src;
        pkt.dst = dst;
        pkt.sizeFlits = spec_.packetFlits(pkt.type, cacheLineBytes_);
        pkt.issueCycle = now;
        return pkt;
    }

    /** Create the response matching @a request (latency is carried). */
    Packet
    makeResponse(const Packet &request)
    {
        Packet pkt;
        pkt.id = nextId_++;
        pkt.type = responseFor(request.type);
        pkt.src = request.dst;
        pkt.dst = request.src;
        pkt.sizeFlits = spec_.packetFlits(pkt.type, cacheLineBytes_);
        pkt.issueCycle = request.issueCycle;
        pkt.reqId = request.id;
        return pkt;
    }

    const ChannelSpec &spec() const { return spec_; }
    std::uint32_t cacheLineBytes() const { return cacheLineBytes_; }

    /** Flits in a cache-line packet (the paper's "cl"). */
    std::uint32_t
    cacheLineFlits() const
    {
        return spec_.cacheLineFlits(cacheLineBytes_);
    }

    /** Checkpoint the next id to be assigned (the only state). */
    template <class Io, class Self>
    static void
    layout(Io &io, Self &self)
    {
        io.u64(self.nextId_);
    }

  private:
    ChannelSpec spec_;
    std::uint32_t cacheLineBytes_;
    PacketId nextId_ = 1;
};

} // namespace hrsim

#endif // HRSIM_PROTO_PACKET_FACTORY_HH
