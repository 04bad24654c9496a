#include "proto/packet.hh"

#include "common/log.hh"

namespace hrsim
{

bool
isRequest(PacketType type)
{
    return type == PacketType::ReadRequest ||
           type == PacketType::WriteRequest;
}

bool
carriesData(PacketType type)
{
    // Read responses return the line; write requests deliver it.
    return type == PacketType::ReadResponse ||
           type == PacketType::WriteRequest;
}

PacketType
responseFor(PacketType request)
{
    switch (request) {
      case PacketType::ReadRequest:
        return PacketType::ReadResponse;
      case PacketType::WriteRequest:
        return PacketType::WriteResponse;
      default:
        HRSIM_PANIC("responseFor() called on a response type");
    }
}

std::string
toString(PacketType type)
{
    switch (type) {
      case PacketType::ReadRequest:
        return "ReadRequest";
      case PacketType::ReadResponse:
        return "ReadResponse";
      case PacketType::WriteRequest:
        return "WriteRequest";
      case PacketType::WriteResponse:
        return "WriteResponse";
    }
    return "Unknown";
}

std::uint32_t
ChannelSpec::cacheLineFlits(std::uint32_t cache_line_bytes) const
{
    HRSIM_ASSERT(flitBytes > 0);
    HRSIM_ASSERT(cache_line_bytes % flitBytes == 0);
    return headerFlits + cache_line_bytes / flitBytes;
}

std::uint32_t
ChannelSpec::packetFlits(PacketType type,
                         std::uint32_t cache_line_bytes) const
{
    return carriesData(type) ? cacheLineFlits(cache_line_bytes)
                             : headerFlits;
}

Flit
makeFlit(const Packet &packet, std::uint32_t slot, std::uint32_t index)
{
    HRSIM_ASSERT(index < packet.sizeFlits);
    HRSIM_ASSERT(packet.sizeFlits <= maxPacketFlits);
    Flit flit;
    flit.slot = slot;
    flit.dst = packet.dst;
    flit.index = static_cast<std::uint16_t>(index);
    flit.sizeFlits = static_cast<std::uint16_t>(packet.sizeFlits);
    flit.type = packet.type;
    return flit;
}

} // namespace hrsim
