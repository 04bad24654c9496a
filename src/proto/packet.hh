/**
 * @file
 * Packets and flits of the simulated memory-access protocol.
 *
 * Four packet types are simulated, as in the paper: read request,
 * read response, write request and write response. Packets are
 * variable-sized and travel as contiguous sequences of flits. Sizing
 * follows Section 2 of the paper exactly:
 *
 *  - Rings: 128-bit (16 B) channels, 1-flit headers. A packet that
 *    carries a cache line is 1 + line/16 flits (2/3/5/9 flits for
 *    16/32/64/128 B lines); header-only packets are 1 flit.
 *  - Meshes: 32-bit (4 B) channels, 4-flit headers. Cache-line
 *    packets are 4 + line/4 flits (8/12/20/36); header-only packets
 *    are 4 flits.
 *
 * No distinction is made between phits and flits.
 */

#ifndef HRSIM_PROTO_PACKET_HH
#define HRSIM_PROTO_PACKET_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace hrsim
{

/** The four simulated packet types. */
enum class PacketType : std::uint8_t
{
    ReadRequest,
    ReadResponse,
    WriteRequest,
    WriteResponse,
};

/** True for the two request types. */
bool isRequest(PacketType type);

/** True for packet types that carry a cache line of data. */
bool carriesData(PacketType type);

/** Response type matching a request type. */
PacketType responseFor(PacketType request);

/** Human-readable name, for traces and tests. */
std::string toString(PacketType type);

/** Channel geometry of a network, fixing flit and header sizes. */
struct ChannelSpec
{
    std::uint32_t flitBytes;   //!< channel (data path) width in bytes
    std::uint32_t headerFlits; //!< flits consumed by the packet header

    /** The ring spec from the paper: 128-bit channel, 1-flit header. */
    static constexpr ChannelSpec ring() { return {16, 1}; }

    /** The mesh spec from the paper: 32-bit channel, 4-flit header. */
    static constexpr ChannelSpec mesh() { return {4, 4}; }

    /** Flits in a packet of @a type for @a cache_line_bytes lines. */
    std::uint32_t packetFlits(PacketType type,
                              std::uint32_t cache_line_bytes) const;

    /** Flits in a packet carrying a cache line (the paper's "cl"). */
    std::uint32_t cacheLineFlits(std::uint32_t cache_line_bytes) const;
};

/**
 * Metadata of one in-flight packet. The simulator is flit-accurate
 * but data-free: packets carry no payload bytes, only sizes.
 */
struct Packet
{
    PacketId id = 0;
    PacketType type = PacketType::ReadRequest;
    NodeId src = invalidNode;
    NodeId dst = invalidNode;
    std::uint32_t sizeFlits = 0;
    /** Cycle the original request was issued (for round-trip time). */
    Cycle issueCycle = 0;
    /**
     * Id of the request packet a response answers (0 for requests).
     * Lets a processor with a retry engine match a response to the
     * pending transaction even after the request was reissued under
     * a different packet id.
     */
    PacketId reqId = 0;
};

/**
 * One flit in flight: 16 bytes, the same type on the wormhole ring,
 * the slotted ring and the mesh. A flit carries only what a hop
 * reads — routing (dst, type), worm position (index, sizeFlits) and
 * the fault/broadcast marks. The rest of its packet's metadata (id,
 * source, issue cycle, answered request) lives once per packet in
 * the owning network's PacketTable, at @ref slot; only ejection,
 * tracing and checkpoints look it up there (proto/packet_table.hh).
 */
struct Flit
{
    std::uint32_t slot = 0;      //!< the packet's PacketTable slot
    NodeId dst = invalidNode;
    std::uint16_t index = 0;     //!< position within the packet
    std::uint16_t sizeFlits = 0; //!< total flits in the packet
    /**
     * Remaining ring hops of a broadcast cell (slotted mode), or the
     * occupancy debt a wormhole kill token carries (RingSideFaults).
     */
    std::uint16_t ttl = 0;
    PacketType type = PacketType::ReadRequest;
    /**
     * Header corrupted by a fault window. The flag is sticky for the
     * whole worm (the head's poisoning spreads to every flit behind
     * it at the faulted link) and makes the receiver drop the packet
     * at ejection instead of delivering it.
     */
    bool poisoned = false;

    bool isHead() const { return index == 0; }
    bool isTail() const { return index + 1 == sizeFlits; }
    bool isBroadcast() const { return dst == broadcastNode; }
};

static_assert(sizeof(Flit) == 16, "a flit is 16 bytes");

/** Largest packet a Flit's 16-bit index/sizeFlits fields can carry. */
constexpr std::uint32_t maxPacketFlits = 0xFFFF;

/**
 * Largest supported cache line: the mesh's cache-line packet (the
 * larger of the two networks', 4-flit header plus 4-byte flits) must
 * fit maxPacketFlits, rounded down to a multiple of the ring's
 * 16-byte flit.
 */
constexpr std::uint32_t maxCacheLineBytes =
    (maxPacketFlits - ChannelSpec::mesh().headerFlits) *
    ChannelSpec::mesh().flitBytes / ChannelSpec::ring().flitBytes *
    ChannelSpec::ring().flitBytes;

/**
 * Can both networks carry @a bytes-byte cache lines? True for a
 * positive multiple of 16 (a whole number of flits on either
 * channel) up to maxCacheLineBytes.
 */
constexpr bool
cacheLineSupported(std::uint32_t bytes)
{
    return bytes != 0 && bytes % ChannelSpec::ring().flitBytes == 0 &&
           bytes <= maxCacheLineBytes;
}

/** Build the @a index-th flit of @a packet, which holds @a slot. */
Flit makeFlit(const Packet &packet, std::uint32_t slot,
              std::uint32_t index);

} // namespace hrsim

#endif // HRSIM_PROTO_PACKET_HH
