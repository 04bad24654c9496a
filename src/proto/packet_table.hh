/**
 * @file
 * Per-network table of in-flight packets.
 *
 * A Flit carries only what a hop reads. The metadata that only
 * ejection, tracing and checkpoints need — packet id, source, issue
 * cycle, answered request — lives here once per packet, at the slot
 * each of its flits names. Every Network owns one table (no global
 * or thread-local state, so concurrent sweep workers never share
 * one).
 *
 * Slot lifetime: a slot is taken when its packet is injected, with
 * every flit live, and returned when the last of its flits leaves
 * the network — ejection (delivered or poisoned), a kill drop at a
 * dead link, or a slotted cell's retirement. A kill token replaces
 * the flit it is cut from, so it keeps the count; a broadcast copy
 * pushed into another ring's queue adds one. Free slots are reused
 * LIFO, so the table stays as small as the in-flight population and
 * a new packet gets the most recently freed (cache-hot) record.
 *
 * No output depends on a slot number: checkpoints encode whole
 * flits, packet id included, and a load re-interns them by id
 * (beginLoad()/intern()/endLoad()).
 */

#ifndef HRSIM_PROTO_PACKET_TABLE_HH
#define HRSIM_PROTO_PACKET_TABLE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "proto/packet.hh"

namespace hrsim
{

/** One in-flight packet's table record. */
struct PacketRecord
{
    PacketId id = 0;
    PacketId reqId = 0;
    Cycle issueCycle = 0;
    NodeId src = invalidNode;
    std::uint32_t live = 0; //!< the packet's flits still in the network
};

class PacketTable
{
  public:
    /** "No such slot" (slotOf() on an id that is not in flight). */
    static constexpr std::uint32_t noSlot = 0xFFFFFFFFu;

    /** Take a slot for @a pkt, with all of its flits live. */
    std::uint32_t
    acquire(const Packet &pkt)
    {
        std::uint32_t slot;
        if (free_.empty()) {
            slot = static_cast<std::uint32_t>(records_.size());
            records_.emplace_back();
        } else {
            slot = free_.back();
            free_.pop_back();
        }
        records_[slot] = PacketRecord{pkt.id, pkt.reqId, pkt.issueCycle,
                                      pkt.src, pkt.sizeFlits};
        return slot;
    }

    /**
     * One of @a slot's flits left the network. Returns true when it
     * was the last one, i.e. the slot is free again.
     */
    bool
    release(std::uint32_t slot)
    {
        PacketRecord &rec = records_[slot];
        HRSIM_ASSERT(rec.live > 0);
        if (--rec.live != 0)
            return false;
        free_.push_back(slot);
        return true;
    }

    /** A broadcast copy of one of @a slot's flits entered a queue. */
    void
    addCopy(std::uint32_t slot)
    {
        HRSIM_ASSERT(records_[slot].live > 0);
        ++records_[slot].live;
    }

    const PacketRecord &
    record(std::uint32_t slot) const
    {
        HRSIM_ASSERT(slot < records_.size());
        return records_[slot];
    }

    PacketId id(std::uint32_t slot) const { return record(slot).id; }

    /** The packet @a flit belongs to, rebuilt from flit + record. */
    Packet
    packet(const Flit &flit) const
    {
        const PacketRecord &rec = record(flit.slot);
        Packet pkt;
        pkt.id = rec.id;
        pkt.type = flit.type;
        pkt.src = rec.src;
        pkt.dst = flit.dst;
        pkt.sizeFlits = flit.sizeFlits;
        pkt.issueCycle = rec.issueCycle;
        pkt.reqId = rec.reqId;
        return pkt;
    }

    /** Flits of all packets still in the network. */
    std::uint64_t liveFlits() const;

    /** Slots currently held by in-flight packets. */
    std::size_t
    liveSlots() const
    {
        return records_.size() - free_.size();
    }

    /**
     * Checkpoint load, step 1: forget every packet. The network
     * re-interns each decoded flit, then calls endLoad(). Decoded
     * flits must be headed to one of the network's @a num_pms PMs.
     */
    void beginLoad(NodeId num_pms);

    /** PMs a decoded flit may be headed to: ids [0, loadPms()). */
    NodeId loadPms() const { return loadPms_; }

    /**
     * Checkpoint load, step 2: count one decoded flit of the packet
     * @a meta describes (its id, source, issue cycle and request id;
     * live is ignored), taking a slot the first time the id is seen,
     * and store that slot in @a flit. Returns the name of the first
     * field on which the flit disagrees with earlier flits of the
     * same id, or nullptr when it is consistent.
     */
    const char *intern(Flit &flit, const PacketRecord &meta);

    /** Slot of in-flight packet @a id during a load, else noSlot. */
    std::uint32_t slotOf(PacketId id) const;

    /** Checkpoint load, step 3: drop the id index. */
    void endLoad();

  private:
    /** What every flit of one packet must agree on (load check). */
    struct LoadEntry
    {
        std::uint32_t slot;
        NodeId dst;
        std::uint16_t sizeFlits;
        PacketType type;
    };

    std::vector<PacketRecord> records_;
    std::vector<std::uint32_t> free_; //!< LIFO stack of free slots
    std::unordered_map<PacketId, LoadEntry> loadIndex_;
    NodeId loadPms_ = 0;
};

} // namespace hrsim

#endif // HRSIM_PROTO_PACKET_TABLE_HH
