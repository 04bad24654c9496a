/**
 * @file
 * Shared field layouts for the checkpoint subsystem.
 *
 * Components serialize protocol objects (packets, flits), RNG
 * streams, and the staged-FIFO containers through these helpers so
 * every use site encodes identical byte layouts. Each helper takes a
 * CkptWriter or a CkptReader (codec.hh) and names its fields once for
 * both. FIFO snapshots are canonical re-packs: the save walks the
 * visible region in FIFO order and the load re-inserts from a cleared
 * queue, so physical head/tail positions — unobservable by the
 * simulation — never reach the file, and two runs whose queues hold
 * the same elements produce the same bytes regardless of wrap
 * history.
 *
 * Tick-boundary precondition: all FIFO helpers assume staged == 0 and
 * poppedThisCycle == 0 (between commit and the next evaluate), which
 * System::saveCheckpoint guarantees.
 */

#ifndef HRSIM_CKPT_STATE_IO_HH
#define HRSIM_CKPT_STATE_IO_HH

#include <string>

#include "ckpt/codec.hh"
#include "common/rng.hh"
#include "proto/packet.hh"
#include "proto/packet_table.hh"

namespace hrsim
{

template <class Io, class P>
void
ckptPacket(Io &io, P &pkt)
{
    io.u64(pkt.id);
    io.enumerant(pkt.type, "packet type", PacketType::WriteResponse);
    io.i32(pkt.src);
    io.i32(pkt.dst);
    io.u32(pkt.sizeFlits);
    io.u64(pkt.issueCycle);
    io.u64(pkt.reqId);
}

inline void
savePacket(CkptWriter &w, const Packet &pkt)
{
    ckptPacket(w, pkt);
}

inline Packet
loadPacket(CkptReader &r)
{
    Packet pkt;
    ckptPacket(r, pkt);
    return pkt;
}

/**
 * A flit as the file holds it: the flit's own fields next to its
 * packet's id, source, issue cycle and request id from the network's
 * PacketTable, so the bytes never depend on a table slot number.
 */
struct FlitFields
{
    PacketRecord meta;
    std::uint32_t index = 0;
    std::uint32_t sizeFlits = 0;
    NodeId dst = invalidNode;
    PacketType type = PacketType::ReadRequest;
    std::uint16_t ttl = 0;
    bool poisoned = false;
};

/**
 * Refuses sizes outside [1, maxPacketFlits] and an index not below
 * the size, on save and load alike.
 */
template <class Io, class F>
void
ckptFlitFields(Io &io, F &rec)
{
    io.u64(rec.meta.id);
    io.u32(rec.index);
    io.u32(rec.sizeFlits);
    if (rec.sizeFlits == 0 || rec.sizeFlits > maxPacketFlits) {
        throw CheckpointError("checkpoint: flit sizeFlits " +
                              std::to_string(rec.sizeFlits) +
                              " outside [1, " +
                              std::to_string(maxPacketFlits) + "]");
    }
    if (rec.index >= rec.sizeFlits) {
        throw CheckpointError("checkpoint: flit index " +
                              std::to_string(rec.index) +
                              " not below its sizeFlits " +
                              std::to_string(rec.sizeFlits));
    }
    io.i32(rec.dst);
    io.i32(rec.meta.src);
    io.enumerant(rec.type, "flit type", PacketType::WriteResponse);
    io.u64(rec.meta.issueCycle);
    io.u64(rec.meta.reqId);
    io.u16(rec.ttl);
    io.boolean(rec.poisoned);
}

/**
 * Decode one flit and re-intern it into @a table by packet id
 * (between PacketTable::beginLoad() and endLoad()). Refuses a
 * destination that is not one of the restoring network's PMs and a
 * flit whose packet metadata disagrees with an earlier flit of the
 * same id.
 */
inline Flit
loadFlit(CkptReader &r, PacketTable &table)
{
    FlitFields rec;
    ckptFlitFields(r, rec);
    if (rec.dst < 0 || rec.dst >= table.loadPms()) {
        throw CheckpointError("checkpoint: flit dst " +
                              std::to_string(rec.dst) +
                              " is not a PM of the restoring network "
                              "(PMs 0.." +
                              std::to_string(table.loadPms() - 1) + ")");
    }
    Flit flit;
    flit.index = static_cast<std::uint16_t>(rec.index);
    flit.sizeFlits = static_cast<std::uint16_t>(rec.sizeFlits);
    flit.dst = rec.dst;
    flit.type = rec.type;
    flit.ttl = rec.ttl;
    flit.poisoned = rec.poisoned;
    if (const char *field = table.intern(flit, rec.meta)) {
        throw CheckpointError("checkpoint: flits of packet " +
                              std::to_string(rec.meta.id) +
                              " disagree on " + field);
    }
    return flit;
}

/** A flit field: saved whole, re-interned on load (loadFlit()). */
inline void
ckptFlit(CkptWriter &w, const Flit &flit, const PacketTable &table)
{
    const FlitFields rec{table.record(flit.slot), flit.index,
                         flit.sizeFlits, flit.dst, flit.type, flit.ttl,
                         flit.poisoned};
    ckptFlitFields(w, rec);
}

inline void
ckptFlit(CkptReader &r, Flit &flit, PacketTable &table)
{
    flit = loadFlit(r, table);
}

/** A staged FIFO of flits (count + flits in FIFO order). */
template <class Io, class Fifo>
void
ckptFlitFifo(Io &io, Fifo &fifo, PacketTable &table)
{
    io.fifo(fifo, [&table](auto &io_, auto &flit) {
        ckptFlit(io_, flit, table);
    });
}

template <class Io, class R>
void
ckptRng(Io &io, R &rng)
{
    for (auto &word : rng.state())
        io.u64(word);
}

} // namespace hrsim

#endif // HRSIM_CKPT_STATE_IO_HH
