/**
 * @file
 * Shared field-level encoders for the checkpoint subsystem.
 *
 * Components serialize protocol objects (packets, flits), RNG
 * streams, and the staged-FIFO containers through these helpers so
 * every use site encodes identical byte layouts. FIFO snapshots are
 * canonical re-packs: the save walks the visible region in FIFO order
 * and the load re-inserts from a cleared queue, so physical
 * head/tail positions — unobservable by the simulation — never reach
 * the file, and two runs whose queues hold the same elements produce
 * the same bytes regardless of wrap history.
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

inline void
savePacket(CkptWriter &w, const Packet &pkt)
{
    w.u64(pkt.id);
    w.u8(static_cast<std::uint8_t>(pkt.type));
    w.i32(pkt.src);
    w.i32(pkt.dst);
    w.u32(pkt.sizeFlits);
    w.u64(pkt.issueCycle);
    w.u64(pkt.reqId);
}

inline Packet
loadPacket(CkptReader &r)
{
    Packet pkt;
    pkt.id = r.u64();
    pkt.type = r.enumerant("packet type", PacketType::WriteResponse);
    pkt.src = r.i32();
    pkt.dst = r.i32();
    pkt.sizeFlits = r.u32();
    pkt.issueCycle = r.u64();
    pkt.reqId = r.u64();
    return pkt;
}

/**
 * Flits are encoded whole — packet id, source, issue cycle and
 * request id from the network's PacketTable next to the flit's own
 * fields — so the bytes never depend on a table slot number.
 */
inline void
saveFlit(CkptWriter &w, const Flit &flit, const PacketTable &table)
{
    const PacketRecord &rec = table.record(flit.slot);
    w.u64(rec.id);
    w.u32(flit.index);
    w.u32(flit.sizeFlits);
    w.i32(flit.dst);
    w.i32(rec.src);
    w.u8(static_cast<std::uint8_t>(flit.type));
    w.u64(rec.issueCycle);
    w.u64(rec.reqId);
    w.u16(flit.ttl);
    w.boolean(flit.poisoned);
}

/**
 * Decode one flit and re-intern it into @a table by packet id
 * (between PacketTable::beginLoad() and endLoad()). Refuses sizes
 * outside [1, maxPacketFlits], an index not below the size, a
 * destination that is not one of the restoring network's PMs, and a
 * flit whose packet metadata disagrees with an earlier flit of the
 * same id.
 */
inline Flit
loadFlit(CkptReader &r, PacketTable &table)
{
    PacketRecord meta;
    meta.id = r.u64();
    const std::uint32_t index = r.u32();
    const std::uint32_t size = r.u32();
    if (size == 0 || size > maxPacketFlits) {
        throw CheckpointError("checkpoint: flit sizeFlits " +
                              std::to_string(size) + " outside [1, " +
                              std::to_string(maxPacketFlits) + "]");
    }
    if (index >= size) {
        throw CheckpointError("checkpoint: flit index " +
                              std::to_string(index) +
                              " not below its sizeFlits " +
                              std::to_string(size));
    }
    Flit flit;
    flit.index = static_cast<std::uint16_t>(index);
    flit.sizeFlits = static_cast<std::uint16_t>(size);
    flit.dst = r.i32();
    if (flit.dst < 0 || flit.dst >= table.loadPms()) {
        throw CheckpointError("checkpoint: flit dst " +
                              std::to_string(flit.dst) +
                              " is not a PM of the restoring network "
                              "(PMs 0.." +
                              std::to_string(table.loadPms() - 1) + ")");
    }
    meta.src = r.i32();
    flit.type = r.enumerant("flit type", PacketType::WriteResponse);
    meta.issueCycle = r.u64();
    meta.reqId = r.u64();
    flit.ttl = r.u16();
    flit.poisoned = r.boolean();
    if (const char *field = table.intern(flit, meta)) {
        throw CheckpointError("checkpoint: flits of packet " +
                              std::to_string(meta.id) +
                              " disagree on " + field);
    }
    return flit;
}

inline void
saveRng(CkptWriter &w, const Rng &rng)
{
    for (const std::uint64_t word : rng.state())
        w.u64(word);
}

inline void
loadRng(CkptReader &r, Rng &rng)
{
    std::array<std::uint64_t, 4> s;
    for (std::uint64_t &word : s)
        word = r.u64();
    rng.setState(s);
}

/**
 * Canonical FIFO save: visible count + elements in FIFO order.
 * Works for StagedFifo and RingDeque (size()/at()).
 */
template <typename Fifo, typename SaveElem>
void
saveFifo(CkptWriter &w, const Fifo &fifo, SaveElem save_elem)
{
    const std::uint32_t count =
        static_cast<std::uint32_t>(fifo.size());
    w.u32(count);
    for (std::uint32_t i = 0; i < count; ++i)
        save_elem(w, fifo.at(i));
}

/**
 * Canonical re-pack load for staged FIFOs: clear, stage every
 * element, then commit so the contents are consumer-visible — the
 * state a tick-boundary save observed.
 */
template <typename Fifo, typename LoadElem>
void
loadStagedFifo(CkptReader &r, Fifo &fifo, LoadElem load_elem)
{
    fifo.clear();
    const std::uint32_t count = r.u32();
    if (count > fifo.capacity()) {
        throw CheckpointError(
            "checkpoint: FIFO snapshot deeper than the restoring "
            "queue's capacity (config mismatch)");
    }
    for (std::uint32_t i = 0; i < count; ++i)
        fifo.push(load_elem(r));
    fifo.commit();
}

template <typename Fifo>
void
saveFlitFifo(CkptWriter &w, const Fifo &fifo, const PacketTable &table)
{
    saveFifo(w, fifo, [&table](CkptWriter &out, const Flit &f) {
        saveFlit(out, f, table);
    });
}

template <typename Fifo>
void
loadFlitFifo(CkptReader &r, Fifo &fifo, PacketTable &table)
{
    loadStagedFifo(r, fifo,
                   [&table](CkptReader &in) { return loadFlit(in, table); });
}

} // namespace hrsim

#endif // HRSIM_CKPT_STATE_IO_HH
