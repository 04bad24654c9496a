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

#include "ckpt/codec.hh"
#include "common/rng.hh"
#include "proto/packet.hh"

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

inline void
saveFlit(CkptWriter &w, const Flit &flit)
{
    w.u64(flit.packet);
    w.u32(flit.index);
    w.u32(flit.sizeFlits);
    w.i32(flit.dst);
    w.i32(flit.src);
    w.u8(static_cast<std::uint8_t>(flit.type));
    w.u64(flit.issueCycle);
    w.u64(flit.reqId);
    w.u16(flit.ttl);
    w.boolean(flit.poisoned);
}

inline Flit
loadFlit(CkptReader &r)
{
    Flit flit;
    flit.packet = r.u64();
    flit.index = r.u32();
    flit.sizeFlits = r.u32();
    flit.dst = r.i32();
    flit.src = r.i32();
    flit.type = r.enumerant("flit type", PacketType::WriteResponse);
    flit.issueCycle = r.u64();
    flit.reqId = r.u64();
    flit.ttl = r.u16();
    flit.poisoned = r.boolean();
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
 * Works for StagedFifo, ColumnFifo, and RingDeque (size()/at()).
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

inline void
saveFlitFifoElem(CkptWriter &w, const Flit &flit)
{
    saveFlit(w, flit);
}

template <typename Fifo>
void
saveFlitFifo(CkptWriter &w, const Fifo &fifo)
{
    saveFifo(w, fifo,
             [](CkptWriter &out, const Flit &f) { saveFlit(out, f); });
}

template <typename Fifo>
void
loadFlitFifo(CkptReader &r, Fifo &fifo)
{
    loadStagedFifo(r, fifo,
                   [](CkptReader &in) { return loadFlit(in); });
}

} // namespace hrsim

#endif // HRSIM_CKPT_STATE_IO_HH
