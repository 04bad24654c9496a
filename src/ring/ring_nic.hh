/**
 * @file
 * Ring Network Interface Controller (Figure 3 of the paper).
 *
 * The NIC connects a processing module to its local ring. It
 *  1. sinks arriving flits destined for the local PM into the input
 *     queues (delivering the packet on its tail flit),
 *  2. forwards continuing flits to the output link, bypassing the
 *     ring buffer when it is empty, or absorbing them into the
 *     (packet-sized) ring buffer while the output transmits a local
 *     packet,
 *  3. injects PM packets from the split request/response output
 *     queues when no ring traffic wants the link, responses first.
 *
 * Ring transit traffic has absolute priority for the output link, as
 * in the paper; worms are never interleaved.
 */

#ifndef HRSIM_RING_RING_NIC_HH
#define HRSIM_RING_RING_NIC_HH

#include <functional>
#include <iosfwd>

#include "common/types.hh"
#include "proto/packet.hh"
#include "ring/ring_node.hh"

namespace hrsim
{

class RingNic
{
  public:
    using DeliverFn = std::function<void(const Packet &, Cycle)>;

    /**
     * @param pm PM id this NIC serves.
     * @param cl_flits Flits in a cache-line packet (buffer depth).
     * @param bypass Enable the ring-buffer bypass path.
     * @param packets The network's packet table (slots are taken at
     *        inject and returned as flits sink here).
     */
    RingNic(NodeId pm, std::uint32_t cl_flits, bool bypass,
            PacketTable *packets);

    RingNic(const RingNic &) = delete;
    RingNic &operator=(const RingNic &) = delete;
    RingNic(RingNic &&) = delete;
    RingNic &operator=(RingNic &&) = delete;

    /** Phase A: publish whether upstream may send this cycle. */
    void computeAcceptance();

    /** Phase B: sink, forward, and inject. */
    void evaluate(Cycle now);

    /** May the PM inject @a pkt this cycle? */
    bool canInject(const Packet &pkt) const;

    /** Serialize @a pkt into the proper output queue. */
    void inject(const Packet &pkt);

    void setDeliver(DeliverFn fn) { deliver_ = std::move(fn); }

    NodeId pm() const { return pm_; }
    RingSide &side() { return side_; }
    const RingSide &side() const { return side_; }

    /** End-of-cycle commit of all NIC state. */
    void commit();

    /** Non-head flits this NIC's output streamed. */
    std::uint64_t streamedFlits() const
    {
        return side_.out.streamedFlits();
    }

    /**
     * Checkpoint hooks (tick boundary): the ring side plus the PM
     * output queues. The bypass source's latch-is-transit flag is
     * scratch — set and consumed inside evaluate() — so it has no
     * boundary state to save.
     */
    void
    saveState(CkptWriter &w) const
    {
        side_.saveState(w, *packets_);
        saveFlitFifo(w, outResp_, *packets_);
        saveFlitFifo(w, outReq_, *packets_);
    }

    void
    loadState(CkptReader &r)
    {
        side_.loadState(r, *packets_);
        loadFlitFifo(r, outResp_, *packets_);
        loadFlitFifo(r, outReq_, *packets_);
    }

    /**
     * After the whole network is loaded: refuse a worm shape the
     * next transmit would assert on (RingOutput::checkLoadedFronts).
     * The ring front is the first transit flit: the transit buffer's
     * front, else a latch flit that continues past this PM.
     */
    void
    checkLoadedFronts() const
    {
        const FlitSlot &latch = side_.in.cur;
        const Flit *ring = !side_.transitBuf.empty()
                               ? &side_.transitBuf.front()
                           : latch && isTransit(*latch) ? &*latch
                                                        : nullptr;
        side_.out.checkLoadedFronts(
            {ring, respSource_.peek(), reqSource_.peek()},
            "ring NIC " + std::to_string(pm_));
    }

    /** Flits currently buffered in this NIC. */
    std::uint64_t flitCount() const;

    /**
     * flitCount() == 0, but short-circuiting: the end-of-tick sleep
     * sweep polls every awake component each cycle, and at
     * saturation the first load answers the question.
     */
    bool
    empty() const
    {
        return !side_.in.cur && !side_.in.staged &&
               side_.transitBuf.totalSize() == 0 &&
               outResp_.totalSize() == 0 && outReq_.totalSize() == 0;
    }

    /**
     * Put the (empty) NIC into its sleeping rest state: the same
     * state a computeAcceptance/evaluate pass would leave an empty
     * NIC in every cycle, so skipping its ticks while asleep is
     * invisible. Called by the network's end-of-tick sleep sweep and
     * by its schedule reseed (construction, checkpoint load).
     */
    void
    prepareSleep()
    {
        // An empty latch always computes accept = true.
        side_.accept = true;
    }

    /**
     * Attach this NIC's fault state and the network's shared
     * conservation ledger (both owned by the network; null = the
     * fault-free fast case). Also wires the ring output.
     */
    void
    setFaultState(RingSideFaults *faults, FaultAccounting *acct)
    {
        faults_ = faults;
        acct_ = acct;
        side_.out.setFaultState(faults, acct);
    }

    /**
     * Must this NIC stay in the active set even while empty? A
     * stalled component pins itself awake so its acceptance flag is
     * recomputed (a sleeping NIC rests at accept = true, the
     * opposite of what a stall advertises) and the network never
     * fast-forwards across the stall window.
     */
    bool faultPinned() const { return faults_ && faults_->stalled; }

    /** One-line buffer state (stall diagnostics). */
    void debugDump(std::ostream &out) const;

  private:
    /** Is @a flit ring transit (not destined for this PM)? */
    bool isTransit(const Flit &flit) const { return flit.dst != pm_; }

    NodeId pm_;
    bool bypass_;
    RingSide side_;

    StagedFifo<Flit> outResp_;
    StagedFifo<Flit> outReq_;

    RingStreamSource ringSource_;
    QueueSource respSource_;
    QueueSource reqSource_;

    DeliverFn deliver_;
    PacketTable *packets_;
    /** Fault state + ledger; null (the fast case) without a plan. */
    const RingSideFaults *faults_ = nullptr;
    FaultAccounting *acct_ = nullptr;
};

} // namespace hrsim

#endif // HRSIM_RING_RING_NIC_HH
