/**
 * @file
 * Inter-Ring Interface (Figure 4 of the paper).
 *
 * An IRI joins a child ("lower") ring to its parent ("upper") ring
 * and is modelled, as in the paper, as a 2x2 crossbar with:
 *  - a packet-sized transit (ring) buffer per ring, absorbing flits
 *    that continue on the same ring while its output is busy;
 *  - up and down buffers, each split into request and response
 *    queues, carrying ring-changing packets; they also serve as the
 *    clock-domain crossing when the global ring is double-clocked.
 *
 * Routing needs only the IRI's subtree: a packet on the lower ring
 * goes up iff its destination lies outside the subtree; a packet on
 * the upper ring comes down iff its destination lies inside.
 * Switching happens independently on the two sides, and packets that
 * stay on their ring have priority over ring-changing ones.
 *
 * A ring-changing worm is diverted into its up/down queue only when
 * the whole packet fits, so a diverting worm never stalls the ring
 * mid-transfer; when the queue is full the worm waits in place
 * (back-pressuring its ring, exactly as the paper's flow control
 * does) and retries every cycle. A worm that has waited longer than
 * the wait limit takes one lap around its current ring instead and
 * retries on return: an indefinitely blocked latch would stop the
 * ring rotating and let head-of-line jams close into cross-level
 * deadlock cycles at extreme oversaturation. The decision is made
 * once per worm, at its head flit, so worms are never split.
 * Deadlock freedom also relies on the network's phase-based
 * ring-admission gates and the anti-starvation valve on IRI outputs
 * (see RingOccupancy).
 */

#ifndef HRSIM_RING_RING_IRI_HH
#define HRSIM_RING_RING_IRI_HH

#include <iosfwd>

#include "common/types.hh"
#include "proto/packet.hh"
#include "ring/ring_node.hh"

namespace hrsim
{

class RingIri
{
  public:
    /**
     * @param subtree_lo First PM id below this IRI.
     * @param subtree_hi One past the last PM id below this IRI.
     * @param cl_flits Flits in a cache-line packet (buffer depth).
     * @param wait_limit Cycles a blocked worm holds its latch before
     *        escaping with a recirculation lap (0 = escape at once).
     * @param packets The network's packet table (route decisions
     *        and escape bookkeeping key heads by packet id).
     * @param queue_packets Up/down queue depth in packets (paper: 1).
     */
    RingIri(NodeId subtree_lo, NodeId subtree_hi,
            std::uint32_t cl_flits, std::uint32_t wait_limit,
            PacketTable *packets, std::uint32_t queue_packets = 1);

    RingIri(const RingIri &) = delete;
    RingIri &operator=(const RingIri &) = delete;
    RingIri(RingIri &&) = delete;
    RingIri &operator=(RingIri &&) = delete;

    /** Phase A flags, one per side. */
    void computeAcceptanceLower();
    void computeAcceptanceUpper();

    /** Phase B: switch the lower-ring side. */
    void evaluateLower();

    /** Phase B: switch the upper-ring side. */
    void evaluateUpper();

    /** Commit state owned by the lower (system-clock) domain. */
    void commitLower();

    /** Commit state owned by the upper ring's clock domain. */
    void commitUpper();

    /** Non-head flits both outputs streamed. */
    std::uint64_t streamedFlits() const
    {
        return lower_.out.streamedFlits() +
               upper_.out.streamedFlits();
    }

    /**
     * Checkpoint hooks (tick boundary): both sides, the four transfer
     * queues, and the per-side routing memos / wait / escape state —
     * a worm mid-divert or mid-escape must resume its decision, not
     * re-route.
     */
    void
    saveState(CkptWriter &w) const
    {
        const auto save_memo = [&w](const RouteMemo &memo) {
            w.u64(memo.packet);
            w.boolean(memo.valid);
            w.u8(static_cast<std::uint8_t>(memo.route));
        };
        const auto save_wait = [&w](const WaitState &wait) {
            w.u64(wait.packet);
            w.u32(wait.cycles);
        };
        save_memo(lowerMemo_);
        save_memo(upperMemo_);
        save_wait(lowerWait_);
        save_wait(upperWait_);
        w.u64(lowerEscaped_);
        w.u64(upperEscaped_);
        w.u64(waitCycles_);
        w.u64(escapes_);
        lower_.saveState(w, *packets_);
        upper_.saveState(w, *packets_);
        saveFlitFifo(w, upResp_, *packets_);
        saveFlitFifo(w, upReq_, *packets_);
        saveFlitFifo(w, downResp_, *packets_);
        saveFlitFifo(w, downReq_, *packets_);
    }

    void
    loadState(CkptReader &r)
    {
        const auto load_memo = [&r](RouteMemo &memo) {
            memo.packet = r.u64();
            memo.valid = r.boolean();
            memo.route = r.enumerant("IRI worm route", WormRoute::Wait);
        };
        const auto load_wait = [&r](WaitState &wait) {
            wait.packet = r.u64();
            wait.cycles = r.u32();
        };
        load_memo(lowerMemo_);
        load_memo(upperMemo_);
        load_wait(lowerWait_);
        load_wait(upperWait_);
        lowerEscaped_ = r.u64();
        upperEscaped_ = r.u64();
        waitCycles_ = r.u64();
        escapes_ = r.u64();
        lower_.loadState(r, *packets_);
        upper_.loadState(r, *packets_);
        loadFlitFifo(r, upResp_, *packets_);
        loadFlitFifo(r, upReq_, *packets_);
        loadFlitFifo(r, downResp_, *packets_);
        loadFlitFifo(r, downReq_, *packets_);
    }

    /**
     * After every component's flits are re-interned: resolve the
     * slots of the worms named by packet id (both outputs' held
     * worms and the route memos; a memo whose packet has left the
     * network gets noSlot, which no flit carries).
     */
    void
    bindLoadedWorms()
    {
        lower_.out.bindLoadedWorm();
        upper_.out.bindLoadedWorm();
        lowerMemo_.slot = packets_->slotOf(lowerMemo_.packet);
        upperMemo_.slot = packets_->slotOf(upperMemo_.packet);
    }

    RingSide &lower() { return lower_; }
    RingSide &upper() { return upper_; }
    const RingSide &lower() const { return lower_; }
    const RingSide &upper() const { return upper_; }

    bool
    inSubtree(NodeId pm) const
    {
        return pm >= subtreeLo_ && pm < subtreeHi_;
    }

    NodeId subtreeLo() const { return subtreeLo_; }
    NodeId subtreeHi() const { return subtreeHi_; }

    /** Flits currently buffered in this IRI. */
    std::uint64_t flitCount() const;

    /**
     * flitCount() == 0, but short-circuiting: the end-of-tick sleep
     * sweep polls every awake component each cycle, and at
     * saturation the first load answers the question.
     */
    bool
    empty() const
    {
        return !lower_.in().cur && !lower_.in().staged &&
               !upper_.in().cur && !upper_.in().staged &&
               lower_.transitBuf.totalSize() == 0 &&
               upper_.transitBuf.totalSize() == 0 &&
               upResp_.totalSize() == 0 && upReq_.totalSize() == 0 &&
               downResp_.totalSize() == 0 && downReq_.totalSize() == 0;
    }

    /**
     * Put the (empty) IRI into its sleeping rest state: both sides
     * accept (an empty latch always computes accept = true) and no
     * escape lap is armed (the quiescent evaluate paths clear the
     * escape markers every cycle; an empty IRI has no worm to
     * escape). Skipping an asleep IRI's ticks is then invisible.
     */
    void
    prepareSleep()
    {
        lower_.accept() = true;
        upper_.accept() = true;
        lowerEscaped_ = 0;
        upperEscaped_ = 0;
    }

    /**
     * Attach per-side fault state and the network's shared
     * conservation ledger (all owned by the network; null = the
     * fault-free fast case). Also wires both ring outputs.
     */
    void
    setFaultState(RingSideFaults *lower, RingSideFaults *upper,
                  FaultAccounting *acct)
    {
        lowerFaults_ = lower;
        upperFaults_ = upper;
        lower_.out.setFaultState(lower, acct);
        upper_.out.setFaultState(upper, acct);
    }

    /**
     * Must this IRI stay in the active set even while empty? A
     * stalled side pins the IRI awake so its acceptance flag is
     * recomputed (sleeping rests at accept = true, the opposite of
     * what a stall advertises) and the network never fast-forwards
     * across the stall window.
     */
    bool
    faultPinned() const
    {
        return (lowerFaults_ && lowerFaults_->stalled) ||
               (upperFaults_ && upperFaults_->stalled);
    }

    /** One-line buffer state (stall diagnostics). */
    void debugDump(std::ostream &out) const;

    /** Cumulative cycles worms spent blocked on full queues. */
    std::uint64_t waitCycles() const { return waitCycles_; }

    /** Recirculation-escape laps taken. */
    std::uint64_t escapes() const { return escapes_; }

    /** Route chosen for the worm currently arriving on a side. */
    enum class WormRoute : std::uint8_t
    {
        Continue,   //!< stay on the current ring
        ChangeRing, //!< divert into the up/down queue
        Wait,       //!< queue full: hold the latch and retry
    };

  private:
    StagedFifo<Flit> &upQueue(PacketType type);
    StagedFifo<Flit> &downQueue(PacketType type);

    /**
     * Per-side memo of the incoming worm's routing decision. Keyed by
     * packet id for the checkpoint (the memo outlives its packet);
     * body flits check it by slot.
     */
    struct RouteMemo
    {
        PacketId packet = 0;
        std::uint32_t slot = 0;
        bool valid = false;
        WormRoute route = WormRoute::Continue;
    };

    /** Cycles a blocked head has been holding a latch. */
    struct WaitState
    {
        PacketId packet = 0;
        std::uint32_t cycles = 0;
    };

    /**
     * Route of the latch flit on the lower side, deciding once per
     * worm: ring-changing packets divert when the whole packet fits
     * in the queue, wait (holding the latch) while it does not, and
     * recirculate once the wait limit is exceeded.
     *
     * @param count_wait Advance the wait counter (set only by the
     *        once-per-cycle acceptance computation).
     */
    WormRoute routeLower(const Flit &flit, bool count_wait = false);

    /** Same for the upper side. */
    WormRoute routeUpper(const Flit &flit, bool count_wait = false);

    NodeId subtreeLo_;
    NodeId subtreeHi_;
    std::uint32_t waitLimit_;
    PacketTable *packets_;

    RouteMemo lowerMemo_;
    RouteMemo upperMemo_;
    WaitState lowerWait_;
    WaitState upperWait_;
    /** Head currently committed to an escape lap (0 = none). */
    PacketId lowerEscaped_ = 0;
    PacketId upperEscaped_ = 0;

    std::uint64_t waitCycles_ = 0;
    std::uint64_t escapes_ = 0;

    RingSide lower_;
    RingSide upper_;

    StagedFifo<Flit> upResp_;
    StagedFifo<Flit> upReq_;
    StagedFifo<Flit> downResp_;
    StagedFifo<Flit> downReq_;

    /** Per-side fault state; null (the fast case) without a plan. */
    const RingSideFaults *lowerFaults_ = nullptr;
    const RingSideFaults *upperFaults_ = nullptr;

    RingStreamSource lowerRingSource_;
    RingStreamSource upperRingSource_;
    QueueSource upRespSource_;
    QueueSource upReqSource_;
    QueueSource downRespSource_;
    QueueSource downReqSource_;
};

} // namespace hrsim

#endif // HRSIM_RING_RING_IRI_HH
