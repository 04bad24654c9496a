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
 * stay on their ring have priority over ring-changing ones. The two
 * sides run the same rule, mirrored, so each is one IriHalf; the
 * only asymmetry is which side of the subtree boundary "continue"
 * means.
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

/** Route chosen for the worm currently arriving on an IRI side. */
enum class WormRoute : std::uint8_t
{
    Continue,   //!< stay on the current ring
    ChangeRing, //!< divert into the up/down queue
    Wait,       //!< queue full: hold the latch and retry
};

/**
 * One side of an IRI: the ring attachment point on the lower or the
 * upper ring, the two transfer queues it diverts ring-changing worms
 * into, and the two it drains onto its ring (the other side's divert
 * queues). The queues belong to the owning RingIri.
 */
class IriHalf
{
  public:
    /**
     * @param upper True for the side on the parent ring.
     * @param divert_resp / @p divert_req Queues this side diverts
     *        ring-changing responses / requests into.
     * @param drain_resp / @p drain_req Queues this side's output
     *        drains, after same-ring transit.
     */
    IriHalf(bool upper, NodeId subtree_lo, NodeId subtree_hi,
            std::uint32_t cl_flits, std::uint32_t wait_limit,
            PacketTable *packets, StagedFifo<Flit> &divert_resp,
            StagedFifo<Flit> &divert_req, StagedFifo<Flit> &drain_resp,
            StagedFifo<Flit> &drain_req);

    IriHalf(const IriHalf &) = delete;
    IriHalf &operator=(const IriHalf &) = delete;
    IriHalf(IriHalf &&) = delete;
    IriHalf &operator=(IriHalf &&) = delete;

    /**
     * Phase A: route the latch flit and publish the acceptance flag.
     * The route is kept for evaluate() in the same cycle: the latch
     * and the divert queue's producer space cannot change in between.
     */
    void computeAcceptance();

    /** Phase B: divert, drive the ring output, absorb into transit. */
    void evaluate();

    /** Commit the latch and the transit buffer. */
    void
    commit()
    {
        side_.in.commit();
        side_.transitBuf.commit();
    }

    RingSide &side() { return side_; }
    const RingSide &side() const { return side_; }

    /** Flits held in the latch and the transit buffer. */
    std::uint64_t
    flitCount() const
    {
        return side_.transitBuf.totalSize() + side_.in.cur.full +
               side_.in.staged.full;
    }

    bool
    empty() const
    {
        return !side_.in.cur && !side_.in.staged &&
               side_.transitBuf.totalSize() == 0;
    }

    /** The sleeping rest state: accept, no escape lap armed. */
    void
    prepareSleep()
    {
        side_.accept = true;
        escaped_ = 0;
    }

    /**
     * Attach this side's fault state and the network's shared
     * conservation ledger (null = the fault-free fast case).
     */
    void
    setFaultState(RingSideFaults *faults, FaultAccounting *acct)
    {
        faults_ = faults;
        side_.out.setFaultState(faults, acct);
    }

    bool stalled() const { return faults_ && faults_->stalled != 0; }

    /**
     * After every component's flits are re-interned: resolve the
     * slots of the output's held worm and of the route memo (a memo
     * whose packet has left the network gets noSlot, which no flit
     * carries). A body flit in the latch follows its head's route,
     * so the memo must name it.
     */
    void bindLoadedWorms();

    /**
     * After the whole network is loaded: refuse a worm shape the
     * next transmit would assert on (RingOutput::checkLoadedFronts).
     * The ring front is the transit buffer's front, else a latch flit
     * known to continue: a body flit whose route memo says so, or a
     * head bound inside this ring or already escaping. @a who names
     * the IRI in the error.
     */
    void checkLoadedFronts(const std::string &who) const;

    std::uint64_t waitCycles() const { return waitCycles_; }
    std::uint64_t escapes() const { return escapes_; }

  private:
    friend class RingIri;

    /**
     * Memo of the incoming worm's routing decision. Keyed by packet
     * id for the checkpoint (the memo outlives its packet); body
     * flits check it by slot.
     */
    struct RouteMemo
    {
        PacketId packet = 0;
        std::uint32_t slot = 0;
        bool valid = false;
        WormRoute route = WormRoute::Continue;
    };

    /** Cycles a blocked head has been holding the latch. */
    struct WaitState
    {
        PacketId packet = 0;
        std::uint32_t cycles = 0;
    };

    bool
    continues(NodeId dst) const
    {
        return (dst >= subtreeLo_ && dst < subtreeHi_) != upper_;
    }

    StagedFifo<Flit> &
    divertQueue(PacketType type)
    {
        return isRequest(type) ? divertReq_ : divertResp_;
    }

    /**
     * Route of the latch flit, deciding once per worm and advancing
     * the wait counter: ring-changing packets divert when the whole
     * packet fits in the queue, wait (holding the latch) while it
     * does not, and recirculate once the wait limit is exceeded.
     */
    WormRoute route(const Flit &flit);

    bool upper_;
    NodeId subtreeLo_;
    NodeId subtreeHi_;
    std::uint32_t waitLimit_;
    PacketTable *packets_;

    /** Route computeAcceptance() chose for this cycle's latch flit. */
    WormRoute latchRoute_ = WormRoute::Continue;
    RouteMemo memo_;
    WaitState wait_;
    /** Head currently committed to an escape lap (0 = none). */
    PacketId escaped_ = 0;
    std::uint64_t waitCycles_ = 0;
    std::uint64_t escapes_ = 0;

    RingSide side_;
    StagedFifo<Flit> &divertResp_;
    StagedFifo<Flit> &divertReq_;
    RingStreamSource ringSource_;
    QueueSource drainResp_;
    QueueSource drainReq_;

    /** Null (the fast case) without a fault plan. */
    const RingSideFaults *faults_ = nullptr;
};

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

    IriHalf &lower() { return lower_; }
    IriHalf &upper() { return upper_; }
    const IriHalf &lower() const { return lower_; }
    const IriHalf &upper() const { return upper_; }

    /**
     * Commit state owned by the upper ring's clock domain: the upper
     * side and the four transfer queues, which are the clock-domain
     * crossing when the global ring is double-clocked.
     */
    void
    commitUpper()
    {
        upper_.commit();
        upResp_.commit();
        upReq_.commit();
        downResp_.commit();
        downReq_.commit();
    }

    /** Non-head flits both outputs streamed. */
    std::uint64_t streamedFlits() const
    {
        return lower_.side_.out.streamedFlits() +
               upper_.side_.out.streamedFlits();
    }

    /**
     * Checkpoint hooks (tick boundary): both sides, the four transfer
     * queues, and the per-side routing memos / wait / escape state —
     * a worm mid-divert or mid-escape must resume its decision, not
     * re-route. The wait and escape counters are saved as the IRI's
     * totals (its only metrics), and a load credits them to the
     * lower side.
     */
    void saveState(CkptWriter &w) const;
    void loadState(CkptReader &r);

    /** Flits currently buffered in this IRI. */
    std::uint64_t
    flitCount() const
    {
        return lower_.flitCount() + upper_.flitCount() +
               upResp_.totalSize() + upReq_.totalSize() +
               downResp_.totalSize() + downReq_.totalSize();
    }

    /**
     * flitCount() == 0, but short-circuiting: the end-of-tick sleep
     * sweep polls every awake component each cycle, and at
     * saturation the first load answers the question.
     */
    bool
    empty() const
    {
        return lower_.empty() && upper_.empty() &&
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
        lower_.prepareSleep();
        upper_.prepareSleep();
    }

    /**
     * Must this IRI stay in the active set even while empty? A
     * stalled side pins the IRI awake so its acceptance flag is
     * recomputed (sleeping rests at accept = true, the opposite of
     * what a stall advertises) and the network never fast-forwards
     * across the stall window.
     */
    bool faultPinned() const { return lower_.stalled() || upper_.stalled(); }

    /** One-line buffer state (stall diagnostics). */
    void debugDump(std::ostream &out) const;

    /** Cumulative cycles worms spent blocked on full queues. */
    std::uint64_t
    waitCycles() const
    {
        return lower_.waitCycles() + upper_.waitCycles();
    }

    /** Recirculation-escape laps taken. */
    std::uint64_t
    escapes() const
    {
        return lower_.escapes() + upper_.escapes();
    }

  private:
    // Declared before the halves, which hold references to them.
    StagedFifo<Flit> upResp_;
    StagedFifo<Flit> upReq_;
    StagedFifo<Flit> downResp_;
    StagedFifo<Flit> downReq_;

    IriHalf lower_;
    IriHalf upper_;
    PacketTable *packets_;
};

} // namespace hrsim

#endif // HRSIM_RING_RING_IRI_HH
