/**
 * @file
 * Building blocks shared by ring NICs and inter-ring interfaces.
 *
 * A ring attachment point ("side") owns:
 *  - an input latch: the single flit arriving from the upstream ring
 *    neighbor, registered at the previous clock edge;
 *  - a transit ring buffer (packet-sized) absorbing flits that must
 *    continue on the ring while the output link is busy;
 *  - an output port driving the downstream neighbor's latch, with
 *    wormhole state (a link, once granted to a packet, is held until
 *    its tail flit passes).
 *
 * Flow control follows the paper's back-propagated stop signal: at
 * the start of every cycle each side publishes whether it can accept
 * one more flit (its latch is empty, or the latch flit is guaranteed
 * disposable this cycle — it sinks, or its staging buffer has room).
 * Upstream outputs only transmit when the flag is set, so a latch can
 * never be overwritten. Because the flag only reads start-of-cycle
 * state, evaluation order between nodes is immaterial and a closed
 * ring needs no combinational loop.
 */

#ifndef HRSIM_RING_RING_NODE_HH
#define HRSIM_RING_RING_NODE_HH

#include <array>
#include <string>

#include "ckpt/state_io.hh"
#include "common/log.hh"
#include "common/staged_fifo.hh"
#include "fault/fault_plan.hh"
#include "obs/flit_trace.hh"
#include "proto/packet.hh"
#include "sim/active_mask.hh"
#include "stats/utilization.hh"

namespace hrsim
{

/**
 * Occupancy bookkeeping for one ring (bubble flow control).
 *
 * A worm may enter a ring from a PM output queue or an inter-ring
 * queue only if the ring keeps at least @ref slack flit slots free
 * afterwards (one maximum-size packet). The free "bubble" guarantees
 * that some latch on the ring is always acceptable, so a ring can
 * never wedge at 100% occupancy even when every worm on it is
 * recirculating — the standard escape used by real ring and torus
 * networks. The whole packet is reserved when its head enters;
 * slots are released as flits leave the ring (sink or divert).
 *
 * Admission is phase-based (the classic up-then-down tree argument).
 * A worm on ring R is "down-phase" when its destination lies inside
 * R's subtree: it only ever moves down the hierarchy from here and
 * finally sinks at a NIC that always accepts, so down-phase traffic
 * is self-draining by induction (on the global ring every worm is
 * down-phase — the induction's base). Down-phase worms therefore
 * only need the bubble; up-phase worms (heading toward the parent
 * ring) must additionally leave a reserved max-packet share that
 * ascending traffic can never consume, so descents always find room
 * and the hierarchy is livelock-free end to end.
 */
struct RingOccupancy
{
    std::int64_t occupied = 0;
    std::int64_t capacity = 0;
    std::int64_t bubble = 0;      //!< free slots kept for rotation
    std::int64_t reserveDown = 0; //!< share reserved for descents

    /** Admit a worm whose destination is inside this subtree. */
    bool
    canAdmitDown(std::uint32_t flits) const
    {
        return occupied + static_cast<std::int64_t>(flits) + bubble <=
               capacity;
    }

    /** Admit a worm that must ascend past this ring. */
    bool
    canAdmitUp(std::uint32_t flits) const
    {
        return occupied + static_cast<std::int64_t>(flits) + bubble +
                   reserveDown <=
               capacity;
    }

    void
    add(std::int64_t n)
    {
        occupied += n;
        HRSIM_ASSERT(occupied >= 0);
    }
};

/**
 * A maybe-occupied flit slot: std::optional<Flit> flattened into a
 * plain value plus a tag byte. Identical interface for the subset the
 * ring code uses, but assignment/reset never run optional's
 * construct/destroy machinery — a latch copy is a fixed-size copy,
 * which the tick hot path does once per flit hop.
 */
struct FlitSlot
{
    Flit flit{};
    bool full = false;

    explicit operator bool() const { return full; }
    bool has_value() const { return full; }

    const Flit &operator*() const { return flit; }
    Flit &operator*() { return flit; }
    const Flit *operator->() const { return &flit; }
    Flit *operator->() { return &flit; }

    FlitSlot &
    operator=(const Flit &value)
    {
        flit = value;
        full = true;
        return *this;
    }

    void reset() { full = false; }
};

/** Checkpoint a maybe-occupied slot: tag byte + flit when full. */
inline void
saveFlitSlot(CkptWriter &w, const FlitSlot &slot,
             const PacketTable &table)
{
    w.boolean(slot.full);
    if (slot.full)
        saveFlit(w, slot.flit, table);
}

inline void
loadFlitSlot(CkptReader &r, FlitSlot &slot, PacketTable &table)
{
    slot.full = r.boolean();
    slot.flit = slot.full ? loadFlit(r, table) : Flit{};
}

/** Single-flit input register with two-phase commit. */
struct RingLatch
{
    FlitSlot cur;
    FlitSlot staged;

    void
    commit()
    {
        if (staged.full) {
            HRSIM_ASSERT(!cur.full);
            cur = staged;
            staged.reset();
        }
    }};

/** Where the flit currently occupying an output link came from. */
enum class RingSource : std::uint8_t
{
    None,
    RingTransit, //!< same-ring traffic (buffer or latch bypass)
    QueueA,      //!< first PM/inter-ring queue (responses)
    QueueB,      //!< second PM/inter-ring queue (requests)
};

/**
 * Fault state of one ring attachment point (a NIC side or one IRI
 * side), allocated by RingNetwork only while a fault plan is active
 * (components hold a null pointer otherwise, so fault-free runs pay
 * nothing). Windows may overlap, so the action flags are nesting
 * depth counters, not booleans. Kill state outlives the window that
 * started it: once a worm starts draining into a dead link it must
 * drain to its tail even if the link comes back, because its leading
 * flits are already gone.
 *
 * Occupancy conservation under truncation (see DESIGN.md section
 * 12): bubble flow control reserves a whole packet at ring admission
 * and releases one slot per flit leaving the ring, so a truncated
 * worm would leak the slots of the flits that died. The terminator
 * token therefore carries the debt in its ttl field (unused outside
 * slotted mode, which rejects fault plans): every leave-ring site
 * releases 1 + ttl, and drops behind a token release nothing. A worm
 * killed whole at a worm boundary sends no token, so those drops
 * release 1 + ttl themselves.
 */
struct RingSideFaults
{
    std::uint8_t stalled = 0; //!< Stall depth (whole component)
    std::uint8_t down = 0;    //!< LinkDown depth (this side's output)
    std::uint8_t corrupt = 0; //!< Corrupt depth (this side's output)

    bool killing = false;   //!< draining a worm into the dead link
    bool tokenSent = false; //!< terminator already pushed downstream
    /** Boundary kill (head never crossed): no token, so each dropped
     *  flit releases its own occupancy share. */
    bool releaseOnDrop = false;
    RingSource victim = RingSource::None; //!< source being drained
    bool poisoning = false; //!< Corrupt: stamping the current worm
};

/** Checkpoint one attachment point's fault state. The nesting depths
 *  are redundant with the FaultController's applied-event replay but
 *  the kill/poison drain state is not — a worm half-drained into a
 *  dead link must resume draining after restore. */
inline void
saveRingSideFaults(CkptWriter &w, const RingSideFaults &f)
{
    w.u8(f.stalled);
    w.u8(f.down);
    w.u8(f.corrupt);
    w.boolean(f.killing);
    w.boolean(f.tokenSent);
    w.boolean(f.releaseOnDrop);
    w.u8(static_cast<std::uint8_t>(f.victim));
    w.boolean(f.poisoning);
}

inline void
loadRingSideFaults(CkptReader &r, RingSideFaults &f)
{
    f.stalled = r.u8();
    f.down = r.u8();
    f.corrupt = r.u8();
    f.killing = r.boolean();
    f.tokenSent = r.boolean();
    f.releaseOnDrop = r.boolean();
    f.victim = r.enumerant("ring fault victim", RingSource::QueueB);
    f.poisoning = r.boolean();
}

/**
 * Flit supplier over a staged FIFO (PM queues, up/down queues): the
 * wormhole arbiter peeks sources in priority order and consumes from
 * the winner. RingOutput::transmit() is templated on the concrete
 * source types, so the peeks inline.
 */
class QueueSource
{
  public:
    explicit QueueSource(StagedFifo<Flit> &queue) : queue_(queue) {}

    /** Next available flit, or nullptr if none this cycle. */
    const Flit *
    peek() const
    {
        return queue_.empty() ? nullptr : &queue_.front();
    }

    /** Remove and return the peeked flit. */
    Flit consume() { return queue_.pop(); }

  private:
    StagedFifo<Flit> &queue_;
};

/**
 * Output side of a ring link: wormhole state plus the wiring to the
 * downstream latch and its acceptance flag.
 */
class RingOutput
{
  public:
    /**
     * Wire to the downstream neighbor (done once at build time).
     * @a latch / @a accept_flag are the downstream side's input
     * latch and acceptance flag. @a tracer_slot points at the owning
     * network's tracer pointer and @a trace_node names this link's
     * driver in trace events: the PM id for NIC outputs,
     * -(2*iri+1) / -(2*iri+2) for IRI lower/upper sides.
     * @a wake_mask / @a wake_id name the downstream component in its
     * network's active mask, so staging a flit into a sleeping
     * neighbor's latch wakes it. @a packets is the network's packet
     * table (kill drops release slots; trace events and the worm
     * bookkeeping read packet ids).
     */
    void
    connect(RingLatch *latch, const bool *accept_flag,
            UtilizationTracker *util, UtilizationTracker::LinkId link,
            RingOccupancy *occupancy, NodeId subtree_lo,
            NodeId subtree_hi, std::uint32_t starvation_limit,
            FlitTracer *const *tracer_slot, NodeId trace_node,
            ActiveMask *wake_mask, std::uint32_t wake_id,
            PacketTable *packets)
    {
        downstream_ = latch;
        acceptFlag_ = accept_flag;
        // Cache the flag/counter pair so the per-flit hot path is one
        // load + one indexed increment (all utilization groups exist
        // before wiring, so the counter pointer is stable).
        utilMeasuring_ = util->measuringFlag();
        utilCounter_ = util->transferCounter(link);
        occupancy_ = occupancy;
        subtreeLo_ = subtree_lo;
        subtreeHi_ = subtree_hi;
        starvationLimit_ = starvation_limit;
        tracerSlot_ = tracer_slot;
        traceNode_ = trace_node;
        wakeMask_ = wake_mask;
        wakeId_ = wake_id;
        packets_ = packets;
    }

    /**
     * Attach this output's fault state and the network's shared
     * conservation ledger (both owned by the network; null = the
     * fault-free fast case).
     */
    void
    setFaultState(RingSideFaults *faults, FaultAccounting *acct)
    {
        faults_ = faults;
        acct_ = acct;
    }

    bool downstreamAccepts() const { return *acceptFlag_; }
    bool inWorm() const { return inWorm_; }
    PacketId wormPacket() const { return wormPkt_; }
    RingSource wormSource() const { return wormSrc_; }

    /**
     * Flits sent while the link was already held by a worm, i.e.
     * moved without arbitrating the sources (every non-head flit).
     */
    std::uint64_t streamedFlits() const { return streamedFlits_; }

    /**
     * Checkpoint the authoritative wormhole state. Wiring (downstream
     * latch, counters, wake targets) is rebuilt from the topology at
     * construction and never serialized.
     */
    void
    saveState(CkptWriter &w) const
    {
        w.u32(starve_);
        w.u64(streamedFlits_);
        w.boolean(inWorm_);
        w.u8(static_cast<std::uint8_t>(wormSrc_));
        w.u64(wormPkt_);
    }

    void
    loadState(CkptReader &r)
    {
        starve_ = r.u32();
        streamedFlits_ = r.u64();
        inWorm_ = r.boolean();
        wormSrc_ = r.enumerant("ring worm source", RingSource::QueueB);
        wormPkt_ = r.u64();
        wormSlot_ = 0;
    }

    /**
     * After every component's flits are re-interned: find the slot
     * of the worm holding the link (its remaining flits may sit in a
     * component loaded after this one).
     */
    void
    bindLoadedWorm()
    {
        if (!inWorm_)
            return;
        wormSlot_ = packets_->slotOf(wormPkt_);
        if (wormSlot_ == PacketTable::noSlot) {
            throw CheckpointError(
                "checkpoint: ring link held by packet " +
                std::to_string(wormPkt_) + " with no flit in flight");
        }
    }

    /**
     * After the whole network, fault state included, is loaded:
     * refuse source fronts the next transmit() would assert on. With
     * no worm on the link every front must be a head, and a held
     * worm's own source must show its flits. A kill's victim source
     * is exempt: the kill drains a worm's body flits by design.
     * @a fronts holds the ring transit, queue A and queue B fronts in
     * the order transmit() reaches them (null for none); @a who
     * names this output in the error.
     */
    void
    checkLoadedFronts(const std::array<const Flit *, 3> &fronts,
                      const std::string &who) const
    {
        static constexpr RingSource kinds[] = {RingSource::RingTransit,
                                               RingSource::QueueA,
                                               RingSource::QueueB};
        static constexpr const char *names[] = {"ring transit",
                                                "queue A", "queue B"};
        for (std::size_t i = 0; i < fronts.size(); ++i) {
            const Flit *front = fronts[i];
            if (front == nullptr ||
                (faults_ && faults_->killing && faults_->victim == kinds[i]))
                continue;
            const auto refuse = [&](const std::string &why) {
                throw CheckpointError(
                    "checkpoint: " + who + " output: " + names[i] +
                    " front of packet " +
                    std::to_string(packets_->id(front->slot)) + why);
            };
            if (inWorm_ && wormSrc_ == kinds[i]) {
                if (front->slot != wormSlot_) {
                    refuse(" is not the worm holding the link (packet " +
                           std::to_string(wormPkt_) + ")");
                }
            } else if (!front->isHead()) {
                refuse(" is a body flit no worm holds");
            }
        }
    }

    /**
     * Run one cycle of wormhole transmission. Sources are given in
     * strict priority order (ring transit, then queue A, then queue
     * B); a new worm may only start with a head flit, and an
     * in-progress worm only consumes from the source that started it.
     *
     * Queue admission probes run only when they can influence the
     * outcome (DESIGN.md section 10, "lazy admission probes"):
     *  - while a worm holds the link, queue admissibility feeds only
     *    the starvation counter, which is itself unobservable when
     *    starvationLimit_ == 0 (every NIC output);
     *  - at a worm boundary with starvationLimit_ == 0, the valve
     *    can never fire, so nonempty ring transit wins outright and
     *    the probes are again skipped.
     * Outputs with a nonzero limit (IRIs) probe on every cycle,
     * including the starve_ updates.
     *
     * @return true if a flit was transmitted.
     */
    template <typename RingSrc, typename QA, typename QB>
    bool
    transmit(RingSrc *ring, QA *queue_a, QB *queue_b)
    {
        if (faults_ && (faults_->down != 0 || faults_->killing)) {
            faultCycle(ring, queue_a, queue_b);
            return false;
        }
        // A worm from a PM or inter-ring queue enters the ring here.
        // Bubble flow control keeps one free max-packet slot so the
        // ring always rotates; the phase gate additionally reserves a
        // share for down-phase (self-draining) traffic.
        const auto admissible = [this](const auto *src) {
            const Flit *head = src->peek();
            if (!head || !head->isHead())
                return false;
            const bool down_phase =
                head->dst >= subtreeLo_ && head->dst < subtreeHi_;
            return down_phase
                       ? occupancy_->canAdmitDown(head->sizeFlits)
                       : occupancy_->canAdmitUp(head->sizeFlits);
        };

        if (inWorm_) {
            if (wormSrc_ == RingSource::RingTransit) {
                // With limit == 0 the starvation counter is dead
                // state, so the probes are skipped and starve_ may
                // lag — never read, never traced.
                if (starvationLimit_ > 0 &&
                    (admissible(queue_a) || admissible(queue_b)))
                    ++starve_;
                const Flit *next = ring->peek();
                if (!next)
                    return false; // starved: link held, idle cycle
                HRSIM_ASSERT(next->slot == wormSlot_);
                return sendFrom(ring, RingSource::RingTransit, false);
            }
            if (wormSrc_ == RingSource::QueueA) {
                if (!queue_a->peek())
                    return false;
                HRSIM_ASSERT(queue_a->peek()->slot == wormSlot_);
                return sendFrom(queue_a, RingSource::QueueA, false);
            }
            HRSIM_ASSERT(wormSrc_ == RingSource::QueueB);
            if (!queue_b->peek())
                return false;
            HRSIM_ASSERT(queue_b->peek()->slot == wormSlot_);
            return sendFrom(queue_b, RingSource::QueueB, false);
        }

        // Worm boundary. Same-ring traffic has priority (the paper's
        // rule), but a queue blocked by an unbroken transit stream for
        // too long wins the next worm boundary. Without this escape
        // valve, worms recirculating on a saturated ring starve the
        // inter-ring queues forever and the hierarchy livelocks; with
        // it, starvation is bounded and strict priority still holds
        // at every normal operating point. With no valve, transit
        // strictly wins and the admission probes only run once the
        // ring side is known to be empty.
        if (starvationLimit_ == 0) {
            if (ring->peek() != nullptr) {
                HRSIM_ASSERT(ring->peek()->isHead());
                return sendFrom(ring, RingSource::RingTransit, false);
            }
        } else {
            const bool queue_ready =
                admissible(queue_a) || admissible(queue_b);
            const bool starved = starve_ >= starvationLimit_;
            if (ring->peek() && !(starved && queue_ready)) {
                if (queue_ready)
                    ++starve_;
                HRSIM_ASSERT(ring->peek()->isHead());
                return sendFrom(ring, RingSource::RingTransit, false);
            }
        }
        if (admissible(queue_a)) {
            starve_ = 0;
            HRSIM_ASSERT(queue_a->peek()->isHead());
            return sendFrom(queue_a, RingSource::QueueA, true);
        }
        if (admissible(queue_b)) {
            starve_ = 0;
            HRSIM_ASSERT(queue_b->peek()->isHead());
            return sendFrom(queue_b, RingSource::QueueB, true);
        }
        return false;
    }

  private:
    /**
     * Common transmit tail: flow-control check, occupancy
     * reservation for a worm entering the ring, the flit copy into
     * the downstream latch, and worm-state upkeep.
     */
    template <typename Src>
    bool
    sendFrom(Src *source, RingSource kind, bool reserve)
    {
        if (!downstreamAccepts())
            return false;
        HRSIM_ASSERT(!downstream_->staged);
        if (reserve) {
            // Reserve the whole packet's slots up front; they are
            // released one by one as its flits leave the ring.
            occupancy_->add(source->peek()->sizeFlits);
        }
        Flit flit = source->consume();
        if (faults_)
            stampPoison(flit);
        downstream_->staged = flit;
        wakeMask_->add(wakeId_); // wake a sleeping neighbor
        if (*utilMeasuring_)
            ++*utilCounter_;
        HRSIM_TRACE_FLIT(
            tracerSlot_ ? *tracerSlot_ : nullptr, FlitEvent::Hop,
            packets_->id(flit.slot), traceNode_,
            static_cast<std::uint64_t>(occupancy_->occupied));
        streamedFlits_ += static_cast<std::uint64_t>(!flit.isHead());
        if (flit.isTail()) {
            inWorm_ = false;
            wormSrc_ = RingSource::None;
        } else {
            if (!inWorm_) {
                // A multi-flit worm takes the link: its id stays
                // the checkpointed worm id until the next one does.
                wormPkt_ = packets_->id(flit.slot);
                wormSlot_ = flit.slot;
            }
            inWorm_ = true;
            wormSrc_ = kind;
        }
        return true;
    }

    /**
     * One cycle of a dead output link (cold path, fault runs only).
     * Starts a kill when a worm is caught by the fault — mid-flight
     * (its head is downstream, so the fragment must be terminated)
     * or whole at a worm boundary (ring transit cannot route around
     * a dead ring link, so the worm drains into it) — and advances
     * an in-progress drain by one flit. Queue worms waiting to enter
     * the ring are simply not admitted while the link is down.
     */
    template <typename RingSrc, typename QA, typename QB>
    void
    faultCycle(RingSrc *ring, QA *queue_a, QB *queue_b)
    {
        RingSideFaults &f = *faults_;
        if (!f.killing) {
            if (f.down == 0)
                return; // kill finished, link back up: normal next cycle
            if (inWorm_) {
                // Mid-worm: leading flits are already downstream, so
                // the drain owes them a terminator token.
                f.killing = true;
                f.tokenSent = false;
                f.releaseOnDrop = false;
                f.victim = wormSrc_;
                if (acct_)
                    ++acct_->droppedWorms;
            } else if (ring->peek()) {
                // Worm boundary: the transit worm dies whole. No
                // token (nothing crossed), so its drops release
                // their own occupancy shares.
                HRSIM_ASSERT(ring->peek()->isHead());
                f.killing = true;
                f.tokenSent = false;
                f.releaseOnDrop = true;
                f.victim = RingSource::RingTransit;
                if (acct_)
                    ++acct_->droppedWorms;
            } else {
                return; // dead link, nothing to drain
            }
        }
        switch (f.victim) {
          case RingSource::RingTransit:
            killStep(ring);
            break;
          case RingSource::QueueA:
            killStep(queue_a);
            break;
          case RingSource::QueueB:
            killStep(queue_b);
            break;
          default:
            HRSIM_PANIC("output worm with no source");
        }
    }

    /**
     * Drain one flit of the condemned worm per cycle — exactly the
     * rate of a live link — so upstream credits keep flowing and the
     * ring behind the fault never wedges.
     */
    template <typename Src>
    void
    killStep(Src *source)
    {
        RingSideFaults &f = *faults_;
        const Flit *next = source->peek();
        if (!next)
            return; // starved: the rest of the worm is still upstream
        if (inWorm_)
            HRSIM_ASSERT(next->slot == wormSlot_);
        if (!f.releaseOnDrop && !f.tokenSent) {
            // Terminate the downstream fragment: hand it one
            // poisoned tail flit (the link-level error token of the
            // dead link) so every node ahead unbinds normally and
            // the fragment drains to its destination NIC, where the
            // poison suppresses delivery. The token carries the
            // occupancy debt of the flits that died (ttl), released
            // wherever it leaves a ring.
            if (!downstreamAccepts())
                return; // wait for latch space; flits queue behind
            HRSIM_ASSERT(!downstream_->staged);
            // The token replaces the flit it is cut from, so the
            // packet's live-flit count is unchanged.
            const bool was_tail = next->isTail();
            Flit token = *next;
            token.ttl = static_cast<std::uint16_t>(
                token.sizeFlits - 1 - token.index + token.ttl);
            token.index = static_cast<std::uint16_t>(token.sizeFlits - 1);
            token.poisoned = true;
            source->consume();
            downstream_->staged = token;
            wakeMask_->add(wakeId_);
            f.tokenSent = true;
            if (was_tail)
                finishKill();
            return;
        }
        const Flit flit = source->consume();
        if (acct_)
            ++acct_->droppedFlits;
        packets_->release(flit.slot);
        if (f.releaseOnDrop) {
            // The flit leaves the ring into the fault; 1 + ttl in
            // case the victim is itself a truncated fragment whose
            // token carries debt.
            occupancy_->add(-1 - static_cast<std::int64_t>(flit.ttl));
        }
        if (flit.isTail())
            finishKill();
    }

    void
    finishKill()
    {
        faults_->killing = false;
        faults_->tokenSent = false;
        faults_->releaseOnDrop = false;
        faults_->victim = RingSource::None;
        // A half-stamped corrupt worm died; don't poison the next one.
        faults_->poisoning = false;
        inWorm_ = false;
        wormSrc_ = RingSource::None;
        wormPkt_ = 0;
    }

    /**
     * Corrupt fault: a header crossing the bad link poisons its
     * whole worm (sticky past the window and past any nested window
     * boundary — the header is what's broken). Poisoned worms travel
     * normally and are dropped, not delivered, at their destination.
     */
    void
    stampPoison(Flit &flit)
    {
        RingSideFaults &f = *faults_;
        if (flit.isHead() && f.corrupt != 0) {
            f.poisoning = true;
            if (acct_)
                ++acct_->poisonedWorms;
        }
        if (f.poisoning) {
            flit.poisoned = true;
            if (flit.isTail())
                f.poisoning = false;
        }
    }

    RingLatch *downstream_ = nullptr;
    const bool *acceptFlag_ = nullptr;
    const bool *utilMeasuring_ = nullptr;
    std::uint64_t *utilCounter_ = nullptr;
    RingOccupancy *occupancy_ = nullptr;
    NodeId subtreeLo_ = 0;
    NodeId subtreeHi_ = 0;
    FlitTracer *const *tracerSlot_ = nullptr;
    NodeId traceNode_ = invalidNode;
    ActiveMask *wakeMask_ = nullptr; //!< downstream's active mask
    std::uint32_t wakeId_ = 0;       //!< downstream's index therein
    std::uint32_t starvationLimit_ = 0;
    std::uint32_t starve_ = 0; //!< cycles a ready queue was passed over
    std::uint64_t streamedFlits_ = 0;
    PacketTable *packets_ = nullptr;

    bool inWorm_ = false;
    RingSource wormSrc_ = RingSource::None;
    /** Slot of the worm holding the link (worm-identity asserts). */
    std::uint32_t wormSlot_ = 0;
    /** Id of the last multi-flit worm to take the link (checkpoint
     *  state: it outlives the worm). */
    PacketId wormPkt_ = 0;

    /** Fault state + ledger; null (the fast case) without a plan. */
    RingSideFaults *faults_ = nullptr;
    FaultAccounting *acct_ = nullptr;
};

/**
 * One attachment point of a node on a ring.
 *
 * The input latch and phase-A acceptance flag are written and read
 * by the upstream neighbor's output every cycle; that output holds
 * pointers to both (RingOutput::connect), so a side must not move
 * once wired (the networks keep their components in StablePools).
 */
struct RingSide
{
    /** Input latch from the upstream ring neighbor. */
    RingLatch in;
    /** Phase-A acceptance flag published for the upstream output. */
    bool accept = false;
    StagedFifo<Flit> transitBuf;
    RingOutput out;
    /** Occupancy of the ring this side sits on (shared). */
    RingOccupancy *occupancy = nullptr;

    /**
     * Checkpoint the side's flit contents and output worm state.
     * Tick-boundary precondition: the latch's staged slot is empty
     * (commit ran) and the acceptance flag is derived — the network's
     * post-load scheduling sweep recomputes it.
     */
    void
    saveState(CkptWriter &w, const PacketTable &table) const
    {
        HRSIM_ASSERT(!in.staged.full);
        saveFlitSlot(w, in.cur, table);
        saveFlitFifo(w, transitBuf, table);
        out.saveState(w);
    }

    void
    loadState(CkptReader &r, PacketTable &table)
    {
        loadFlitSlot(r, in.cur, table);
        in.staged.reset();
        loadFlitFifo(r, transitBuf, table);
        out.loadState(r);
    }
};

/**
 * Flit supplier for the same-ring transit stream: the ring buffer
 * drains first (FIFO order), then the latch flit may bypass the
 * buffer entirely when the buffer is empty.
 */
class RingStreamSource
{
  public:
    explicit RingStreamSource(RingSide &side) : side_(side) {}

    /** Enable/disable the latch bypass (kept on in the paper). */
    void setBypass(bool enabled) { bypass_ = enabled; }

    /** Tell the source whether the latch flit is ring transit. */
    void setLatchIsTransit(bool transit) { latchIsTransit_ = transit; }

    /** Next available flit, or nullptr if none this cycle. */
    const Flit *
    peek() const
    {
        if (!side_.transitBuf.empty())
            return &side_.transitBuf.front();
        if (bypass_ && latchIsTransit_ && side_.in.cur)
            return &*side_.in.cur;
        return nullptr;
    }

    /** Remove and return the peeked flit. */
    Flit
    consume()
    {
        if (!side_.transitBuf.empty())
            return side_.transitBuf.pop();
        HRSIM_ASSERT(bypass_ && latchIsTransit_ && side_.in.cur);
        Flit flit = *side_.in.cur;
        side_.in.cur.reset();
        latchIsTransit_ = false;
        return flit;
    }

  private:
    RingSide &side_;
    bool bypass_ = true;
    bool latchIsTransit_ = false;
};

} // namespace hrsim

#endif // HRSIM_RING_RING_NODE_HH
