#include "ring/ring_iri.hh"
#include <ostream>
#include <string>

#include "common/log.hh"

namespace hrsim
{

IriHalf::IriHalf(bool upper, NodeId subtree_lo, NodeId subtree_hi,
                 std::uint32_t cl_flits, std::uint32_t wait_limit,
                 PacketTable *packets, StagedFifo<Flit> &divert_resp,
                 StagedFifo<Flit> &divert_req,
                 StagedFifo<Flit> &drain_resp,
                 StagedFifo<Flit> &drain_req)
    : upper_(upper), subtreeLo_(subtree_lo), subtreeHi_(subtree_hi),
      waitLimit_(wait_limit), packets_(packets),
      divertResp_(divert_resp), divertReq_(divert_req),
      ringSource_(side_), drainResp_(drain_resp), drainReq_(drain_req)
{
    side_.transitBuf.setCapacity(cl_flits);
}

WormRoute
IriHalf::route(const Flit &flit)
{
    if (!flit.isHead()) {
        // Body flits always follow their head's decision (a loaded
        // memo was checked against the latch in bindLoadedWorms).
        HRSIM_ASSERT(memo_.valid && memo_.slot == flit.slot);
        return memo_.route;
    }
    const PacketId pkt = packets_->id(flit.slot);
    // Same-ring traffic, or a head already committed to an escape
    // lap, stays on the ring.
    if (continues(flit.dst) || escaped_ == pkt) {
        memo_ = RouteMemo{pkt, flit.slot, true, WormRoute::Continue};
        return WormRoute::Continue;
    }
    // Ring-changing: divert only when the whole packet fits, so the
    // worm never stalls mid-transfer; otherwise hold the latch
    // (back-pressure) and re-check next cycle, escaping with a lap
    // around the ring once the wait limit is exceeded.
    if (divertQueue(flit.type).producerSpace() >= flit.sizeFlits) {
        memo_ = RouteMemo{pkt, flit.slot, true, WormRoute::ChangeRing};
        wait_ = WaitState{};
        return WormRoute::ChangeRing;
    }
    if (wait_.packet != pkt)
        wait_ = WaitState{pkt, 0};
    ++wait_.cycles;
    ++waitCycles_;
    if (wait_.cycles > waitLimit_) {
        memo_ = RouteMemo{pkt, flit.slot, true, WormRoute::Continue};
        wait_ = WaitState{};
        escaped_ = pkt;
        ++escapes_;
        return WormRoute::Continue;
    }
    return WormRoute::Wait;
}

void
IriHalf::computeAcceptance()
{
    // A stalled side is frozen and must not advertise acceptance
    // (the blocked-worm wait counters freeze with it).
    if (stalled()) {
        side_.accept = false;
        return;
    }
    if (!side_.in.cur) {
        side_.accept = true;
        return;
    }
    latchRoute_ = route(*side_.in.cur);
    switch (latchRoute_) {
      case WormRoute::ChangeRing:
        // Whole-packet room in the divert queue was reserved at the
        // head, so the flit is guaranteed disposable.
        side_.accept = true;
        break;
      case WormRoute::Continue:
        side_.accept = side_.transitBuf.canPush();
        break;
      case WormRoute::Wait:
        side_.accept = false; // latch held: back-pressure the ring
        break;
    }
}

void
IriHalf::evaluate()
{
    // A stalled side does nothing; traffic waits in place.
    if (stalled())
        return;
    RingLatch &in = side_.in;
    // Quiescent fast path: nothing latched, buffered or waiting to
    // join this ring means nothing to divert, forward or inject.
    if (!in.cur && side_.transitBuf.empty() && !drainResp_.peek() &&
        !drainReq_.peek()) {
        escaped_ = 0; // an escaped head that moved on re-decides
        return;
    }

    // 1. Divert a ring-changing worm's flit into its queue.
    if (in.cur && latchRoute_ == WormRoute::ChangeRing) {
        StagedFifo<Flit> &queue = divertQueue(in.cur->type);
        HRSIM_ASSERT(queue.canPush());
        queue.push(*in.cur);
        // The flit leaves this ring; 1 + ttl because a kill token
        // carries its dead worm's occupancy debt (ttl is always 0 in
        // fault-free runs — see RingSideFaults).
        side_.occupancy->add(-1 - static_cast<std::int64_t>(in.cur->ttl));
        in.cur.reset();
    }

    // 2. Drive the ring output: same-ring transit (including
    //    recirculating worms) first, then the responses, then the
    //    requests joining this ring.
    const bool transit = in.cur && latchRoute_ == WormRoute::Continue;
    ringSource_.setLatchIsTransit(transit);
    side_.out.transmit(&ringSource_, &drainResp_, &drainReq_);

    // 3. Absorb a continuing latch flit the output did not take.
    if (transit && in.cur && side_.transitBuf.canPush()) {
        side_.transitBuf.push(*in.cur);
        in.cur.reset();
    }

    // An escaped head that moved on re-decides on its next lap.
    if (escaped_ != 0 &&
        (!in.cur || packets_->id(in.cur->slot) != escaped_)) {
        escaped_ = 0;
    }
}

void
IriHalf::bindLoadedWorms()
{
    side_.out.bindLoadedWorm();
    memo_.slot = packets_->slotOf(memo_.packet);
    const FlitSlot &latch = side_.in.cur;
    if (latch && !latch->isHead() &&
        !(memo_.valid && memo_.slot == latch->slot)) {
        throw CheckpointError(
            std::string("checkpoint: IRI ") +
            (upper_ ? "upper" : "lower") +
            " route memo does not name the body flit of packet " +
            std::to_string(packets_->id(latch->slot)) +
            " in its latch");
    }
}

void
IriHalf::checkLoadedFronts(const std::string &who) const
{
    const FlitSlot &latch = side_.in.cur;
    const Flit *ring = nullptr;
    if (!side_.transitBuf.empty()) {
        ring = &side_.transitBuf.front();
    } else if (latch) {
        const bool continuing =
            latch->isHead()
                ? continues(latch->dst) ||
                      escaped_ == packets_->id(latch->slot)
                : memo_.route == WormRoute::Continue;
        if (continuing)
            ring = &*latch;
    }
    side_.out.checkLoadedFronts(
        {ring, drainResp_.peek(), drainReq_.peek()},
        who + (upper_ ? " upper" : " lower"));
}

RingIri::RingIri(NodeId subtree_lo, NodeId subtree_hi,
                 std::uint32_t cl_flits, std::uint32_t wait_limit,
                 PacketTable *packets, std::uint32_t queue_packets)
    : lower_(false, subtree_lo, subtree_hi, cl_flits, wait_limit,
             packets, upResp_, upReq_, downResp_, downReq_),
      upper_(true, subtree_lo, subtree_hi, cl_flits, wait_limit,
             packets, downResp_, downReq_, upResp_, upReq_),
      packets_(packets)
{
    HRSIM_ASSERT(subtree_lo < subtree_hi && packets != nullptr);
    const std::size_t queue_flits =
        static_cast<std::size_t>(cl_flits) * queue_packets;
    upResp_.setCapacity(queue_flits);
    upReq_.setCapacity(queue_flits);
    downResp_.setCapacity(queue_flits);
    downReq_.setCapacity(queue_flits);
}

void
RingIri::saveState(CkptWriter &w) const
{
    for (const IriHalf *half : {&lower_, &upper_}) {
        w.u64(half->memo_.packet);
        w.boolean(half->memo_.valid);
        w.u8(static_cast<std::uint8_t>(half->memo_.route));
    }
    for (const IriHalf *half : {&lower_, &upper_}) {
        w.u64(half->wait_.packet);
        w.u32(half->wait_.cycles);
    }
    w.u64(lower_.escaped_);
    w.u64(upper_.escaped_);
    w.u64(waitCycles());
    w.u64(escapes());
    lower_.side_.saveState(w, *packets_);
    upper_.side_.saveState(w, *packets_);
    saveFlitFifo(w, upResp_, *packets_);
    saveFlitFifo(w, upReq_, *packets_);
    saveFlitFifo(w, downResp_, *packets_);
    saveFlitFifo(w, downReq_, *packets_);
}

void
RingIri::loadState(CkptReader &r)
{
    for (IriHalf *half : {&lower_, &upper_}) {
        half->memo_.packet = r.u64();
        half->memo_.valid = r.boolean();
        half->memo_.route =
            r.enumerant("IRI worm route", WormRoute::Wait);
    }
    for (IriHalf *half : {&lower_, &upper_}) {
        half->wait_.packet = r.u64();
        half->wait_.cycles = r.u32();
    }
    lower_.escaped_ = r.u64();
    upper_.escaped_ = r.u64();
    lower_.waitCycles_ = r.u64();
    lower_.escapes_ = r.u64();
    upper_.waitCycles_ = 0;
    upper_.escapes_ = 0;
    lower_.side_.loadState(r, *packets_);
    upper_.side_.loadState(r, *packets_);
    loadFlitFifo(r, upResp_, *packets_);
    loadFlitFifo(r, upReq_, *packets_);
    loadFlitFifo(r, downResp_, *packets_);
    loadFlitFifo(r, downReq_, *packets_);
}

void
RingIri::debugDump(std::ostream &out) const
{
    const auto side_info = [&](const char *tag, const RingSide &side) {
        out << " " << tag << "[latch=";
        if (side.in.cur) {
            out << packets_->id(side.in.cur->slot) << ":"
                << side.in.cur->index << "->" << side.in.cur->dst;
        } else {
            out << "-";
        }
        out << " buf=" << side.transitBuf.size();
        if (!side.transitBuf.empty()) {
            out << "(hd " << packets_->id(side.transitBuf.front().slot)
                << ":" << side.transitBuf.front().index << ")";
        }
        out << " worm=" << (side.out.inWorm() ? 1 : 0);
        if (side.out.inWorm()) {
            out << "(pkt " << side.out.wormPacket() << " src "
                << static_cast<int>(side.out.wormSource()) << ")";
        }
        out << " accept=" << side.accept << "]";
    };
    out << "IRI [" << lower_.subtreeLo_ << "," << lower_.subtreeHi_
        << ")";
    side_info("lo", lower_.side_);
    side_info("up", upper_.side_);
    out << " upQ=" << upResp_.size() << "/" << upReq_.size()
        << " downQ=" << downResp_.size() << "/" << downReq_.size()
        << "\n";
}

} // namespace hrsim
