#include "ring/ring_iri.hh"
#include <ostream>

#include "common/log.hh"

namespace hrsim
{

RingIri::RingIri(NodeId subtree_lo, NodeId subtree_hi,
                 std::uint32_t cl_flits, std::uint32_t wait_limit,
                 std::uint32_t queue_packets)
    : subtreeLo_(subtree_lo), subtreeHi_(subtree_hi),
      waitLimit_(wait_limit),
      lowerRingSource_(lower_), upperRingSource_(upper_),
      upRespSource_(upResp_), upReqSource_(upReq_),
      downRespSource_(downResp_), downReqSource_(downReq_)
{
    HRSIM_ASSERT(subtree_lo < subtree_hi);
    lower_.transitBuf.setCapacity(cl_flits);
    upper_.transitBuf.setCapacity(cl_flits);
    const std::size_t queue_flits =
        static_cast<std::size_t>(cl_flits) * queue_packets;
    upResp_.setCapacity(queue_flits);
    upReq_.setCapacity(queue_flits);
    downResp_.setCapacity(queue_flits);
    downReq_.setCapacity(queue_flits);
}

StagedFifo<Flit> &
RingIri::upQueue(PacketType type)
{
    return isRequest(type) ? upReq_ : upResp_;
}

StagedFifo<Flit> &
RingIri::downQueue(PacketType type)
{
    return isRequest(type) ? downReq_ : downResp_;
}

RingIri::WormRoute
RingIri::routeLower(const Flit &flit, bool count_wait)
{
    if (!flit.isHead()) {
        // Body flits always follow their head's decision.
        HRSIM_ASSERT(lowerMemo_.valid &&
                     lowerMemo_.packet == flit.packet);
        return lowerMemo_.route;
    }
    if (inSubtree(flit.dst)) {
        lowerMemo_ = RouteMemo{flit.packet, true, WormRoute::Continue};
        return WormRoute::Continue;
    }
    if (lowerEscaped_ == flit.packet) {
        // Already committed to an escape lap; stay on the ring.
        lowerMemo_ = RouteMemo{flit.packet, true, WormRoute::Continue};
        return WormRoute::Continue;
    }
    // Ring-changing: divert only when the whole packet fits, so the
    // worm never stalls mid-transfer; otherwise hold the latch
    // (back-pressure) and re-check next cycle, escaping with a lap
    // around the ring once the wait limit is exceeded.
    if (upQueue(flit.type).producerSpace() >= flit.sizeFlits) {
        lowerMemo_ =
            RouteMemo{flit.packet, true, WormRoute::ChangeRing};
        lowerWait_ = WaitState{};
        return WormRoute::ChangeRing;
    }
    if (lowerWait_.packet != flit.packet)
        lowerWait_ = WaitState{flit.packet, 0};
    if (count_wait) {
        ++lowerWait_.cycles;
        ++waitCycles_;
    }
    if (lowerWait_.cycles > waitLimit_) {
        lowerMemo_ = RouteMemo{flit.packet, true, WormRoute::Continue};
        lowerWait_ = WaitState{};
        lowerEscaped_ = flit.packet;
        ++escapes_;
        return WormRoute::Continue;
    }
    return WormRoute::Wait;
}

RingIri::WormRoute
RingIri::routeUpper(const Flit &flit, bool count_wait)
{
    if (!flit.isHead()) {
        HRSIM_ASSERT(upperMemo_.valid &&
                     upperMemo_.packet == flit.packet);
        return upperMemo_.route;
    }
    if (!inSubtree(flit.dst)) {
        upperMemo_ = RouteMemo{flit.packet, true, WormRoute::Continue};
        return WormRoute::Continue;
    }
    if (upperEscaped_ == flit.packet) {
        upperMemo_ = RouteMemo{flit.packet, true, WormRoute::Continue};
        return WormRoute::Continue;
    }
    if (downQueue(flit.type).producerSpace() >= flit.sizeFlits) {
        upperMemo_ =
            RouteMemo{flit.packet, true, WormRoute::ChangeRing};
        upperWait_ = WaitState{};
        return WormRoute::ChangeRing;
    }
    if (upperWait_.packet != flit.packet)
        upperWait_ = WaitState{flit.packet, 0};
    if (count_wait) {
        ++upperWait_.cycles;
        ++waitCycles_;
    }
    if (upperWait_.cycles > waitLimit_) {
        upperMemo_ = RouteMemo{flit.packet, true, WormRoute::Continue};
        upperWait_ = WaitState{};
        upperEscaped_ = flit.packet;
        ++escapes_;
        return WormRoute::Continue;
    }
    return WormRoute::Wait;
}

void
RingIri::computeAcceptanceLower()
{
    // A stalled side is frozen and must not advertise acceptance
    // (the blocked-worm wait counters freeze with it).
    if (lowerFaults_ && lowerFaults_->stalled != 0) {
        lower_.accept() = false;
        return;
    }
    if (!lower_.in().cur) {
        lower_.accept() = true;
        return;
    }
    const Flit &flit = *lower_.in().cur;
    switch (routeLower(flit, /*count_wait=*/true)) {
      case WormRoute::ChangeRing:
        // Whole-packet room in the up queue was reserved at the
        // head, so the flit is guaranteed disposable.
        lower_.accept() = true;
        break;
      case WormRoute::Continue:
        lower_.accept() = lower_.transitBuf.canPush();
        break;
      case WormRoute::Wait:
        lower_.accept() = false; // latch held: back-pressure the ring
        break;
    }
}

void
RingIri::computeAcceptanceUpper()
{
    if (upperFaults_ && upperFaults_->stalled != 0) {
        upper_.accept() = false;
        return;
    }
    if (!upper_.in().cur) {
        upper_.accept() = true;
        return;
    }
    const Flit &flit = *upper_.in().cur;
    switch (routeUpper(flit, /*count_wait=*/true)) {
      case WormRoute::ChangeRing:
        upper_.accept() = true;
        break;
      case WormRoute::Continue:
        upper_.accept() = upper_.transitBuf.canPush();
        break;
      case WormRoute::Wait:
        upper_.accept() = false; // latch held: back-pressure the ring
        break;
    }
}

void
RingIri::evaluateLower()
{
    // A stalled side does nothing; traffic waits in place.
    if (lowerFaults_ && lowerFaults_->stalled != 0)
        return;
    // Quiescent fast path: nothing latched, buffered or descending
    // means there is nothing to divert, forward or inject this cycle.
    if (!lower_.in().cur && lower_.transitBuf.empty() &&
        downResp_.empty() && downReq_.empty()) {
        lowerEscaped_ = 0; // an escaped head that moved on re-decides
        return;
    }

    // 1. Divert a ring-changing worm's flit into its up queue.
    if (lower_.in().cur &&
        routeLower(*lower_.in().cur) == WormRoute::ChangeRing) {
        StagedFifo<Flit> &queue = upQueue(lower_.in().cur->type);
        HRSIM_ASSERT(queue.canPush());
        queue.push(*lower_.in().cur);
        // The flit leaves the lower ring; 1 + ttl because a kill
        // token carries its dead worm's occupancy debt (ttl is
        // always 0 in fault-free runs — see RingSideFaults).
        lower_.occupancy->add(
            -1 - static_cast<std::int64_t>(lower_.in().cur->ttl));
        lower_.in().cur.reset();
    }

    // 2. Drive the lower-ring output: same-ring transit (including
    //    recirculating worms) first, then descending responses, then
    //    descending requests.
    lowerRingSource_.setLatchIsTransit(
        lower_.in().cur.has_value() &&
        routeLower(*lower_.in().cur) == WormRoute::Continue);
    lower_.out.transmit(&lowerRingSource_, &downRespSource_,
                        &downReqSource_);

    // 3. Absorb a continuing latch flit into the lower ring buffer.
    if (lower_.in().cur &&
        routeLower(*lower_.in().cur) == WormRoute::Continue &&
        lower_.transitBuf.canPush()) {
        lower_.transitBuf.push(*lower_.in().cur);
        lower_.in().cur.reset();
    }

    // An escaped head that moved on re-decides on its next lap.
    if (lowerEscaped_ != 0 &&
        (!lower_.in().cur || lower_.in().cur->packet != lowerEscaped_)) {
        lowerEscaped_ = 0;
    }
}

void
RingIri::evaluateUpper()
{
    // A stalled side does nothing; traffic waits in place.
    if (upperFaults_ && upperFaults_->stalled != 0)
        return;
    // Quiescent fast path, mirroring evaluateLower().
    if (!upper_.in().cur && upper_.transitBuf.empty() &&
        upResp_.empty() && upReq_.empty()) {
        upperEscaped_ = 0;
        return;
    }

    // 1. Divert a ring-changing worm's flit into its down queue.
    if (upper_.in().cur &&
        routeUpper(*upper_.in().cur) == WormRoute::ChangeRing) {
        StagedFifo<Flit> &queue = downQueue(upper_.in().cur->type);
        HRSIM_ASSERT(queue.canPush());
        queue.push(*upper_.in().cur);
        // The flit leaves the upper ring (1 + ttl: kill-token debt).
        upper_.occupancy->add(
            -1 - static_cast<std::int64_t>(upper_.in().cur->ttl));
        upper_.in().cur.reset();
    }

    // 2. Drive the upper-ring output: same-ring transit first, then
    //    ascending responses, then ascending requests.
    upperRingSource_.setLatchIsTransit(
        upper_.in().cur.has_value() &&
        routeUpper(*upper_.in().cur) == WormRoute::Continue);
    upper_.out.transmit(&upperRingSource_, &upRespSource_,
                        &upReqSource_);

    // 3. Absorb a continuing latch flit into the upper ring buffer.
    if (upper_.in().cur &&
        routeUpper(*upper_.in().cur) == WormRoute::Continue &&
        upper_.transitBuf.canPush()) {
        upper_.transitBuf.push(*upper_.in().cur);
        upper_.in().cur.reset();
    }

    // An escaped head that moved on re-decides on its next lap.
    if (upperEscaped_ != 0 &&
        (!upper_.in().cur || upper_.in().cur->packet != upperEscaped_)) {
        upperEscaped_ = 0;
    }
}

void
RingIri::commitLower()
{
    lower_.in().commit();
    lower_.transitBuf.commit();
}

void
RingIri::commitUpper()
{
    upper_.in().commit();
    upper_.transitBuf.commit();
    upResp_.commit();
    upReq_.commit();
    downResp_.commit();
    downReq_.commit();
}

std::uint64_t
RingIri::flitCount() const
{
    std::uint64_t count =
        lower_.transitBuf.totalSize() + upper_.transitBuf.totalSize() +
        upResp_.totalSize() + upReq_.totalSize() +
        downResp_.totalSize() + downReq_.totalSize();
    if (lower_.in().cur)
        ++count;
    if (lower_.in().staged)
        ++count;
    if (upper_.in().cur)
        ++count;
    if (upper_.in().staged)
        ++count;
    return count;
}

} // namespace hrsim

namespace hrsim
{

void
RingIri::debugDump(std::ostream &out) const
{
    const auto side_info = [&](const char *tag, const RingSide &side) {
        out << " " << tag << "[latch=";
        if (side.in().cur) {
            out << side.in().cur->packet << ":" << side.in().cur->index
                << "->" << side.in().cur->dst;
        } else {
            out << "-";
        }
        out << " buf=" << side.transitBuf.size();
        if (!side.transitBuf.empty()) {
            out << "(hd " << side.transitBuf.front().packet << ":"
                << side.transitBuf.front().index << ")";
        }
        out << " worm=" << (side.out.inWorm() ? 1 : 0);
        if (side.out.inWorm()) {
            out << "(pkt " << side.out.wormPacket() << " src "
                << static_cast<int>(side.out.wormSource()) << ")";
        }
        out << " accept=" << side.accept() << "]";
    };
    out << "IRI [" << subtreeLo_ << "," << subtreeHi_ << ")";
    side_info("lo", lower_);
    side_info("up", upper_);
    out << " upQ=" << upResp_.size() << "/" << upReq_.size()
        << " downQ=" << downResp_.size() << "/" << downReq_.size()
        << "\n";
}

} // namespace hrsim
