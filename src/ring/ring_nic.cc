#include "ring/ring_nic.hh"
#include <ostream>

#include "common/log.hh"

namespace hrsim
{

RingNic::RingNic(NodeId pm, std::uint32_t cl_flits, bool bypass)
    : pm_(pm), bypass_(bypass), ringSource_(side_),
      respSource_(outResp_), reqSource_(outReq_)
{
    side_.transitBuf.setCapacity(cl_flits);
    outResp_.setCapacity(cl_flits);
    outReq_.setCapacity(cl_flits);
    ringSource_.setBypass(bypass);
}

void
RingNic::computeAcceptance()
{
    // A stalled NIC is frozen: it cannot dispose of a latch flit, so
    // it must not advertise acceptance.
    if (faults_ && faults_->stalled != 0) {
        side_.accept() = false;
        return;
    }
    // Upstream may transmit iff the latch is free, or its occupant is
    // guaranteed disposable this cycle: it sinks into the PM (input
    // queues always drain in our model) or the ring buffer has room.
    side_.accept() = !side_.in().cur ||
                   !isTransit(*side_.in().cur) ||
                   side_.transitBuf.canPush();
}

void
RingNic::evaluate(Cycle now)
{
    // A stalled NIC does nothing: no sink, no forward, no inject.
    // Traffic waits in place and resumes when the window closes.
    if (faults_ && faults_->stalled != 0)
        return;
    // Quiescent fast path: no latch flit and nothing visible in any
    // queue means there is nothing to sink, forward or inject. (A
    // worm holding the output link but starved of flits also does no
    // work, and staged arrivals only become visible at commit.)
    if (!side_.in().cur && side_.transitBuf.empty() &&
        outResp_.empty() && outReq_.empty()) {
        return;
    }
    // 1. Sink a latch flit destined for this PM.
    if (side_.in().cur && !isTransit(*side_.in().cur)) {
        const Flit flit = *side_.in().cur;
        side_.in().cur.reset();
        // The flit leaves the ring; 1 + ttl because a kill token
        // carries the occupancy debt of its worm's dead flits (ttl
        // is always 0 in fault-free runs — see RingSideFaults).
        side_.occupancy->add(-1 - static_cast<std::int64_t>(flit.ttl));
        if (acct_) {
            if (flit.poisoned)
                ++acct_->droppedFlits;
            else
                ++acct_->deliveredFlits;
        }
        // Poisoned worms (corrupted headers, or the kill token of a
        // truncated worm) drain out here but are never delivered.
        if (flit.isTail() && deliver_ && !flit.poisoned)
            deliver_(packetFromFlit(flit), now);
    }

    // 2. Drive the output link: ring transit first, then responses,
    //    then requests.
    ringSource_.setLatchIsTransit(side_.in().cur.has_value() &&
                                  isTransit(*side_.in().cur));
    side_.out.transmit(&ringSource_, &respSource_, &reqSource_);

    // 3. Absorb a still-latched transit flit into the ring buffer so
    //    the latch honours the acceptance we advertised.
    if (side_.in().cur && isTransit(*side_.in().cur) &&
        side_.transitBuf.canPush()) {
        side_.transitBuf.push(*side_.in().cur);
        side_.in().cur.reset();
    }
}

bool
RingNic::canInject(const Packet &pkt) const
{
    const StagedFifo<Flit> &queue =
        isRequest(pkt.type) ? outReq_ : outResp_;
    return queue.producerSpace() >= pkt.sizeFlits;
}

void
RingNic::inject(const Packet &pkt)
{
    HRSIM_ASSERT(canInject(pkt));
    StagedFifo<Flit> &queue = isRequest(pkt.type) ? outReq_ : outResp_;
    for (std::uint32_t i = 0; i < pkt.sizeFlits; ++i)
        queue.push(makeFlit(pkt, i));
}

void
RingNic::commit()
{
    side_.in().commit();
    side_.transitBuf.commit();
    outResp_.commit();
    outReq_.commit();
}

std::uint64_t
RingNic::flitCount() const
{
    std::uint64_t count = side_.transitBuf.totalSize() +
                          outResp_.totalSize() + outReq_.totalSize();
    if (side_.in().cur)
        ++count;
    if (side_.in().staged)
        ++count;
    return count;
}

} // namespace hrsim

namespace hrsim
{

void
RingNic::debugDump(std::ostream &out) const
{
    out << "NIC pm=" << pm_ << " latch=";
    if (side_.in().cur) {
        out << side_.in().cur->packet << ":" << side_.in().cur->index
            << "->" << side_.in().cur->dst;
    } else {
        out << "-";
    }
    out << " buf=" << side_.transitBuf.size()
        << " outResp=" << outResp_.size()
        << " outReq=" << outReq_.size()
        << " worm=" << (side_.out.inWorm() ? 1 : 0);
    if (side_.out.inWorm())
        out << " wormPkt=" << side_.out.wormPacket();
    out << " accept=" << side_.accept() << "\n";
}

} // namespace hrsim
