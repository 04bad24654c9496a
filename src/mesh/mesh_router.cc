#include "mesh/mesh_router.hh"

#include "common/log.hh"

namespace hrsim
{

MeshPort
oppositePort(MeshPort port)
{
    switch (port) {
      case PortEast:
        return PortWest;
      case PortWest:
        return PortEast;
      case PortSouth:
        return PortNorth;
      case PortNorth:
        return PortSouth;
      default:
        HRSIM_PANIC("local port has no opposite");
    }
}

MeshRouter::MeshRouter(NodeId id, int width, std::uint32_t buffer_flits,
                       std::uint32_t queue_flits, bool round_robin,
                       Flit *storage)
    : id_(id), width_(width), x_(id % width), y_(id / width),
      roundRobin_(round_robin)
{
    HRSIM_ASSERT(buffer_flits >= 1);
    if (storage) {
        for (auto &buf : inBuf_) {
            buf.setCapacity(buffer_flits, storage);
            storage += buffer_flits;
        }
        outResp_.setCapacity(queue_flits, storage);
        storage += queue_flits;
        outReq_.setCapacity(queue_flits, storage);
    } else {
        for (auto &buf : inBuf_)
            buf.setCapacity(buffer_flits);
        outResp_.setCapacity(queue_flits);
        outReq_.setCapacity(queue_flits);
    }
    inputBound_.fill(-1);
}

void
MeshRouter::connect(MeshPort out, MeshRouter *neighbor,
                    UtilizationTracker *util,
                    UtilizationTracker::LinkId link)
{
    HRSIM_ASSERT(out != PortLocal);
    Output &port = out_[static_cast<std::size_t>(out)];
    port.neighbor = neighbor;
    port.peerBuf =
        &neighbor->inBuf_[static_cast<std::size_t>(oppositePort(out))];
    port.util = util;
    port.link = link;
    // The facing input on the neighbor is fed by this router: popping
    // it frees a slot this router may be blocked on (credit wake).
    neighbor->upstream_[static_cast<std::size_t>(oppositePort(out))] =
        this;
}

MeshPort
MeshRouter::routeOfCoordinate(NodeId dst) const
{
    const int dst_x = dst % width_;
    const int dst_y = dst / width_;
    if (dst_x > x_)
        return PortEast;
    if (dst_x < x_)
        return PortWest;
    if (dst_y > y_)
        return PortSouth;
    if (dst_y < y_)
        return PortNorth;
    return PortLocal;
}

const Flit *
MeshRouter::peekInput(int in) const
{
    if (in != PortLocal) {
        const auto &buf = inBuf_[static_cast<std::size_t>(in)];
        return buf.empty() ? nullptr : &buf.front();
    }
    // Local port: continue the bound queue's worm, else responses
    // have priority over requests at packet boundaries.
    switch (localSrc_) {
      case LocalSrc::Resp:
        return outResp_.empty() ? nullptr : &outResp_.front();
      case LocalSrc::Req:
        return outReq_.empty() ? nullptr : &outReq_.front();
      case LocalSrc::None:
        if (!outResp_.empty())
            return &outResp_.front();
        if (!outReq_.empty())
            return &outReq_.front();
        return nullptr;
    }
    return nullptr;
}

void
MeshRouter::evaluatePorts(Cycle now)
{
    // Port activity mask: one bit per input with a visible flit
    // (staged pushes only become visible at commit, so this cannot
    // race with neighbors). If nothing is visible the cycle is a
    // no-op, even when an output is still owned: an owned-but-starved
    // port just holds its binding. The six cursor blocks are
    // contiguous in the network's column, so the whole visibility
    // scan reads one or two cache lines off a single base pointer.
    PortMask vis = 0;
    for (int in = 0; in < PortLocal; ++in) {
        if (col_[in].visible != 0)
            vis |= static_cast<PortMask>(1u << in);
    }
    const bool local_vis =
        localSrc_ == LocalSrc::Resp   ? col_[4].visible != 0
        : localSrc_ == LocalSrc::Req ? col_[5].visible != 0
                                     : (col_[4].visible |
                                        col_[5].visible) != 0;
    if (local_vis)
        vis |= static_cast<PortMask>(1u << PortLocal);
    if (vis == 0)
        return;

    // 1+2. Routing and arbitration only run for visible *unbound*
    //      inputs — every flit at the front of an unbound input is a
    //      head (worms unbind exactly when their tail pops). Bound
    //      inputs stream below without touching routeOf() or the
    //      round-robin state.
    const PortMask unbound = vis & static_cast<PortMask>(~boundMask_);
    if (unbound != 0) {
        std::array<std::uint8_t, NumMeshPorts> requests{};
        for (PortMask m = unbound; m != 0; m = dropLowestPort(m)) {
            const int in = lowestSetPort(m);
            const Flit *head = peekInput(in);
            HRSIM_ASSERT(head != nullptr && head->isHead());
            requests[static_cast<std::size_t>(routeOf(head->dst))] |=
                static_cast<std::uint8_t>(1u << in);
        }
        for (int out = 0; out < NumMeshPorts; ++out) {
            Output &port = out_[static_cast<std::size_t>(out)];
            if (port.owner != -1 ||
                requests[static_cast<std::size_t>(out)] == 0) {
                continue;
            }
            const int base = roundRobin_ ? port.rrPtr : 0;
            for (int step = 0; step < NumMeshPorts; ++step) {
                const int in = (base + step) % NumMeshPorts;
                if (!(requests[static_cast<std::size_t>(out)] &
                      (1u << in))) {
                    continue;
                }
                grantOutput(out, in);
                break;
            }
        }
    }

    // 3. Worm streaming: owned outputs in ascending port order (see
    //    PortMask in mesh_router.hh).
    for (PortMask m = ownedMask_; m != 0; m = dropLowestPort(m))
        traverseOutput(lowestSetPort(m), now);
}

void
MeshRouter::grantOutput(int out, int in)
{
    Output &port = out_[static_cast<std::size_t>(out)];
    const Flit *head = peekInput(in);
    HRSIM_ASSERT(head != nullptr);
    port.owner = in;
    port.wormPkt = head->packet;
    inputBound_[static_cast<std::size_t>(in)] = out;
    boundMask_ |= static_cast<PortMask>(1u << in);
    ownedMask_ |= static_cast<PortMask>(1u << out);
    port.rrPtr = (in + 1) % NumMeshPorts;
    hot_->changed = true;
    if (in == PortLocal) {
        if (localSrc_ == LocalSrc::None) {
            // Bind the queue now: a packet arriving in the other
            // queue before the first flit crosses must not steal the
            // port (responses only outrank requests at packet
            // boundaries).
            localSrc_ =
                outResp_.empty() ? LocalSrc::Req : LocalSrc::Resp;
        }
        port.src = (localSrc_ == LocalSrc::Resp ? outResp_ : outReq_)
                       .view();
        port.srcUpstream = nullptr;
    } else {
        port.src = inBuf_[static_cast<std::size_t>(in)].view();
        port.srcUpstream = upstream_[static_cast<std::size_t>(in)];
        HRSIM_ASSERT(port.srcUpstream != nullptr);
    }
}

void
MeshRouter::traverseOutput(int out, Cycle now)
{
    Output &port = out_[static_cast<std::size_t>(out)];
    if (faults_ && out != PortLocal &&
        (faults_->out[static_cast<std::size_t>(out)].killing ||
         faults_->portDown[static_cast<std::size_t>(out)] != 0)) {
        killOutput(out);
        return;
    }
    const FifoView<Flit> src = port.src;
    if (src.empty())
        return; // worm starved: hold the port
    const Flit *next = &src.front();
    HRSIM_ASSERT(next->packet == port.wormPkt);
    bool tail;
    if (out == PortLocal) {
        // Ejection: the PM always sinks. Copy the flit out first —
        // the delivery callback runs after the pop (it may re-enter
        // this router through a synchronous response injection).
        const Flit flit = *next;
        src.dropFront();
        if (port.srcUpstream)
            wakeNeighbor(port.srcUpstream);
        hot_->changed = true;
        streamedFlits_ += static_cast<std::uint64_t>(!flit.isHead());
        tail = flit.isTail();
        if (acct_) {
            if (flit.poisoned)
                ++acct_->droppedFlits;
            else
                ++acct_->deliveredFlits;
        }
        // Poisoned worms (corrupted headers, or the kill token of a
        // truncated worm) drain out here but are never delivered.
        if (tail && deliver_ && !flit.poisoned)
            deliver_(packetFromFlit(flit), now);
    } else {
        HRSIM_ASSERT(port.peerBuf != nullptr);
        if (!port.peer.canPush())
            return; // blocked: flits wait in the input buffer
        bool poison = false;
        if (faults_) {
            auto &kill = faults_->out[static_cast<std::size_t>(out)];
            if (next->isHead() &&
                faults_->portCorrupt[static_cast<std::size_t>(out)] !=
                    0) {
                // Corrupt fault: the header crossing the bad link
                // poisons the whole worm (sticky past the window and
                // past any nested window boundary — the header is
                // what's broken).
                kill.poisoning = true;
                if (acct_)
                    ++acct_->poisonedWorms;
            }
            poison = kill.poisoning;
            if (poison && next->isTail())
                kill.poisoning = false;
        }
        // Stream the flit straight from the input front into the
        // downstream buffer: one element copy, no pop-into-temporary.
        if (poison) {
            Flit copy = *next;
            copy.poisoned = true;
            port.peer.pushFrom(copy);
        } else {
            port.peer.pushFrom(*next);
        }
        hot_->changed = true;
        wakeNeighbor(port.neighbor);
        if (port.utilCounter != nullptr && *port.utilMeasuring)
            ++*port.utilCounter;
        HRSIM_TRACE_FLIT(tracerSlot_ ? *tracerSlot_ : nullptr,
                         FlitEvent::Hop, next->packet, id_,
                         port.peer.totalSize());
        streamedFlits_ +=
            static_cast<std::uint64_t>(!next->isHead());
        tail = next->isTail();
        src.dropFront();
        if (port.srcUpstream)
            wakeNeighbor(port.srcUpstream);
    }
    if (tail) {
        inputBound_[static_cast<std::size_t>(port.owner)] = -1;
        boundMask_ &= static_cast<PortMask>(~(1u << port.owner));
        ownedMask_ &= static_cast<PortMask>(~(1u << out));
        if (port.owner == PortLocal)
            localSrc_ = LocalSrc::None;
        port.owner = -1;
        port.wormPkt = 0;
        port.src = {};
        port.srcUpstream = nullptr;
    }
}

void
MeshRouter::killOutput(int out)
{
    Output &port = out_[static_cast<std::size_t>(out)];
    if (port.owner == -1)
        return; // nothing bound to the dead link yet
    const FifoView<Flit> src = port.src;
    if (src.empty())
        return; // starved: the rest of the worm is still upstream
    const Flit *next = &src.front();
    HRSIM_ASSERT(next->packet == port.wormPkt);
    auto &kill = faults_->out[static_cast<std::size_t>(out)];
    if (!kill.killing) {
        kill.killing = true;
        kill.decided = false;
    }
    if (!kill.decided) {
        // First flit of the condemned worm tells us whether its head
        // already crossed: flits cross in order, so a front index
        // above zero means the worm's leading flits are downstream
        // and the kill must send them a terminator.
        kill.decided = true;
        kill.terminator = next->index > 0;
        if (acct_)
            ++acct_->droppedWorms;
    }
    if (kill.terminator) {
        // Terminate the downstream fragment: hand it one poisoned
        // tail flit (the link-level error token of the dead link) so
        // every router ahead unbinds normally and the fragment drains
        // to its ejection port, where the poison suppresses delivery.
        HRSIM_ASSERT(port.peerBuf != nullptr);
        if (!port.peer.canPush())
            return; // wait for space; credit wake re-runs this
        Flit token = *next;
        token.index = token.sizeFlits - 1;
        token.poisoned = true;
        port.peer.pushFrom(token);
        wakeNeighbor(port.neighbor);
        kill.terminator = false;
    } else if (acct_) {
        ++acct_->droppedFlits;
    }
    // Drain one flit per cycle, exactly the rate of a live link;
    // the drop frees the upstream slot, so credits flow and the
    // fabric behind the fault never wedges.
    const bool tail = next->isTail();
    src.dropFront();
    if (port.srcUpstream)
        wakeNeighbor(port.srcUpstream);
    hot_->changed = true;
    if (tail) {
        inputBound_[static_cast<std::size_t>(port.owner)] = -1;
        boundMask_ &= static_cast<PortMask>(~(1u << port.owner));
        ownedMask_ &= static_cast<PortMask>(~(1u << out));
        if (port.owner == PortLocal)
            localSrc_ = LocalSrc::None;
        port.owner = -1;
        port.wormPkt = 0;
        port.src = {};
        port.srcUpstream = nullptr;
        kill.killing = false;
        kill.decided = false;
    }
}

void
MeshRouter::commit()
{
    for (auto &buf : inBuf_)
        buf.commit();
    outResp_.commit();
    outReq_.commit();
}

bool
MeshRouter::canInject(const Packet &pkt) const
{
    const MeshFifo &queue =
        isRequest(pkt.type) ? outReq_ : outResp_;
    return queue.producerSpace() >= pkt.sizeFlits;
}

void
MeshRouter::inject(const Packet &pkt)
{
    HRSIM_ASSERT(canInject(pkt));
    MeshFifo &queue = isRequest(pkt.type) ? outReq_ : outResp_;
    for (std::uint32_t i = 0; i < pkt.sizeFlits; ++i)
        queue.push(makeFlit(pkt, i));
}

const MeshFifo &
MeshRouter::inputBuffer(MeshPort port) const
{
    HRSIM_ASSERT(port != PortLocal);
    return inBuf_[static_cast<std::size_t>(port)];
}

std::uint64_t
MeshRouter::flitCount() const
{
    std::uint64_t count = outResp_.totalSize() + outReq_.totalSize();
    for (const auto &buf : inBuf_)
        count += buf.totalSize();
    return count;
}

void
MeshRouter::saveState(CkptWriter &w) const
{
    for (const auto &buf : inBuf_)
        saveFlitFifo(w, buf);
    saveFlitFifo(w, outResp_);
    saveFlitFifo(w, outReq_);
    w.u8(static_cast<std::uint8_t>(localSrc_));
    for (const int bound : inputBound_)
        w.i32(bound);
    for (const Output &port : out_) {
        w.i32(port.owner);
        w.u64(port.wormPkt);
        w.i32(port.rrPtr);
    }
    w.u8(boundMask_);
    w.u8(ownedMask_);
    w.u64(streamedFlits_);
    w.boolean(hot_->changed);
    w.boolean(hot_->poked);
}

void
MeshRouter::loadState(CkptReader &r)
{
    for (auto &buf : inBuf_)
        loadFlitFifo(r, buf);
    loadFlitFifo(r, outResp_);
    loadFlitFifo(r, outReq_);
    localSrc_ = static_cast<LocalSrc>(r.u8());
    for (int &bound : inputBound_)
        bound = r.i32();
    for (Output &port : out_) {
        port.owner = r.i32();
        port.wormPkt = r.u64();
        port.rrPtr = r.i32();
    }
    boundMask_ = r.u8();
    ownedMask_ = r.u8();
    streamedFlits_ = r.u64();
    hot_->changed = r.boolean();
    hot_->poked = r.boolean();
    // Rebuild the derived per-grant caches (grantOutput()'s recipe):
    // the source view and credit-wake target are fixed for the worm's
    // lifetime, so they follow directly from the owner input.
    for (std::size_t out = 0; out < NumMeshPorts; ++out) {
        Output &port = out_[out];
        if (port.owner == -1) {
            port.src = {};
            port.srcUpstream = nullptr;
        } else if (port.owner == PortLocal) {
            HRSIM_ASSERT(localSrc_ != LocalSrc::None);
            port.src =
                (localSrc_ == LocalSrc::Resp ? outResp_ : outReq_)
                    .view();
            port.srcUpstream = nullptr;
        } else {
            port.src =
                inBuf_[static_cast<std::size_t>(port.owner)].view();
            port.srcUpstream =
                upstream_[static_cast<std::size_t>(port.owner)];
            HRSIM_ASSERT(port.srcUpstream != nullptr);
        }
    }
}

} // namespace hrsim
