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
                       std::uint32_t queue_flits, PacketTable *packets,
                       ActiveMask *wake_mask, bool round_robin)
    : id_(id), width_(width), x_(id % width), y_(id / width),
      roundRobin_(round_robin), packets_(packets), wakeMask_(wake_mask)
{
    HRSIM_ASSERT(packets != nullptr && wake_mask != nullptr);
    HRSIM_ASSERT(buffer_flits >= 1);
    for (auto &buf : inBuf_)
        buf.setCapacity(buffer_flits);
    outResp_.setCapacity(queue_flits);
    outReq_.setCapacity(queue_flits);
    inputBound_.fill(-1);
}

void
MeshRouter::connect(MeshPort out, MeshRouter *neighbor,
                    UtilizationTracker *util,
                    UtilizationTracker::LinkId link)
{
    HRSIM_ASSERT(out != PortLocal && util != nullptr);
    Output &port = out_[static_cast<std::size_t>(out)];
    port.neighbor = neighbor;
    port.peer =
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

inline void
MeshRouter::traverseOutput(int out)
{
    const Output &port = out_[static_cast<std::size_t>(out)];
    if (port.src->empty())
        return; // worm starved: hold the port
    if (!port.peer->canPush())
        return; // blocked: flits wait in the input buffer
    forwardFront(out, port.src->front());
}

inline void
MeshRouter::forwardFront(int out, const Flit &flit)
{
    // Stream the flit straight from the input front into the
    // downstream buffer: one 16-byte element copy.
    Output &port = out_[static_cast<std::size_t>(out)];
    HRSIM_ASSERT(flit.slot == port.wormSlot);
    port.peer->pushFrom(flit);
    changed_ = true;
    wakeNeighbor(port.neighbor);
    if (*port.utilMeasuring)
        ++*port.utilCounter;
    HRSIM_TRACE_FLIT(tracerSlot_ ? *tracerSlot_ : nullptr,
                     FlitEvent::Hop, packets_->id(flit.slot), id_,
                     port.peer->totalSize());
    streamedFlits_ += static_cast<std::uint64_t>(!flit.isHead());
    const bool tail = flit.isTail();
    port.src->dropFront();
    if (port.srcUpstream)
        wakeNeighbor(port.srcUpstream);
    if (tail)
        unbindOutput(out);
}

void
MeshRouter::evaluatePorts(Cycle now)
{
    // Port activity mask: one bit per input with a visible flit
    // (staged pushes only become visible at commit, so this cannot
    // race with neighbors). If nothing is visible the cycle is a
    // no-op, even when an output is still owned: an owned-but-starved
    // port just holds its binding. The scan reads the six queues'
    // in-object cursors, and it is straight-line code: which queues
    // hold flits is exactly the data-dependent outcome a branch would
    // mispredict on.
    unsigned bits = 0;
    for (int in = 0; in < PortLocal; ++in) {
        bits |= static_cast<unsigned>(
                    !inBuf_[static_cast<std::size_t>(in)].empty())
                << in;
    }
    // The local input sees the PM queue its worm is bound to, or
    // either one at a packet boundary: bit 0 picks the response
    // queue, bit 1 the request queue.
    static constexpr std::uint8_t localPick[] = {3, 1, 2};
    const unsigned queues =
        static_cast<unsigned>(!outResp_.empty()) |
        static_cast<unsigned>(!outReq_.empty()) << 1;
    bits |= static_cast<unsigned>(
                (queues &
                 localPick[static_cast<std::size_t>(localSrc_)]) != 0)
            << PortLocal;
    const auto vis = static_cast<PortMask>(bits);
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
    for (PortMask m = ownedMask_; m != 0; m = dropLowestPort(m)) {
        const int out = lowestSetPort(m);
        if (out == PortLocal)
            ejectLocal(now);
        else if (faults_)
            traverseFaulted(out);
        else
            traverseOutput(out);
    }
}

void
MeshRouter::grantOutput(int out, int in)
{
    Output &port = out_[static_cast<std::size_t>(out)];
    const Flit *head = peekInput(in);
    HRSIM_ASSERT(head != nullptr);
    port.owner = in;
    port.wormSlot = head->slot;
    inputBound_[static_cast<std::size_t>(in)] = out;
    boundMask_ |= static_cast<PortMask>(1u << in);
    ownedMask_ |= static_cast<PortMask>(1u << out);
    port.rrPtr = (in + 1) % NumMeshPorts;
    changed_ = true;
    if (in == PortLocal && localSrc_ == LocalSrc::None) {
        // Bind the queue now: a packet arriving in the other queue
        // before the first flit crosses must not steal the port
        // (responses only outrank requests at packet boundaries).
        localSrc_ = outResp_.empty() ? LocalSrc::Req : LocalSrc::Resp;
    }
    cacheSource(out);
}

void
MeshRouter::cacheSource(int out)
{
    Output &port = out_[static_cast<std::size_t>(out)];
    if (port.owner == PortLocal) {
        HRSIM_ASSERT(localSrc_ != LocalSrc::None);
        port.src = localSrc_ == LocalSrc::Resp ? &outResp_ : &outReq_;
        port.srcUpstream = nullptr;
    } else {
        const auto in = static_cast<std::size_t>(port.owner);
        port.src = &inBuf_[in];
        port.srcUpstream = upstream_[in];
        HRSIM_ASSERT(port.srcUpstream != nullptr);
    }
}

void
MeshRouter::ejectLocal(Cycle now)
{
    const Output &port = out_[PortLocal];
    StagedFifo<Flit> &src = *port.src;
    if (src.empty())
        return; // worm starved: hold the port
    // Ejection: the PM always sinks. Copy the flit out first — the
    // delivery callback runs after the pop (it may re-enter this
    // router through a synchronous response injection).
    const Flit flit = src.front();
    HRSIM_ASSERT(flit.slot == port.wormSlot);
    src.dropFront();
    if (port.srcUpstream)
        wakeNeighbor(port.srcUpstream);
    changed_ = true;
    streamedFlits_ += static_cast<std::uint64_t>(!flit.isHead());
    if (acct_) {
        if (flit.poisoned)
            ++acct_->droppedFlits;
        else
            ++acct_->deliveredFlits;
    }
    // Poisoned worms (corrupted headers, or the kill token of a
    // truncated worm) drain out here but are never delivered. The
    // packet is read before the flit's slot is released.
    const bool tail = flit.isTail();
    const bool deliver = tail && deliver_ && !flit.poisoned;
    Packet pkt;
    if (deliver)
        pkt = packets_->packet(flit);
    packets_->release(flit.slot);
    if (deliver)
        deliver_(pkt, now);
    if (tail)
        unbindOutput(PortLocal);
}

void
MeshRouter::traverseFaulted(int out)
{
    const auto o = static_cast<std::size_t>(out);
    if (faults_->out[o].killing || faults_->portDown[o] != 0) {
        killOutput(out);
        return;
    }
    const Output &port = out_[o];
    if (port.src->empty() || !port.peer->canPush())
        return; // starved or blocked: hold the port
    Flit flit = port.src->front();
    auto &kill = faults_->out[o];
    if (flit.isHead() && faults_->portCorrupt[o] != 0) {
        // Corrupt fault: the header crossing the bad link poisons
        // the whole worm (sticky past the window and past any nested
        // window boundary — the header is what's broken).
        kill.poisoning = true;
        if (acct_)
            ++acct_->poisonedWorms;
    }
    if (kill.poisoning) {
        flit.poisoned = true;
        if (flit.isTail())
            kill.poisoning = false;
    }
    forwardFront(out, flit);
}

void
MeshRouter::unbindOutput(int out)
{
    Output &port = out_[static_cast<std::size_t>(out)];
    inputBound_[static_cast<std::size_t>(port.owner)] = -1;
    boundMask_ &= static_cast<PortMask>(~(1u << port.owner));
    ownedMask_ &= static_cast<PortMask>(~(1u << out));
    if (port.owner == PortLocal)
        localSrc_ = LocalSrc::None;
    port.owner = -1;
    port.wormSlot = 0;
    port.src = nullptr;
    port.srcUpstream = nullptr;
}

void
MeshRouter::killOutput(int out)
{
    Output &port = out_[static_cast<std::size_t>(out)];
    if (port.owner == -1)
        return; // nothing bound to the dead link yet
    StagedFifo<Flit> &src = *port.src;
    if (src.empty())
        return; // starved: the rest of the worm is still upstream
    const Flit *next = &src.front();
    HRSIM_ASSERT(next->slot == port.wormSlot);
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
        // The token replaces the flit it is cut from, so the packet's
        // live-flit count is unchanged.
        HRSIM_ASSERT(port.peer != nullptr);
        if (!port.peer->canPush())
            return; // wait for space; credit wake re-runs this
        Flit token = *next;
        token.index = static_cast<std::uint16_t>(token.sizeFlits - 1);
        token.poisoned = true;
        port.peer->pushFrom(token);
        wakeNeighbor(port.neighbor);
        kill.terminator = false;
    } else {
        if (acct_)
            ++acct_->droppedFlits;
        packets_->release(next->slot);
    }
    // Drain one flit per cycle, exactly the rate of a live link;
    // the drop frees the upstream slot, so credits flow and the
    // fabric behind the fault never wedges.
    const bool tail = next->isTail();
    src.dropFront();
    if (port.srcUpstream)
        wakeNeighbor(port.srcUpstream);
    changed_ = true;
    if (tail) {
        unbindOutput(out);
        kill.killing = false;
        kill.decided = false;
    }
}

bool
MeshRouter::canInject(const Packet &pkt) const
{
    const StagedFifo<Flit> &queue =
        isRequest(pkt.type) ? outReq_ : outResp_;
    return queue.producerSpace() >= pkt.sizeFlits;
}

void
MeshRouter::inject(const Packet &pkt)
{
    HRSIM_ASSERT(canInject(pkt));
    StagedFifo<Flit> &queue = isRequest(pkt.type) ? outReq_ : outResp_;
    const std::uint32_t slot = packets_->acquire(pkt);
    for (std::uint32_t i = 0; i < pkt.sizeFlits; ++i)
        queue.push(makeFlit(pkt, slot, i));
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
        saveFlitFifo(w, buf, *packets_);
    saveFlitFifo(w, outResp_, *packets_);
    saveFlitFifo(w, outReq_, *packets_);
    w.u8(static_cast<std::uint8_t>(localSrc_));
    for (const int bound : inputBound_)
        w.i32(bound);
    for (const Output &port : out_) {
        w.i32(port.owner);
        w.u64(port.owner == -1 ? 0 : packets_->id(port.wormSlot));
        w.i32(port.rrPtr);
    }
    w.u8(boundMask_);
    w.u8(ownedMask_);
    w.u64(streamedFlits_);
    w.boolean(changed_);
    w.boolean(poked_);
}

void
MeshRouter::loadState(CkptReader &r, PacketId *worm_ids)
{
    for (auto &buf : inBuf_)
        loadFlitFifo(r, buf, *packets_);
    loadFlitFifo(r, outResp_, *packets_);
    loadFlitFifo(r, outReq_, *packets_);
    localSrc_ = r.enumerant("mesh local source", LocalSrc::Req);
    for (int &bound : inputBound_)
        bound = r.i32();
    for (std::size_t out = 0; out < NumMeshPorts; ++out) {
        Output &port = out_[out];
        port.owner = r.i32();
        worm_ids[out] = r.u64();
        port.wormSlot = 0;
        port.rrPtr = r.i32();
    }
    boundMask_ = r.u8();
    ownedMask_ = r.u8();
    streamedFlits_ = r.u64();
    changed_ = r.boolean();
    poked_ = r.boolean();
    checkLoadedPorts();
    // Rebuild the derived per-grant caches (grantOutput()'s recipe):
    // the source queue and credit-wake target are fixed for the
    // worm's lifetime, so they follow directly from the owner input.
    for (std::size_t out = 0; out < NumMeshPorts; ++out) {
        Output &port = out_[out];
        port.src = nullptr;
        port.srcUpstream = nullptr;
        if (port.owner != -1)
            cacheSource(static_cast<int>(out));
    }
}

void
MeshRouter::checkLoadedPorts() const
{
    const auto refuse = [this](const std::string &what) {
        throw CheckpointError("checkpoint: mesh router " +
                              std::to_string(id_) + " " + what);
    };
    const auto port_index = [&refuse](int value, bool allow_none,
                                      const std::string &field) {
        if (value < (allow_none ? -1 : 0) || value >= NumMeshPorts) {
            refuse(field + " " + std::to_string(value) +
                   " outside [" + (allow_none ? "-1" : "0") + ", " +
                   std::to_string(NumMeshPorts - 1) + "]");
        }
    };
    // Ranges first: every later check indexes by these values.
    PortMask bound = 0;
    PortMask owned = 0;
    for (int p = 0; p < NumMeshPorts; ++p) {
        const auto i = static_cast<std::size_t>(p);
        const std::string n = std::to_string(p);
        port_index(inputBound_[i], true, "inputBound[" + n + "]");
        port_index(out_[i].owner, true, "output " + n + " owner");
        port_index(out_[i].rrPtr, false, "output " + n + " rrPtr");
        if (inputBound_[i] != -1)
            bound |= static_cast<PortMask>(1u << p);
        if (out_[i].owner != -1)
            owned |= static_cast<PortMask>(1u << p);
    }
    // Bindings pair bound inputs with owned outputs one to one, and
    // both ends of a worm's binding must be wired links.
    for (int p = 0; p < NumMeshPorts; ++p) {
        const auto i = static_cast<std::size_t>(p);
        const int out = inputBound_[i];
        if (out != -1 && out_[static_cast<std::size_t>(out)].owner != p) {
            refuse("inputBound[" + std::to_string(p) + "] names output " +
                   std::to_string(out) + ", whose owner disagrees");
        }
        const int owner = out_[i].owner;
        if (owner == -1)
            continue;
        if (inputBound_[static_cast<std::size_t>(owner)] != p) {
            refuse("output " + std::to_string(p) + " owner is input " +
                   std::to_string(owner) +
                   ", whose inputBound disagrees");
        }
        if (p != PortLocal && out_[i].peer == nullptr)
            refuse("owner binds unwired output " + std::to_string(p));
        if (owner != PortLocal &&
            upstream_[static_cast<std::size_t>(owner)] == nullptr) {
            refuse("output " + std::to_string(p) +
                   " owner is unwired input " + std::to_string(owner));
        }
    }
    if (boundMask_ != bound) {
        refuse("boundMask " + std::to_string(boundMask_) +
               " disagrees with inputBound");
    }
    if (ownedMask_ != owned) {
        refuse("ownedMask " + std::to_string(ownedMask_) +
               " disagrees with the output owners");
    }
    if ((localSrc_ != LocalSrc::None) != (inputBound_[PortLocal] != -1))
        refuse("localSrc disagrees with the local input's binding");
}

void
MeshRouter::bindLoadedWorms(const PacketId *worm_ids)
{
    for (std::size_t out = 0; out < NumMeshPorts; ++out) {
        Output &port = out_[out];
        if (port.owner == -1)
            continue;
        // A bound worm's tail has not crossed yet, so the packet is
        // still in flight and was interned by some router's queues.
        const std::uint32_t slot = packets_->slotOf(worm_ids[out]);
        if (slot == PacketTable::noSlot) {
            throw CheckpointError(
                "checkpoint: mesh router " + std::to_string(id_) +
                " binds a worm of packet " +
                std::to_string(worm_ids[out]) + " with no flit in "
                "flight");
        }
        port.wormSlot = slot;
    }
    // Worm shape: evaluate routes the front of an unbound queue, so
    // it must be a head, and streams a bound input's front into its
    // output, so it must belong to the worm that output holds.
    const auto check = [this](const StagedFifo<Flit> &queue, int out,
                              const std::string &what) {
        if (queue.empty())
            return;
        const Flit &front = queue.front();
        const auto refuse = [&](const std::string &why) {
            throw CheckpointError(
                "checkpoint: mesh router " + std::to_string(id_) + " " +
                what + " front of packet " +
                std::to_string(packets_->id(front.slot)) + why);
        };
        if (out == -1) {
            if (!front.isHead())
                refuse(" is a body flit no worm holds");
        } else if (front.slot !=
                   out_[static_cast<std::size_t>(out)].wormSlot) {
            refuse(" is not the worm output " + std::to_string(out) +
                   " holds");
        }
    };
    for (std::size_t in = 0; in < PortLocal; ++in) {
        check(inBuf_[in], inputBound_[in],
              "input " + std::to_string(in));
    }
    // The local input's worm drains one PM queue; the other must
    // offer a head once it ends.
    const int local = inputBound_[PortLocal];
    check(outResp_, localSrc_ == LocalSrc::Resp ? local : -1,
          "response queue");
    check(outReq_, localSrc_ == LocalSrc::Req ? local : -1,
          "request queue");
}

} // namespace hrsim
