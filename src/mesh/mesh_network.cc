#include "mesh/mesh_network.hh"

#include "common/log.hh"
#include "obs/metric_registry.hh"

namespace hrsim
{

MeshNetwork::MeshNetwork(const Params &params)
    : params_(params),
      clFlits_(ChannelSpec::mesh().cacheLineFlits(params.cacheLineBytes)),
      bufferFlits_(params.bufferFlits == 0 ? clFlits_
                                           : params.bufferFlits)
{
    if (params_.width < 1)
        fatal("MeshNetwork: width must be >= 1");

    const int num_pms = params_.width * params_.width;
    const auto p = static_cast<std::size_t>(num_pms);
    // Hot per-cycle state lives in flat columns indexed by router id
    // (six FIFO cursor blocks, inputs E/W/S/N then outResp then
    // outReq, and one changed/poked flag pair), bound as each router
    // is built.
    fifoCol_.resize(p * 6);
    flagsCol_.resize(p);
    activeMask_.reset(p);
    // Segment one arena so each router's buffered flits occupy
    // adjacent cache lines (the routers themselves store only the
    // queue bookkeeping; see MeshRouter's storage parameter).
    const std::size_t arena_per =
        MeshRouter::arenaFlits(bufferFlits_, clFlits_);
    flitArena_.resize(static_cast<std::size_t>(num_pms) * arena_per);
    routers_.reserve(static_cast<std::size_t>(num_pms));
    for (NodeId id = 0; id < num_pms; ++id) {
        MeshRouter &router = routers_.emplace_back(
            id, params_.width, bufferFlits_, clFlits_,
            params_.roundRobinArbitration,
            flitArena_.data() +
                static_cast<std::size_t>(id) * arena_per);
        router.setDeliver([this](const Packet &pkt, Cycle when) {
            delivered(pkt, when);
        });
        router.setTracerSlot(&tracer_);
        const auto idx = static_cast<std::size_t>(id);
        router.bindColumns(&fifoCol_[idx * 6], &flagsCol_[idx],
                           &activeMask_);
    }

    // e-cube routing LUT: one row per router, one byte per
    // destination. Built from the coordinate computation it replaces
    // (test_mesh_network.cc checks the two agree exhaustively).
    routeLut_.resize(p * p);
    for (std::size_t r = 0; r < p; ++r) {
        for (std::size_t dst = 0; dst < p; ++dst) {
            routeLut_[r * p + dst] =
                static_cast<std::uint8_t>(routers_[r].routeOfCoordinate(
                    static_cast<NodeId>(dst)));
        }
        routers_[r].setRouteRow(&routeLut_[r * p]);
    }

    meshGroup_ = util_.group("mesh");
    const int w = params_.width;
    for (int y = 0; y < w; ++y) {
        for (int x = 0; x < w; ++x) {
            MeshRouter &self =
                routers_[static_cast<std::size_t>(y * w + x)];
            const auto wire = [&](MeshPort port, int nx, int ny) {
                MeshRouter &peer =
                    routers_[static_cast<std::size_t>(ny * w + nx)];
                self.connect(port, &peer, &util_,
                             util_.addLink(meshGroup_));
            };
            if (x + 1 < w)
                wire(PortEast, x + 1, y);
            if (x > 0)
                wire(PortWest, x - 1, y);
            if (y + 1 < w)
                wire(PortSouth, x, y + 1);
            if (y > 0)
                wire(PortNorth, x, y - 1);
        }
    }
    // Every group and link is registered now, so the tracker's
    // counter pointers are stable — cache them (and the peer views)
    // in each output port for the per-hop fast path.
    for (auto &router : routers_)
        router.refreshViews();
}

int
MeshNetwork::numProcessors() const
{
    return params_.width * params_.width;
}

bool
MeshNetwork::canInject(NodeId pm, const Packet &pkt) const
{
    HRSIM_ASSERT(pm >= 0 && pm < numProcessors());
    return routers_[static_cast<std::size_t>(pm)].canInject(pkt);
}

void
MeshNetwork::inject(NodeId pm, const Packet &pkt)
{
    HRSIM_ASSERT(pm >= 0 && pm < numProcessors());
    HRSIM_ASSERT(pkt.src == pm);
    if (pkt.dst == broadcastNode)
        fatal("MeshNetwork: meshes have no broadcast; send unicasts");
    routers_[static_cast<std::size_t>(pm)].inject(pkt);
    routers_[static_cast<std::size_t>(pm)].poke();
    activeMask_.add(static_cast<std::uint32_t>(pm));
    if (acct_)
        acct_->injectedFlits += pkt.sizeFlits;
    HRSIM_TRACE_FLIT(tracer_, FlitEvent::Inject, pkt.id, pm,
                     routers_[static_cast<std::size_t>(pm)].flitCount());
}

void
MeshNetwork::tick(Cycle now)
{
    // The mask's forEach visits live ids in ascending order. A router
    // woken mid-pass and visited in the same pass was asleep, i.e.
    // its last evaluate changed nothing; neighbor occupancy is
    // invariant until the commits below, so that evaluate provably
    // changes nothing again, and visiting it now instead of next
    // cycle is a no-op either way (see MeshRouter::sweepKeep).
    //
    // Saturation hybrid: when most routers are awake a plain linear
    // sweep over every router beats the bitmap scan, and evaluating
    // the few asleep routers too is harmless for the same reason.
    if (activeMask_.size() * 4 >= routers_.size() * 3) {
        for (MeshRouter &router : routers_)
            router.evaluate(now);
        // At saturation the sleep sweep rarely retires anyone, so
        // amortize it: most ticks commit everything via one linear
        // cursor sweep (router commits are exactly six FIFO-state
        // commits each, and a clean FIFO's commit is a no-op) and
        // keep the mask as-is — retaining an idle router is always
        // sound, only *removal* needs the no-op proof. Every 16th
        // saturated tick runs the real sweep so the mask can decay
        // once load drops.
        if (++satTicks_ % 16 != 0) {
            for (FifoState &state : fifoCol_)
                state.commit();
            return;
        }
    } else {
        activeMask_.forEach([this, now](std::uint32_t id) {
            routers_[id].evaluate(now);
        });
    }
    // Commit fused into the sleep sweep (commits are per-router
    // bookkeeping, order-free). The sleep decision is sweepKeep():
    // a router whose evaluate changed nothing sleeps even while it
    // still buffers flits — a back-pressured worm burns no cycles
    // waiting — and is re-woken by the arrival, injection or
    // downstream-credit poke that could let it move again.
    activeMask_.retain([this](std::uint32_t id) {
        FifoState *states = &fifoCol_[static_cast<std::size_t>(id) * 6];
        for (int q = 0; q < 6; ++q)
            states[q].commit();
        return routers_[id].sweepKeep();
    });
    // Sleep soundness check: e-cube is deadlock-free and ejection
    // always sinks, so flits in flight imply some router just moved
    // one (and stayed awake). An empty mask must mean an empty mesh.
    if (activeMask_.empty())
        HRSIM_ASSERT(flitsInFlight() == 0);
}

bool
MeshNetwork::isIdle() const
{
    return activeMask_.empty();
}

std::size_t
MeshNetwork::activeNodeCount() const
{
    return activeMask_.size();
}

std::uint64_t
MeshNetwork::flitsInFlight() const
{
    std::uint64_t count = 0;
    for (const auto &router : routers_)
        count += router.flitCount();
    return count;
}

double
MeshNetwork::networkUtilization() const
{
    return util_.groupUtilization(meshGroup_);
}

void
MeshNetwork::registerMetrics(MetricRegistry &registry) const
{
    registry.addGauge("mesh.util",
                      [this]() { return networkUtilization(); });
    registry.addGauge("router.streamed_flits", [this]() {
        std::uint64_t total = 0;
        for (const auto &router : routers_)
            total += router.streamedFlits();
        return static_cast<double>(total);
    });
    for (std::size_t id = 0; id < routers_.size(); ++id) {
        const MeshRouter *router = &routers_[id];
        registry.addGauge("mesh.r" + std::to_string(id) + ".flits",
                          [router]() {
                              return static_cast<double>(
                                  router->flitCount());
                          });
    }
}

bool
MeshNetwork::faultTargetValid(const FaultTarget &target) const
{
    if (target.kind != FaultTargetKind::MeshRouter &&
        target.kind != FaultTargetKind::MeshPort) {
        return false;
    }
    if (target.id < 0 || target.id >= numProcessors())
        return false;
    if (target.kind == FaultTargetKind::MeshPort) {
        // The named output must actually be wired: edge routers have
        // no east link on the last column, etc.
        const int x = target.id % params_.width;
        const int y = target.id / params_.width;
        switch (target.port) {
          case PortEast:
            return x + 1 < params_.width;
          case PortWest:
            return x > 0;
          case PortSouth:
            return y + 1 < params_.width;
          case PortNorth:
            return y > 0;
          default:
            return false;
        }
    }
    return true;
}

void
MeshNetwork::applyFault(const FaultEvent &event, bool active)
{
    HRSIM_ASSERT(!faultState_.empty());
    const auto id = static_cast<std::size_t>(event.target.id);
    MeshRouterFaults &faults = faultState_[id];
    const auto port = static_cast<std::size_t>(event.target.port);
    const std::int8_t delta = active ? 1 : -1;
    switch (event.action) {
      case FaultAction::LinkDown:
        HRSIM_ASSERT(active || faults.portDown[port] > 0);
        faults.portDown[port] =
            static_cast<std::uint8_t>(faults.portDown[port] + delta);
        break;
      case FaultAction::Stall:
        HRSIM_ASSERT(active || faults.stalled > 0);
        faults.stalled =
            static_cast<std::uint8_t>(faults.stalled + delta);
        break;
      case FaultAction::Corrupt:
        HRSIM_ASSERT(active || faults.portCorrupt[port] > 0);
        faults.portCorrupt[port] = static_cast<std::uint8_t>(
            faults.portCorrupt[port] + delta);
        break;
    }
    // Both edges wake the router: activation so a dead output starts
    // draining (and a stalled router pins itself awake via
    // sweepKeep), deactivation so frozen traffic moves again.
    routers_[id].poke();
    activeMask_.add(static_cast<std::uint32_t>(id));
}

void
MeshNetwork::setFaultAccounting(FaultAccounting *acct)
{
    acct_ = acct;
    faultState_.assign(routers_.size(), MeshRouterFaults{});
    for (std::size_t id = 0; id < routers_.size(); ++id)
        routers_[id].setFaultState(acct ? &faultState_[id] : nullptr,
                                   acct);
}

void
MeshNetwork::saveState(CkptWriter &w) const
{
    w.u32(satTicks_);
    for (const MeshRouter &router : routers_)
        router.saveState(w);
    // Fault planes exist only while a plan is live; the flag guards
    // against restoring a faulted snapshot into a fault-free config.
    w.boolean(!faultState_.empty());
    for (const MeshRouterFaults &faults : faultState_)
        saveMeshRouterFaults(w, faults);
    // Explicit scheduler membership, in ascending id order.
    w.u32(static_cast<std::uint32_t>(activeMask_.size()));
    activeMask_.forEach([&w](std::uint32_t id) { w.u32(id); });
}

void
MeshNetwork::loadState(CkptReader &r)
{
    satTicks_ = r.u32();
    for (MeshRouter &router : routers_)
        router.loadState(r);
    const bool has_faults = r.boolean();
    if (has_faults != !faultState_.empty()) {
        throw CheckpointError(
            "checkpoint: fault-plane mismatch (snapshot and config "
            "disagree on an active fault plan)");
    }
    for (MeshRouterFaults &faults : faultState_)
        loadMeshRouterFaults(r, faults);
    const std::uint32_t members = r.u32();
    activeMask_.reset(routers_.size());
    for (std::uint32_t i = 0; i < members; ++i) {
        const std::uint32_t id = r.u32();
        if (id >= routers_.size()) {
            throw CheckpointError(
                "checkpoint: active-set member out of range "
                "(topology mismatch)");
        }
        activeMask_.add(id);
    }
}

MeshRouter &
MeshNetwork::router(NodeId id)
{
    HRSIM_ASSERT(id >= 0 && id < numProcessors());
    return routers_[static_cast<std::size_t>(id)];
}

} // namespace hrsim
