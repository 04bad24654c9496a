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
    activeMask_.reset(p);
    routers_.reserve(p);
    for (NodeId id = 0; id < num_pms; ++id) {
        MeshRouter &router = routers_.emplace_back(
            id, params_.width, bufferFlits_, clFlits_, &packets_,
            &activeMask_, params_.roundRobinArbitration);
        router.setDeliver([this](const Packet &pkt, Cycle when) {
            delivered(pkt, when);
        });
        router.setTracerSlot(&tracer_);
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
    // counter pointers are stable — cache them in each output port
    // for the per-hop fast path.
    for (auto &router : routers_)
        router.cacheLinkCounters();
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
        // amortize it: most ticks commit every router in one linear
        // sweep (a clean FIFO's commit is a no-op) and keep the mask
        // as-is — retaining an idle router is always sound, only
        // *removal* needs the no-op proof. Every 16th saturated tick
        // runs the real sweep so the mask can decay once load drops.
        if (++satTicks_ % 16 != 0) {
            for (MeshRouter &router : routers_)
                router.commit();
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
        MeshRouter &router = routers_[id];
        router.commit();
        return router.sweepKeep();
    });
    // Sleep soundness check: e-cube is deadlock-free and ejection
    // always sinks, so flits in flight imply some router just moved
    // one (and stayed awake). An empty mask must mean an empty mesh,
    // and then every packet-table slot is back on the free list.
    if (activeMask_.empty())
        HRSIM_ASSERT(flitsInFlight() == 0 && packets_.liveSlots() == 0);
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

template <class Io, class Self>
void
MeshNetwork::layout(Io &io, Self &self, std::vector<PacketId> &worm_ids,
                    std::vector<std::uint32_t> &members)
{
    io.u32(self.satTicks_);
    for (std::size_t id = 0; id < self.routers_.size(); ++id)
        io.state(self.routers_[id], &worm_ids[id * NumMeshPorts]);
    // Fault planes exist only while a plan is live; the flag guards
    // against restoring a faulted snapshot into a fault-free config.
    io.sameFlag(!self.faultState_.empty(),
                "fault-plane mismatch (snapshot and config disagree on "
                "an active fault plan)");
    for (auto &faults : self.faultState_)
        ckptMeshRouterFaults(io, faults);
    // Explicit scheduler membership, in ascending id order.
    const std::size_t routers = self.routers_.size();
    io.seq(members, "active-set member", 4,
           [routers](auto &io_, auto &id) {
               io_.u32(id);
               if (id >= routers) {
                   throw CheckpointError(
                       "checkpoint: active-set member out of range "
                       "(topology mismatch)");
               }
           });
}

void
MeshNetwork::saveState(CkptWriter &w) const
{
    std::vector<PacketId> worm_ids(routers_.size() * NumMeshPorts);
    std::vector<std::uint32_t> members;
    activeMask_.forEach(
        [&members](std::uint32_t id) { members.push_back(id); });
    layout(w, *this, worm_ids, members);
}

void
MeshNetwork::loadState(CkptReader &r)
{
    packets_.beginLoad(numProcessors());
    std::vector<PacketId> worm_ids(routers_.size() * NumMeshPorts);
    std::vector<std::uint32_t> members;
    layout(r, *this, worm_ids, members);
    for (std::size_t id = 0; id < routers_.size(); ++id)
        routers_[id].bindLoadedWorms(&worm_ids[id * NumMeshPorts]);
    packets_.endLoad();
    activeMask_.reset(routers_.size());
    for (const std::uint32_t id : members)
        activeMask_.add(id);
}

MeshRouter &
MeshNetwork::router(NodeId id)
{
    HRSIM_ASSERT(id >= 0 && id < numProcessors());
    return routers_[static_cast<std::size_t>(id)];
}

} // namespace hrsim
