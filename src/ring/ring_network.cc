#include "ring/ring_network.hh"
#include <ostream>

#include "common/log.hh"
#include "obs/metric_registry.hh"
#include "proto/packet.hh"

namespace hrsim
{

RingNetwork::RingNetwork(const Params &params)
    : params_(params), structure_(RingStructure::build(params.topo)),
      clFlits_(ChannelSpec::ring().cacheLineFlits(params.cacheLineBytes))
{
    if (params_.globalRingSpeed < 1)
        fatal("RingNetwork: global ring speed must be >= 1");

    const int num_pms = structure_.numProcessors();
    nics_.reserve(static_cast<std::size_t>(num_pms));
    for (NodeId pm = 0; pm < num_pms; ++pm)
        nics_.emplace_back(pm, clFlits_, params_.nicBypass, &packets_);
    // Long enough that the escape never fires at the paper's
    // operating points (queueing waits there are tens of cycles) yet
    // finite, so no blocking cycle can persist.
    const std::uint32_t wait_limit = params_.iriWaitLimit != 0
                                         ? params_.iriWaitLimit
                                         : 32 * clFlits_;
    if (params_.iriQueuePackets < 1)
        fatal("RingNetwork: IRI queues need >= 1 packet");
    iris_.reserve(structure_.iris.size());
    for (const IriDesc &desc : structure_.iris) {
        iris_.emplace_back(desc.subtreeLo, desc.subtreeHi, clFlits_,
                           wait_limit, &packets_,
                           params_.iriQueuePackets);
    }

    // Partition IRI upper sides into clock domains: only the upper
    // sides sitting on the root (global) ring may run fast.
    iriFastUpper_.assign(iris_.size(), 0);
    for (std::size_t i = 0; i < iris_.size(); ++i) {
        const bool on_root =
            structure_.iris[i].parentRing == structure_.rootRing;
        if (on_root && params_.globalRingSpeed > 1)
            iriFastUpper_[i] = 1;
    }

    nicMask_.reset(nics_.size());
    iriMask_.reset(iris_.size());

    // Utilization groups, one per hierarchy level.
    levelGroups_.resize(static_cast<std::size_t>(structure_.numLevels));
    for (int level = 0; level < structure_.numLevels; ++level) {
        levelGroups_[static_cast<std::size_t>(level)] =
            util_.group("ring level " + std::to_string(level));
    }

    // NIC deliveries funnel into the network's registered handler
    // (which the system installs after construction).
    for (RingNic &nic : nics_) {
        nic.setDeliver([this](const Packet &pkt, Cycle when) {
            delivered(pkt, when);
        });
    }

    // Per-ring occupancy records for bubble flow control and the
    // phase-based admission gate. A single ring (no inter-ring
    // interfaces) cannot host recirculating worms, so it needs no
    // gating and runs unrestricted as in the paper's base model.
    occupancy_.resize(structure_.rings.size());
    for (std::size_t r = 0; r < structure_.rings.size(); ++r) {
        const auto slots = static_cast<std::int64_t>(
            structure_.rings[r].slots.size());
        occupancy_[r].capacity = slots * (1 + clFlits_);
        if (structure_.numLevels > 1) {
            // One free slot keeps the ring rotating (whole packets
            // are reserved at admission, so occupancy can never hit
            // capacity); one max-packet share is reserved for
            // self-draining down-phase traffic.
            occupancy_[r].bubble = 1;
            occupancy_[r].reserveDown = clFlits_;
        }
    }

    // Wire each ring: slot i's output feeds slot i+1's latch.
    for (std::size_t r = 0; r < structure_.rings.size(); ++r) {
        const RingDesc &ring = structure_.rings[r];
        const std::size_t n = ring.slots.size();
        HRSIM_ASSERT(n >= 1);
        const bool is_root_ring = ring.level == 0;
        const std::uint32_t speed =
            is_root_ring ? params_.globalRingSpeed : 1;
        for (std::size_t i = 0; i < n; ++i) {
            RingSide &from = sideAt(ring.slots[i]);
            const RingSlotDesc &to_slot = ring.slots[(i + 1) % n];
            RingSide &to = sideAt(to_slot);
            // Staging into the downstream latch must wake its owner.
            ActiveMask *wake_mask =
                to_slot.kind == RingSlotDesc::Kind::Nic ? &nicMask_
                                                        : &iriMask_;
            const auto wake_id =
                static_cast<std::uint32_t>(to_slot.index);
            const auto link = util_.addLink(
                levelGroups_[static_cast<std::size_t>(ring.level)],
                speed);
            // The anti-starvation valve only serves the inter-ring
            // queues: PM injection starving behind transit traffic
            // is the paper's own self-throttling behaviour and must
            // be preserved.
            const std::uint32_t starvation_limit =
                ring.slots[i].kind == RingSlotDesc::Kind::Nic
                    ? 0
                    : 8 * clFlits_;
            // Trace-event driver id: PM id for NICs, negative
            // odd/even pairs for IRI lower/upper sides.
            NodeId trace_node = ring.slots[i].index;
            if (ring.slots[i].kind == RingSlotDesc::Kind::IriLower)
                trace_node = -(2 * ring.slots[i].index + 1);
            else if (ring.slots[i].kind == RingSlotDesc::Kind::IriUpper)
                trace_node = -(2 * ring.slots[i].index + 2);
            from.occupancy = &occupancy_[r];
            from.out.connect(&to.in, &to.accept, &util_, link,
                             &occupancy_[r], ring.subtreeLo,
                             ring.subtreeHi, starvation_limit,
                             &tracer_, trace_node, wake_mask, wake_id,
                             &packets_);
        }
    }
    reseedSchedule();
}

std::uint64_t
RingNetwork::totalWaitCycles() const
{
    std::uint64_t total = 0;
    for (const RingIri &iri : iris_)
        total += iri.waitCycles();
    return total;
}

std::uint64_t
RingNetwork::totalEscapes() const
{
    std::uint64_t total = 0;
    for (const RingIri &iri : iris_)
        total += iri.escapes();
    return total;
}

const RingOccupancy &
RingNetwork::ringOccupancy(int ring) const
{
    HRSIM_ASSERT(ring >= 0 &&
                 ring < static_cast<int>(occupancy_.size()));
    return occupancy_[static_cast<std::size_t>(ring)];
}

RingSide &
RingNetwork::sideAt(const RingSlotDesc &slot)
{
    switch (slot.kind) {
      case RingSlotDesc::Kind::Nic:
        return nics_[static_cast<std::size_t>(slot.index)].side();
      case RingSlotDesc::Kind::IriLower:
        return iris_[static_cast<std::size_t>(slot.index)].lower().side();
      case RingSlotDesc::Kind::IriUpper:
        return iris_[static_cast<std::size_t>(slot.index)].upper().side();
    }
    HRSIM_PANIC("unknown ring slot kind");
}

int
RingNetwork::numProcessors() const
{
    return structure_.numProcessors();
}

bool
RingNetwork::canInject(NodeId pm, const Packet &pkt) const
{
    HRSIM_ASSERT(pm >= 0 && pm < numProcessors());
    return nics_[static_cast<std::size_t>(pm)].canInject(pkt);
}

void
RingNetwork::inject(NodeId pm, const Packet &pkt)
{
    HRSIM_ASSERT(pm >= 0 && pm < numProcessors());
    HRSIM_ASSERT(pkt.src == pm);
    if (pkt.dst == broadcastNode)
        fatal("RingNetwork: broadcast requires slotted switching");
    nics_[static_cast<std::size_t>(pm)].inject(pkt);
    nicMask_.add(static_cast<std::uint32_t>(pm));
    if (acct_)
        acct_->injectedFlits += pkt.sizeFlits;
    HRSIM_TRACE_FLIT(tracer_, FlitEvent::Inject, pkt.id, pm,
                     nics_[static_cast<std::size_t>(pm)].flitCount());
}

void
RingNetwork::tick(Cycle now)
{
    // Only awake components are visited, each scan a live
    // ascending-id walk of a two-level bitmap (sim/active_mask.hh). A
    // component woken mid-tick (a flit staged into its latch) was
    // empty (asleep <=> empty) and staged flits stay invisible until
    // commit, so an extra visit of a woken component later in the
    // same scan is a no-op (its quiescent early-out fires), and a
    // missed one loses nothing; only its end-of-cycle commit
    // matters, and every commit scan sees the live set. See DESIGN.md
    // section 10.

    // Phase A: acceptance flags from start-of-cycle state. No wakes
    // happen here (no flits move). NIC acceptance was already
    // computed at the end of the previous tick (fused into the commit
    // sweep below): it is a pure function of latch + transit-buffer
    // state, which cannot change between the post-commit sweep and
    // this point — injections only touch the PM output queues, and an
    // asleep NIC rests at accept = true, exactly what an empty latch
    // computes. IRI acceptance advances the blocked-worm wait
    // counters, so it must keep running here, once per cycle.
    iriMask_.forEach([this](std::uint32_t id) {
        iris_[id].lower().computeAcceptance();
    });
    iriMask_.forEach([this](std::uint32_t id) {
        if (!iriFastUpper_[id])
            iris_[id].upper().computeAcceptance();
    });

    // Phase B: system-clock domain. Transmits wake downstream
    // components mid-scan; visited-or-not is immaterial (see above).
    nicMask_.forEach(
        [this, now](std::uint32_t id) { nics_[id].evaluate(now); });
    iriMask_.forEach(
        [this](std::uint32_t id) { iris_[id].lower().evaluate(); });
    iriMask_.forEach([this](std::uint32_t id) {
        if (!iriFastUpper_[id])
            iris_[id].upper().evaluate();
    });

    // NIC commit + sleep sweep, fused into one pass (covering
    // mid-tick wakes, whose bits are already set). The sweep can run
    // here, before the fast domain, because nothing later in the tick
    // can change a NIC's state: the fast domain only touches IRI
    // upper sides (the root ring carries no NIC slots), and
    // injections happen outside the network tick.
    nicMask_.retain([this](std::uint32_t id) {
        RingNic &nic = nics_[id];
        nic.commit();
        if (!nic.empty() || nic.faultPinned()) {
            // Next tick's phase A, while the NIC is cache-hot.
            nic.computeAcceptance();
            return true;
        }
        nic.prepareSleep();
        return false;
    });

    // Commit the IRIs' system-clock domain (commits touch one
    // component each, so their order is immaterial). Their sleep
    // sweep must wait for the fast domain below.
    iriMask_.forEach([this](std::uint32_t id) {
        iris_[id].lower().commit();
        if (!iriFastUpper_[id])
            iris_[id].commitUpper();
    });

    // Fast domain: the global ring runs globalRingSpeed sub-cycles;
    // each pass is a fresh live scan, covering inter-sub-cycle wakes.
    if (params_.globalRingSpeed > 1) {
        for (std::uint32_t sub = 0; sub < params_.globalRingSpeed;
             ++sub) {
            iriMask_.forEach([this](std::uint32_t id) {
                if (iriFastUpper_[id])
                    iris_[id].upper().computeAcceptance();
            });
            iriMask_.forEach([this](std::uint32_t id) {
                if (iriFastUpper_[id])
                    iris_[id].upper().evaluate();
            });
            iriMask_.forEach([this](std::uint32_t id) {
                if (iriFastUpper_[id])
                    iris_[id].commitUpper();
            });
        }
    }

    // IRI sleep sweep (the NIC sweep already ran, fused with commit).
    iriMask_.retain([this](std::uint32_t id) {
        if (!iris_[id].empty() || iris_[id].faultPinned())
            return true;
        iris_[id].prepareSleep();
        return false;
    });
}

void
RingNetwork::reseedSchedule()
{
    nicMask_.reset(nics_.size());
    iriMask_.reset(iris_.size());
    for (std::size_t i = 0; i < nics_.size(); ++i) {
        if (nics_[i].flitCount() != 0 || nics_[i].faultPinned()) {
            nicMask_.add(static_cast<std::uint32_t>(i));
            // The tick expects NIC acceptance one tick ahead (fused
            // into the commit sweep); seed it here.
            nics_[i].computeAcceptance();
        } else {
            nics_[i].prepareSleep();
        }
    }
    for (std::size_t i = 0; i < iris_.size(); ++i) {
        if (iris_[i].flitCount() != 0 || iris_[i].faultPinned())
            iriMask_.add(static_cast<std::uint32_t>(i));
        else
            iris_[i].prepareSleep();
    }
}

bool
RingNetwork::isIdle() const
{
    return nicMask_.empty() && iriMask_.empty();
}

std::size_t
RingNetwork::activeNodeCount() const
{
    return nicMask_.size() + iriMask_.size();
}

std::uint64_t
RingNetwork::flitsInFlight() const
{
    std::uint64_t count = 0;
    for (const RingNic &nic : nics_)
        count += nic.flitCount();
    for (const RingIri &iri : iris_)
        count += iri.flitCount();
    return count;
}

double
RingNetwork::levelUtilization(int level) const
{
    HRSIM_ASSERT(level >= 0 && level < structure_.numLevels);
    return util_.groupUtilization(
        levelGroups_[static_cast<std::size_t>(level)]);
}

void
RingNetwork::registerMetrics(MetricRegistry &registry) const
{
    for (int level = 0; level < structure_.numLevels; ++level) {
        registry.addGauge(
            "ring.l" + std::to_string(level) + ".util",
            [this, level]() { return levelUtilization(level); });
    }
    registry.addGauge("nic.streamed_flits", [this]() {
        std::uint64_t total = 0;
        for (const RingNic &nic : nics_)
            total += nic.streamedFlits();
        return static_cast<double>(total);
    });
    registry.addGauge("iri.streamed_flits", [this]() {
        std::uint64_t total = 0;
        for (const RingIri &iri : iris_)
            total += iri.streamedFlits();
        return static_cast<double>(total);
    });
    for (std::size_t i = 0; i < iris_.size(); ++i) {
        // An IRI is named by the hierarchy level of its parent ring
        // (the ring its upper side sits on): the IRIs hanging off the
        // global ring are ring.l0.iri*, and so on down.
        const int level =
            structure_
                .rings[static_cast<std::size_t>(
                    structure_.iris[i].parentRing)]
                .level;
        const std::string prefix = "ring.l" + std::to_string(level) +
                                   ".iri" + std::to_string(i);
        const RingIri *iri = &iris_[i];
        registry.addCounter(prefix + ".wait_cycles",
                            [iri]() { return iri->waitCycles(); });
        registry.addCounter(prefix + ".escapes",
                            [iri]() { return iri->escapes(); });
        registry.addGauge(prefix + ".flits", [iri]() {
            return static_cast<double>(iri->flitCount());
        });
    }
    for (std::size_t pm = 0; pm < nics_.size(); ++pm) {
        const RingNic *nic = &nics_[pm];
        registry.addGauge("ring.nic" + std::to_string(pm) + ".flits",
                          [nic]() {
                              return static_cast<double>(
                                  nic->flitCount());
                          });
    }
    registry.addCounter("ring.wait_cycles",
                        [this]() { return totalWaitCycles(); });
    registry.addCounter("ring.escapes",
                        [this]() { return totalEscapes(); });
}

template <class Io, class Self>
void
RingNetwork::layout(Io &io, Self &self)
{
    // Only the occupied count is simulation state; capacity, bubble,
    // and the down-phase reserve are derived from the topology.
    io.sameU32(static_cast<std::uint32_t>(self.occupancy_.size()),
               "ring count mismatch (topology differs)");
    for (auto &occ : self.occupancy_)
        io.i64(occ.occupied);
    for (auto &nic : self.nics_)
        io.state(nic);
    for (auto &iri : self.iris_)
        io.state(iri);
    // Fault planes exist only while a plan is live; the flag guards
    // against restoring a faulted snapshot into a fault-free config.
    io.sameFlag(!self.sideFaults_.empty(),
                "fault-plane mismatch (snapshot and config disagree on "
                "an active fault plan)");
    for (auto &faults : self.sideFaults_)
        ckptRingSideFaults(io, faults);
}

void
RingNetwork::saveState(CkptWriter &w) const
{
    layout(w, *this);
}

void
RingNetwork::loadState(CkptReader &r)
{
    packets_.beginLoad(numProcessors());
    layout(r, *this);
    for (RingNic &nic : nics_)
        nic.side().out.bindLoadedWorm();
    for (RingIri &iri : iris_) {
        iri.lower().bindLoadedWorms();
        iri.upper().bindLoadedWorms();
    }
    packets_.endLoad();
    // Worm shape, once the kill state that exempts a drained source
    // is in.
    for (const RingNic &nic : nics_)
        nic.checkLoadedFronts();
    for (std::size_t i = 0; i < iris_.size(); ++i) {
        const std::string who = "IRI " + std::to_string(i);
        iris_[i].lower().checkLoadedFronts(who);
        iris_[i].upper().checkLoadedFronts(who);
    }
    // Membership is derived: wake everything holding flits (or
    // fault-pinned), rest everything else — the same invariant the
    // constructor establishes.
    reseedSchedule();
}

bool
RingNetwork::faultTargetValid(const FaultTarget &target) const
{
    if (target.kind == FaultTargetKind::RingNic)
        return target.id >= 0 && target.id < numProcessors();
    if (target.kind != FaultTargetKind::RingIri)
        return false;
    if (target.id < 0 ||
        target.id >= static_cast<std::int32_t>(iris_.size())) {
        return false;
    }
    // IRI naming matches the metric names: an IRI belongs to the
    // hierarchy level of its parent ring (the ring its upper side
    // sits on), so ring.l0.iri* hang off the global ring.
    const int level =
        structure_
            .rings[static_cast<std::size_t>(
                structure_.iris[static_cast<std::size_t>(target.id)]
                    .parentRing)]
            .level;
    return level == static_cast<int>(target.level);
}

void
RingNetwork::applyFault(const FaultEvent &event, bool active)
{
    HRSIM_ASSERT(!sideFaults_.empty());
    const FaultTarget &target = event.target;
    std::size_t slot;
    if (target.kind == FaultTargetKind::RingNic) {
        slot = static_cast<std::size_t>(target.id);
    } else {
        slot = nics_.size() +
               2 * static_cast<std::size_t>(target.id) +
               (target.upper ? 1 : 0);
    }
    RingSideFaults &faults = sideFaults_[slot];
    const std::int8_t delta = active ? 1 : -1;
    switch (event.action) {
      case FaultAction::LinkDown:
        HRSIM_ASSERT(active || faults.down > 0);
        faults.down = static_cast<std::uint8_t>(faults.down + delta);
        break;
      case FaultAction::Stall:
        HRSIM_ASSERT(active || faults.stalled > 0);
        faults.stalled =
            static_cast<std::uint8_t>(faults.stalled + delta);
        break;
      case FaultAction::Corrupt:
        HRSIM_ASSERT(active || faults.corrupt > 0);
        faults.corrupt =
            static_cast<std::uint8_t>(faults.corrupt + delta);
        break;
    }
    // Both edges wake the component: activation so a stalled side
    // pins itself awake (and advertises accept = false) and a dead
    // output starts draining, deactivation so frozen traffic moves
    // again.
    if (target.kind == FaultTargetKind::RingNic) {
        nicMask_.add(static_cast<std::uint32_t>(target.id));
        // The tick computes NIC acceptance at the end of the previous
        // cycle (fused into the commit sweep), before this edge
        // existed; recompute so the flag reflects the edge this
        // cycle. (IRI acceptance runs every tick for awake IRIs, so
        // waking is enough.)
        nics_[static_cast<std::size_t>(target.id)].computeAcceptance();
    } else {
        iriMask_.add(static_cast<std::uint32_t>(target.id));
    }
}

void
RingNetwork::setFaultAccounting(FaultAccounting *acct)
{
    acct_ = acct;
    sideFaults_.assign(nics_.size() + 2 * iris_.size(),
                       RingSideFaults{});
    for (std::size_t pm = 0; pm < nics_.size(); ++pm) {
        nics_[pm].setFaultState(acct ? &sideFaults_[pm] : nullptr,
                                acct);
    }
    for (std::size_t i = 0; i < iris_.size(); ++i) {
        const std::size_t base = nics_.size() + 2 * i;
        iris_[i].lower().setFaultState(
            acct ? &sideFaults_[base] : nullptr, acct);
        iris_[i].upper().setFaultState(
            acct ? &sideFaults_[base + 1] : nullptr, acct);
    }
}

void
RingNetwork::debugDump(std::ostream &out) const
{
    for (std::size_t r = 0; r < structure_.rings.size(); ++r) {
        const RingDesc &ring = structure_.rings[r];
        out << "ring " << r << " level=" << ring.level
            << " occ=" << occupancy_[r].occupied << "/"
            << occupancy_[r].capacity
            << " bubble=" << occupancy_[r].bubble
            << " rsvDown=" << occupancy_[r].reserveDown << "\n";
        for (const RingSlotDesc &slot : ring.slots) {
            out << "  ";
            switch (slot.kind) {
              case RingSlotDesc::Kind::Nic:
                nics_[static_cast<std::size_t>(slot.index)].debugDump(
                    out);
                break;
              default:
                iris_[static_cast<std::size_t>(slot.index)].debugDump(
                    out);
                break;
            }
        }
    }
}

} // namespace hrsim
