#include "ring/slotted_network.hh"

#include "common/log.hh"
#include "obs/metric_registry.hh"

namespace hrsim
{

// ------------------------------------------------------------------ //
// SlottedNic

SlottedNic::SlottedNic(NodeId pm, std::uint32_t cl_flits,
                       NodeId ring_lo, NodeId ring_hi,
                       std::uint32_t ring_slots)
    : pm_(pm), ringLo_(ring_lo), ringHi_(ring_hi),
      ringSlots_(ring_slots)
{
    outResp_.setCapacity(cl_flits);
    outReq_.setCapacity(cl_flits);
}

bool
SlottedNic::canInject(const Packet &pkt) const
{
    const StagedFifo<Flit> &queue =
        isRequest(pkt.type) ? outReq_ : outResp_;
    return queue.producerSpace() >= pkt.sizeFlits;
}

void
SlottedNic::inject(const Packet &pkt)
{
    HRSIM_ASSERT(canInject(pkt));
    StagedFifo<Flit> &queue = isRequest(pkt.type) ? outReq_ : outResp_;
    for (std::uint32_t i = 0; i < pkt.sizeFlits; ++i)
        queue.push(makeFlit(pkt, i));
}

void
SlottedNic::evaluate(Cycle now, UtilizationTracker &util,
                     UtilizationTracker::LinkId link)
{
    std::optional<Flit> outgoing;

    if (port_.slot) {
        if (port_.slot->isBroadcast()) {
            // Deliver a copy everywhere but the origin, and keep the
            // cell circulating until its lap completes.
            Flit cell = *port_.slot;
            if (cell.src != pm_ && deliver_) {
                // The delivered copy's dst names the receiving PM.
                Packet copy = packetFromFlit(cell);
                copy.dst = pm_;
                deliver_(copy, now);
            }
            if (cell.ttl > 1) {
                --cell.ttl;
                outgoing = cell;
            } else {
                occupancy->add(-1); // lap complete: cell retired
            }
        } else if (port_.slot->dst == pm_) {
            // Sink the cell; deliver when the whole packet arrived.
            const Flit &cell = *port_.slot;
            occupancy->add(-1);
            const std::uint32_t have = ++assembly_[cell.packet];
            if (have == cell.sizeFlits) {
                assembly_.erase(cell.packet);
                if (deliver_)
                    deliver_(packetFromFlit(cell), now);
            }
        } else {
            outgoing = port_.slot; // pass through
        }
        port_.slot.reset();
    }

    // Fill an empty slot from the PM, responses first. Cells bound
    // for another ring must leave the reserved down-phase slot free.
    if (!outgoing) {
        const auto admissible = [this](const StagedFifo<Flit> &q) {
            if (q.empty())
                return false;
            const Flit &cell = q.front();
            const bool stays =
                cell.dst >= ringLo_ && cell.dst < ringHi_;
            return stays ? occupancy->canAdmitDown(1)
                         : occupancy->canAdmitUp(1);
        };
        if (admissible(outResp_))
            outgoing = outResp_.pop();
        else if (admissible(outReq_))
            outgoing = outReq_.pop();
        if (outgoing) {
            occupancy->add(1);
            if (outgoing->isBroadcast())
                outgoing->ttl = static_cast<std::uint16_t>(ringSlots_);
        }
    }

    HRSIM_ASSERT(downstream != nullptr);
    HRSIM_ASSERT(!downstream->staged);
    if (outgoing) {
        downstream->staged = outgoing;
        wakeMask->add(downstreamComp); // wake a sleeping neighbor
        util.recordTransfer(link);
    }
}

void
SlottedNic::commit()
{
    port_.commit();
    outResp_.commit();
    outReq_.commit();
}

std::uint64_t
SlottedNic::flitCount() const
{
    std::uint64_t count = outResp_.totalSize() + outReq_.totalSize();
    if (port_.slot)
        ++count;
    if (port_.staged)
        ++count;
    return count;
}

// ------------------------------------------------------------------ //
// SlottedIri

SlottedIri::SlottedIri(NodeId subtree_lo, NodeId subtree_hi,
                       std::uint32_t cl_flits, NodeId parent_lo,
                       NodeId parent_hi, std::uint32_t lower_slots,
                       std::uint32_t upper_slots)
    : subtreeLo_(subtree_lo), subtreeHi_(subtree_hi),
      parentLo_(parent_lo), parentHi_(parent_hi),
      lowerSlots_(lower_slots), upperSlots_(upper_slots)
{
    HRSIM_ASSERT(subtree_lo < subtree_hi);
    upResp_.setCapacity(cl_flits);
    upReq_.setCapacity(cl_flits);
    downResp_.setCapacity(cl_flits);
    downReq_.setCapacity(cl_flits);
}

StagedFifo<Flit> &
SlottedIri::upQueue(PacketType type)
{
    return isRequest(type) ? upReq_ : upResp_;
}

StagedFifo<Flit> &
SlottedIri::downQueue(PacketType type)
{
    return isRequest(type) ? downReq_ : downResp_;
}

void
SlottedIri::evaluateLower(UtilizationTracker &util,
                          UtilizationTracker::LinkId link)
{
    std::optional<Flit> outgoing;

    if (lower_.slot && lower_.slot->isBroadcast()) {
        // Ascent: the home-path IRI copies the broadcast toward the
        // parent ring; everyone forwards until the lap completes. A
        // full up queue skips the copy without consuming the lap so
        // the cell retries next time around.
        Flit cell = *lower_.slot;
        lower_.slot.reset();
        const bool home = cell.src >= subtreeLo_ && cell.src < subtreeHi_;
        bool lap_consumed = true;
        if (home) {
            if (upReq_.canPush()) {
                Flit copy = cell;
                upReq_.push(copy);
            } else {
                lap_consumed = false;
            }
        }
        if (!lap_consumed) {
            outgoing = cell; // extra lap, ttl untouched
        } else if (cell.ttl > 1) {
            --cell.ttl;
            outgoing = cell;
        } else {
            lowerOccupancy->add(-1); // lap complete: cell retired
        }
    } else if (lower_.slot) {
        const Flit &cell = *lower_.slot;
        if (!inSubtree(cell.dst)) {
            StagedFifo<Flit> &queue = upQueue(cell.type);
            if (queue.canPush()) {
                queue.push(cell); // ascend
                lowerOccupancy->add(-1);
            } else {
                outgoing = cell; // full: take another lap
                ++retries_;
            }
        } else {
            outgoing = cell; // continue on the lower ring
        }
        lower_.slot.reset();
    }

    // Refill an empty slot with a descending cell, responses first.
    // Descents are down-phase on the lower ring by construction
    // (their destination is inside this subtree), so they are always
    // admissible into an empty slot.
    if (!outgoing) {
        if (!downResp_.empty())
            outgoing = downResp_.pop();
        else if (!downReq_.empty())
            outgoing = downReq_.pop();
        if (outgoing) {
            lowerOccupancy->add(1);
            if (outgoing->isBroadcast())
                outgoing->ttl =
                    static_cast<std::uint16_t>(lowerSlots_);
        }
    }

    HRSIM_ASSERT(lowerDownstream != nullptr);
    HRSIM_ASSERT(!lowerDownstream->staged);
    if (outgoing) {
        lowerDownstream->staged = outgoing;
        wakeMask->add(lowerDownstreamComp); // wake a sleeping neighbor
        util.recordTransfer(link);
    }
}

void
SlottedIri::evaluateUpper(UtilizationTracker &util,
                          UtilizationTracker::LinkId link)
{
    std::optional<Flit> outgoing;

    if (upper_.slot && upper_.slot->isBroadcast()) {
        // Descent: copy into every subtree except the one the
        // broadcast came from; forward until the lap completes.
        Flit cell = *upper_.slot;
        upper_.slot.reset();
        const bool from_here =
            cell.src >= subtreeLo_ && cell.src < subtreeHi_;
        bool lap_consumed = true;
        if (!from_here) {
            if (downReq_.canPush()) {
                Flit copy = cell;
                downReq_.push(copy);
            } else {
                lap_consumed = false;
            }
        }
        if (!lap_consumed) {
            outgoing = cell; // extra lap, ttl untouched
        } else if (cell.ttl > 1) {
            --cell.ttl;
            outgoing = cell;
        } else {
            upperOccupancy->add(-1); // lap complete: cell retired
        }
    } else if (upper_.slot) {
        const Flit &cell = *upper_.slot;
        if (inSubtree(cell.dst)) {
            StagedFifo<Flit> &queue = downQueue(cell.type);
            if (queue.canPush()) {
                queue.push(cell); // descend
                upperOccupancy->add(-1);
            } else {
                outgoing = cell; // full: take another lap
                ++retries_;
            }
        } else {
            outgoing = cell; // continue on the upper ring
        }
        upper_.slot.reset();
    }

    // Refill from the up queue. A cell whose destination lies inside
    // the parent ring's subtree is down-phase there (self-draining);
    // one that must ascend further leaves the reserved slot free.
    if (!outgoing) {
        const auto admissible = [this](const StagedFifo<Flit> &q) {
            if (q.empty())
                return false;
            const Flit &cell = q.front();
            const bool down_phase =
                cell.dst >= parentLo_ && cell.dst < parentHi_;
            return down_phase ? upperOccupancy->canAdmitDown(1)
                              : upperOccupancy->canAdmitUp(1);
        };
        if (admissible(upResp_))
            outgoing = upResp_.pop();
        else if (admissible(upReq_))
            outgoing = upReq_.pop();
        if (outgoing) {
            upperOccupancy->add(1);
            if (outgoing->isBroadcast())
                outgoing->ttl =
                    static_cast<std::uint16_t>(upperSlots_);
        }
    }

    HRSIM_ASSERT(upperDownstream != nullptr);
    HRSIM_ASSERT(!upperDownstream->staged);
    if (outgoing) {
        upperDownstream->staged = outgoing;
        wakeMask->add(upperDownstreamComp); // wake a sleeping neighbor
        util.recordTransfer(link);
    }
}

void
SlottedIri::commitLower()
{
    lower_.commit();
}

void
SlottedIri::commitUpper()
{
    upper_.commit();
    upResp_.commit();
    upReq_.commit();
    downResp_.commit();
    downReq_.commit();
}

std::uint64_t
SlottedIri::flitCount() const
{
    std::uint64_t count = upResp_.totalSize() + upReq_.totalSize() +
                          downResp_.totalSize() + downReq_.totalSize();
    if (lower_.slot)
        ++count;
    if (lower_.staged)
        ++count;
    if (upper_.slot)
        ++count;
    if (upper_.staged)
        ++count;
    return count;
}

// ------------------------------------------------------------------ //
// SlottedRingNetwork

SlottedRingNetwork::SlottedRingNetwork(const Params &params)
    : params_(params), structure_(RingStructure::build(params.topo)),
      clFlits_(ChannelSpec::ring().cacheLineFlits(params.cacheLineBytes))
{
    if (params_.globalRingSpeed < 1)
        fatal("SlottedRingNetwork: global ring speed must be >= 1");

    // Per-ring slot occupancy. One slot is reserved for down-phase
    // cells on multi-level systems so queue transfers always drain
    // (the cell-granular analogue of the wormhole network's
    // phase-based admission gates).
    occupancy_.resize(structure_.rings.size());
    for (std::size_t r = 0; r < structure_.rings.size(); ++r) {
        occupancy_[r].capacity = static_cast<std::int64_t>(
            structure_.rings[r].slots.size());
        occupancy_[r].reserveDown =
            structure_.numLevels > 1 ? 1 : 0;
    }

    const int num_pms = structure_.numProcessors();
    nics_.reserve(static_cast<std::size_t>(num_pms));
    for (NodeId pm = 0; pm < num_pms; ++pm) {
        const auto ring = static_cast<std::size_t>(
            structure_.nicRing[static_cast<std::size_t>(pm)]);
        const RingDesc &desc = structure_.rings[ring];
        SlottedNic &nic = nics_.emplace_back(
            pm, clFlits_, desc.subtreeLo, desc.subtreeHi,
            static_cast<std::uint32_t>(desc.slots.size()));
        nic.occupancy = &occupancy_[ring];
        nic.setDeliver([this](const Packet &pkt, Cycle when) {
            delivered(pkt, when);
        });
    }
    iris_.reserve(structure_.iris.size());
    for (const IriDesc &desc : structure_.iris) {
        const RingDesc &parent = structure_.rings[
            static_cast<std::size_t>(desc.parentRing)];
        const RingDesc &child = structure_.rings[
            static_cast<std::size_t>(desc.childRing)];
        SlottedIri &iri = iris_.emplace_back(
            desc.subtreeLo, desc.subtreeHi, clFlits_,
            parent.subtreeLo, parent.subtreeHi,
            static_cast<std::uint32_t>(child.slots.size()),
            static_cast<std::uint32_t>(parent.slots.size()));
        iri.lowerOccupancy =
            &occupancy_[static_cast<std::size_t>(desc.childRing)];
        iri.upperOccupancy =
            &occupancy_[static_cast<std::size_t>(desc.parentRing)];
    }

    levelGroups_.resize(static_cast<std::size_t>(structure_.numLevels));
    for (int level = 0; level < structure_.numLevels; ++level) {
        levelGroups_[static_cast<std::size_t>(level)] =
            util_.group("ring level " + std::to_string(level));
    }

    // Scheduler bookkeeping: one combined component index space,
    // NICs first, then IRIs.
    active_.reset(static_cast<std::size_t>(num_pms) + iris_.size());
    iriFast_.assign(iris_.size(), 0);
    for (std::size_t i = 0; i < iris_.size(); ++i) {
        if (structure_.iris[i].parentRing == structure_.rootRing &&
            params_.globalRingSpeed > 1) {
            iriFast_[i] = 1;
        }
    }
    for (SlottedNic &nic : nics_)
        nic.wakeMask = &active_;
    for (SlottedIri &iri : iris_)
        iri.wakeMask = &active_;

    // Wire each ring and build the evaluation schedule.
    for (std::size_t r = 0; r < structure_.rings.size(); ++r) {
        const RingDesc &ring = structure_.rings[r];
        const std::size_t n = ring.slots.size();
        const bool is_root = ring.level == 0;
        const bool fast = is_root && params_.globalRingSpeed > 1;
        for (std::size_t i = 0; i < n; ++i) {
            const RingSlotDesc &slot = ring.slots[i];
            const RingSlotDesc &to_slot = ring.slots[(i + 1) % n];
            SlotPort &to = portAt(to_slot);
            const auto to_comp = static_cast<std::uint32_t>(
                to_slot.kind == RingSlotDesc::Kind::Nic
                    ? to_slot.index
                    : num_pms + to_slot.index);
            const auto link = util_.addLink(
                levelGroups_[static_cast<std::size_t>(ring.level)],
                is_root ? params_.globalRingSpeed : 1);

            Hop hop;
            hop.index = slot.index;
            hop.link = link;
            switch (slot.kind) {
              case RingSlotDesc::Kind::Nic: {
                hop.kind = Hop::Kind::Nic;
                SlottedNic &nic = nics_[static_cast<std::size_t>(slot.index)];
                nic.downstream = &to;
                nic.downstreamComp = to_comp;
                break;
              }
              case RingSlotDesc::Kind::IriLower: {
                hop.kind = Hop::Kind::IriLower;
                SlottedIri &iri = iris_[static_cast<std::size_t>(slot.index)];
                iri.lowerDownstream = &to;
                iri.lowerDownstreamComp = to_comp;
                break;
              }
              case RingSlotDesc::Kind::IriUpper: {
                hop.kind = Hop::Kind::IriUpper;
                SlottedIri &iri = iris_[static_cast<std::size_t>(slot.index)];
                iri.upperDownstream = &to;
                iri.upperDownstreamComp = to_comp;
                break;
              }
            }
            (fast ? fastHops_ : slowHops_).push_back(hop);
        }
    }
}

std::uint32_t
SlottedRingNetwork::compOf(const Hop &hop) const
{
    const auto pms =
        static_cast<std::uint32_t>(structure_.numProcessors());
    return hop.kind == Hop::Kind::Nic
               ? static_cast<std::uint32_t>(hop.index)
               : pms + static_cast<std::uint32_t>(hop.index);
}

SlotPort &
SlottedRingNetwork::portAt(const RingSlotDesc &slot)
{
    switch (slot.kind) {
      case RingSlotDesc::Kind::Nic:
        return nics_[static_cast<std::size_t>(slot.index)].port();
      case RingSlotDesc::Kind::IriLower:
        return iris_[static_cast<std::size_t>(slot.index)].lower();
      case RingSlotDesc::Kind::IriUpper:
        return iris_[static_cast<std::size_t>(slot.index)].upper();
    }
    HRSIM_PANIC("unknown ring slot kind");
}

int
SlottedRingNetwork::numProcessors() const
{
    return structure_.numProcessors();
}

bool
SlottedRingNetwork::canInject(NodeId pm, const Packet &pkt) const
{
    HRSIM_ASSERT(pm >= 0 && pm < numProcessors());
    return nics_[static_cast<std::size_t>(pm)].canInject(pkt);
}

void
SlottedRingNetwork::inject(NodeId pm, const Packet &pkt)
{
    HRSIM_ASSERT(pm >= 0 && pm < numProcessors());
    HRSIM_ASSERT(pkt.src == pm);
    nics_[static_cast<std::size_t>(pm)].inject(pkt);
    active_.add(static_cast<std::uint32_t>(pm));
    HRSIM_TRACE_FLIT(tracer_, FlitEvent::Inject, pkt.id, pm,
                     nics_[static_cast<std::size_t>(pm)].flitCount());
}

void
SlottedRingNetwork::tick(Cycle now)
{
    const auto run = [&](const Hop &hop) {
        switch (hop.kind) {
          case Hop::Kind::Nic:
            nics_[static_cast<std::size_t>(hop.index)].evaluate(
                now, util_, hop.link);
            break;
          case Hop::Kind::IriLower:
            iris_[static_cast<std::size_t>(hop.index)].evaluateLower(
                util_, hop.link);
            break;
          case Hop::Kind::IriUpper:
            iris_[static_cast<std::size_t>(hop.index)].evaluateUpper(
                util_, hop.link);
            break;
        }
    };

    // Run the hop schedule in its usual order but skip components
    // that are asleep (empty — their evaluate is a no-op and they
    // hold no slot cell that must rotate). A component woken
    // mid-schedule may see its own hop run later in this pass, on
    // the same empty visible state, so running it or not is
    // immaterial. Commits scan the live mask so mid-tick wakes
    // publish their staged cells; each commit touches one component,
    // so id order serves as well as any.
    const auto pms =
        static_cast<std::uint32_t>(structure_.numProcessors());
    for (const Hop &hop : slowHops_) {
        if (active_.contains(compOf(hop)))
            run(hop);
    }

    active_.forEach([this, pms](std::uint32_t id) {
        if (id < pms) {
            nics_[id].commit();
        } else {
            const std::uint32_t i = id - pms;
            iris_[i].commitLower();
            if (!iriFast_[i])
                iris_[i].commitUpper();
        }
    });

    if (!fastHops_.empty()) {
        for (std::uint32_t sub = 0; sub < params_.globalRingSpeed;
             ++sub) {
            for (const Hop &hop : fastHops_) {
                if (active_.contains(compOf(hop)))
                    run(hop);
            }
            active_.forEach([this, pms](std::uint32_t id) {
                if (id >= pms && iriFast_[id - pms])
                    iris_[id - pms].commitUpper();
            });
        }
    }

    // Sleep sweep: drained components leave the set until a cell or
    // an injection wakes them again.
    active_.retain([this, pms](std::uint32_t id) {
        return id < pms ? nics_[id].flitCount() != 0
                        : iris_[id - pms].flitCount() != 0;
    });
}

bool
SlottedRingNetwork::isIdle() const
{
    return active_.empty();
}

std::size_t
SlottedRingNetwork::activeNodeCount() const
{
    return active_.size();
}

std::uint64_t
SlottedRingNetwork::flitsInFlight() const
{
    std::uint64_t count = 0;
    for (const SlottedNic &nic : nics_)
        count += nic.flitCount();
    for (const SlottedIri &iri : iris_)
        count += iri.flitCount();
    return count;
}

double
SlottedRingNetwork::levelUtilization(int level) const
{
    HRSIM_ASSERT(level >= 0 && level < structure_.numLevels);
    return util_.groupUtilization(
        levelGroups_[static_cast<std::size_t>(level)]);
}

void
SlottedRingNetwork::registerMetrics(MetricRegistry &registry) const
{
    for (int level = 0; level < structure_.numLevels; ++level) {
        registry.addGauge(
            "ring.l" + std::to_string(level) + ".util",
            [this, level]() { return levelUtilization(level); });
    }
    for (std::size_t i = 0; i < iris_.size(); ++i) {
        const int level =
            structure_
                .rings[static_cast<std::size_t>(
                    structure_.iris[i].parentRing)]
                .level;
        const std::string prefix = "ring.l" + std::to_string(level) +
                                   ".iri" + std::to_string(i);
        const SlottedIri *iri = &iris_[i];
        registry.addCounter(prefix + ".retries",
                            [iri]() { return iri->retries(); });
        registry.addGauge(prefix + ".flits", [iri]() {
            return static_cast<double>(iri->flitCount());
        });
    }
    registry.addCounter("ring.retries",
                        [this]() { return totalRetries(); });
}

std::uint64_t
SlottedRingNetwork::totalRetries() const
{
    std::uint64_t total = 0;
    for (const SlottedIri &iri : iris_)
        total += iri.retries();
    return total;
}

} // namespace hrsim
