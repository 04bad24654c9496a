#include "ring/slotted_network.hh"

#include "common/log.hh"
#include "obs/metric_registry.hh"

namespace hrsim
{

// ------------------------------------------------------------------ //
// SlotLink

std::optional<Flit>
SlotLink::fill(StagedFifo<Flit> &resp, StagedFifo<Flit> &req,
               const PacketTable &packets) const
{
    const auto admissible = [&](const StagedFifo<Flit> &q) {
        if (q.empty())
            return false;
        const Flit &cell = q.front();
        const bool down_phase =
            cell.isBroadcast() ? !inRing(packets.record(cell.slot).src)
                               : inRing(cell.dst);
        return down_phase ? occupancy->canAdmitDown(1)
                          : occupancy->canAdmitUp(1);
    };
    std::optional<Flit> cell;
    if (admissible(resp))
        cell = resp.pop();
    else if (admissible(req))
        cell = req.pop();
    if (cell) {
        occupancy->add(1);
        if (cell->isBroadcast())
            cell->ttl = static_cast<std::uint16_t>(ringSlots);
    }
    return cell;
}

void
SlotLink::send(const Flit &cell, UtilizationTracker &util,
               UtilizationTracker::LinkId link) const
{
    HRSIM_ASSERT(downstream != nullptr && !downstream->staged);
    downstream->staged = cell;
    wakeMask->add(downstreamComp); // wake a sleeping neighbor
    util.recordTransfer(link);
}

// ------------------------------------------------------------------ //
// SlottedNic

SlottedNic::SlottedNic(NodeId pm, std::uint32_t cl_flits,
                       PacketTable *packets)
    : pm_(pm), packets_(packets)
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
    const std::uint32_t slot = packets_->acquire(pkt);
    for (std::uint32_t i = 0; i < pkt.sizeFlits; ++i)
        queue.push(makeFlit(pkt, slot, i));
}

void
SlottedNic::evaluate(Cycle now, UtilizationTracker &util,
                     UtilizationTracker::LinkId link_id)
{
    std::optional<Flit> outgoing;

    if (port_.slot) {
        if (port_.slot->isBroadcast()) {
            // Deliver a copy everywhere but the origin, and keep the
            // cell circulating until its lap completes.
            Flit cell = *port_.slot;
            if (deliver_ && packets_->record(cell.slot).src != pm_) {
                // The delivered copy's dst names the receiving PM.
                Packet copy = packets_->packet(cell);
                copy.dst = pm_;
                deliver_(copy, now);
            }
            if (cell.ttl > 1) {
                --cell.ttl;
                outgoing = cell;
            } else {
                link.occupancy->add(-1); // lap complete: cell retired
                packets_->release(cell.slot);
            }
        } else if (port_.slot->dst == pm_) {
            // Sink the cell; deliver when the whole packet arrived,
            // i.e. when this was the packet's last live cell (cells
            // of a unicast packet only ever leave by sinking here).
            const Flit &cell = *port_.slot;
            link.occupancy->add(-1);
            const Packet pkt = packets_->packet(cell);
            if (packets_->release(cell.slot) && deliver_)
                deliver_(pkt, now);
        } else {
            outgoing = port_.slot; // pass through
        }
        port_.slot.reset();
    }

    // Fill an empty slot from the PM, responses first.
    if (!outgoing)
        outgoing = link.fill(outResp_, outReq_, *packets_);
    if (outgoing)
        link.send(*outgoing, util, link_id);
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
// SlottedIriHalf

SlottedIriHalf::SlottedIriHalf(bool upper, NodeId subtree_lo,
                               NodeId subtree_hi, PacketTable *packets,
                               StagedFifo<Flit> &divert_resp,
                               StagedFifo<Flit> &divert_req,
                               StagedFifo<Flit> &drain_resp,
                               StagedFifo<Flit> &drain_req)
    : upper_(upper), subtreeLo_(subtree_lo), subtreeHi_(subtree_hi),
      packets_(packets), divertResp_(divert_resp),
      divertReq_(divert_req), drainResp_(drain_resp),
      drainReq_(drain_req)
{
    HRSIM_ASSERT(subtree_lo < subtree_hi);
}

void
SlottedIriHalf::evaluate(UtilizationTracker &util,
                         UtilizationTracker::LinkId link_id)
{
    std::optional<Flit> outgoing;

    if (port_.slot) {
        Flit cell = *port_.slot;
        port_.slot.reset();
        if (cell.isBroadcast()) {
            // The lower half copies a broadcast from its subtree up
            // toward the parent ring; the upper half copies one from
            // anywhere else down into the subtree. Every half
            // forwards it until its lap completes. A full queue
            // skips the copy without consuming the lap so the cell
            // retries next time around.
            bool lap_consumed = true;
            if (inSubtree(packets_->record(cell.slot).src) != upper_) {
                if (divertReq_.canPush()) {
                    divertReq_.push(cell);
                    packets_->addCopy(cell.slot);
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
                link.occupancy->add(-1); // lap complete: cell retired
                packets_->release(cell.slot);
            }
        } else if (inSubtree(cell.dst) == upper_) {
            // Ascend from the lower ring, descend from the upper one.
            StagedFifo<Flit> &queue =
                isRequest(cell.type) ? divertReq_ : divertResp_;
            if (queue.canPush()) {
                queue.push(cell);
                link.occupancy->add(-1);
            } else {
                outgoing = cell; // full: take another lap
                ++retries_;
            }
        } else {
            outgoing = cell; // continue on this ring
        }
    }

    // Refill an empty slot from the other half's divert queues,
    // responses first. Descents are down-phase on the lower ring by
    // construction, so there the gate always admits.
    if (!outgoing)
        outgoing = link.fill(drainResp_, drainReq_, *packets_);
    if (outgoing)
        link.send(*outgoing, util, link_id);
}

// ------------------------------------------------------------------ //
// SlottedIri

SlottedIri::SlottedIri(NodeId subtree_lo, NodeId subtree_hi,
                       std::uint32_t cl_flits, PacketTable *packets)
    : lower_(false, subtree_lo, subtree_hi, packets, upResp_, upReq_,
             downResp_, downReq_),
      upper_(true, subtree_lo, subtree_hi, packets, downResp_, downReq_,
             upResp_, upReq_)
{
    upResp_.setCapacity(cl_flits);
    upReq_.setCapacity(cl_flits);
    downResp_.setCapacity(cl_flits);
    downReq_.setCapacity(cl_flits);
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
    return lower_.flitCount() + upper_.flitCount() +
           upResp_.totalSize() + upReq_.totalSize() +
           downResp_.totalSize() + downReq_.totalSize();
}

// ------------------------------------------------------------------ //
// SlottedRingNetwork

template <typename Fn>
decltype(auto)
SlottedRingNetwork::atSlot(const RingSlotDesc &slot, Fn &&fn)
{
    const auto i = static_cast<std::size_t>(slot.index);
    switch (slot.kind) {
      case RingSlotDesc::Kind::Nic:
        return fn(nics_[i]);
      case RingSlotDesc::Kind::IriLower:
        return fn(iris_[i].lower());
      case RingSlotDesc::Kind::IriUpper:
        return fn(iris_[i].upper());
    }
    HRSIM_PANIC("unknown ring slot kind");
}

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
        SlottedNic &nic = nics_.emplace_back(pm, clFlits_, &packets_);
        nic.setDeliver([this](const Packet &pkt, Cycle when) {
            delivered(pkt, when);
        });
    }
    iris_.reserve(structure_.iris.size());
    for (const IriDesc &desc : structure_.iris) {
        // The lower half's ring is exactly the IRI's subtree, which
        // its refill gate relies on (descents are down-phase there).
        const RingDesc &child = structure_.rings[
            static_cast<std::size_t>(desc.childRing)];
        HRSIM_ASSERT(child.subtreeLo == desc.subtreeLo &&
                     child.subtreeHi == desc.subtreeHi);
        iris_.emplace_back(desc.subtreeLo, desc.subtreeHi, clFlits_,
                           &packets_);
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

    // Wire each ring and build the evaluation schedule.
    for (std::size_t r = 0; r < structure_.rings.size(); ++r) {
        const RingDesc &ring = structure_.rings[r];
        const std::size_t n = ring.slots.size();
        const bool is_root = ring.level == 0;
        const bool fast = is_root && params_.globalRingSpeed > 1;
        for (std::size_t i = 0; i < n; ++i) {
            const RingSlotDesc &slot = ring.slots[i];
            const RingSlotDesc &next = ring.slots[(i + 1) % n];
            SlotPort *to =
                atSlot(next, [](auto &node) { return &node.port(); });
            atSlot(slot, [&](auto &node) {
                SlotLink &link = node.link;
                link.downstream = to;
                link.wakeMask = &active_;
                link.downstreamComp = compOf(next);
                link.occupancy = &occupancy_[r];
                link.ringLo = ring.subtreeLo;
                link.ringHi = ring.subtreeHi;
                link.ringSlots = static_cast<std::uint32_t>(n);
            });
            const auto link = util_.addLink(
                levelGroups_[static_cast<std::size_t>(ring.level)],
                is_root ? params_.globalRingSpeed : 1);
            (fast ? fastHops_ : slowHops_).push_back(Hop{slot, link});
        }
    }
}

std::uint32_t
SlottedRingNetwork::compOf(const RingSlotDesc &slot) const
{
    const auto pms =
        static_cast<std::uint32_t>(structure_.numProcessors());
    return slot.kind == RingSlotDesc::Kind::Nic
               ? static_cast<std::uint32_t>(slot.index)
               : pms + static_cast<std::uint32_t>(slot.index);
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
        const auto i = static_cast<std::size_t>(hop.slot.index);
        switch (hop.slot.kind) {
          case RingSlotDesc::Kind::Nic:
            nics_[i].evaluate(now, util_, hop.link);
            break;
          case RingSlotDesc::Kind::IriLower:
            iris_[i].lower().evaluate(util_, hop.link);
            break;
          case RingSlotDesc::Kind::IriUpper:
            iris_[i].upper().evaluate(util_, hop.link);
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
        if (active_.contains(compOf(hop.slot)))
            run(hop);
    }

    active_.forEach([this, pms](std::uint32_t id) {
        if (id < pms) {
            nics_[id].commit();
        } else {
            const std::uint32_t i = id - pms;
            iris_[i].lower().commit();
            if (!iriFast_[i])
                iris_[i].commitUpper();
        }
    });

    if (!fastHops_.empty()) {
        for (std::uint32_t sub = 0; sub < params_.globalRingSpeed;
             ++sub) {
            for (const Hop &hop : fastHops_) {
                if (active_.contains(compOf(hop.slot)))
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
