/**
 * @file
 * Slotted (register-insertion cell) switching for hierarchical rings.
 *
 * The paper's base simulator modelled the slotted rings of the Hector
 * prototype and was then extended with wormhole switching; the
 * authors note that "slotted rings tend to perform somewhat better"
 * (Section 5, citing their companion study). This module implements
 * that alternative switching technique on the same topologies so the
 * two can be compared directly.
 *
 * Model: each ring is a circular pipeline of one-flit slots (one per
 * attachment point) that rotates unconditionally every cycle — a slot
 * always moves to the next node, so the ring can never block or
 * deadlock. Packets travel as independent cells (every flit carries
 * its own routing tag, as in the wormhole model's Flit) and are
 * reassembled at the destination by counting: the packet table's
 * live-flit count of a unicast packet reaches zero exactly when its
 * last cell sinks. A node may fill an
 * empty slot passing by (responses before requests); a cell that
 * needs to change rings is pulled into the IRI's transfer queue when
 * there is room, and otherwise simply takes another lap — Hector's
 * retry behaviour. There is no back-pressure anywhere.
 */

#ifndef HRSIM_RING_SLOTTED_NETWORK_HH
#define HRSIM_RING_SLOTTED_NETWORK_HH

#include <memory>
#include <optional>
#include <vector>

#include "common/stable_pool.hh"
#include "common/staged_fifo.hh"
#include "common/types.hh"
#include "proto/packet.hh"
#include "ring/ring_node.hh"
#include "ring/topology.hh"
#include "sim/columns.hh"
#include "sim/network.hh"

namespace hrsim
{

/** One attachment point of a node on a slotted ring. */
struct SlotPort
{
    std::optional<Flit> slot;   //!< cell occupying this slot
    std::optional<Flit> staged; //!< committed at end of cycle

    void
    commit()
    {
        slot = staged;
        staged.reset();
    }
};

class SlottedNic
{
  public:
    using DeliverFn = std::function<void(const Packet &, Cycle)>;

    /**
     * @param ring_lo / @param ring_hi PM range of this NIC's ring,
     *        classifying injected cells as staying (down-phase) or
     *        ascending (up-phase, which must leave the reserved
     *        slot free).
     * @param packets The network's packet table.
     */
    SlottedNic(NodeId pm, std::uint32_t cl_flits, NodeId ring_lo,
               NodeId ring_hi, std::uint32_t ring_slots,
               PacketTable *packets);

    SlottedNic(const SlottedNic &) = delete;
    SlottedNic &operator=(const SlottedNic &) = delete;

    /** Forward / sink / inject for one cycle. */
    void evaluate(Cycle now, UtilizationTracker &util,
                  UtilizationTracker::LinkId link);

    void commit();

    bool canInject(const Packet &pkt) const;
    void inject(const Packet &pkt);
    void setDeliver(DeliverFn fn) { deliver_ = std::move(fn); }

    SlotPort &port() { return port_; }
    SlotPort *downstream = nullptr;
    RingOccupancy *occupancy = nullptr;
    /** Wake wiring: staging downstream wakes that component. */
    ActiveMask *wakeMask = nullptr;
    std::uint32_t downstreamComp = 0;

    std::uint64_t flitCount() const;

  private:
    NodeId pm_;
    NodeId ringLo_;
    NodeId ringHi_;
    std::uint32_t ringSlots_;
    SlotPort port_;
    StagedFifo<Flit> outResp_;
    StagedFifo<Flit> outReq_;
    PacketTable *packets_;
    DeliverFn deliver_;
};

class SlottedIri
{
  public:
    /**
     * @param parent_lo / @param parent_hi PM range of the parent
     *        ring, classifying cells ascending onto it.
     * @param packets The network's packet table (broadcast copies
     *        into the transfer queues add live flits).
     */
    SlottedIri(NodeId subtree_lo, NodeId subtree_hi,
               std::uint32_t cl_flits, NodeId parent_lo,
               NodeId parent_hi, std::uint32_t lower_slots,
               std::uint32_t upper_slots, PacketTable *packets);

    SlottedIri(const SlottedIri &) = delete;
    SlottedIri &operator=(const SlottedIri &) = delete;

    /** Lower-ring side: pass / pull up / refill from down queue. */
    void evaluateLower(UtilizationTracker &util,
                       UtilizationTracker::LinkId link);

    /** Upper-ring side: pass / pull down / refill from up queue. */
    void evaluateUpper(UtilizationTracker &util,
                       UtilizationTracker::LinkId link);

    void commitLower();
    void commitUpper();

    SlotPort &lower() { return lower_; }
    SlotPort &upper() { return upper_; }
    SlotPort *lowerDownstream = nullptr;
    SlotPort *upperDownstream = nullptr;
    RingOccupancy *lowerOccupancy = nullptr;
    RingOccupancy *upperOccupancy = nullptr;
    /** Wake wiring: staging downstream wakes that component. */
    ActiveMask *wakeMask = nullptr;
    std::uint32_t lowerDownstreamComp = 0;
    std::uint32_t upperDownstreamComp = 0;

    bool
    inSubtree(NodeId pm) const
    {
        return pm >= subtreeLo_ && pm < subtreeHi_;
    }

    std::uint64_t flitCount() const;

    /** Cells that had to take another lap (full transfer queue). */
    std::uint64_t retries() const { return retries_; }

  private:
    StagedFifo<Flit> &upQueue(PacketType type);
    StagedFifo<Flit> &downQueue(PacketType type);

    NodeId subtreeLo_;
    NodeId subtreeHi_;
    NodeId parentLo_;
    NodeId parentHi_;
    std::uint32_t lowerSlots_;
    std::uint32_t upperSlots_;
    PacketTable *packets_;

    SlotPort lower_;
    SlotPort upper_;

    StagedFifo<Flit> upResp_;
    StagedFifo<Flit> upReq_;
    StagedFifo<Flit> downResp_;
    StagedFifo<Flit> downReq_;

    std::uint64_t retries_ = 0;
};

/**
 * Hierarchical ring interconnect with slotted switching. Shares the
 * topology machinery (and the Network interface) with the wormhole
 * RingNetwork; the global ring may be double-clocked exactly as
 * there.
 */
class SlottedRingNetwork : public Network
{
  public:
    struct Params
    {
        RingTopology topo;
        std::uint32_t cacheLineBytes = 32;
        std::uint32_t globalRingSpeed = 1;
    };

    explicit SlottedRingNetwork(const Params &params);

    int numProcessors() const override;
    bool canInject(NodeId pm, const Packet &pkt) const override;
    void inject(NodeId pm, const Packet &pkt) override;
    void tick(Cycle now) override;
    UtilizationTracker &utilization() override { return util_; }
    const UtilizationTracker &utilization() const override
    {
        return util_;
    }
    std::uint64_t flitsInFlight() const override;
    void registerMetrics(MetricRegistry &registry) const override;
    bool isIdle() const override;
    std::size_t activeNodeCount() const override;

    double levelUtilization(int level) const;
    int numLevels() const { return structure_.numLevels; }

    /** Total another-lap retries across all IRIs. */
    std::uint64_t totalRetries() const;

  private:
    struct Hop
    {
        enum class Kind { Nic, IriLower, IriUpper } kind;
        int index;
        UtilizationTracker::LinkId link;
    };

    SlotPort &portAt(const RingSlotDesc &slot);

    /**
     * Combined component index for the active mask: NICs are [0, P),
     * IRI i is P + i.
     */
    std::uint32_t compOf(const Hop &hop) const;

    Params params_;
    RingStructure structure_;
    std::uint32_t clFlits_;

    // Contiguous value storage (see common/stable_pool.hh): the hop
    // schedule strides through components without a pointer chase.
    StablePool<SlottedNic> nics_;
    StablePool<SlottedIri> iris_;
    /** One occupancy record per ring (one slot reserved for
     * down-phase cells on multi-level systems). */
    std::vector<RingOccupancy> occupancy_;

    UtilizationTracker util_;
    std::vector<UtilizationTracker::GroupId> levelGroups_;

    /** Evaluation schedule: slow hops, then fast (global) hops. */
    std::vector<Hop> slowHops_;
    std::vector<Hop> fastHops_;

    // Scheduler state: one combined mask over NICs and IRIs; hops of
    // sleeping components are skipped (their evaluate is a no-op on
    // empty state) while the hop order itself — and therefore slot
    // rotation — is untouched.
    ActiveMask active_;
    /** Per-IRI flag: upper side in the fast (global) domain. */
    std::vector<std::uint8_t> iriFast_;
};

} // namespace hrsim

#endif // HRSIM_RING_SLOTTED_NETWORK_HH
