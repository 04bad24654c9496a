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
#include "sim/active_mask.hh"
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

/**
 * Where an attachment point sends its cells: the downstream slot on
 * its ring, that ring's occupancy and PM range, and its slot count.
 * The network wires every field from the ring's RingDesc; NICs and
 * both IRI halves fill and send through it.
 */
struct SlotLink
{
    SlotPort *downstream = nullptr;
    /** Staging a cell downstream wakes that component. */
    ActiveMask *wakeMask = nullptr;
    std::uint32_t downstreamComp = 0;
    RingOccupancy *occupancy = nullptr;
    NodeId ringLo = 0; //!< first PM id reachable below this ring
    NodeId ringHi = 0; //!< one past the last such PM id
    std::uint32_t ringSlots = 0;

    /**
     * Fill an empty slot from @a resp, else @a req, behind the ring's
     * admission gate, and give a broadcast one lap of TTL. A cell is
     * down-phase (self-draining, so it may take the reserved slot)
     * when it is a unicast bound inside the ring's subtree or a
     * broadcast descending from outside it.
     */
    std::optional<Flit> fill(StagedFifo<Flit> &resp,
                             StagedFifo<Flit> &req,
                             const PacketTable &packets) const;

    /** Stage @a cell into the downstream slot. */
    void send(const Flit &cell, UtilizationTracker &util,
              UtilizationTracker::LinkId link) const;

    bool inRing(NodeId pm) const { return pm >= ringLo && pm < ringHi; }
};

class SlottedNic
{
  public:
    using DeliverFn = std::function<void(const Packet &, Cycle)>;

    /** @param packets The network's packet table. */
    SlottedNic(NodeId pm, std::uint32_t cl_flits, PacketTable *packets);

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
    SlotLink link;

    std::uint64_t flitCount() const;

  private:
    NodeId pm_;
    SlotPort port_;
    StagedFifo<Flit> outResp_;
    StagedFifo<Flit> outReq_;
    PacketTable *packets_;
    DeliverFn deliver_;
};

/**
 * One side of a slotted IRI: its slot on the lower or the upper
 * ring, the two transfer queues it diverts ring-changing cells into,
 * and the two it drains into empty slots (the other half's divert
 * queues). The queues belong to the owning SlottedIri. Both halves
 * run one rule, mirrored by the upper flag:
 *  - a broadcast is copied across iff inSubtree(src) != upper;
 *  - a unicast leaves its ring iff inSubtree(dst) == upper;
 *  - an empty slot refills from the drain queues.
 */
class SlottedIriHalf
{
  public:
    /**
     * @param upper True for the half on the parent ring.
     * @param packets The network's packet table (broadcast copies
     *        into the transfer queues add live flits).
     * @param divert_resp / @p divert_req Queues this half diverts
     *        ring-changing responses / requests into.
     * @param drain_resp / @p drain_req Queues this half refills
     *        empty slots from.
     */
    SlottedIriHalf(bool upper, NodeId subtree_lo, NodeId subtree_hi,
                   PacketTable *packets, StagedFifo<Flit> &divert_resp,
                   StagedFifo<Flit> &divert_req,
                   StagedFifo<Flit> &drain_resp,
                   StagedFifo<Flit> &drain_req);

    SlottedIriHalf(const SlottedIriHalf &) = delete;
    SlottedIriHalf &operator=(const SlottedIriHalf &) = delete;

    /** Pass / divert / refill for one cycle. */
    void evaluate(UtilizationTracker &util,
                  UtilizationTracker::LinkId link);

    void commit() { port_.commit(); }

    SlotPort &port() { return port_; }
    SlotLink link;

    /** Cells in the slot and the staged slot. */
    std::uint64_t
    flitCount() const
    {
        return static_cast<std::uint64_t>(port_.slot.has_value()) +
               static_cast<std::uint64_t>(port_.staged.has_value());
    }

    /** Cells that had to take another lap (full transfer queue). */
    std::uint64_t retries() const { return retries_; }

  private:
    bool
    inSubtree(NodeId pm) const
    {
        return pm >= subtreeLo_ && pm < subtreeHi_;
    }

    bool upper_;
    NodeId subtreeLo_;
    NodeId subtreeHi_;
    PacketTable *packets_;
    SlotPort port_;
    StagedFifo<Flit> &divertResp_;
    StagedFifo<Flit> &divertReq_;
    StagedFifo<Flit> &drainResp_;
    StagedFifo<Flit> &drainReq_;
    std::uint64_t retries_ = 0;
};

class SlottedIri
{
  public:
    /**
     * @param subtree_lo First PM id below this IRI.
     * @param subtree_hi One past the last PM id below this IRI.
     * @param cl_flits Transfer queue depth in flits.
     */
    SlottedIri(NodeId subtree_lo, NodeId subtree_hi,
               std::uint32_t cl_flits, PacketTable *packets);

    SlottedIri(const SlottedIri &) = delete;
    SlottedIri &operator=(const SlottedIri &) = delete;

    SlottedIriHalf &lower() { return lower_; }
    SlottedIriHalf &upper() { return upper_; }

    /**
     * Commit state owned by the upper ring's clock domain: the upper
     * half and the four transfer queues, which are the clock-domain
     * crossing when the global ring is double-clocked.
     */
    void commitUpper();

    std::uint64_t flitCount() const;

    /** Cells that had to take another lap (full transfer queue). */
    std::uint64_t
    retries() const
    {
        return lower_.retries() + upper_.retries();
    }

  private:
    // Declared before the halves, which hold references to them.
    StagedFifo<Flit> upResp_;
    StagedFifo<Flit> upReq_;
    StagedFifo<Flit> downResp_;
    StagedFifo<Flit> downReq_;

    SlottedIriHalf lower_;
    SlottedIriHalf upper_;
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
        RingSlotDesc slot;
        UtilizationTracker::LinkId link;
    };

    /** Call @a fn on the NIC or IRI half at @a slot. */
    template <typename Fn>
    decltype(auto) atSlot(const RingSlotDesc &slot, Fn &&fn);

    /**
     * Combined component index for the active mask: NICs are [0, P),
     * IRI i is P + i.
     */
    std::uint32_t compOf(const RingSlotDesc &slot) const;

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
