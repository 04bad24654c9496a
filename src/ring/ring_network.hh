/**
 * @file
 * Hierarchical ring interconnect (Figures 1, 3, 4 of the paper).
 *
 * Instantiates the NICs, IRIs and unidirectional links described by a
 * RingStructure and ticks them with the two-phase discipline. The
 * global (root) ring may be clocked at an integer multiple of the
 * system clock (Section 6 of the paper studies 2x): the upper sides
 * of the IRIs sitting on the global ring are then evaluated and
 * committed once per sub-cycle, with their up/down queues acting as
 * the clock-domain crossing.
 *
 * The network ticks only awake components (those holding at least
 * one flit, or pinned by a stall fault), held in two ActiveMask
 * bitmaps — one for NICs, one for IRIs — scanned in node-id order.
 * Handing a flit to a sleeping neighbor wakes it (wired via
 * RingOutput::connect); a component goes back to sleep in the
 * end-of-tick sweep once it drains. See DESIGN.md section 10 for the
 * invariants that make skipping asleep components invisible.
 */

#ifndef HRSIM_RING_RING_NETWORK_HH
#define HRSIM_RING_RING_NETWORK_HH

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/stable_pool.hh"
#include "common/types.hh"
#include "ring/ring_iri.hh"
#include "ring/ring_nic.hh"
#include "ring/topology.hh"
#include "sim/network.hh"

namespace hrsim
{

class RingNetwork : public Network
{
  public:
    struct Params
    {
        RingTopology topo;
        std::uint32_t cacheLineBytes = 32;
        /** Global-ring clock multiplier (1 = paper default, 2 = §6). */
        std::uint32_t globalRingSpeed = 1;
        /** Ring-buffer bypass path (ablation switch; paper: on). */
        bool nicBypass = true;
        /**
         * Cycles a ring-changing worm blocks at an IRI with a full
         * transfer queue before escaping with a recirculation lap;
         * 0 selects the default of 32 * cl flits.
         */
        std::uint32_t iriWaitLimit = 0;
        /**
         * Capacity of each IRI up/down queue in cache-line packets
         * (paper: 1). Larger values are a buffer-sizing ablation.
         */
        std::uint32_t iriQueuePackets = 1;
    };

    explicit RingNetwork(const Params &params);

    // Network interface
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
    bool faultTargetValid(const FaultTarget &target) const override;
    void applyFault(const FaultEvent &event, bool active) override;
    void setFaultAccounting(FaultAccounting *acct) override;

    /**
     * Checkpoint hooks (tick boundary). The snapshot carries only
     * authoritative content — ring occupancies, every component's
     * flit buffers and worm state, the fault planes when a plan is
     * live; active-mask membership is derived (asleep <=> empty,
     * + fault pins), so the load ends with the same scheduling
     * reseed the constructor runs, which also restores NIC acceptance
     * and rest state exactly as an uninterrupted run would hold them.
     */
    bool checkpointSupported() const override { return true; }
    void saveState(CkptWriter &w) const override;
    void loadState(CkptReader &r) override;

    /** Utilization of the rings at a hierarchy level (0 = global). */
    double levelUtilization(int level) const;

    /** Number of hierarchy levels. */
    int numLevels() const { return structure_.numLevels; }

    const RingStructure &structure() const { return structure_; }
    const Params &params() const { return params_; }

    /** Flits in a cache-line packet on this network. */
    std::uint32_t clFlits() const { return clFlits_; }

    /** Bubble-flow-control occupancy of a ring (for tests). */
    const RingOccupancy &ringOccupancy(int ring) const;

    /** Dump every node's buffer state (stall diagnostics). */
    void debugDump(std::ostream &out) const;

    /** Total cycles worms spent blocked on full IRI queues. */
    std::uint64_t totalWaitCycles() const;

    /** Total recirculation-escape laps taken by blocked worms. */
    std::uint64_t totalEscapes() const;

  private:
    /** The side occupying a slot of a ring. */
    RingSide &sideAt(const RingSlotDesc &slot);

    /**
     * Establish the invariant "asleep <=> empty": wake every
     * component holding flits (or fault-pinned), put every other one
     * into its rest state.
     */
    void reseedSchedule();

    Params params_;
    RingStructure structure_;
    std::uint32_t clFlits_;

    // Contiguous value storage: the per-cycle sweeps stride through
    // the components linearly instead of chasing one heap pointer
    // per component per phase (see common/stable_pool.hh).
    StablePool<RingNic> nics_;
    StablePool<RingIri> iris_;
    /** One occupancy record per ring (bubble flow control). */
    std::vector<RingOccupancy> occupancy_;

    UtilizationTracker util_;
    std::vector<UtilizationTracker::GroupId> levelGroups_;

    /** Awake NICs / IRIs (see sim/active_mask.hh). */
    ActiveMask nicMask_;
    ActiveMask iriMask_;
    /** Per-IRI flag: upper side in the fast (global) domain. */
    std::vector<std::uint8_t> iriFastUpper_;

    /** Per-attachment-point fault state, allocated only while a
     * fault plan is active: NIC pm at [pm], IRI i's lower/upper
     * sides at [P + 2i] / [P + 2i + 1]. */
    std::vector<RingSideFaults> sideFaults_;
    FaultAccounting *acct_ = nullptr;
};

} // namespace hrsim

#endif // HRSIM_RING_RING_NETWORK_HH
