/**
 * @file
 * Square bi-directional 2D-mesh interconnect (Figure 2 of the paper).
 *
 * width x width wormhole-routed mesh with no end-around connections.
 * Each adjacent pair of routers is joined by two uni-directional
 * 32-bit links. Directional router buffers hold 1, 4 or cl flits
 * (Section 2.2); network utilization counts router-to-router links
 * only, matching the paper's metric.
 *
 * The network ticks only awake routers, held in an ActiveMask bitmap
 * (sim/active_mask.hh); each router keeps its own changed/poked flag
 * pair, and the routers sit contiguously, so the commit and sleep
 * sweeps are linear walks. See DESIGN.md section 10 for the
 * scheduling invariants.
 */

#ifndef HRSIM_MESH_MESH_NETWORK_HH
#define HRSIM_MESH_MESH_NETWORK_HH

#include <cstdint>
#include <vector>

#include "common/stable_pool.hh"
#include "common/types.hh"
#include "mesh/mesh_router.hh"
#include "sim/network.hh"

namespace hrsim
{

class MeshNetwork : public Network
{
  public:
    struct Params
    {
        int width = 2; //!< edge length; P = width * width
        std::uint32_t cacheLineBytes = 32;
        /** Router input-buffer depth in flits; 0 selects cl-sized. */
        std::uint32_t bufferFlits = 4;
        /** Round-robin output arbitration (paper default); false
         * selects fixed-priority (ablation only). */
        bool roundRobinArbitration = true;
    };

    explicit MeshNetwork(const Params &params);

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
     * Checkpoint hooks (tick boundary). Unlike the ring's, mesh
     * scheduler membership is NOT derivable from buffer contents: a
     * back-pressured router sleeps while holding flits (sweepKeep),
     * an empty one can sit awake under the amortized saturation
     * sweep, and both depend on poke/changed history — so the
     * snapshot carries the explicit member list, the per-router flag
     * pairs, and the sweep phase counter.
     */
    bool checkpointSupported() const override { return true; }
    void saveState(CkptWriter &w) const override;
    void loadState(CkptReader &r) override;

    /** Mesh-link utilization in [0, 1] (the paper's Figure 13). */
    double networkUtilization() const;

    int width() const { return params_.width; }
    const Params &params() const { return params_; }

    /** Resolved router buffer depth in flits. */
    std::uint32_t bufferFlits() const { return bufferFlits_; }

    /** Flits in a cache-line packet on this network. */
    std::uint32_t clFlits() const { return clFlits_; }

    MeshRouter &router(NodeId id);

  private:
    /**
     * The one field list saveState() and loadState() both run.
     * @a worm_ids holds every router's NumMeshPorts held-worm ids
     * (MeshRouter::saveState) and @a members the awake router ids in
     * ascending order.
     */
    template <class Io, class Self>
    static void layout(Io &io, Self &self, std::vector<PacketId> &worm_ids,
                       std::vector<std::uint32_t> &members);

    Params params_;
    std::uint32_t clFlits_;
    std::uint32_t bufferFlits_;
    /** Routers live contiguously so the tick sweep strides linearly
     * instead of chasing one heap pointer per router per phase. */
    StablePool<MeshRouter> routers_;
    /** e-cube routing LUT, P*P entries: row r holds router r's output
     * port for every destination. Built from routeOfCoordinate(). */
    std::vector<std::uint8_t> routeLut_;
    UtilizationTracker util_;
    UtilizationTracker::GroupId meshGroup_;

    // Scheduler state: the bitmap of awake routers. Router evaluation
    // order is immaterial (two-phase FIFOs); the mask scans in id
    // order so behaviour is easy to reason about.
    ActiveMask activeMask_;
    /** Saturated ticks since the last amortized sleep sweep. */
    std::uint32_t satTicks_ = 0;

    /** Per-router fault state; allocated by setFaultAccounting()
     * (i.e. only when a fault plan is active). */
    std::vector<MeshRouterFaults> faultState_;
    FaultAccounting *acct_ = nullptr;
};

} // namespace hrsim

#endif // HRSIM_MESH_MESH_NETWORK_HH
