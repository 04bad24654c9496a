/**
 * @file
 * Bi-directional 2D-mesh router (Figure 5 of the paper).
 *
 * The mesh NIC is a 5x5 crossbar: four links to the direct neighbors
 * plus the local PM port. Each directional input has a FIFO buffer of
 * 1, 4 or cl flits; the local injection port is backed by the PM's
 * split request/response output queues (responses have priority at
 * packet boundaries). Routing is deterministic e-cube (X then Y),
 * which is deadlock-free on a mesh without end-around connections and
 * needs no virtual channels. Output-port arbitration among competing
 * inputs is round-robin; a granted connection persists until the tail
 * flit of the packet has crossed, and the whole crossbar can move one
 * flit on every port within a single clock cycle.
 */

#ifndef HRSIM_MESH_MESH_ROUTER_HH
#define HRSIM_MESH_MESH_ROUTER_HH

#include <array>
#include <bit>
#include <cstdint>
#include <functional>

#include "ckpt/state_io.hh"
#include "common/staged_fifo.hh"
#include "common/types.hh"
#include "fault/fault_plan.hh"
#include "obs/flit_trace.hh"
#include "proto/packet.hh"
#include "proto/packet_table.hh"
#include "sim/active_mask.hh"
#include "stats/utilization.hh"

namespace hrsim
{

/** Crossbar port indices. */
enum MeshPort : int
{
    PortEast = 0,
    PortWest = 1,
    PortSouth = 2,
    PortNorth = 3,
    PortLocal = 4,
    NumMeshPorts = 5,
};

/** The port on the neighbor that faces back at @a port. */
MeshPort oppositePort(MeshPort port);

// A router holds six of these in-object (four input buffers, two PM
// output queues); keeping each at cursors plus one pointer keeps the
// router's per-cycle state compact.
static_assert(sizeof(StagedFifo<Flit>) == 32,
              "a flit queue is six uint32 cursors plus its buffer");

/**
 * Port-granular activity mask: the network's ActiveMask says *which*
 * routers tick, a PortMask says which of a router's five ports have
 * work, so its evaluate touches only those. One bit per port in a
 * uint8, iterated lowest bit first with ctz — ascending port order:
 *
 *     for (PortMask m = mask; m != 0; m = dropLowestPort(m))
 *         visit(lowestSetPort(m));
 */
using PortMask = std::uint8_t;

/** Index of the lowest set bit (mask must be nonzero). */
inline int
lowestSetPort(PortMask mask)
{
    return std::countr_zero(mask);
}

/** Clear the lowest set bit. */
inline PortMask
dropLowestPort(PortMask mask)
{
    return static_cast<PortMask>(mask & (mask - 1));
}

/**
 * Per-router fault state, allocated by MeshNetwork only while a
 * fault plan is active (routers hold a null pointer otherwise, so
 * fault-free runs pay nothing). Windows may overlap, so the per-port
 * and stall flags are nesting depth counters, not booleans.
 */
struct MeshRouterFaults
{
    std::array<std::uint8_t, 4> portDown{};    //!< LinkDown depth
    std::array<std::uint8_t, 4> portCorrupt{}; //!< Corrupt depth
    std::uint8_t stalled = 0;                  //!< Stall depth

    /**
     * Worm-kill state machine of one output port. A kill outlives
     * the window that started it: once a worm starts draining into a
     * dead link it must drain to its tail even if the link comes
     * back, because its leading flits are already gone.
     */
    struct OutKill
    {
        bool killing = false;    //!< draining the bound worm
        bool decided = false;    //!< first flit inspected?
        bool terminator = false; //!< owe downstream a poisoned tail
        bool poisoning = false;  //!< Corrupt: stamping this worm
    };
    std::array<OutKill, 4> out{};
};

/** Checkpoint one router's fault state. The nesting depths are
 *  redundant with the FaultController's applied-event replay but the
 *  kill/poison drain machines are not — a worm half-drained into a
 *  dead link must resume draining after restore. */
template <class Io, class Faults>
void
ckptMeshRouterFaults(Io &io, Faults &f)
{
    for (std::size_t p = 0; p < 4; ++p) {
        io.u8(f.portDown[p]);
        io.u8(f.portCorrupt[p]);
    }
    io.u8(f.stalled);
    for (auto &kill : f.out) {
        io.boolean(kill.killing);
        io.boolean(kill.decided);
        io.boolean(kill.terminator);
        io.boolean(kill.poisoning);
    }
}

class MeshRouter
{
  public:
    using DeliverFn = std::function<void(const Packet &, Cycle)>;

    /**
     * @param id PM id (also the router's position in the mesh).
     * @param width Mesh edge length.
     * @param buffer_flits Directional input buffer depth.
     * @param queue_flits PM output queue depth (>= largest packet).
     * @param packets The network's packet table (slots are taken at
     *        inject and returned at ejection or kill drop).
     * @param wake_mask The network's router mask: pushing a flit
     *        into a neighbor's input buffer, or freeing a slot of one
     *        a neighbor feeds, wakes that neighbor (by its PM id).
     * @param round_robin Rotate output arbitration (paper default);
     *        false selects fixed-priority (ablation only).
     */
    MeshRouter(NodeId id, int width, std::uint32_t buffer_flits,
               std::uint32_t queue_flits, PacketTable *packets,
               ActiveMask *wake_mask, bool round_robin = true);

    MeshRouter(const MeshRouter &) = delete;
    MeshRouter &operator=(const MeshRouter &) = delete;
    MeshRouter(MeshRouter &&) = delete;
    MeshRouter &operator=(MeshRouter &&) = delete;

    /** Wire a directional output to the neighbor's facing input. */
    void connect(MeshPort out, MeshRouter *neighbor,
                 UtilizationTracker *util,
                 UtilizationTracker::LinkId link);

    /** Route, arbitrate and traverse one cycle. Inline so the
     * scheduler's per-router call jumps straight into the selected
     * engine instead of through an extra dispatch frame. */
    void
    evaluate(Cycle now)
    {
        changed_ = false;
        // Stall fault: the crossbar core is frozen — no arbitration,
        // no traversal. Input latches still accept arrivals (staged
        // pushes commit as usual), so traffic backs up behind the
        // router and resumes untouched when the window closes.
        if (faults_ && faults_->stalled)
            return;
        evaluatePorts(now);
    }

    /**
     * Attach this router's row of the network's e-cube routing LUT
     * (indexed by destination NodeId). Evaluate routes heads with one
     * load from it instead of the div/mod coordinate math.
     */
    void setRouteRow(const std::uint8_t *row) { routeRow_ = row; }

    /**
     * End-of-cycle sleep decision for the network's scheduler: keep
     * the router awake iff this cycle's evaluate changed any state
     * (granted an output or moved a flit) or an external event poked
     * it (flit arrival, local injection, or a downstream credit).
     * Consumes the poke.
     *
     * Why this is sound: evaluate() is deterministic in the router's
     * committed state plus its neighbors' buffer occupancy, pops do
     * not free downstream space until the neighbor's commit, and
     * arrivals stage invisibly until the local commit. So an evaluate
     * that changed nothing will keep changing nothing until one of
     * the poke events fires — each of which re-wakes the router.
     */
    bool sweepKeep()
    {
        // A stalled router is pinned awake: it holds flits that move
        // again the cycle its window closes, and keeping it in the
        // active set also keeps the network non-idle so the system
        // never fast-forwards across a stall.
        const bool keep =
            changed_ || poked_ || (faults_ && faults_->stalled);
        poked_ = false;
        return keep;
    }

    /** External event: ensure the next retain keeps this router. */
    void poke() { poked_ = true; }

    /** End-of-cycle commit of all six router FIFOs. */
    void
    commit()
    {
        for (auto &buf : inBuf_)
            buf.commit();
        outResp_.commit();
        outReq_.commit();
    }

    bool canInject(const Packet &pkt) const;
    void inject(const Packet &pkt);
    void setDeliver(DeliverFn fn) { deliver_ = std::move(fn); }

    /**
     * Point at the owning network's tracer pointer so hop events
     * follow --trace-flits attachment after construction.
     */
    void setTracerSlot(FlitTracer *const *slot) { tracerSlot_ = slot; }

    /**
     * Cache the utilization counter pointers of every wired output.
     * The network calls this once every link exists: registering a
     * link may move the tracker's counter storage.
     */
    void
    cacheLinkCounters()
    {
        for (auto &port : out_) {
            if (port.peer == nullptr)
                continue;
            port.utilMeasuring = port.util->measuringFlag();
            port.utilCounter = port.util->transferCounter(port.link);
        }
    }

    /**
     * Attach this router's fault state and the network's shared
     * conservation ledger (both owned elsewhere; null = fault-free).
     */
    void
    setFaultState(MeshRouterFaults *faults, FaultAccounting *acct)
    {
        faults_ = faults;
        acct_ = acct;
    }

    NodeId id() const { return id_; }

    /** Flits currently buffered in this router. */
    std::uint64_t flitCount() const;

    /** e-cube output port for a packet headed to @a dst (LUT row). */
    MeshPort
    routeOf(NodeId dst) const
    {
        return static_cast<MeshPort>(routeRow_[dst]);
    }

    /**
     * e-cube output port computed from coordinates (X then Y). The
     * LUT is built from this; the exhaustive equivalence test in
     * test_mesh_network.cc compares the two for every (router, dst).
     */
    MeshPort routeOfCoordinate(NodeId dst) const;

    /**
     * Flits forwarded on an already-owned output port, i.e. moved
     * without re-running routing or arbitration (every non-head flit
     * of every worm).
     */
    std::uint64_t streamedFlits() const { return streamedFlits_; }

    /**
     * Checkpoint hooks (tick boundary): the six queues, the crossbar
     * binding state, and the changed/poked flags (live state — an
     * unconsumed poke is what re-wakes a back-pressured worm). The
     * cached source queues and upstream pointers of granted ports are
     * derived; loadState() range-checks the binding state against
     * this router's wiring, then rebuilds them with grantOutput()'s
     * recipe.
     * A granted port is saved by its worm's packet id, which both
     * pass through @a worm_ids (NumMeshPorts entries): saveState()
     * fills them from the granted slots, loadState() leaves them
     * there, and bindLoadedWorms() turns them into slots once every
     * router's flits are interned (a starved worm's flits sit
     * upstream), then refuses queue fronts the next evaluate would
     * assert on.
     */
    void saveState(CkptWriter &w, PacketId *worm_ids) const;
    void loadState(CkptReader &r, PacketId *worm_ids);
    void bindLoadedWorms(const PacketId *worm_ids);

  private:
    /** The one field list saveState() and loadState() both run. */
    template <class Io, class Self>
    static void layout(Io &io, Self &self, PacketId *worm_ids);

    /** Mask-driven evaluate: LUT routing, ctz port iteration. */
    void evaluatePorts(Cycle now);

    /** Bind output @a out to the worm whose head waits on @a in. */
    void grantOutput(int out, int in);

    /** Cache owned output @a out's source queue and credit-wake
     *  target from its owner input. */
    void cacheSource(int out);

    /**
     * Refuse decoded binding state (owners, rrPtr, inputBound, the
     * port masks, localSrc) that is out of range, self-inconsistent
     * or names an unwired link.
     */
    void checkLoadedPorts() const;

    /**
     * Move one flit across owned directional output @a out if flow
     * control allows (fault-free runs).
     */
    void traverseOutput(int out);

    /**
     * The move itself: stage @a flit (the front of output @a out's
     * source, possibly poison-stamped) into the peer buffer, pop the
     * source and do the per-hop bookkeeping.
     */
    void forwardFront(int out, const Flit &flit);

    /** traverseOutput() for the local (ejection) port. */
    void ejectLocal(Cycle now);

    /** traverseOutput() under a fault plan (cold path). */
    void traverseFaulted(int out);

    /** Release output @a out after its worm's tail crossed. */
    void unbindOutput(int out);

    /**
     * Drain-and-drop one flit of the worm bound to dead output
     * @a out (see MeshRouterFaults::OutKill). Cold path, fault runs
     * only.
     */
    void killOutput(int out);

    /** Next flit availabe on input @a in (nullptr if none). */
    const Flit *peekInput(int in) const;

    /** Poke + wake @a neighbor (flit arrival or credit event). */
    void
    wakeNeighbor(MeshRouter *neighbor)
    {
        // Test-before-set: at saturation almost every neighbor is
        // already poked, and skipping the redundant store keeps its
        // flag line clean in this core's cache.
        if (!neighbor->poked_) // stay up next cycle
            neighbor->poked_ = true;
        // and wake if sleeping
        wakeMask_->add(static_cast<std::uint32_t>(neighbor->id_));
    }

    NodeId id_;
    int width_;
    int x_;
    int y_;
    bool roundRobin_;
    // The sleep flags fill the padding after roundRobin_.
    /** This cycle's evaluate granted a port or moved a flit. */
    bool changed_ = false;
    /** External wake event since the last sleep sweep. */
    bool poked_ = false;

    std::array<StagedFifo<Flit>, 4> inBuf_;
    StagedFifo<Flit> outResp_;
    StagedFifo<Flit> outReq_;

    /** Which queue the local input's current worm drains from. */
    enum class LocalSrc : std::uint8_t { None, Resp, Req };
    LocalSrc localSrc_ = LocalSrc::None;

    /** Output the input's current worm is bound to (-1 if none). */
    std::array<int, NumMeshPorts> inputBound_;

    struct Output
    {
        int owner = -1; //!< input currently holding this port
        /** The owner worm's table slot (worm-identity asserts). */
        std::uint32_t wormSlot = 0;
        int rrPtr = 0;  //!< round-robin arbitration pointer
        /** The owner worm's source queue, cached at grant so each
         * streamed flit skips the peekInput() owner/localSrc
         * dispatch (the queue is fixed for the worm's lifetime). */
        StagedFifo<Flit> *src = nullptr;
        /** Credit-wake target for pops from src: the upstream
         * feeder for directional inputs, null for the local port. */
        MeshRouter *srcUpstream = nullptr;
        MeshRouter *neighbor = nullptr;
        /** The neighbor's facing input buffer (set at connect). */
        StagedFifo<Flit> *peer = nullptr;
        UtilizationTracker *util = nullptr;
        UtilizationTracker::LinkId link = 0;
        /** Cached tracker internals (cacheLinkCounters): one flag load
         * and one increment per hop instead of two vector walks. */
        const bool *utilMeasuring = nullptr;
        std::uint64_t *utilCounter = nullptr;
    };
    std::array<Output, NumMeshPorts> out_;

    /** This router's row of the network's e-cube LUT. */
    const std::uint8_t *routeRow_ = nullptr;
    /** Port activity: inputs bound to an output worm. */
    PortMask boundMask_ = 0;
    /** Port activity: outputs owned by an input worm. */
    PortMask ownedMask_ = 0;
    std::uint64_t streamedFlits_ = 0;
    /** Router feeding each directional input (credit wake target). */
    std::array<MeshRouter *, 4> upstream_{};

    DeliverFn deliver_;
    PacketTable *packets_;
    FlitTracer *const *tracerSlot_ = nullptr;
    /** The network's router mask (wake target). */
    ActiveMask *wakeMask_;
    /** Fault state + ledger; null (the fast case) without a plan. */
    MeshRouterFaults *faults_ = nullptr;
    FaultAccounting *acct_ = nullptr;
};

} // namespace hrsim

#endif // HRSIM_MESH_MESH_ROUTER_HH
