/**
 * @file
 * Abstract interconnection-network interface.
 *
 * Both the hierarchical ring network and the 2D mesh implement this
 * interface. A network is ticked once per system clock cycle with a
 * two-phase (evaluate, then commit) discipline internally, accepts
 * packet injections from processing modules, and delivers packets to
 * the registered handler when the tail flit reaches its destination.
 *
 * Observability: a network publishes its component counters and
 * gauges into a MetricRegistry (registerMetrics()) and accepts an
 * optional FlitTracer that logs inject/hop/eject events; both are
 * pull-model/opt-in, so the tick hot path is unaffected when unused.
 */

#ifndef HRSIM_SIM_NETWORK_HH
#define HRSIM_SIM_NETWORK_HH

#include <functional>

#include "ckpt/checkpointable.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "obs/flit_trace.hh"
#include "proto/packet.hh"
#include "proto/packet_table.hh"
#include "stats/utilization.hh"

namespace hrsim
{

class MetricRegistry;
struct FaultAccounting;
struct FaultEvent;
struct FaultTarget;

class Network : public Checkpointable
{
  public:
    /** Callback invoked when a packet fully arrives at its target. */
    using DeliveryHandler = std::function<void(const Packet &, Cycle)>;

    virtual ~Network() = default;

    /** Number of processing modules attached. */
    virtual int numProcessors() const = 0;

    /**
     * May PM @a pm inject @a pkt this cycle? True when the NIC output
     * queue for the packet's class has room for every flit.
     */
    virtual bool canInject(NodeId pm, const Packet &pkt) const = 0;

    /** Inject @a pkt at PM @a pm; caller must check canInject(). */
    virtual void inject(NodeId pm, const Packet &pkt) = 0;

    /** Advance the network by one system clock cycle. */
    virtual void tick(Cycle now) = 0;

    /** Register the delivery callback (one handler per network). */
    void setDeliveryHandler(DeliveryHandler handler)
    {
        deliver_ = std::move(handler);
    }

    /** Link-utilization accounting for this network. */
    virtual UtilizationTracker &utilization() = 0;
    virtual const UtilizationTracker &utilization() const = 0;

    /** Total flits currently buffered inside the network. */
    virtual std::uint64_t flitsInFlight() const = 0;

    /**
     * True when no component holds any flit, i.e. a tick would move
     * nothing. O(1) for networks with an active-mask scheduler (all
     * three concrete networks).
     */
    virtual bool isIdle() const { return flitsInFlight() == 0; }

    /** Components currently awake in the network's scheduler. */
    virtual std::size_t activeNodeCount() const { return 0; }

    /**
     * Register this network's counters and gauges under stable
     * hierarchical names (e.g. "ring.l1.iri3.wait_cycles"). Samplers
     * capture `this`; the network must outlive registry snapshots.
     * The default registers nothing (for minimal test networks).
     */
    virtual void
    registerMetrics(MetricRegistry &registry) const
    {
        (void)registry;
    }

    /**
     * Does this network have the component @a target names? Used to
     * validate a fault plan against the topology at System build
     * time. The default (no fault support) rejects every target —
     * plans against such a network fail fast instead of silently
     * doing nothing.
     */
    virtual bool
    faultTargetValid(const FaultTarget &target) const
    {
        (void)target;
        return false;
    }

    /**
     * Apply (@a active) or lift one scheduled fault. Called by the
     * FaultController at the event's start and end cycles, before
     * the cycle is evaluated. Overlapping windows on one target
     * nest: implementations count applications per target rather
     * than setting booleans. Only reachable after faultTargetValid()
     * accepted the target, so the default is unreachable.
     */
    virtual void
    applyFault(const FaultEvent &event, bool active)
    {
        (void)event;
        (void)active;
        HRSIM_PANIC("network has no fault support");
    }

    /**
     * Share the conservation ledger (injected/delivered/dropped
     * flits). Non-null only when a fault plan is active; networks
     * skip all fault accounting when unset, keeping fault-free runs
     * byte-identical to a tree without the subsystem.
     */
    virtual void setFaultAccounting(FaultAccounting *acct)
    {
        (void)acct;
    }

    /**
     * Metadata of the packets in flight (proto/packet_table.hh).
     * Its live-flit total always equals flitsInFlight().
     */
    const PacketTable &packetTable() const { return packets_; }

    /** Attach (or detach, with nullptr) the flit event tracer. */
    void setTracer(FlitTracer *tracer) { tracer_ = tracer; }
    FlitTracer *tracer() const { return tracer_; }

    /**
     * True when this network implements the Checkpointable hooks.
     * The slotted ring does not (no worm-drain story — the same
     * reason it rejects fault plans); System::saveCheckpoint refuses
     * up front instead of dying inside saveState().
     */
    virtual bool checkpointSupported() const { return false; }

    /**
     * Checkpointable defaults for networks without support; concrete
     * networks with checkpointSupported() == true override both.
     * Unreachable through System, which gates on the flag above.
     */
    void saveState(CkptWriter &w) const override
    {
        (void)w;
        fatal("this network does not support checkpointing");
    }

    void loadState(CkptReader &r) override
    {
        (void)r;
        fatal("this network does not support checkpointing");
    }

  protected:
    /** Deliver @a pkt to the attached PM at cycle @a now. */
    void
    delivered(const Packet &pkt, Cycle now) const
    {
        if (deliver_)
            deliver_(pkt, now);
        HRSIM_TRACE_FLIT(tracer_, FlitEvent::Eject, pkt.id, pkt.dst,
                         0);
    }

    /**
     * The attached tracer (nullptr when tracing is off). Concrete
     * networks hand &tracer_ to their link drivers so hop hooks see
     * tracer attachment without per-link re-wiring.
     */
    FlitTracer *tracer_ = nullptr;

    /**
     * This network's in-flight packet records. Concrete networks
     * hand &packets_ to the components that inject, eject, trace or
     * checkpoint flits.
     */
    PacketTable packets_;

  private:
    DeliveryHandler deliver_;
};

} // namespace hrsim

#endif // HRSIM_SIM_NETWORK_HH
