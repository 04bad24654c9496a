/**
 * @file
 * Applies a FaultPlan to a live network, edge by edge.
 *
 * The controller flattens the plan's [start, end) windows into a
 * single edge list sorted by cycle (deactivations before activations
 * at the same cycle, plan order within each group) and replays it
 * lazily: System::tickOnce() calls advanceTo(now) before evaluating
 * the cycle, which applies every edge with cycle <= now that has not
 * fired yet. Laziness makes the controller jump-safe under
 * fastForwardQuiescent(): a fault edge inside a globally idle gap
 * changes no observable state (there is no traffic for it to act
 * on), so applying it on the first busy cycle after the jump is
 * equivalent to applying it on time — and the edge sequence itself
 * is a pure function of the plan, never of wall time or scheduling,
 * keeping faulted runs bit-identical across reruns and --jobs
 * counts.
 *
 * Overlapping windows on one target compose by counting: networks
 * hold per-target depth counters, not booleans, so a link is down
 * while at least one LinkDown window covers it.
 *
 * The controller also owns the FaultAccounting ledger shared with
 * the network (drop/injection/delivery conservation) and registers
 * the `fault.*` and `drop.*` metrics. Both exist only when a plan is
 * present, so fault-free runs stay byte-identical to a tree without
 * the subsystem.
 */

#ifndef HRSIM_FAULT_FAULT_CONTROLLER_HH
#define HRSIM_FAULT_FAULT_CONTROLLER_HH

#include <cstdint>
#include <vector>

#include "ckpt/codec.hh"
#include "common/types.hh"
#include "fault/fault_plan.hh"

namespace hrsim
{

class Network;
class MetricRegistry;

class FaultController
{
  public:
    /**
     * Validate @a plan against @a net (every target must exist —
     * unknown routers/NICs/IRIs are fatal, not ignored) and share
     * the accounting ledger with the network. @a net must outlive
     * the controller.
     */
    FaultController(const FaultPlan &plan, Network &net);

    /** Apply every not-yet-fired edge with cycle <= @a now. */
    void
    advanceTo(Cycle now)
    {
        while (next_ < edges_.size() && edges_[next_].cycle <= now)
            fire(edges_[next_++]);
    }

    /** Faults active after the last advanceTo(). */
    std::uint32_t activeFaults() const { return active_; }

    /** Edges (activations + deactivations) fired so far. */
    std::uint64_t edgesApplied() const { return applied_; }

    const FaultPlan &plan() const { return plan_; }
    const FaultAccounting &accounting() const { return acct_; }

    /** Register fault.* / drop.* under the shared naming scheme. */
    void registerMetrics(MetricRegistry &registry) const;

    /**
     * Checkpoint hooks: the edge cursor, active/applied counters, and
     * the conservation ledger. The edge list itself is rebuilt from
     * the plan at construction (a pure function of it); the networks'
     * per-target depth counters travel in the network snapshot, so no
     * edge replay happens on restore.
     */
    void saveState(CkptWriter &w) const { layout(w, *this); }
    void loadState(CkptReader &r) { layout(r, *this); }

  private:
    /** The one field list saveState() and loadState() both run. */
    template <class Io, class Self>
    static void
    layout(Io &io, Self &self)
    {
        io.u64(self.next_);
        if (self.next_ > self.edges_.size()) {
            throw CheckpointError(
                "checkpoint: fault edge cursor past the configured "
                "plan (fault plan mismatch)");
        }
        io.u32(self.active_);
        io.u64(self.applied_);
        io.u64(self.acct_.injectedFlits);
        io.u64(self.acct_.deliveredFlits);
        io.u64(self.acct_.droppedFlits);
        io.u64(self.acct_.droppedWorms);
        io.u64(self.acct_.poisonedWorms);
    }

    struct Edge
    {
        Cycle cycle;
        std::uint32_t event; //!< index into plan_.events
        bool activate;
    };

    void fire(const Edge &edge);

    FaultPlan plan_;
    Network &net_;
    std::vector<Edge> edges_;
    std::size_t next_ = 0;
    std::uint32_t active_ = 0;
    std::uint64_t applied_ = 0;
    FaultAccounting acct_;
};

} // namespace hrsim

#endif // HRSIM_FAULT_FAULT_CONTROLLER_HH
