/**
 * @file
 * Link-utilization accounting.
 *
 * Utilization is reported, as in the paper, as the percentage of the
 * maximum: the fraction of link-cycles that carried a flit during the
 * measurement window. Links are registered into named groups (e.g.
 * "ring level 0", "mesh") so per-level ring utilization and whole-
 * network mesh utilization come from the same tracker. A link may be
 * registered with a speed factor > 1 (double-clocked global ring), in
 * which case its capacity is factor flits per system cycle.
 *
 * The window opens at the end of warmup (startMeasurement) and is
 * closed once, at the run horizon (stopMeasurement). Transfers
 * recorded outside an open window are ignored, so the skip-idle tick
 * scheduler (which never skips a cycle in which any link moves a
 * flit) leaves every utilization figure bit-identical to ticking
 * every cycle. For mid-run metric snapshots (--metrics-every)
 * markSnapshot() provisionally re-times the still-open window so the
 * utilization gauges published through the MetricRegistry (e.g.
 * "ring.l0.util") read values current as of the snapshot cycle;
 * before the window opens they read 0.
 */

#ifndef HRSIM_STATS_UTILIZATION_HH
#define HRSIM_STATS_UTILIZATION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace hrsim
{

class CkptWriter;
class CkptReader;

class UtilizationTracker
{
  public:
    using LinkId = std::uint32_t;
    using GroupId = std::uint32_t;

    /** Create (or look up) a link group by name. */
    GroupId group(const std::string &name);

    /** Register a link in a group; @a speed_factor flits/cycle max. */
    LinkId addLink(GroupId group, std::uint32_t speed_factor = 1);

    /**
     * Record that @a link carried a flit this cycle. Inline: this
     * sits on the per-flit hot path of every network (one call per
     * link traversal), so it must compile down to a test and an
     * indexed increment rather than an out-of-line call.
     */
    void
    recordTransfer(LinkId link)
    {
        if (!measuring_)
            return;
        HRSIM_ASSERT(link < linkGroup_.size());
        ++groupTransfers_[linkGroup_[link]];
    }

    /**
     * Stable pointer to the open-window flag, for callers that cache
     * it next to a cached transferCounter() (one flag load instead
     * of re-deriving both vector lookups per recorded flit).
     */
    const bool *measuringFlag() const { return &measuring_; }

    /**
     * Stable pointer to @a link's group transfer counter, equivalent
     * to the increment recordTransfer() performs. Only valid once
     * every group has been registered — group creation grows the
     * counter vector and invalidates earlier pointers — so callers
     * cache it in a post-wiring pass.
     */
    std::uint64_t *
    transferCounter(LinkId link)
    {
        HRSIM_ASSERT(link < linkGroup_.size());
        return &groupTransfers_[linkGroup_[link]];
    }

    /** Start the measurement window at cycle @a now. */
    void startMeasurement(Cycle now);

    /** Close the window at cycle @a now. */
    void stopMeasurement(Cycle now);

    /**
     * Provisionally time the still-open window against @a now so
     * group/total utilization can be read mid-run (metric
     * snapshots). No-op when no measurement is in progress; the
     * final stopMeasurement() overrides any provisional timing.
     */
    void markSnapshot(Cycle now);

    /** Utilization of a group in [0, 1] over the closed window. */
    double groupUtilization(GroupId group) const;

    /** Utilization across every registered link. */
    double totalUtilization() const;

    std::uint32_t numGroups() const
    {
        return static_cast<std::uint32_t>(groupCapacity_.size());
    }

    const std::string &groupName(GroupId group) const
    {
        return groupNames_[group];
    }

    /**
     * Checkpoint hooks. Counters are loaded in place — never
     * reallocated, because link outputs cache stable pointers into
     * the counter vector (see transferCounter()).
     */
    void saveState(CkptWriter &w) const;
    void loadState(CkptReader &r);

  private:
    /** The one field list saveState() and loadState() both run. */
    template <class Io, class Self>
    static void layout(Io &io, Self &self);

    bool measuring_ = false;
    Cycle windowStart_ = 0;
    Cycle windowCycles_ = 0;

    std::vector<std::string> groupNames_;
    // Aggregate flits/cycle capacity of all links in each group.
    std::vector<std::uint64_t> groupCapacity_;
    std::vector<std::uint64_t> groupTransfers_;

    std::vector<GroupId> linkGroup_;
    std::vector<std::uint32_t> linkSpeed_;
};

} // namespace hrsim

#endif // HRSIM_STATS_UTILIZATION_HH
