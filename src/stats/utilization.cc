#include "stats/utilization.hh"

#include "common/log.hh"
#include "ckpt/codec.hh"

namespace hrsim
{

UtilizationTracker::GroupId
UtilizationTracker::group(const std::string &name)
{
    for (GroupId g = 0; g < groupNames_.size(); ++g) {
        if (groupNames_[g] == name)
            return g;
    }
    groupNames_.push_back(name);
    groupCapacity_.push_back(0);
    groupTransfers_.push_back(0);
    return static_cast<GroupId>(groupNames_.size() - 1);
}

UtilizationTracker::LinkId
UtilizationTracker::addLink(GroupId group, std::uint32_t speed_factor)
{
    HRSIM_ASSERT(group < groupCapacity_.size());
    HRSIM_ASSERT(speed_factor >= 1);
    linkGroup_.push_back(group);
    linkSpeed_.push_back(speed_factor);
    groupCapacity_[group] += speed_factor;
    return static_cast<LinkId>(linkGroup_.size() - 1);
}

void
UtilizationTracker::startMeasurement(Cycle now)
{
    measuring_ = true;
    windowStart_ = now;
    for (auto &transfers : groupTransfers_)
        transfers = 0;
}

void
UtilizationTracker::markSnapshot(Cycle now)
{
    if (!measuring_)
        return;
    HRSIM_ASSERT(now >= windowStart_);
    windowCycles_ = now - windowStart_;
}

void
UtilizationTracker::stopMeasurement(Cycle now)
{
    HRSIM_ASSERT(measuring_);
    HRSIM_ASSERT(now >= windowStart_);
    measuring_ = false;
    windowCycles_ = now - windowStart_;
}

double
UtilizationTracker::groupUtilization(GroupId group) const
{
    HRSIM_ASSERT(group < groupCapacity_.size());
    if (windowCycles_ == 0 || groupCapacity_[group] == 0)
        return 0.0;
    const double cap = static_cast<double>(groupCapacity_[group]) *
                       static_cast<double>(windowCycles_);
    return static_cast<double>(groupTransfers_[group]) / cap;
}

double
UtilizationTracker::totalUtilization() const
{
    if (windowCycles_ == 0)
        return 0.0;
    std::uint64_t cap = 0;
    std::uint64_t transfers = 0;
    for (std::size_t g = 0; g < groupCapacity_.size(); ++g) {
        cap += groupCapacity_[g];
        transfers += groupTransfers_[g];
    }
    if (cap == 0)
        return 0.0;
    return static_cast<double>(transfers) /
           (static_cast<double>(cap) * static_cast<double>(windowCycles_));
}

template <class Io, class Self>
void
UtilizationTracker::layout(Io &io, Self &self)
{
    io.boolean(self.measuring_);
    io.u64(self.windowStart_);
    io.u64(self.windowCycles_);
    io.sameU32(static_cast<std::uint32_t>(self.groupTransfers_.size()),
               "utilization group count mismatch");
    // Loaded in place: link outputs hold stable pointers into the
    // counter vector.
    for (auto &transfers : self.groupTransfers_)
        io.u64(transfers);
}

void
UtilizationTracker::saveState(CkptWriter &w) const
{
    layout(w, *this);
}

void
UtilizationTracker::loadState(CkptReader &r)
{
    layout(r, *this);
}

} // namespace hrsim
