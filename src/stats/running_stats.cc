#include "stats/running_stats.hh"

#include <cmath>

#include "ckpt/codec.hh"

namespace hrsim
{

void
RunningStats::add(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        if (x < min_)
            min_ = x;
        if (x > max_)
            max_ = x;
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    n_ += other.n_;
    if (other.min_ < min_)
        min_ = other.min_;
    if (other.max_ > max_)
        max_ = other.max_;
}

void
RunningStats::reset()
{
    *this = RunningStats();
}

double
RunningStats::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

template <class Io, class Self>
void
RunningStats::layout(Io &io, Self &self)
{
    io.u64(self.n_);
    io.f64(self.mean_);
    io.f64(self.m2_);
    io.f64(self.min_);
    io.f64(self.max_);
}

void
RunningStats::saveState(CkptWriter &w) const
{
    layout(w, *this);
}

void
RunningStats::loadState(CkptReader &r)
{
    layout(r, *this);
}

} // namespace hrsim
