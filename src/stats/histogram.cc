#include "stats/histogram.hh"

#include <cmath>

#include "common/log.hh"
#include "ckpt/codec.hh"

namespace hrsim
{

namespace
{

// Bucket boundaries at 2^(k/4): ~19% wide buckets, ~9% max error.
constexpr double bucketsPerOctave = 4.0;

} // namespace

Histogram::Histogram(double max_value) : maxValue_(max_value)
{
    HRSIM_ASSERT(max_value > 1.0);
    const auto buckets = static_cast<std::size_t>(
        std::ceil(std::log2(max_value) * bucketsPerOctave)) + 1;
    counts_.assign(buckets, 0);
}

std::size_t
Histogram::bucketOf(double value) const
{
    if (value < 1.0)
        return 0;
    const auto index = static_cast<std::size_t>(
        std::floor(std::log2(value) * bucketsPerOctave));
    return index >= counts_.size() ? counts_.size() - 1 : index;
}

double
Histogram::bucketLo(std::size_t index) const
{
    return std::exp2(static_cast<double>(index) / bucketsPerOctave);
}

void
Histogram::add(double value)
{
    ++counts_[bucketOf(value)];
    ++count_;
}

double
Histogram::percentile(double q) const
{
    if (count_ == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    const double target = q * static_cast<double>(count_);
    double seen = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0)
            continue;
        const double next = seen + static_cast<double>(counts_[i]);
        if (next >= target) {
            // Interpolate inside the bucket.
            const double lo = i == 0 ? 0.0 : bucketLo(i);
            const double hi = bucketLo(i + 1);
            const double frac =
                (target - seen) / static_cast<double>(counts_[i]);
            return lo + frac * (hi - lo);
        }
        seen = next;
    }
    return bucketLo(counts_.size());
}

void
Histogram::merge(const Histogram &other)
{
    HRSIM_ASSERT(counts_.size() == other.counts_.size());
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    count_ += other.count_;
}

void
Histogram::reset()
{
    counts_.assign(counts_.size(), 0);
    count_ = 0;
}

template <class Io, class Self>
void
Histogram::layout(Io &io, Self &self)
{
    io.sameU32(static_cast<std::uint32_t>(self.counts_.size()),
               "histogram geometry mismatch");
    for (auto &bucket : self.counts_)
        io.u64(bucket);
    io.u64(self.count_);
}

void
Histogram::saveState(CkptWriter &w) const
{
    layout(w, *this);
}

void
Histogram::loadState(CkptReader &r)
{
    layout(r, *this);
}

} // namespace hrsim
