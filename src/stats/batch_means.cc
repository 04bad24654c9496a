#include "stats/batch_means.hh"

#include <cmath>
#include <limits>

#include "common/log.hh"
#include "ckpt/codec.hh"

namespace hrsim
{

double
tQuantile95(std::uint64_t df)
{
    // Two-sided 0.975 quantiles; beyond 30 degrees of freedom the
    // normal approximation the fixed-length path uses is adequate.
    static const double table[] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060,  2.056, 2.052, 2.048, 2.045, 2.042,
    };
    if (df == 0)
        return std::numeric_limits<double>::infinity();
    if (df <= 30)
        return table[df - 1];
    return 1.96;
}

BatchMeans::BatchMeans(Cycle warmup_cycles, Cycle batch_cycles,
                       std::uint32_t num_batches)
    : warmupCycles_(warmup_cycles), batchCycles_(batch_cycles),
      batches_(num_batches)
{
    if (batch_cycles == 0)
        fatal("BatchMeans: batch length must be positive");
    if (num_batches == 0)
        fatal("BatchMeans: need at least one measured batch");
}

BatchMeans
BatchMeans::adaptive(Cycle batch_cycles)
{
    if (batch_cycles == 0)
        fatal("BatchMeans: batch length must be positive");
    BatchMeans bm;
    bm.adaptive_ = true;
    bm.warmupCycles_ = 0;
    bm.batchCycles_ = batch_cycles;
    return bm;
}

void
BatchMeans::add(Cycle now, double value)
{
    if (now < warmupCycles_)
        return; // initialization bias: first batch discarded
    const Cycle offset = now - warmupCycles_;
    const Cycle index = offset / batchCycles_;
    if (adaptive_) {
        if (index >= batches_.size())
            batches_.resize(static_cast<std::size_t>(index) + 1);
    } else if (index >= batches_.size()) {
        return; // past the measurement window
    }
    batches_[static_cast<std::size_t>(index)].add(value);
    all_.add(value);
}

Cycle
BatchMeans::endCycle() const
{
    if (adaptive_) {
        if (truncLimit_ == 0)
            return std::numeric_limits<Cycle>::max();
        return batchCycles_ * truncLimit_;
    }
    return warmupCycles_ + batchCycles_ * batches_.size();
}

void
BatchMeans::setTruncation(std::uint32_t first_batch,
                          std::uint32_t batch_limit)
{
    HRSIM_ASSERT(adaptive_);
    HRSIM_ASSERT(first_batch <= batch_limit);
    truncFirst_ = first_batch;
    truncLimit_ = batch_limit;
}

std::uint64_t
BatchMeans::sampleCount() const
{
    if (!adaptive_)
        return all_.count();
    std::uint64_t count = 0;
    const std::uint32_t limit =
        truncLimit_ != 0 ? truncLimit_ : numBatches();
    for (std::uint32_t b = truncFirst_;
         b < limit && b < numBatches(); ++b)
        count += batches_[b].count();
    return count;
}

double
BatchMeans::mean() const
{
    if (!adaptive_)
        return all_.mean();
    double sum = 0.0;
    std::uint64_t count = 0;
    const std::uint32_t limit =
        truncLimit_ != 0 ? truncLimit_ : numBatches();
    for (std::uint32_t b = truncFirst_;
         b < limit && b < numBatches(); ++b) {
        sum += batches_[b].sum();
        count += batches_[b].count();
    }
    return count != 0 ? sum / static_cast<double>(count) : 0.0;
}

double
BatchMeans::halfWidth95() const
{
    // Variance across batch means; empty batches contribute nothing.
    RunningStats of_means;
    const std::uint32_t limit =
        adaptive_ && truncLimit_ != 0 ? truncLimit_ : numBatches();
    for (std::uint32_t b = adaptive_ ? truncFirst_ : 0;
         b < limit && b < numBatches(); ++b) {
        if (batches_[b].count() > 0)
            of_means.add(batches_[b].mean());
    }
    if (of_means.count() < 2)
        return 0.0;
    const double se =
        of_means.stddev() / std::sqrt(static_cast<double>(of_means.count()));
    // Fixed mode keeps the paper's normal approximation (batches are
    // long); the adaptive path can retain few batches, so it pays for
    // the small sample with the matching t quantile.
    const double quantile =
        adaptive_ ? tQuantile95(of_means.count() - 1) : 1.96;
    return quantile * se;
}

double
BatchMeans::batchMean(std::uint32_t batch) const
{
    HRSIM_ASSERT(batch < batches_.size());
    return batches_[batch].mean();
}

std::uint64_t
BatchMeans::batchCount(std::uint32_t batch) const
{
    HRSIM_ASSERT(batch < batches_.size());
    return batches_[batch].count();
}

template <class Io, class Self>
void
BatchMeans::layout(Io &io, Self &self)
{
    // n + mean + m2 + min + max per batch
    io.seq(self.batches_, "batch", 5 * 8,
           [](auto &io_, auto &batch) { io_.state(batch); });
    io.state(self.all_);
    io.u32(self.truncFirst_);
    io.u32(self.truncLimit_);
}

void
BatchMeans::saveState(CkptWriter &w) const
{
    layout(w, *this);
}

void
BatchMeans::loadState(CkptReader &r)
{
    layout(r, *this);
}

} // namespace hrsim
