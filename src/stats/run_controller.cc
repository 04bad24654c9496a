#include "stats/run_controller.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/log.hh"
#include "ckpt/codec.hh"

namespace hrsim
{

const char *
toString(StopReason reason)
{
    switch (reason) {
      case StopReason::FixedLength:
        return "fixed";
      case StopReason::Converged:
        return "converged";
      case StopReason::MaxCycles:
        return "max_cycles";
      case StopReason::Saturated:
        return "saturated";
    }
    return "unknown";
}

RunController::RunController(const StopPolicy &policy,
                             BatchMeans &collector)
    : policy_(policy), collector_(collector)
{
    if (!policy_.enabled())
        fatal("RunController: policy.relHw must be positive");
    if (policy_.batchCycles == 0 || policy_.maxCycles == 0)
        fatal("RunController: batchCycles/maxCycles must be resolved");
    if (policy_.minBatches < 2)
        fatal("RunController: need at least two retained batches");
    if (policy_.divergenceWindow < 2)
        fatal("RunController: divergence window must be >= 2");
    HRSIM_ASSERT(collector_.isAdaptive());
    HRSIM_ASSERT(collector_.batchCycles() == policy_.batchCycles);
    relHw_ = std::numeric_limits<double>::infinity();
}

Cycle
RunController::nextCheckpoint() const
{
    return static_cast<Cycle>(history_.size() + 1) *
           policy_.batchCycles;
}

std::uint32_t
RunController::mserTruncation(const std::vector<double> &means)
{
    // MSER: over truncations d (at most half the series, the
    // standard guard against truncating the whole run away), minimize
    // the standard error of the remaining means. One suffix sweep
    // yields every candidate's sum/sum-of-squares in O(n).
    const std::size_t n = means.size();
    if (n < 2)
        return 0;
    const std::size_t max_d = n / 2;
    double sum = 0.0;
    double sumsq = 0.0;
    double best_se = std::numeric_limits<double>::infinity();
    std::size_t best_d = 0;
    // Walk d downward so each candidate extends the suffix by one.
    std::vector<double> se(max_d + 1,
                           std::numeric_limits<double>::infinity());
    for (std::size_t i = n; i-- > 0;) {
        sum += means[i];
        sumsq += means[i] * means[i];
        const std::size_t m = n - i;
        if (i <= max_d && m >= 2) {
            const double mean = sum / static_cast<double>(m);
            const double var =
                (sumsq - sum * mean) / static_cast<double>(m - 1);
            se[i] = std::sqrt(std::max(var, 0.0)) /
                    std::sqrt(static_cast<double>(m));
        }
    }
    // Smallest d wins ties: truncate no more than the evidence asks.
    for (std::size_t d = 0; d <= max_d; ++d) {
        if (se[d] < best_se) {
            best_se = se[d];
            best_d = d;
        }
    }
    return static_cast<std::uint32_t>(best_d);
}

bool
RunController::convergedAt(std::uint32_t completed_batches)
{
    // Compact the batch-mean series to non-empty batches (an idle
    // low-load gap may close a batch with no completions), remember
    // the original index of each entry so the MSER pick maps back to
    // a batch boundary.
    std::vector<double> means;
    std::vector<std::uint32_t> index;
    means.reserve(completed_batches);
    const std::uint32_t have =
        std::min(completed_batches, collector_.numBatches());
    for (std::uint32_t b = 0; b < have; ++b) {
        if (collector_.batchCount(b) > 0) {
            means.push_back(collector_.batchMean(b));
            index.push_back(b);
        }
    }

    const std::uint32_t d = mserTruncation(means);
    truncation_ = means.empty() ? 0 : index[d];
    collector_.setTruncation(truncation_, completed_batches);

    const double mean = collector_.mean();
    const std::uint32_t retained =
        static_cast<std::uint32_t>(means.size()) - d;
    if (mean <= 0.0 || retained < policy_.minBatches) {
        relHw_ = std::numeric_limits<double>::infinity();
        return false;
    }
    relHw_ = collector_.halfWidth95() / mean;
    return relHw_ <= policy_.relHw;
}

bool
RunController::saturatedAt() const
{
    // Saturation signature: past the MSER truncation the latency
    // batch means are STILL climbing by at least divergenceGrowth
    // (first-half vs second-half averages of everything retained)
    // while the queues are pegged near the outstanding cap or still
    // filling toward it. For a stationary point the half averages
    // converge as the retained window grows, so batch-mean noise
    // cannot hold them divergenceGrowth apart for long; for a point
    // past the knee the climb is the signal itself, and MSER (capped
    // at truncating half the run) can never hide it. Evaluation
    // waits for divergenceWindow + 1 retained checkpoints and
    // minBatches total, so short transients of convergeable points
    // are truncated away before the detector ever looks.
    const std::uint32_t window = policy_.divergenceWindow;
    if (history_.size() < policy_.minBatches)
        return false;
    const std::size_t first = truncation_;
    if (history_.size() < first + window + 1)
        return false;
    const std::size_t count = history_.size() - first;
    const std::size_t half = count / 2;
    double lat_lo = 0.0, lat_hi = 0.0;
    double occ_lo = 0.0, occ_hi = 0.0;
    bool pegged = true;
    for (std::size_t k = 0; k < half; ++k) {
        lat_lo += history_[first + k].batchMean;
        occ_lo += history_[first + k].occupancy;
        lat_hi += history_[history_.size() - half + k].batchMean;
        occ_hi += history_[history_.size() - half + k].occupancy;
    }
    lat_lo /= static_cast<double>(half);
    lat_hi /= static_cast<double>(half);
    occ_lo /= static_cast<double>(half);
    occ_hi /= static_cast<double>(half);
    for (std::size_t i = first; i < history_.size(); ++i) {
        pegged = pegged &&
                 history_[i].occupancy >= policy_.divergenceOccupancy;
    }
    // "Filling" needs a rising trend AND already-substantial
    // occupancy (half the pegged threshold): low-occupancy noise can
    // drift upward, but it cannot be saturation.
    const bool filling = occ_hi > occ_lo &&
                         occ_hi >= 0.5 * policy_.divergenceOccupancy;
    return (pegged || filling) && lat_lo > 0.0 &&
           lat_hi >= lat_lo * (1.0 + policy_.divergenceGrowth);
}

RunController::Decision
RunController::onCheckpoint(Cycle now, double occupancy)
{
    HRSIM_ASSERT(!stopped_);
    HRSIM_ASSERT(now == nextCheckpoint());
    const auto closed =
        static_cast<std::uint32_t>(history_.size()); // batch index
    CheckpointStats stats;
    stats.batchMean = closed < collector_.numBatches() &&
                              collector_.batchCount(closed) > 0
                          ? collector_.batchMean(closed)
                          : 0.0;
    stats.occupancy = occupancy;
    history_.push_back(stats);

    if (std::getenv("HRSIM_DEBUG_STOP") != nullptr) {
        std::fprintf(stderr,
                     "ckpt %llu mean=%.2f occ=%.3f relhw=%.4f\n",
                     (unsigned long long)now, stats.batchMean,
                     stats.occupancy, relHw_);
    }
    Decision decision;
    if (convergedAt(closed + 1)) {
        decision.stop = true;
        decision.reason = StopReason::Converged;
    } else if (saturatedAt()) {
        decision.stop = true;
        decision.reason = StopReason::Saturated;
    } else if (now + policy_.batchCycles > policy_.maxCycles) {
        decision.stop = true;
        decision.reason = StopReason::MaxCycles;
    }
    stopped_ = decision.stop;
    return decision;
}

template <class Io, class Self>
void
RunController::layout(Io &io, Self &self)
{
    // batch mean + occupancy per checkpoint
    io.seq(self.history_, "controller checkpoint", 8 + 8,
           [](auto &io_, auto &stats) {
               io_.f64(stats.batchMean);
               io_.f64(stats.occupancy);
           });
    io.u32(self.truncation_);
    io.f64(self.relHw_);
    io.boolean(self.stopped_);
}

void
RunController::saveState(CkptWriter &w) const
{
    layout(w, *this);
}

void
RunController::loadState(CkptReader &r)
{
    layout(r, *this);
}

} // namespace hrsim
