/**
 * @file
 * Log-bucketed latency histogram with percentile queries.
 *
 * Buckets grow geometrically (powers of 2^(1/4) by default), which
 * keeps relative error bounded at ~9% across the full range of
 * round-trip latencies (tens to tens of thousands of cycles) with a
 * few hundred buckets. Percentiles are interpolated within the
 * winning bucket.
 */

#ifndef HRSIM_STATS_HISTOGRAM_HH
#define HRSIM_STATS_HISTOGRAM_HH

#include <cstdint>
#include <vector>

namespace hrsim
{

class CkptWriter;
class CkptReader;

class Histogram
{
  public:
    /**
     * @param max_value Largest representable sample; larger samples
     *        are clamped into the final bucket.
     */
    explicit Histogram(double max_value = 1e6);

    /** Record one sample (values < 1 count into the first bucket). */
    void add(double value);

    std::uint64_t count() const { return count_; }

    /** q-quantile in [0, 1]; 0 with no samples. */
    double percentile(double q) const;

    double p50() const { return percentile(0.50); }
    double p95() const { return percentile(0.95); }
    double p99() const { return percentile(0.99); }

    /** Merge another histogram with identical geometry. */
    void merge(const Histogram &other);

    void reset();

    /** Number of buckets (for tests). */
    std::size_t numBuckets() const { return counts_.size(); }

    /** Checkpoint hooks: bucket counts (geometry must match). */
    void saveState(CkptWriter &w) const;
    void loadState(CkptReader &r);

  private:
    /** The one field list saveState() and loadState() both run. */
    template <class Io, class Self>
    static void layout(Io &io, Self &self);

    std::size_t bucketOf(double value) const;

    /** Lower bound of bucket @a index. */
    double bucketLo(std::size_t index) const;

    double maxValue_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
};

} // namespace hrsim

#endif // HRSIM_STATS_HISTOGRAM_HH
