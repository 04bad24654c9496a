/**
 * @file
 * Streaming sample statistics (Welford's online algorithm).
 */

#ifndef HRSIM_STATS_RUNNING_STATS_HH
#define HRSIM_STATS_RUNNING_STATS_HH

#include <cstdint>

namespace hrsim
{

class CkptWriter;
class CkptReader;

/**
 * Accumulates count, mean, variance, min and max of a sample stream
 * in a single numerically-stable pass.
 */
class RunningStats
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const RunningStats &other);

    /** Reset to the empty state. */
    void reset();

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Unbiased sample variance; 0 for fewer than two samples. */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

    /** Checkpoint hooks: all five accumulator fields, bit-exact. */
    void saveState(CkptWriter &w) const;
    void loadState(CkptReader &r);

  private:
    /** The one field list saveState() and loadState() both run. */
    template <class Io, class Self>
    static void layout(Io &io, Self &self);

    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace hrsim

#endif // HRSIM_STATS_RUNNING_STATS_HH
