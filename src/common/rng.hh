/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * The paper drove its simulator with the smpl library's generator; we
 * use xoshiro256** seeded through splitmix64, which is fast, has a
 * 2^256-1 period, and passes BigCrush. Every traffic source owns an
 * independent stream derived from (master seed, stream id), so runs
 * are reproducible and insensitive to the order in which components
 * draw numbers.
 */

#ifndef HRSIM_COMMON_RNG_HH
#define HRSIM_COMMON_RNG_HH

#include <array>
#include <cstdint>

namespace hrsim
{

/** splitmix64 step; used to expand seeds into full state. */
std::uint64_t splitmix64(std::uint64_t &state);

/**
 * xoshiro256** generator with convenience distributions.
 */
class Rng
{
  public:
    /** Seed a stream: same (seed, stream) always yields same draws. */
    explicit Rng(std::uint64_t seed, std::uint64_t stream = 0);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform integer in [0, bound); bound must be > 0. */
    std::uint64_t uniformInt(std::uint64_t bound);

    /** Bernoulli trial with probability p of true. */
    bool bernoulli(double p);

    /** Raw generator state, for checkpointing. */
    const std::array<std::uint64_t, 4> &state() const { return s_; }
    std::array<std::uint64_t, 4> &state() { return s_; }

  private:
    std::array<std::uint64_t, 4> s_;
};

} // namespace hrsim

#endif // HRSIM_COMMON_RNG_HH
