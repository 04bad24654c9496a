/**
 * @file
 * The tick engine's scheduling set: a two-level bitmap of the
 * components (mesh routers, ring NICs and IRIs) that are awake.
 *
 * Each network owns one ActiveMask, ticks only its members and sweeps
 * drained members out at the end of the cycle; a component keeps its
 * own sleep state (a mesh router's changed/poked flags, a ring side's
 * latch), so the mask is the only scheduler state a network holds.
 */

#ifndef HRSIM_SIM_ACTIVE_MASK_HH
#define HRSIM_SIM_ACTIVE_MASK_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "common/log.hh"

namespace hrsim
{

/**
 * Two-level 64-bit bitmap over component ids: one leaf bit per id
 * plus one summary bit per leaf word, so membership scans cost
 * O(set bits) in both the sparse regime (ctz hops from summary bit
 * to summary bit) and the dense one (long runs collapse into full
 * leaf words) — no per-id branch and no member vector to sort.
 *
 * Every scan visits the *live* set in ascending id order; there is
 * no wake-order view and no start-of-phase prefix. That is sound for
 * exactly the places the network ticks use it (see DESIGN.md section
 * 10): a component woken mid-phase was asleep, i.e. empty (ring) or
 * provably no-op (mesh), and staged flits stay invisible until
 * commit, so visiting it early is indistinguishable from not visiting
 * it; end-of-cycle commits and sleep sweeps touch one component each,
 * so their order is immaterial.
 *
 * forEach() snapshots the summary word per 4096-id block and each
 * 64-id leaf word as it reaches it: bits added into the word being
 * scanned — or into a previously-empty word whose summary bit missed
 * the snapshot — are picked up next cycle, while bits added into a
 * still-ahead live word or a later summary block are visited this
 * pass (a no-op visit).
 */
class ActiveMask
{
  public:
    /** Reset to an empty mask over ids [0, n). */
    void
    reset(std::size_t n)
    {
        const std::size_t words = (n + 63) / 64;
        words_.assign(words, 0);
        summary_.assign((words + 63) / 64, 0);
        count_ = 0;
    }

    /** Wake @a id. Idempotent; O(1). */
    void
    add(std::uint32_t id)
    {
        const std::size_t w = id / 64;
        HRSIM_ASSERT(w < words_.size());
        const std::uint64_t bit = std::uint64_t{1} << (id % 64);
        if (words_[w] & bit)
            return;
        words_[w] |= bit;
        summary_[w / 64] |= std::uint64_t{1} << (w % 64);
        ++count_;
    }

    bool
    contains(std::uint32_t id) const
    {
        const std::size_t w = id / 64;
        HRSIM_ASSERT(w < words_.size());
        return (words_[w] >> (id % 64)) & 1u;
    }

    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    /**
     * Visit every member in ascending id order. Members added during
     * the scan are visited iff their leaf word lies beyond the scan
     * position (see the class comment for why either is sound).
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t s = 0; s < summary_.size(); ++s) {
            std::uint64_t sum = summary_[s];
            while (sum != 0) {
                const std::size_t w =
                    s * 64 +
                    static_cast<std::size_t>(std::countr_zero(sum));
                sum &= sum - 1;
                std::uint64_t word = words_[w];
                while (word != 0) {
                    const auto id = static_cast<std::uint32_t>(
                        w * 64 + static_cast<std::size_t>(
                                     std::countr_zero(word)));
                    word &= word - 1;
                    fn(id);
                }
            }
        }
    }

    /**
     * Keep only members for which @a pred returns true (ascending id
     * order; removed members' bits clear). @a pred must not add()
     * — the sleep sweeps never wake anything.
     */
    template <typename Pred>
    void
    retain(Pred &&pred)
    {
        for (std::size_t s = 0; s < summary_.size(); ++s) {
            std::uint64_t sum = summary_[s];
            while (sum != 0) {
                const std::size_t w =
                    s * 64 +
                    static_cast<std::size_t>(std::countr_zero(sum));
                sum &= sum - 1;
                std::uint64_t word = words_[w];
                while (word != 0) {
                    const std::uint64_t bit = word & (~word + 1);
                    const auto id = static_cast<std::uint32_t>(
                        w * 64 + static_cast<std::size_t>(
                                     std::countr_zero(word)));
                    word &= word - 1;
                    if (!pred(id)) {
                        words_[w] &= ~bit;
                        --count_;
                    }
                }
                if (words_[w] == 0) {
                    summary_[s] &=
                        ~(std::uint64_t{1} << (w % 64));
                }
            }
        }
    }

  private:
    std::vector<std::uint64_t> words_;   //!< one bit per id
    std::vector<std::uint64_t> summary_; //!< one bit per leaf word
    std::size_t count_ = 0;
};

} // namespace hrsim

#endif // HRSIM_SIM_ACTIVE_MASK_HH
