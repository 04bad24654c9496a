/**
 * @file
 * Columnar tick-engine primitives: the HRSIM_NO_COLUMNAR oracle
 * switch and the two-level bitmap active mask.
 *
 * The columnar engine hoists the hot per-cycle state out of the node
 * objects into flat struct-of-arrays owned by the network — ring
 * input latches and acceptance flags (ring_node.hh points RingSide at
 * them), mesh FIFO cursor blocks (FifoState columns bound through
 * StagedFifoView) and the mesh routers' changed/poked flags — so the
 * evaluate/commit phases become linear sweeps over contiguous arrays
 * instead of walks over ~0.5 KB node objects. Node classes keep their
 * cold state and logic and read/write the hot state through the same
 * handles in both modes; only where the bytes live differs.
 *
 * Setting HRSIM_NO_COLUMNAR (any value but "" or "0") keeps the
 * legacy in-object layout and the legacy ActiveSet tick loops alive
 * as a bit-identity oracle, exactly like HRSIM_NO_FASTPATH and
 * HRSIM_FORCE_FULL_SCAN do for their axes; the bit-identity grid in
 * test_active_set.cc crosses all three. The flag is read once at
 * System construction, never on the hot path.
 */

#ifndef HRSIM_SIM_COLUMNS_HH
#define HRSIM_SIM_COLUMNS_HH

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/log.hh"

namespace hrsim
{

/** Columnar layout enabled? (HRSIM_NO_COLUMNAR unset/empty/"0") */
inline bool
columnarEnabled()
{
    const char *no = std::getenv("HRSIM_NO_COLUMNAR");
    const bool disabled = no != nullptr && no[0] != '\0' &&
                          !(no[0] == '0' && no[1] == '\0');
    return !disabled;
}

/**
 * Two-level 64-bit bitmap over component ids: one leaf bit per id
 * plus one summary bit per leaf word, so membership scans cost
 * O(set bits) in both the sparse regime (ctz hops from summary bit
 * to summary bit) and the dense one (long runs collapse into full
 * leaf words) — no per-id branch and no member vector to sort.
 *
 * Replaces ActiveSet in the columnar tick loops. The determinism
 * contract differs from ActiveSet's in one deliberate way: there is
 * no wake-order view (raw()) and no start-of-phase prefix — every
 * scan visits the *live* set in ascending id order. That is sound
 * for exactly the places the columnar ticks use it (see DESIGN.md
 * section 14): a component woken mid-phase was asleep, i.e. empty
 * (ring) or provably no-op (mesh), and staged flits stay invisible
 * until commit, so visiting it early is indistinguishable from not
 * visiting it; end-of-cycle commits and sleep sweeps touch one
 * component each, so ascending order replaces wake order freely.
 *
 * forEach() snapshots the summary word per 4096-id block and each
 * 64-id leaf word as it reaches it: bits added into the word being
 * scanned — or into a previously-empty word whose summary bit missed
 * the snapshot — are picked up next cycle (matching
 * ActiveSet::orderedPrefix), while bits added into a still-ahead live
 * word or a later summary block are visited this pass (matching the
 * full scan — a no-op visit).
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

/**
 * Hot per-router flag pair, hoisted into a network column in
 * columnar mode so the end-of-cycle sleep sweep reads a contiguous
 * array instead of touching every router object (mesh_router.hh
 * holds a pointer defaulting to in-object storage).
 */
struct RouterFlags
{
    /** This cycle's evaluate granted a port or moved a flit. */
    bool changed = false;
    /** External wake event since the last sleep sweep. */
    bool poked = false;
};

} // namespace hrsim

#endif // HRSIM_SIM_COLUMNS_HH
