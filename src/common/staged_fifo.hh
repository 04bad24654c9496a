/**
 * @file
 * Bounded FIFO with two-phase (staged) cycle semantics.
 *
 * All hrsim network components exchange flits through StagedFifo
 * queues: ring transit buffers, IRI up/down queues, mesh input
 * buffers and the PM output queues of both networks. The queue models
 * a synchronous hardware FIFO evaluated with a propose/commit
 * discipline:
 *
 *  - push() stages an element; it becomes visible to the consumer only
 *    after the end-of-cycle commit().
 *  - pop() removes an element immediately for the consumer, but the
 *    slot it frees is not usable by producers until commit(). This is
 *    the registered-flow-control behaviour of a hardware FIFO whose
 *    "full" flag is sampled at the clock edge.
 *  - canPush() therefore answers "may a producer insert this cycle"
 *    against the start-of-cycle occupancy plus already-staged pushes.
 *
 * With these rules, the result of a simulated cycle is independent of
 * the order in which components are evaluated, provided each queue has
 * a single producer and a single consumer per cycle.
 *
 * Layout: six uint32 cursors in the object plus one owned buffer of
 * exactly capacity() elements, allocated by setCapacity() — 32 bytes
 * per queue, and no heap allocation in steady state. Visible and
 * staged elements share the ring: staged pushes are appended after
 * the visible region and commit() simply extends the visible count.
 * The canPush() accounting (start-of-cycle visible + staged <
 * capacity) guarantees the writer can never overrun the reader even
 * though popped slots are reused physically before commit().
 *
 * Counter layout: `visible` holds the start-of-cycle count for the
 * whole cycle — pops advance `head` and bump `poppedThisCycle`
 * instead of decrementing it, and commit() folds both deltas back
 * in. The consumer-side live size is visible - poppedThisCycle and
 * the producer-side occupancy is visible + staged. At a tick boundary
 * staged and poppedThisCycle are zero and visible is the element
 * count, which is what the checkpoint encoders (ckpt/state_io.hh)
 * save and restore.
 */

#ifndef HRSIM_COMMON_STAGED_FIFO_HH
#define HRSIM_COMMON_STAGED_FIFO_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/log.hh"

namespace hrsim
{

template <typename T>
class StagedFifo
{
  public:
    /** Construct a FIFO holding at most @a capacity elements. */
    explicit StagedFifo(std::size_t capacity = 0)
    {
        setCapacity(capacity);
    }

    // Pinned: components cache pointers to their neighbors' queues
    // (the mesh router's output ports), and every queue is a member
    // of a pinned component, so relocation is never needed.
    StagedFifo(const StagedFifo &) = delete;
    StagedFifo &operator=(const StagedFifo &) = delete;
    StagedFifo(StagedFifo &&) = delete;
    StagedFifo &operator=(StagedFifo &&) = delete;

    /** Change the capacity; only legal on an empty queue. */
    void
    setCapacity(std::size_t capacity)
    {
        HRSIM_ASSERT(visible_ == poppedThisCycle_ && staged_ == 0);
        capacity_ = static_cast<std::uint32_t>(capacity);
        buf_.reset(capacity != 0 ? new T[capacity]() : nullptr);
        clear();
    }

    std::size_t capacity() const { return capacity_; }

    /** Elements still visible to the consumer this cycle. */
    std::size_t size() const { return visible_ - poppedThisCycle_; }

    bool empty() const { return visible_ == poppedThisCycle_; }

    /**
     * Occupancy as seen by a producer: start-of-cycle visible
     * elements (pops free slots only at commit) plus staged pushes.
     */
    std::size_t
    producerOccupancy() const
    {
        return visible_ + staged_;
    }

    /** May a producer stage an element this cycle? */
    bool canPush() const { return producerOccupancy() < capacity_; }

    /** Free producer slots remaining this cycle. */
    std::size_t
    producerSpace() const
    {
        const std::size_t occ = producerOccupancy();
        return occ >= capacity_ ? 0 : capacity_ - occ;
    }

    /** Stage an element; visible to the consumer after commit(). */
    void
    push(T value)
    {
        HRSIM_ASSERT(canPush());
        buf_[tail_] = std::move(value);
        tail_ = advance(tail_);
        ++staged_;
    }

    /**
     * Stage a copy of @a value. Same semantics as push(), but takes
     * the element by reference so forwarding a flit from one queue's
     * front into the next queue is a single element copy (push() by
     * value costs a copy into the parameter plus a move into the
     * slot, and T here is a plain struct whose move is a copy).
     */
    void
    pushFrom(const T &value)
    {
        HRSIM_ASSERT(canPush());
        buf_[tail_] = value;
        tail_ = advance(tail_);
        ++staged_;
    }

    /** Oldest visible element. Queue must be non-empty. */
    const T &
    front() const
    {
        HRSIM_ASSERT(visible_ > poppedThisCycle_);
        return buf_[head_];
    }

    /**
     * Remove the oldest visible element without returning it (the
     * copy-free half of pop() for callers that already read front()).
     */
    void
    dropFront()
    {
        HRSIM_ASSERT(visible_ > poppedThisCycle_);
        head_ = advance(head_);
        ++poppedThisCycle_;
    }

    /** Remove and return the oldest visible element. */
    T
    pop()
    {
        HRSIM_ASSERT(visible_ > poppedThisCycle_);
        T value = std::move(buf_[head_]);
        head_ = advance(head_);
        ++poppedThisCycle_;
        return value;
    }

    /**
     * End-of-cycle commit: publish pushes, recycle popped slots.
     * Straight-line on purpose: whether a queue saw traffic this
     * cycle is data-dependent, and an early-out on it mispredicts
     * more than the two stores it saves (DESIGN.md section 10).
     */
    void
    commit()
    {
        visible_ += staged_;
        visible_ -= poppedThisCycle_;
        staged_ = 0;
        poppedThisCycle_ = 0;
    }

    /** Discard all contents (visible and staged). */
    void
    clear()
    {
        head_ = 0;
        tail_ = 0;
        visible_ = 0;
        staged_ = 0;
        poppedThisCycle_ = 0;
    }

    /** Total elements in the queue including staged ones. */
    std::size_t
    totalSize() const
    {
        return visible_ - poppedThisCycle_ + staged_;
    }

    /**
     * The @a i-th oldest visible element (0 = front()). Read-only
     * peek for checkpointing: a tick-boundary save walks the visible
     * region in FIFO order and re-packs it on load, so the physical
     * head/tail positions never reach the snapshot.
     */
    const T &
    at(std::size_t i) const
    {
        HRSIM_ASSERT(i < size());
        std::uint32_t index =
            head_ + static_cast<std::uint32_t>(i);
        if (index >= capacity_)
            index -= capacity_;
        return buf_[index];
    }

  private:
    std::uint32_t
    advance(std::uint32_t index) const
    {
        return index + 1 == capacity_ ? 0 : index + 1;
    }

    // uint32 cursors are ample — capacities are a few dozen flits —
    // and keep the whole queue at 32 bytes.
    std::uint32_t capacity_ = 0;
    std::uint32_t head_ = 0; //!< oldest visible element
    std::uint32_t tail_ = 0; //!< next write position
    std::uint32_t visible_ = 0;
    std::uint32_t staged_ = 0;
    std::uint32_t poppedThisCycle_ = 0;
    std::unique_ptr<T[]> buf_; //!< exactly capacity_ elements
};

} // namespace hrsim

#endif // HRSIM_COMMON_STAGED_FIFO_HH
