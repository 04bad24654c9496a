/**
 * @file
 * Growable power-of-two ring buffer with deque front/back semantics.
 *
 * Replaces std::deque for the small FIFO queues on the simulation hot
 * path (processor local-hit completions, memory completion queues,
 * trace replay queues): a std::deque allocates its map and first
 * block lazily and chases a pointer per access, while a RingDeque is
 * one contiguous allocation indexed with a mask. Capacity grows by
 * doubling and never shrinks; typical queues are bounded by the
 * outstanding limit T, so after warm-up no allocation ever happens.
 */

#ifndef HRSIM_COMMON_RING_DEQUE_HH
#define HRSIM_COMMON_RING_DEQUE_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "common/log.hh"

namespace hrsim
{

template <typename T>
class RingDeque
{
  public:
    using value_type = T;

    RingDeque() = default;

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** Ensure room for @a n elements without reallocation. */
    void
    reserve(std::size_t n)
    {
        if (n > store_.size())
            grow(n);
    }

    void
    push_back(T value)
    {
        if (size_ == store_.size())
            grow(size_ + 1);
        store_[(head_ + size_) & mask_] = std::move(value);
        ++size_;
    }

    T &
    front()
    {
        HRSIM_ASSERT(size_ > 0);
        return store_[head_];
    }

    const T &
    front() const
    {
        HRSIM_ASSERT(size_ > 0);
        return store_[head_];
    }

    void
    pop_front()
    {
        HRSIM_ASSERT(size_ > 0);
        store_[head_] = T{};
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    /**
     * The @a i-th oldest element (0 = front()). Read-only peek for
     * checkpointing: saves walk in FIFO order and loads re-pack via
     * push_back(), so the physical layout never reaches a snapshot.
     */
    const T &
    at(std::size_t i) const
    {
        HRSIM_ASSERT(i < size_);
        return store_[(head_ + i) & mask_];
    }

    void
    clear()
    {
        store_.clear();
        head_ = 0;
        size_ = 0;
        mask_ = 0;
    }

  private:
    void
    grow(std::size_t min_capacity)
    {
        std::size_t cap = store_.empty() ? 8 : store_.size() * 2;
        while (cap < min_capacity)
            cap *= 2;
        std::vector<T> next(cap);
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = std::move(store_[(head_ + i) & mask_]);
        store_ = std::move(next);
        head_ = 0;
        mask_ = cap - 1;
    }

    std::vector<T> store_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
};

} // namespace hrsim

#endif // HRSIM_COMMON_RING_DEQUE_HH
