/**
 * @file
 * Unit tests for the two-phase staged FIFO, the primitive every
 * network buffer is built on. The cycle semantics here (pushes
 * visible after commit, popped slots recycled at commit) are what
 * make the simulator's evaluation order-independent.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/staged_fifo.hh"

namespace hrsim
{
namespace
{

TEST(StagedFifo, StartsEmpty)
{
    StagedFifo<int> fifo(4);
    EXPECT_EQ(fifo.capacity(), 4u);
    EXPECT_EQ(fifo.size(), 0u);
    EXPECT_TRUE(fifo.empty());
    EXPECT_TRUE(fifo.canPush());
    EXPECT_EQ(fifo.producerSpace(), 4u);
}

TEST(StagedFifo, PushInvisibleUntilCommit)
{
    StagedFifo<int> fifo(4);
    fifo.push(7);
    EXPECT_TRUE(fifo.empty());
    EXPECT_EQ(fifo.totalSize(), 1u);
    fifo.commit();
    ASSERT_EQ(fifo.size(), 1u);
    EXPECT_EQ(fifo.front(), 7);
}

TEST(StagedFifo, FifoOrderAcrossCommits)
{
    StagedFifo<int> fifo(8);
    fifo.push(1);
    fifo.push(2);
    fifo.commit();
    fifo.push(3);
    fifo.commit();
    EXPECT_EQ(fifo.pop(), 1);
    EXPECT_EQ(fifo.pop(), 2);
    EXPECT_EQ(fifo.pop(), 3);
    EXPECT_TRUE(fifo.empty());
}

TEST(StagedFifo, StagedPushesCountAgainstCapacity)
{
    StagedFifo<int> fifo(2);
    fifo.push(1);
    fifo.push(2);
    EXPECT_FALSE(fifo.canPush());
    EXPECT_EQ(fifo.producerSpace(), 0u);
}

TEST(StagedFifo, PopDoesNotFreeSpaceSameCycle)
{
    StagedFifo<int> fifo(1);
    fifo.push(1);
    fifo.commit();
    EXPECT_FALSE(fifo.canPush());
    EXPECT_EQ(fifo.pop(), 1);
    // The slot freed by the pop is not reusable until commit: this is
    // the registered "full" flag of a hardware FIFO.
    EXPECT_FALSE(fifo.canPush());
    fifo.commit();
    EXPECT_TRUE(fifo.canPush());
}

TEST(StagedFifo, SimultaneousPushAndPopAtDepthTwo)
{
    // A 2-deep FIFO sustains one flit per cycle: push and pop every
    // cycle without ever observing "full".
    StagedFifo<int> fifo(2);
    fifo.push(0);
    fifo.commit();
    for (int cycle = 1; cycle < 50; ++cycle) {
        ASSERT_EQ(fifo.size(), 1u);
        ASSERT_TRUE(fifo.canPush());
        EXPECT_EQ(fifo.pop(), cycle - 1);
        fifo.push(cycle);
        fifo.commit();
    }
}

TEST(StagedFifo, DepthOneHalvesThroughput)
{
    // With a 1-deep FIFO the producer must skip every other cycle:
    // the physically-motivated penalty for 1-flit mesh buffers.
    StagedFifo<int> fifo(1);
    int pushed = 0;
    int popped = 0;
    for (int cycle = 0; cycle < 100; ++cycle) {
        if (!fifo.empty()) {
            fifo.pop();
            ++popped;
        }
        if (fifo.canPush()) {
            fifo.push(pushed);
            ++pushed;
        }
        fifo.commit();
    }
    EXPECT_EQ(pushed, 50);
    EXPECT_GE(popped, 49);
}

TEST(StagedFifo, ProducerOccupancyCountsAllThree)
{
    StagedFifo<int> fifo(4);
    fifo.push(1);
    fifo.push(2);
    fifo.push(3);
    fifo.commit();
    fifo.pop(); // freed-but-not-recycled slot
    fifo.push(4); // staged
    // start-of-cycle visible 3 (the popped slot recycles only at
    // commit) + staged 1 = 4.
    EXPECT_EQ(fifo.producerOccupancy(), 4u);
    EXPECT_FALSE(fifo.canPush());
    fifo.commit();
    EXPECT_EQ(fifo.size(), 3u);
    EXPECT_TRUE(fifo.canPush());
}

TEST(StagedFifo, ClearDiscardsEverything)
{
    StagedFifo<int> fifo(4);
    fifo.push(1);
    fifo.commit();
    fifo.push(2);
    fifo.clear();
    EXPECT_TRUE(fifo.empty());
    EXPECT_EQ(fifo.totalSize(), 0u);
    EXPECT_EQ(fifo.producerSpace(), 4u);
}

TEST(StagedFifo, SetCapacityOnEmpty)
{
    StagedFifo<int> fifo;
    fifo.setCapacity(3);
    EXPECT_EQ(fifo.capacity(), 3u);
    fifo.push(1);
    fifo.push(2);
    fifo.push(3);
    EXPECT_FALSE(fifo.canPush());
}

/** Exercise four capacities' worth of wrapped churn. */
void
churn(StagedFifo<int> &fifo)
{
    const int depth = static_cast<int>(fifo.capacity());
    int pushed = 0;
    int popped = 0;
    for (int cycle = 0; cycle < 4 * depth; ++cycle) {
        if (!fifo.empty()) {
            ASSERT_EQ(fifo.pop(), popped);
            ++popped;
        }
        while (fifo.canPush())
            fifo.push(pushed++);
        fifo.commit();
    }
    while (!fifo.empty()) {
        ASSERT_EQ(fifo.pop(), popped);
        ++popped;
    }
    fifo.commit();
    EXPECT_EQ(pushed, popped);
}

TEST(StagedFifo, ChurnWrapsAtEveryCapacity)
{
    // The wrap arithmetic at every depth the networks use, on fresh
    // queues and on one queue re-sized (re-allocated) between runs.
    StagedFifo<int> resized;
    for (std::size_t depth = 1; depth <= 8; ++depth) {
        SCOPED_TRACE("capacity " + std::to_string(depth));
        StagedFifo<int> fresh(depth);
        churn(fresh);
        resized.setCapacity(depth);
        churn(resized);
        EXPECT_EQ(resized.capacity(), depth);
    }
}

TEST(StagedFifoDeath, PushBeyondCapacityPanics)
{
    StagedFifo<int> fifo(1);
    fifo.push(1);
    EXPECT_DEATH(fifo.push(2), "canPush");
}

TEST(StagedFifoDeath, PopEmptyPanics)
{
    StagedFifo<int> fifo(1);
    EXPECT_DEATH(fifo.pop(), "visible_");
}

} // namespace
} // namespace hrsim
