/**
 * @file
 * Tick-scheduler tests: the ActiveMask bitmap's scan-order contract
 * (the LayoutSmoke suite, also run alone as the layout_smoke ctest),
 * the scheduler every network builds itself with, and the sched.*
 * introspection metrics. Bit-identity of whole runs is pinned by the
 * golden digest corpus (test_golden.cc). See DESIGN.md section 10
 * for the invariants under test.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bit_identity_grid.hh"
#include "core/system.hh"
#include "mesh/mesh_network.hh"
#include "proto/packet_factory.hh"
#include "ring/ring_network.hh"
#include "ring/slotted_network.hh"
#include "sim/columns.hh"

namespace hrsim
{
namespace
{

using testgrid::shortSim;

// ---------------------------------------------------------------- //
// ActiveMask layout smoke tests (run by the layout_smoke ctest)

TEST(LayoutSmoke, ScanVisitsMembersInAscendingIdOrder)
{
    // The scheduler's determinism argument (DESIGN.md section 10)
    // leans on forEach() visiting the live set in ascending id order no
    // matter the wake order; pin that across word and summary-word
    // boundaries (ids straddle leaves 0, 1 and 64).
    ActiveMask mask;
    mask.reset(64 * 65 + 7);
    const std::vector<std::uint32_t> wakes = {
        4099, 63, 64, 0, 4160, 127, 65, 4098};
    for (const std::uint32_t id : wakes)
        mask.add(id);
    EXPECT_EQ(mask.size(), wakes.size());

    std::vector<std::uint32_t> visited;
    mask.forEach([&visited](std::uint32_t id) {
        visited.push_back(id);
    });
    EXPECT_EQ(visited, (std::vector<std::uint32_t>{
                           0, 63, 64, 65, 127, 4098, 4099, 4160}));
}

TEST(LayoutSmoke, AddIsIdempotentAndContainsTracksMembership)
{
    ActiveMask mask;
    mask.reset(200);
    EXPECT_TRUE(mask.empty());
    mask.add(3);
    mask.add(130);
    mask.add(3);
    EXPECT_EQ(mask.size(), 2u);
    EXPECT_TRUE(mask.contains(3));
    EXPECT_TRUE(mask.contains(130));
    EXPECT_FALSE(mask.contains(4));
}

TEST(LayoutSmoke, RetainScansInIdOrderAndClearsBits)
{
    ActiveMask mask;
    mask.reset(300);
    for (std::uint32_t id = 0; id < 300; id += 7)
        mask.add(id);

    std::vector<std::uint32_t> seen;
    mask.retain([&seen](std::uint32_t id) {
        seen.push_back(id);
        return id % 14 == 0;
    });
    // The sweep itself runs ascending...
    for (std::size_t i = 1; i < seen.size(); ++i)
        EXPECT_LT(seen[i - 1], seen[i]);
    // ...and only the kept members survive, still in order.
    std::vector<std::uint32_t> left;
    mask.forEach([&left](std::uint32_t id) { left.push_back(id); });
    std::vector<std::uint32_t> expect;
    for (std::uint32_t id = 0; id < 300; id += 14)
        expect.push_back(id);
    EXPECT_EQ(left, expect);
    EXPECT_EQ(mask.size(), expect.size());

    // A retained-away member can wake again (sleep is not permanent).
    EXPECT_FALSE(mask.contains(7));
    mask.add(7);
    EXPECT_TRUE(mask.contains(7));
}

TEST(LayoutSmoke, ResetDropsEverything)
{
    ActiveMask mask;
    mask.reset(70);
    mask.add(69);
    mask.reset(70);
    EXPECT_TRUE(mask.empty());
    EXPECT_FALSE(mask.contains(69));
}

TEST(LayoutSmoke, MidScanAddsFollowTheSnapshotRule)
{
    // forEach snapshots the summary word per 4096-id block and each
    // leaf word as it reaches it. A mid-scan wake is therefore
    // visited this pass iff its leaf word is still ahead of the scan
    // AND already represented in a snapshotted summary (i.e. the
    // word was live, or lies in a later summary block); wakes into
    // the current word or into a dead word under the current summary
    // snapshot defer to the next cycle. Every case is sound — a
    // woken component's visit is a no-op — but pin the behavior so a
    // rewrite can't silently change the determinism argument.
    ActiveMask mask;
    mask.reset(8192);
    mask.add(10);   // leaf word 0
    mask.add(200);  // leaf word 3 (live before the scan)
    mask.add(4100); // summary block 1

    std::vector<std::uint32_t> visited;
    mask.forEach([&](std::uint32_t id) {
        visited.push_back(id);
        if (id == 10) {
            mask.add(11);   // current word: next cycle
            mask.add(100);  // dead word, snapshotted summary: next
            mask.add(201);  // live later word: this pass
            mask.add(5000); // later summary block: this pass
        }
    });
    EXPECT_EQ(visited, (std::vector<std::uint32_t>{
                           10, 200, 201, 4100, 5000}));
    // Deferred wakes are still members for the next scan.
    EXPECT_TRUE(mask.contains(11));
    EXPECT_TRUE(mask.contains(100));
}

// ---------------------------------------------------------------- //
// Scheduler metrics

TEST(ActiveSetScheduler, ReportsSkippedCyclesOnIdleWorkload)
{
    SystemConfig cfg = SystemConfig::ring("2:4", 64);
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.01;

    const RunResult result = runSystem(cfg);
    bool found = false;
    for (const MetricSample &sample : result.metrics) {
        if (sample.name == "sched.skipped_cycles") {
            found = true;
            EXPECT_GT(sample.count, 0u)
                << "low-rate workload must fast-forward";
        }
    }
    EXPECT_TRUE(found);
}

// ---------------------------------------------------------------- //
// Networks built directly (without System) schedule themselves

/**
 * Inject one read from PM 0 to the farthest PM and tick until the
 * network drains: the network must wake on the injection (some
 * component awake, not idle) and fall asleep again once the packet
 * is delivered. Returns the number of deliveries.
 */
int
injectAndDrain(Network &net, const ChannelSpec &channel)
{
    int delivered = 0;
    net.setDeliveryHandler(
        [&delivered](const Packet &, Cycle) { ++delivered; });
    EXPECT_TRUE(net.isIdle());
    EXPECT_EQ(net.activeNodeCount(), 0u);

    PacketFactory factory(channel, 32);
    const NodeId dst = net.numProcessors() - 1;
    const Packet pkt = factory.makeRequest(0, dst, true, 0);
    EXPECT_TRUE(net.canInject(0, pkt));
    net.inject(0, pkt);
    EXPECT_GT(net.activeNodeCount(), 0u);
    EXPECT_FALSE(net.isIdle());

    Cycle now = 0;
    while (!net.isIdle() && now < 10000)
        net.tick(now++);
    EXPECT_TRUE(net.isIdle()) << "network never drained";
    EXPECT_EQ(net.activeNodeCount(), 0u);
    EXPECT_EQ(net.flitsInFlight(), 0u);
    return delivered;
}

TEST(ActiveSetScheduler, DirectlyBuiltNetworksWakeOnInjectAndDrain)
{
    RingNetwork::Params ring_params;
    ring_params.topo = RingTopology::parse("2:4");
    RingNetwork ring(ring_params);
    EXPECT_EQ(injectAndDrain(ring, ChannelSpec::ring()), 1);

    MeshNetwork::Params mesh_params;
    mesh_params.width = 3;
    MeshNetwork mesh(mesh_params);
    EXPECT_EQ(injectAndDrain(mesh, ChannelSpec::mesh()), 1);

    SlottedRingNetwork::Params slotted_params;
    slotted_params.topo = RingTopology::parse("2:4");
    SlottedRingNetwork slotted(slotted_params);
    EXPECT_EQ(injectAndDrain(slotted, ChannelSpec::ring()), 1);
}

} // namespace
} // namespace hrsim
