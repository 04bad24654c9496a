/**
 * @file
 * Unit tests for packet types, the paper's sizing rules, the packet
 * factory, and the per-network packet table behind 16-byte flits.
 */

#include <gtest/gtest.h>

#include "bit_identity_grid.hh"
#include "core/system.hh"
#include "proto/packet.hh"
#include "proto/packet_factory.hh"
#include "proto/packet_table.hh"
#include "ring/slotted_network.hh"

namespace hrsim
{
namespace
{

TEST(PacketType, Classification)
{
    EXPECT_TRUE(isRequest(PacketType::ReadRequest));
    EXPECT_TRUE(isRequest(PacketType::WriteRequest));
    EXPECT_FALSE(isRequest(PacketType::ReadResponse));
    EXPECT_FALSE(isRequest(PacketType::WriteResponse));

    // Read responses and write requests carry the cache line.
    EXPECT_TRUE(carriesData(PacketType::ReadResponse));
    EXPECT_TRUE(carriesData(PacketType::WriteRequest));
    EXPECT_FALSE(carriesData(PacketType::ReadRequest));
    EXPECT_FALSE(carriesData(PacketType::WriteResponse));
}

TEST(PacketType, ResponsePairing)
{
    EXPECT_EQ(responseFor(PacketType::ReadRequest),
              PacketType::ReadResponse);
    EXPECT_EQ(responseFor(PacketType::WriteRequest),
              PacketType::WriteResponse);
}

TEST(PacketType, Names)
{
    EXPECT_EQ(toString(PacketType::ReadRequest), "ReadRequest");
    EXPECT_EQ(toString(PacketType::WriteResponse), "WriteResponse");
}

TEST(ChannelSpec, RingCacheLinePacketSizes)
{
    // Paper Section 2.2: ring cl packets are 2/3/5/9 flits for
    // 16/32/64/128-byte lines (16 B flits, 1-flit header).
    const ChannelSpec ring = ChannelSpec::ring();
    EXPECT_EQ(ring.cacheLineFlits(16), 2u);
    EXPECT_EQ(ring.cacheLineFlits(32), 3u);
    EXPECT_EQ(ring.cacheLineFlits(64), 5u);
    EXPECT_EQ(ring.cacheLineFlits(128), 9u);
}

TEST(ChannelSpec, MeshCacheLinePacketSizes)
{
    // Paper Section 2.2: mesh cl packets are 8/12/20/36 flits for
    // 16/32/64/128-byte lines (4 B flits, 4-flit header).
    const ChannelSpec mesh = ChannelSpec::mesh();
    EXPECT_EQ(mesh.cacheLineFlits(16), 8u);
    EXPECT_EQ(mesh.cacheLineFlits(32), 12u);
    EXPECT_EQ(mesh.cacheLineFlits(64), 20u);
    EXPECT_EQ(mesh.cacheLineFlits(128), 36u);
}

TEST(ChannelSpec, HeaderOnlyPackets)
{
    const ChannelSpec ring = ChannelSpec::ring();
    const ChannelSpec mesh = ChannelSpec::mesh();
    EXPECT_EQ(ring.packetFlits(PacketType::ReadRequest, 64), 1u);
    EXPECT_EQ(ring.packetFlits(PacketType::WriteResponse, 64), 1u);
    EXPECT_EQ(mesh.packetFlits(PacketType::ReadRequest, 64), 4u);
    EXPECT_EQ(mesh.packetFlits(PacketType::WriteResponse, 64), 4u);
}

TEST(ChannelSpec, DataPackets)
{
    const ChannelSpec ring = ChannelSpec::ring();
    EXPECT_EQ(ring.packetFlits(PacketType::ReadResponse, 64), 5u);
    EXPECT_EQ(ring.packetFlits(PacketType::WriteRequest, 64), 5u);
}

TEST(Flit, HeadAndTailFlags)
{
    Packet pkt;
    pkt.id = 9;
    pkt.sizeFlits = 3;
    const Flit head = makeFlit(pkt, 0, 0);
    const Flit body = makeFlit(pkt, 0, 1);
    const Flit tail = makeFlit(pkt, 0, 2);
    EXPECT_TRUE(head.isHead());
    EXPECT_FALSE(head.isTail());
    EXPECT_FALSE(body.isHead());
    EXPECT_FALSE(body.isTail());
    EXPECT_FALSE(tail.isHead());
    EXPECT_TRUE(tail.isTail());
}

TEST(Flit, LargestPacketNamesItsTail)
{
    // The 16-bit index/sizeFlits fields hold the largest packet.
    Packet pkt;
    pkt.sizeFlits = maxPacketFlits;
    EXPECT_TRUE(makeFlit(pkt, 0, maxPacketFlits - 1).isTail());
}

TEST(Flit, SingleFlitPacketIsHeadAndTail)
{
    Packet pkt;
    pkt.sizeFlits = 1;
    const Flit only = makeFlit(pkt, 0, 0);
    EXPECT_TRUE(only.isHead());
    EXPECT_TRUE(only.isTail());
}

TEST(PacketTable, PacketRoundTripThroughTable)
{
    Packet pkt;
    pkt.id = 1234;
    pkt.type = PacketType::WriteRequest;
    pkt.src = 3;
    pkt.dst = 17;
    pkt.sizeFlits = 5;
    pkt.issueCycle = 998877;
    pkt.reqId = 42;
    PacketTable table;
    const std::uint32_t slot = table.acquire(pkt);
    const Flit flit = makeFlit(pkt, slot, 2);
    EXPECT_EQ(flit.slot, slot);
    const Packet back = table.packet(flit);
    EXPECT_EQ(back.id, pkt.id);
    EXPECT_EQ(back.type, pkt.type);
    EXPECT_EQ(back.src, pkt.src);
    EXPECT_EQ(back.dst, pkt.dst);
    EXPECT_EQ(back.sizeFlits, pkt.sizeFlits);
    EXPECT_EQ(back.issueCycle, pkt.issueCycle);
    EXPECT_EQ(back.reqId, pkt.reqId);
}

/** A packet of @a flits flits with id @a id. */
Packet
tablePacket(PacketId id, std::uint32_t flits)
{
    Packet pkt;
    pkt.id = id;
    pkt.src = 0;
    pkt.dst = 1;
    pkt.sizeFlits = flits;
    return pkt;
}

TEST(PacketTable, SlotsComeBackLifo)
{
    PacketTable table;
    const std::uint32_t a = table.acquire(tablePacket(1, 1));
    const std::uint32_t b = table.acquire(tablePacket(2, 1));
    const std::uint32_t c = table.acquire(tablePacket(3, 1));
    EXPECT_EQ(table.liveSlots(), 3u);
    EXPECT_TRUE(table.release(a));
    EXPECT_TRUE(table.release(c));
    // The most recently freed slot is handed out first.
    EXPECT_EQ(table.acquire(tablePacket(4, 1)), c);
    EXPECT_EQ(table.acquire(tablePacket(5, 1)), a);
    const std::uint32_t fresh = table.acquire(tablePacket(6, 1));
    EXPECT_NE(fresh, a);
    EXPECT_NE(fresh, b);
    EXPECT_NE(fresh, c);
    EXPECT_EQ(table.id(b), 2u);
    EXPECT_EQ(table.id(c), 4u);
}

TEST(PacketTable, SlotFreedOnlyWhenItsLastFlitLeaves)
{
    PacketTable table;
    const std::uint32_t slot = table.acquire(tablePacket(7, 3));
    EXPECT_EQ(table.liveFlits(), 3u);
    EXPECT_FALSE(table.release(slot));
    EXPECT_FALSE(table.release(slot));
    EXPECT_EQ(table.liveSlots(), 1u);
    EXPECT_EQ(table.id(slot), 7u); // still readable mid-drain
    EXPECT_TRUE(table.release(slot));
    EXPECT_EQ(table.liveSlots(), 0u);
    EXPECT_EQ(table.liveFlits(), 0u);
}

TEST(PacketTable, BroadcastCopyAddsOne)
{
    PacketTable table;
    const std::uint32_t slot = table.acquire(tablePacket(9, 1));
    table.addCopy(slot);
    table.addCopy(slot);
    EXPECT_EQ(table.liveFlits(), 3u);
    EXPECT_FALSE(table.release(slot));
    EXPECT_FALSE(table.release(slot));
    EXPECT_TRUE(table.release(slot));
}

TEST(PacketTable, KillTokensKeepTheCount)
{
    // Links dying under load truncate worms mid-flight: each kill
    // sends one token that replaces the flit it is cut from and drops
    // the rest, so the table stays equal to the flits in flight all
    // the way. Two overlapping outages per network make sure heads
    // have crossed when the links die.
    SystemConfig mesh = SystemConfig::mesh(4, 64, 4);
    mesh.faultPlan.events = {
        testgrid::faultSpec("mesh.r5.east:down@1000..2000"),
        testgrid::faultSpec("mesh.r9.south:down@1500..2500")};
    SystemConfig ring = SystemConfig::ring("3:6", 64);
    ring.faultPlan.events = {
        testgrid::faultSpec("ring.nic2:down@1000..2000"),
        testgrid::faultSpec("ring.l0.iri0.lower:down@1500..2500")};
    for (SystemConfig *cfg : {&mesh, &ring}) {
        SCOPED_TRACE(cfg == &mesh ? "mesh" : "ring");
        cfg->sim = testgrid::shortSim();
        cfg->faultPlan.retry.timeoutCycles = 800;
        System system(*cfg);
        while (system.now() < 3200) {
            system.step(25);
            ASSERT_EQ(system.network().packetTable().liveFlits(),
                      system.network().flitsInFlight())
                << "cycle " << system.now();
        }
        EXPECT_GT(system.faults()->accounting().droppedWorms, 0u);
    }
}

TEST(PacketTable, LiveFlitsMatchFlitsInFlightAfterEveryGridConfig)
{
    testgrid::NamedConfigs grid = testgrid::bitIdentityGrid();
    for (auto &entry : testgrid::faultAndBufferGrid())
        grid.push_back(std::move(entry));
    for (const auto &[name, cfg] : grid) {
        SCOPED_TRACE(name);
        System system(cfg);
        system.run();
        const PacketTable &table = system.network().packetTable();
        EXPECT_EQ(table.liveFlits(), system.network().flitsInFlight());
        EXPECT_LE(table.liveSlots(), table.liveFlits());
    }
}

TEST(PacketTable, SlottedBroadcastsAndUnicastsDrainTheTable)
{
    SlottedRingNetwork::Params params;
    params.topo = RingTopology::parse("2:2:4");
    params.cacheLineBytes = 64;
    SlottedRingNetwork net(params);
    std::size_t deliveries = 0;
    net.setDeliveryHandler(
        [&deliveries](const Packet &, Cycle) { ++deliveries; });
    PacketFactory factory(ChannelSpec::ring(), 64);
    const int pms = net.numProcessors();
    for (Cycle t = 0; t < 600; ++t) {
        if (t < 200 && t % 10 == 0) {
            const auto src = static_cast<NodeId>((t / 10) % pms);
            Packet bcast = factory.makeRequest(src, broadcastNode,
                                               false, t);
            bcast.sizeFlits = 1;
            if (net.canInject(src, bcast))
                net.inject(src, bcast);
            const Packet unicast = factory.makeRequest(
                src, static_cast<NodeId>((src + 5) % pms), false, t);
            if (net.canInject(src, unicast))
                net.inject(src, unicast);
        }
        net.tick(t);
        ASSERT_EQ(net.packetTable().liveFlits(), net.flitsInFlight())
            << "cycle " << t;
    }
    EXPECT_GT(deliveries, 0u);
    EXPECT_EQ(net.flitsInFlight(), 0u);
    EXPECT_EQ(net.packetTable().liveSlots(), 0u);
}

TEST(PacketFactory, RequestFields)
{
    PacketFactory factory(ChannelSpec::ring(), 64);
    const Packet pkt = factory.makeRequest(2, 5, true, 100);
    EXPECT_EQ(pkt.type, PacketType::ReadRequest);
    EXPECT_EQ(pkt.src, 2);
    EXPECT_EQ(pkt.dst, 5);
    EXPECT_EQ(pkt.sizeFlits, 1u);
    EXPECT_EQ(pkt.issueCycle, 100u);
}

TEST(PacketFactory, ResponseMirrorsRequest)
{
    PacketFactory factory(ChannelSpec::mesh(), 32);
    const Packet req = factory.makeRequest(2, 5, true, 100);
    const Packet resp = factory.makeResponse(req);
    EXPECT_EQ(resp.type, PacketType::ReadResponse);
    EXPECT_EQ(resp.src, 5);
    EXPECT_EQ(resp.dst, 2);
    EXPECT_EQ(resp.sizeFlits, 12u); // carries the 32 B line
    EXPECT_EQ(resp.issueCycle, 100u); // round-trip timing preserved
    EXPECT_NE(resp.id, req.id);
}

TEST(PacketFactory, WriteSizes)
{
    PacketFactory factory(ChannelSpec::ring(), 128);
    const Packet req = factory.makeRequest(0, 1, false, 0);
    EXPECT_EQ(req.type, PacketType::WriteRequest);
    EXPECT_EQ(req.sizeFlits, 9u); // data travels with the request
    const Packet resp = factory.makeResponse(req);
    EXPECT_EQ(resp.sizeFlits, 1u); // ack is header-only
}

TEST(PacketFactory, IdsAreUnique)
{
    PacketFactory factory(ChannelSpec::ring(), 32);
    const Packet a = factory.makeRequest(0, 1, true, 0);
    const Packet b = factory.makeRequest(0, 1, true, 0);
    const Packet c = factory.makeResponse(a);
    EXPECT_NE(a.id, b.id);
    EXPECT_NE(b.id, c.id);
    EXPECT_NE(a.id, c.id);
}

TEST(PacketFactory, ClFlitsAccessor)
{
    PacketFactory ring(ChannelSpec::ring(), 128);
    PacketFactory mesh(ChannelSpec::mesh(), 128);
    EXPECT_EQ(ring.cacheLineFlits(), 9u);
    EXPECT_EQ(mesh.cacheLineFlits(), 36u);
}

} // namespace
} // namespace hrsim
