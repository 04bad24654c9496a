/**
 * @file
 * Unit tests for ring topology parsing and structural expansion.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "ring/topology.hh"

namespace hrsim
{
namespace
{

TEST(RingTopology, ParseSingleRing)
{
    const RingTopology topo = RingTopology::parse("12");
    EXPECT_EQ(topo.numLevels(), 1);
    EXPECT_EQ(topo.numProcessors(), 12);
    EXPECT_EQ(topo.toString(), "12");
}

TEST(RingTopology, ParsePaperNotation)
{
    const RingTopology topo = RingTopology::parse("2:3:4");
    EXPECT_EQ(topo.numLevels(), 3);
    EXPECT_EQ(topo.numProcessors(), 24);
    EXPECT_EQ(topo.toString(), "2:3:4");
}

TEST(RingTopology, ParseRejectsGarbage)
{
    EXPECT_THROW(RingTopology::parse("a:b"), ConfigError);
    EXPECT_THROW(RingTopology::parse("2::3"), ConfigError);
    EXPECT_THROW(RingTopology::parse(""), ConfigError);
    EXPECT_THROW(RingTopology::parse("0:4"), ConfigError);
}

TEST(RingStructure, SingleRingHasOnlyNics)
{
    const auto rs = RingStructure::build(RingTopology::parse("6"));
    ASSERT_EQ(rs.rings.size(), 1u);
    EXPECT_TRUE(rs.iris.empty());
    EXPECT_EQ(rs.numProcessors(), 6);
    EXPECT_EQ(rs.rings[0].slots.size(), 6u);
    for (const auto &slot : rs.rings[0].slots)
        EXPECT_EQ(slot.kind, RingSlotDesc::Kind::Nic);
}

TEST(RingStructure, TwoLevelLayout)
{
    // 2:3 -> one global ring with 2 IRIs; two local rings with
    // 3 NICs + 1 IRI lower side each.
    const auto rs = RingStructure::build(RingTopology::parse("2:3"));
    EXPECT_EQ(rs.numProcessors(), 6);
    ASSERT_EQ(rs.rings.size(), 3u);
    ASSERT_EQ(rs.iris.size(), 2u);

    const auto roots = rs.ringsAtLevel(0);
    ASSERT_EQ(roots.size(), 1u);
    const RingDesc &root = rs.rings[static_cast<std::size_t>(roots[0])];
    EXPECT_EQ(root.slots.size(), 2u);
    for (const auto &slot : root.slots)
        EXPECT_EQ(slot.kind, RingSlotDesc::Kind::IriUpper);

    const auto leaves = rs.ringsAtLevel(1);
    ASSERT_EQ(leaves.size(), 2u);
    for (const int leaf : leaves) {
        const RingDesc &ring = rs.rings[static_cast<std::size_t>(leaf)];
        ASSERT_EQ(ring.slots.size(), 4u); // 3 NICs + 1 IRI
        int nics = 0;
        int iri_lower = 0;
        for (const auto &slot : ring.slots) {
            if (slot.kind == RingSlotDesc::Kind::Nic)
                ++nics;
            else if (slot.kind == RingSlotDesc::Kind::IriLower)
                ++iri_lower;
        }
        EXPECT_EQ(nics, 3);
        EXPECT_EQ(iri_lower, 1);
    }
}

TEST(RingStructure, SubtreesAreContiguousAndDisjoint)
{
    const auto rs = RingStructure::build(RingTopology::parse("2:3:4"));
    EXPECT_EQ(rs.numProcessors(), 24);
    // Top-level IRIs cover [0,12) and [12,24); each intermediate IRI
    // covers 4 PMs.
    int top = 0;
    int mid = 0;
    for (const auto &iri : rs.iris) {
        const int span = iri.subtreeHi - iri.subtreeLo;
        if (span == 12)
            ++top;
        else if (span == 4)
            ++mid;
        EXPECT_EQ(iri.subtreeLo % span, 0);
    }
    EXPECT_EQ(top, 2);
    EXPECT_EQ(mid, 6);
}

TEST(RingStructure, PmIdsFollowDfsOrder)
{
    const auto rs = RingStructure::build(RingTopology::parse("2:2:2"));
    // Leaf rings must contain consecutive PM ids.
    for (const int leaf : rs.ringsAtLevel(2)) {
        const RingDesc &ring = rs.rings[static_cast<std::size_t>(leaf)];
        NodeId prev = -2;
        for (const auto &slot : ring.slots) {
            if (slot.kind != RingSlotDesc::Kind::Nic)
                continue;
            if (prev >= 0) {
                EXPECT_EQ(slot.index, prev + 1);
            }
            prev = slot.index;
        }
    }
}

TEST(RingStructure, FourLevelHierarchy)
{
    const auto rs =
        RingStructure::build(RingTopology::parse("3:3:2:3"));
    EXPECT_EQ(rs.numProcessors(), 54);
    EXPECT_EQ(rs.numLevels, 4);
    EXPECT_EQ(rs.ringsAtLevel(0).size(), 1u);
    EXPECT_EQ(rs.ringsAtLevel(1).size(), 3u);
    EXPECT_EQ(rs.ringsAtLevel(2).size(), 9u);
    EXPECT_EQ(rs.ringsAtLevel(3).size(), 18u);
    // IRIs: 3 + 9 + 18.
    EXPECT_EQ(rs.iris.size(), 30u);
}

TEST(RingStructure, NicRingMapIsConsistent)
{
    const auto rs = RingStructure::build(RingTopology::parse("2:4"));
    for (NodeId pm = 0; pm < rs.numProcessors(); ++pm) {
        const int ring = rs.nicRing[static_cast<std::size_t>(pm)];
        bool found = false;
        for (const auto &slot :
             rs.rings[static_cast<std::size_t>(ring)].slots) {
            if (slot.kind == RingSlotDesc::Kind::Nic &&
                slot.index == pm) {
                found = true;
            }
        }
        EXPECT_TRUE(found) << "pm " << pm;
    }
}

TEST(RingStructure, IriParentChildLevelsAreAdjacent)
{
    const auto rs = RingStructure::build(RingTopology::parse("2:3:4"));
    for (const auto &iri : rs.iris) {
        const int child_level =
            rs.rings[static_cast<std::size_t>(iri.childRing)].level;
        const int parent_level =
            rs.rings[static_cast<std::size_t>(iri.parentRing)].level;
        EXPECT_EQ(child_level, parent_level + 1);
    }
}

} // namespace
} // namespace hrsim
