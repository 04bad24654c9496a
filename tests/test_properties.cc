/**
 * @file
 * Property-based (parameterized) sweeps across topologies, cache-line
 * sizes and buffer depths: conservation, determinism, bounds and
 * qualitative orderings that must hold for every configuration.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/system.hh"

namespace hrsim
{
namespace
{

SimConfig
propertySim()
{
    SimConfig sim;
    sim.warmupCycles = 800;
    sim.batchCycles = 800;
    sim.numBatches = 3;
    return sim;
}

void
checkInvariants(const SystemConfig &cfg)
{
    System system(cfg);
    system.step(cfg.sim.warmupCycles + 1500);

    const WorkloadCounters &c = system.counters();
    const auto in_flight =
        static_cast<std::uint64_t>(system.totalOutstanding());

    // Conservation: every miss is completed or accounted in flight.
    EXPECT_EQ(c.remoteIssued + c.localIssued,
              c.remoteCompleted + c.localCompleted + in_flight);

    // The protocol bounds in-network flits: at most T per PM, each
    // worth at most request + response flits.
    const auto pms = static_cast<std::uint64_t>(
        system.network().numProcessors());
    const auto t = static_cast<std::uint64_t>(
        cfg.workload.outstandingT);
    const std::uint64_t worst_packet = 2ull * 36ull;
    EXPECT_LE(system.network().flitsInFlight(),
              pms * t * worst_packet);

    // Work happened at all.
    EXPECT_GT(c.missesGenerated, 0u);
}

// ---------------------------------------------------------------- //
// Rings: topology x cache-line size

using RingParam = std::tuple<std::string, int>;

class RingPropertyTest
    : public ::testing::TestWithParam<RingParam>
{};

TEST_P(RingPropertyTest, ConservationAndBounds)
{
    const auto &[topo, line] = GetParam();
    SystemConfig cfg =
        SystemConfig::ring(topo, static_cast<std::uint32_t>(line));
    cfg.sim = propertySim();
    checkInvariants(cfg);
}

TEST_P(RingPropertyTest, DeterministicAcrossRuns)
{
    const auto &[topo, line] = GetParam();
    SystemConfig cfg =
        SystemConfig::ring(topo, static_cast<std::uint32_t>(line));
    cfg.sim = propertySim();
    const RunResult a = runSystem(cfg);
    const RunResult b = runSystem(cfg);
    EXPECT_DOUBLE_EQ(a.avgLatency, b.avgLatency);
    EXPECT_EQ(a.samples, b.samples);
}

TEST_P(RingPropertyTest, LatencySamplesRespectFloor)
{
    const auto &[topo, line] = GetParam();
    SystemConfig cfg =
        SystemConfig::ring(topo, static_cast<std::uint32_t>(line));
    cfg.sim = propertySim();
    const RunResult result = runSystem(cfg);
    if (result.samples > 0) {
        // Memory latency alone is a hard floor for a remote trip.
        EXPECT_GT(result.avgLatency, cfg.workload.memoryLatency);
    }
    for (const double u : result.ringLevelUtilization) {
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, RingPropertyTest,
    ::testing::Values(
        RingParam{"4", 16}, RingParam{"8", 32}, RingParam{"6", 64},
        RingParam{"4", 128}, RingParam{"2:4", 32},
        RingParam{"3:6", 64}, RingParam{"2:3:4", 128},
        RingParam{"2:3:6", 32}, RingParam{"3:3:6", 64},
        RingParam{"2:2:2:3", 16}),
    [](const ::testing::TestParamInfo<RingParam> &info) {
        std::string name = std::get<0>(info.param) + "_cl" +
                           std::to_string(std::get<1>(info.param));
        for (auto &ch : name) {
            if (ch == ':')
                ch = 'x';
        }
        return name;
    });

// ---------------------------------------------------------------- //
// Meshes: width x buffer depth x cache-line size

using MeshParam = std::tuple<int, int, int>;

class MeshPropertyTest
    : public ::testing::TestWithParam<MeshParam>
{};

TEST_P(MeshPropertyTest, ConservationAndBounds)
{
    const auto &[width, buffers, line] = GetParam();
    SystemConfig cfg = SystemConfig::mesh(
        width, static_cast<std::uint32_t>(line),
        static_cast<std::uint32_t>(buffers));
    cfg.sim = propertySim();
    checkInvariants(cfg);
}

TEST_P(MeshPropertyTest, DeterministicAcrossRuns)
{
    const auto &[width, buffers, line] = GetParam();
    SystemConfig cfg = SystemConfig::mesh(
        width, static_cast<std::uint32_t>(line),
        static_cast<std::uint32_t>(buffers));
    cfg.sim = propertySim();
    const RunResult a = runSystem(cfg);
    const RunResult b = runSystem(cfg);
    EXPECT_DOUBLE_EQ(a.avgLatency, b.avgLatency);
    EXPECT_EQ(a.samples, b.samples);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, MeshPropertyTest,
    ::testing::Combine(::testing::Values(2, 3, 5),
                       ::testing::Values(1, 4, 0),
                       ::testing::Values(32, 128)),
    [](const ::testing::TestParamInfo<MeshParam> &info) {
        // Appended piecewise: GCC 12 misreads the inlined copies of a
        // "literal" + std::string chain as overlapping (-Wrestrict).
        std::string name = "w";
        name += std::to_string(std::get<0>(info.param));
        name += "_b";
        name += std::to_string(std::get<1>(info.param));
        name += "_cl";
        name += std::to_string(std::get<2>(info.param));
        return name;
    });

// ---------------------------------------------------------------- //
// Qualitative orderings the model must reproduce for any line size

class LineSizeTest : public ::testing::TestWithParam<int>
{};

TEST_P(LineSizeTest, MeshSmallerBuffersNeverHelp)
{
    const auto line = static_cast<std::uint32_t>(GetParam());
    SystemConfig big = SystemConfig::mesh(4, line, 0);
    big.sim = propertySim();
    SystemConfig mid = big;
    mid.meshBufferFlits = 4;
    SystemConfig tiny = big;
    tiny.meshBufferFlits = 1;
    const double l_big = runSystem(big).avgLatency;
    const double l_mid = runSystem(mid).avgLatency;
    const double l_tiny = runSystem(tiny).avgLatency;
    // Allow 2% noise between cl and 4-flit, which are often close.
    EXPECT_LE(l_big, l_mid * 1.02);
    EXPECT_LT(l_mid, l_tiny);
}

TEST_P(LineSizeTest, RingLocalityReducesLatency)
{
    const auto line = static_cast<std::uint32_t>(GetParam());
    SystemConfig far = SystemConfig::ring("3:3:4", line);
    far.sim = propertySim();
    far.workload.localityR = 1.0;
    SystemConfig near = far;
    near.workload.localityR = 0.1;
    EXPECT_LT(runSystem(near).avgLatency, runSystem(far).avgLatency);
}

TEST_P(LineSizeTest, RingHierarchyBeatsSaturatedSingleRing)
{
    const auto line = static_cast<std::uint32_t>(GetParam());
    SystemConfig flat = SystemConfig::ring("24", line);
    flat.sim = propertySim();
    SystemConfig hier = SystemConfig::ring("2:3:4", line);
    hier.sim = propertySim();
    EXPECT_LT(runSystem(hier).avgLatency, runSystem(flat).avgLatency);
}

INSTANTIATE_TEST_SUITE_P(Lines, LineSizeTest,
                         ::testing::Values(16, 32, 64, 128),
                         [](const ::testing::TestParamInfo<int> &info) {
                             return "cl" + std::to_string(info.param);
                         });

} // namespace
} // namespace hrsim
