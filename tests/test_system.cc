/**
 * @file
 * Whole-system integration tests: conservation invariants,
 * determinism, analytic latency bounds and configuration handling.
 */

#include <gtest/gtest.h>

#include "core/system.hh"

namespace hrsim
{
namespace
{

SimConfig
shortSim(Cycle warmup = 1000, Cycle batch = 1000,
         std::uint32_t batches = 3)
{
    SimConfig sim;
    sim.warmupCycles = warmup;
    sim.batchCycles = batch;
    sim.numBatches = batches;
    return sim;
}

TEST(SystemConfig, ProcessorCounts)
{
    EXPECT_EQ(SystemConfig::ring("2:3:4", 32).numProcessors(), 24);
    EXPECT_EQ(SystemConfig::mesh(5, 32, 4).numProcessors(), 25);
}

TEST(SystemConfig, TickThreadsOtherThanOneRejected)
{
    for (const int threads : {0, 2, 4}) {
        SystemConfig cfg = SystemConfig::ring("2:4", 32);
        cfg.sim.tickThreads = threads;
        try {
            System system(cfg);
            FAIL() << "tickThreads = " << threads << " must throw";
        } catch (const ConfigError &err) {
            EXPECT_NE(std::string(err.what()).find("tickThreads"),
                      std::string::npos)
                << err.what();
        }
    }
    SystemConfig serial = SystemConfig::mesh(2, 32, 4);
    serial.sim.tickThreads = 1;
    EXPECT_NO_THROW(System system(serial));
}

TEST(SystemConfig, IdleSkipFalseRejected)
{
    SystemConfig cfg = SystemConfig::ring("2:4", 32);
    cfg.sim.idleSkip = false;
    try {
        System system(cfg);
        FAIL() << "idleSkip = false must throw";
    } catch (const ConfigError &err) {
        EXPECT_NE(std::string(err.what()).find("idleSkip"),
                  std::string::npos)
            << err.what();
    }
    SystemConfig mesh = SystemConfig::mesh(2, 32, 4);
    mesh.sim.idleSkip = false;
    EXPECT_THROW(System system(mesh), ConfigError);
}

TEST(System, RequestResponseConservation)
{
    SystemConfig cfg = SystemConfig::ring("2:4", 32);
    cfg.sim = shortSim();
    System system(cfg);
    system.step(3000);

    const WorkloadCounters &c = system.counters();
    // Everything issued is either completed or still in flight.
    const auto in_flight = static_cast<std::uint64_t>(
        system.totalOutstanding());
    EXPECT_EQ(c.remoteIssued + c.localIssued,
              c.remoteCompleted + c.localCompleted + in_flight);
    EXPECT_GT(c.remoteIssued, 0u);
}

TEST(System, DrainsWhenGenerationIsImpossible)
{
    // Run, then freeze generation by stepping a copy with the same
    // seed: simpler — check in-flight flits are bounded by T * P *
    // worst-case packet sizes at any time.
    SystemConfig cfg = SystemConfig::mesh(3, 32, 4);
    cfg.sim = shortSim();
    cfg.workload.outstandingT = 2;
    System system(cfg);
    system.step(2000);
    const std::uint64_t bound =
        static_cast<std::uint64_t>(9 * 2) * (12 + 12);
    EXPECT_LE(system.network().flitsInFlight(), bound);
    EXPECT_LE(system.totalOutstanding(), 9 * 2);
}

TEST(System, DeterministicForSameSeed)
{
    SystemConfig cfg = SystemConfig::ring("3:4", 64);
    cfg.sim = shortSim();
    cfg.sim.seed = 777;
    const RunResult a = runSystem(cfg);
    const RunResult b = runSystem(cfg);
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_DOUBLE_EQ(a.avgLatency, b.avgLatency);
    EXPECT_DOUBLE_EQ(a.networkUtilization, b.networkUtilization);
}

TEST(System, DifferentSeedsDiffer)
{
    SystemConfig cfg = SystemConfig::ring("3:4", 64);
    cfg.sim = shortSim();
    cfg.sim.seed = 1;
    const RunResult a = runSystem(cfg);
    cfg.sim.seed = 2;
    const RunResult b = runSystem(cfg);
    EXPECT_NE(a.samples, b.samples);
}

TEST(System, LatencyAboveAnalyticFloor)
{
    // The average remote round trip can never beat: request hops +
    // memory latency + response serialization. Use a loose, provable
    // floor: memory latency + 2 (one hop each way) + response size.
    SystemConfig cfg = SystemConfig::ring("8", 32);
    cfg.sim = shortSim();
    const RunResult result = runSystem(cfg);
    const double floor = cfg.workload.memoryLatency + 2.0 + 3.0;
    EXPECT_GE(result.avgLatency, floor);
}

TEST(System, MeshLatencyAboveAnalyticFloor)
{
    SystemConfig cfg = SystemConfig::mesh(3, 32, 4);
    cfg.sim = shortSim();
    const RunResult result = runSystem(cfg);
    // 12-flit response + 1 hop each way + memory latency.
    const double floor = cfg.workload.memoryLatency + 2.0 + 12.0;
    EXPECT_GE(result.avgLatency, floor);
}

TEST(System, UtilizationWithinBounds)
{
    SystemConfig cfg = SystemConfig::mesh(4, 64, 4);
    cfg.sim = shortSim();
    const RunResult result = runSystem(cfg);
    EXPECT_GE(result.networkUtilization, 0.0);
    EXPECT_LE(result.networkUtilization, 1.0);
}

TEST(System, RingLevelUtilizationReported)
{
    SystemConfig cfg = SystemConfig::ring("2:2:2", 32);
    cfg.sim = shortSim();
    const RunResult result = runSystem(cfg);
    ASSERT_EQ(result.ringLevelUtilization.size(), 3u);
    for (const double u : result.ringLevelUtilization) {
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0);
    }
}

TEST(System, MeshHasNoRingLevels)
{
    SystemConfig cfg = SystemConfig::mesh(2, 32, 4);
    cfg.sim = shortSim();
    const RunResult result = runSystem(cfg);
    EXPECT_TRUE(result.ringLevelUtilization.empty());
}

TEST(System, HigherLoadRaisesLatency)
{
    SystemConfig low = SystemConfig::ring("2:6", 64);
    low.sim = shortSim(2000, 2000, 4);
    low.workload.missRateC = 0.005;
    SystemConfig high = low;
    high.workload.missRateC = 0.08;
    const RunResult a = runSystem(low);
    const RunResult b = runSystem(high);
    EXPECT_GT(b.avgLatency, a.avgLatency);
    EXPECT_GT(b.networkUtilization, a.networkUtilization);
}

TEST(System, MoreOutstandingRaisesThroughput)
{
    SystemConfig t1 = SystemConfig::ring("2:6", 64);
    t1.sim = shortSim(2000, 2000, 4);
    t1.workload.outstandingT = 1;
    SystemConfig t4 = t1;
    t4.workload.outstandingT = 4;
    const RunResult a = runSystem(t1);
    const RunResult b = runSystem(t4);
    EXPECT_GE(b.throughputPerPm, a.throughputPerPm * 0.95);
    EXPECT_GT(b.samples, 0u);
}

TEST(System, DoubleSpeedGlobalHelpsASaturatedHierarchy)
{
    // 4 second-level rings on the global ring: past the paper's
    // 3-ring sustainable point, so doubling the global clock must
    // cut latency.
    SystemConfig normal = SystemConfig::ring("4:3:4", 32);
    normal.sim = shortSim(2000, 2000, 4);
    SystemConfig fast = normal;
    fast.globalRingSpeed = 2;
    const RunResult a = runSystem(normal);
    const RunResult b = runSystem(fast);
    EXPECT_LT(b.avgLatency, a.avgLatency);
}

TEST(System, WatchdogQuiescentSystemIsNotAStall)
{
    // Nearly zero load: long quiet stretches must not trip the
    // watchdog because nothing is outstanding.
    SystemConfig cfg = SystemConfig::ring("4", 32);
    cfg.sim = shortSim(500, 500, 2);
    cfg.sim.watchdogCycles = 50;
    cfg.workload.missRateC = 0.0005;
    EXPECT_NO_THROW(runSystem(cfg));
}

TEST(System, ThroughputMatchesSampleAccounting)
{
    SystemConfig cfg = SystemConfig::mesh(3, 32, 4);
    cfg.sim = shortSim();
    const RunResult result = runSystem(cfg);
    const double expected =
        static_cast<double>(result.samples) /
        (static_cast<double>(cfg.sim.batchCycles) *
         cfg.sim.numBatches * 9.0);
    EXPECT_DOUBLE_EQ(result.throughputPerPm, expected);
}

TEST(System, RunResultCyclesMatchesProtocol)
{
    SystemConfig cfg = SystemConfig::ring("4", 16);
    cfg.sim = shortSim(100, 200, 3);
    const RunResult result = runSystem(cfg);
    EXPECT_EQ(result.cycles, 100u + 3u * 200u);
}

} // namespace
} // namespace hrsim
