/**
 * @file
 * Sweep-engine regression tests: SweepRunner determinism — serial
 * (jobs = 1) and parallel (jobs = 4) sweeps of a mixed ring/mesh
 * point list produce bit-identical RunResults, in submission order.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/sweep.hh"
#include "core/system.hh"

namespace hrsim
{
namespace
{

SimConfig
quickSim()
{
    SimConfig sim;
    sim.warmupCycles = 1000;
    sim.batchCycles = 1000;
    sim.numBatches = 3;
    return sim;
}

/** Mixed ring/mesh list, including a saturated ring so the blocked
 *  (sleeping) path is exercised. */
std::vector<SystemConfig>
mixedPoints()
{
    std::vector<SystemConfig> points;

    SystemConfig ring_small = SystemConfig::ring("2:4", 64);
    ring_small.workload.outstandingT = 4;
    ring_small.sim = quickSim();
    points.push_back(ring_small);

    SystemConfig ring_saturated = SystemConfig::ring("18", 128);
    ring_saturated.workload.outstandingT = 4;
    ring_saturated.sim = quickSim();
    points.push_back(ring_saturated);

    SystemConfig mesh_small = SystemConfig::mesh(3, 64, 4);
    mesh_small.workload.outstandingT = 4;
    mesh_small.sim = quickSim();
    points.push_back(mesh_small);

    SystemConfig ring_local = SystemConfig::ring("3:4", 32);
    ring_local.workload.localityR = 0.5;
    ring_local.workload.outstandingT = 2;
    ring_local.sim = quickSim();
    points.push_back(ring_local);

    SystemConfig mesh_large = SystemConfig::mesh(4, 32, 1);
    mesh_large.workload.outstandingT = 2;
    mesh_large.sim = quickSim();
    points.push_back(mesh_large);

    return points;
}

void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.avgLatency, b.avgLatency);
    EXPECT_EQ(a.latencyCI95, b.latencyCI95);
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.latencyP50, b.latencyP50);
    EXPECT_EQ(a.latencyP95, b.latencyP95);
    EXPECT_EQ(a.latencyP99, b.latencyP99);
    EXPECT_EQ(a.networkUtilization, b.networkUtilization);
    EXPECT_EQ(a.ringLevelUtilization, b.ringLevelUtilization);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.throughputPerPm, b.throughputPerPm);
    EXPECT_EQ(a.counters.missesGenerated, b.counters.missesGenerated);
    EXPECT_EQ(a.counters.remoteIssued, b.counters.remoteIssued);
    EXPECT_EQ(a.counters.remoteCompleted,
              b.counters.remoteCompleted);
    EXPECT_EQ(a.counters.localIssued, b.counters.localIssued);
    EXPECT_EQ(a.counters.localCompleted, b.counters.localCompleted);
    EXPECT_EQ(a.counters.blockedCycles, b.counters.blockedCycles);
}

TEST(Sweep, SerialAndParallelAreBitIdentical)
{
    const std::vector<SystemConfig> points = mixedPoints();

    SweepOptions serial_opts;
    serial_opts.jobs = 1;
    SweepRunner serial(serial_opts);
    const std::vector<RunResult> serial_results = serial.run(points);

    SweepOptions parallel_opts;
    parallel_opts.jobs = 4;
    SweepRunner parallel(parallel_opts);
    const std::vector<RunResult> parallel_results =
        parallel.run(points);

    ASSERT_EQ(serial_results.size(), points.size());
    ASSERT_EQ(parallel_results.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectIdentical(serial_results[i], parallel_results[i]);
    }
}

TEST(Sweep, MatchesDirectRunSystemInSubmissionOrder)
{
    const std::vector<SystemConfig> points = mixedPoints();
    const std::vector<RunResult> swept = runSweep(points, 4);
    ASSERT_EQ(swept.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectIdentical(swept[i], runSystem(points[i]));
    }
}

TEST(Sweep, RunnerIsReusableAcrossBatches)
{
    const std::vector<SystemConfig> points = mixedPoints();
    SweepOptions opts;
    opts.jobs = 3;
    SweepRunner runner(opts);
    const std::vector<RunResult> first = runner.run(points);
    const std::vector<RunResult> second = runner.run(points);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectIdentical(first[i], second[i]);
}

TEST(Sweep, PointSeedIsDeterministicAndSpreads)
{
    EXPECT_EQ(SweepRunner::pointSeed(42, 0),
              SweepRunner::pointSeed(42, 0));
    EXPECT_NE(SweepRunner::pointSeed(42, 0),
              SweepRunner::pointSeed(42, 1));
    EXPECT_NE(SweepRunner::pointSeed(42, 0),
              SweepRunner::pointSeed(43, 0));
}

TEST(Sweep, ReseedPointsGivesDistinctStreamsDeterministically)
{
    // Two identical configs: reseeding must give them different
    // metrics (distinct streams), reproducibly across runs.
    SystemConfig cfg = SystemConfig::ring("8", 64);
    cfg.sim = quickSim();
    const std::vector<SystemConfig> points{cfg, cfg};

    SweepOptions opts;
    opts.jobs = 2;
    opts.reseedPoints = true;
    SweepRunner first(opts);
    const auto a = first.run(points);
    SweepRunner second(opts);
    const auto b = second.run(points);

    EXPECT_NE(a[0].avgLatency, a[1].avgLatency);
    expectIdentical(a[0], b[0]);
    expectIdentical(a[1], b[1]);
}

} // namespace
} // namespace hrsim
