/**
 * @file
 * Active-set scheduler tests: ActiveSet container semantics, and the
 * bit-identity contract between the optimized tick paths and their
 * oracles — the active-set scheduler vs the full scan
 * (HRSIM_FORCE_FULL_SCAN=1), the worm-streaming fast path vs the
 * legacy transmit loops (HRSIM_NO_FASTPATH=1), and the columnar tick
 * engine vs the legacy per-node layout (HRSIM_NO_COLUMNAR=1) —
 * across network kinds, clock speeds, workloads and observability
 * settings. The
 * full RunResult is compared — counters, latency statistics, the
 * materialized metric registry and mid-run snapshots — with only the
 * mode-gated metrics (sched.*, *.streamed_flits, which exist only
 * when their mode is on) excluded. See DESIGN.md sections 10 and 12
 * for the invariants under test.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bit_identity_grid.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "sim/active_set.hh"
#include "sim/columns.hh"

namespace hrsim
{
namespace
{

// ---------------------------------------------------------------- //
// ActiveSet container semantics

TEST(ActiveSet, AddIsIdempotentAndContainsTracksMembership)
{
    ActiveSet set;
    set.reset(8);
    EXPECT_TRUE(set.empty());

    set.add(3);
    set.add(5);
    set.add(3); // duplicate: no growth
    EXPECT_EQ(set.size(), 2u);
    EXPECT_TRUE(set.contains(3));
    EXPECT_TRUE(set.contains(5));
    EXPECT_FALSE(set.contains(0));
}

TEST(ActiveSet, OrderedSortsOutOfOrderWakes)
{
    ActiveSet set;
    set.reset(10);
    for (const std::uint32_t id : {7u, 2u, 9u, 0u, 4u})
        set.add(id);
    EXPECT_EQ(set.ordered(),
              (std::vector<std::uint32_t>{0, 2, 4, 7, 9}));
}

TEST(ActiveSet, OrderedPrefixIsStableUnderMidIterationWakes)
{
    ActiveSet set;
    set.reset(16);
    for (const std::uint32_t id : {6u, 1u, 12u})
        set.add(id);

    const std::size_t prefix = set.orderedPrefix();
    ASSERT_EQ(prefix, 3u);
    // A wake arriving mid-iteration (as a flit handoff would cause)
    // must not disturb the already-sorted prefix.
    set.add(0);
    EXPECT_EQ(set.at(0), 1u);
    EXPECT_EQ(set.at(1), 6u);
    EXPECT_EQ(set.at(2), 12u);
    // ...but the raw list covers the newcomer, in wake order.
    EXPECT_EQ(set.raw(),
              (std::vector<std::uint32_t>{1, 6, 12, 0}));
}

TEST(ActiveSet, RetainPreservesOrderAndClearsMembership)
{
    ActiveSet set;
    set.reset(10);
    for (std::uint32_t id = 0; id < 10; ++id)
        set.add(id);

    set.retain([](std::uint32_t id) { return id % 2 == 1; });
    EXPECT_EQ(set.ordered(),
              (std::vector<std::uint32_t>{1, 3, 5, 7, 9}));
    EXPECT_FALSE(set.contains(4));

    // A slept member can wake again.
    set.add(4);
    EXPECT_TRUE(set.contains(4));
    EXPECT_EQ(set.ordered(),
              (std::vector<std::uint32_t>{1, 3, 4, 5, 7, 9}));
}

TEST(ActiveSet, ResetDropsEverything)
{
    ActiveSet set;
    set.reset(4);
    set.add(2);
    set.reset(4);
    EXPECT_TRUE(set.empty());
    EXPECT_FALSE(set.contains(2));
}

// ---------------------------------------------------------------- //
// Bit-identity: active-set scheduler vs full-scan oracle

/** Scoped HRSIM_FORCE_FULL_SCAN=1 (read at System construction). */
class ForceFullScan
{
  public:
    ForceFullScan() { setenv("HRSIM_FORCE_FULL_SCAN", "1", 1); }
    ~ForceFullScan() { unsetenv("HRSIM_FORCE_FULL_SCAN"); }
};

/** Scoped HRSIM_NO_FASTPATH=1 (read at System construction): the
 * legacy transmit/arbitration loops, the fast path's oracle. */
class DisableFastPath
{
  public:
    DisableFastPath() { setenv("HRSIM_NO_FASTPATH", "1", 1); }
    ~DisableFastPath() { unsetenv("HRSIM_NO_FASTPATH"); }
};

/** Scoped HRSIM_NO_COLUMNAR=1 (read at System construction): the
 * legacy per-node hot-state layout and ActiveSet tick loops, the
 * columnar engine's oracle. */
class DisableColumnar
{
  public:
    DisableColumnar() { setenv("HRSIM_NO_COLUMNAR", "1", 1); }
    ~DisableColumnar() { unsetenv("HRSIM_NO_COLUMNAR"); }
};

bool
isModeGatedMetric(const std::string &name)
{
    // sched.* and *.streamed_flits are registered only when their
    // scheduler mode / fast path is on, by design (so artifacts stay
    // byte-identical across modes); everything else must match.
    static const std::string kStreamed = ".streamed_flits";
    return name.rfind("sched.", 0) == 0 ||
           (name.size() >= kStreamed.size() &&
            name.compare(name.size() - kStreamed.size(),
                         kStreamed.size(), kStreamed) == 0);
}

std::vector<MetricSample>
withoutSchedMetrics(const std::vector<MetricSample> &metrics)
{
    std::vector<MetricSample> kept;
    kept.reserve(metrics.size());
    for (const MetricSample &sample : metrics) {
        if (!isModeGatedMetric(sample.name))
            kept.push_back(sample);
    }
    return kept;
}

/** Full RunResult equality, modulo the mode-gated metrics. */
void
expectSameResult(const RunResult &active, const RunResult &oracle)
{
    EXPECT_EQ(active.avgLatency, oracle.avgLatency);
    EXPECT_EQ(active.latencyCI95, oracle.latencyCI95);
    EXPECT_EQ(active.samples, oracle.samples);
    EXPECT_EQ(active.latencyP50, oracle.latencyP50);
    EXPECT_EQ(active.latencyP95, oracle.latencyP95);
    EXPECT_EQ(active.latencyP99, oracle.latencyP99);
    EXPECT_EQ(active.networkUtilization, oracle.networkUtilization);
    EXPECT_EQ(active.ringLevelUtilization,
              oracle.ringLevelUtilization);
    EXPECT_EQ(active.cycles, oracle.cycles);
    EXPECT_EQ(active.throughputPerPm, oracle.throughputPerPm);

    EXPECT_EQ(active.counters.missesGenerated,
              oracle.counters.missesGenerated);
    EXPECT_EQ(active.counters.remoteIssued,
              oracle.counters.remoteIssued);
    EXPECT_EQ(active.counters.remoteCompleted,
              oracle.counters.remoteCompleted);
    EXPECT_EQ(active.counters.localIssued,
              oracle.counters.localIssued);
    EXPECT_EQ(active.counters.localCompleted,
              oracle.counters.localCompleted);
    EXPECT_EQ(active.counters.blockedCycles,
              oracle.counters.blockedCycles);

    EXPECT_EQ(withoutSchedMetrics(active.metrics),
              withoutSchedMetrics(oracle.metrics));

    ASSERT_EQ(active.snapshots.size(), oracle.snapshots.size());
    for (std::size_t i = 0; i < active.snapshots.size(); ++i) {
        SCOPED_TRACE("snapshot " + std::to_string(i));
        EXPECT_EQ(active.snapshots[i].cycle,
                  oracle.snapshots[i].cycle);
        EXPECT_EQ(withoutSchedMetrics(active.snapshots[i].metrics),
                  withoutSchedMetrics(oracle.snapshots[i].metrics));
    }
}

using testgrid::bitIdentityGrid;
using testgrid::shortSim;

TEST(ActiveSetScheduler, BitIdenticalToFullScanAcrossGrid)
{
    for (const auto &[name, cfg] : bitIdentityGrid()) {
        SCOPED_TRACE(name);
        const RunResult active = runSystem(cfg);
        RunResult oracle;
        {
            ForceFullScan scan;
            oracle = runSystem(cfg);
        }
        expectSameResult(active, oracle);
        EXPECT_GT(active.samples, 0u);
    }
}

TEST(ActiveSetScheduler, BitIdenticalOnTraceReplay)
{
    const SystemConfig cfg = testgrid::traceReplayConfig();
    const RunResult active = runSystem(cfg);
    RunResult oracle;
    {
        ForceFullScan scan;
        oracle = runSystem(cfg);
    }
    expectSameResult(active, oracle);
    EXPECT_GT(active.counters.missesGenerated, 0u);
}

TEST(ActiveSetScheduler, ParallelSweepMatchesFullScanOracle)
{
    // The sweep engine must stay bit-identical under worker-thread
    // parallelism with the active scheduler on; also exercised by the
    // ThreadSanitizer build, which would flag any cross-thread access
    // the scheduler introduced.
    std::vector<SystemConfig> points;
    for (auto &[name, cfg] : bitIdentityGrid()) {
        if (cfg.sim.metricsEvery == 0 &&
            cfg.sim.watchdogCycles == SimConfig{}.watchdogCycles) {
            points.push_back(cfg);
        }
    }
    ASSERT_GE(points.size(), 4u);

    const std::vector<RunResult> active = runSweep(points, 4);
    std::vector<RunResult> oracle;
    {
        ForceFullScan scan;
        oracle = runSweep(points, 4);
    }
    ASSERT_EQ(active.size(), oracle.size());
    for (std::size_t i = 0; i < active.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectSameResult(active[i], oracle[i]);
    }
}

// ---------------------------------------------------------------- //
// Bit-identity: worm-streaming fast path vs legacy loops

TEST(ActiveSetScheduler, FastPathBitIdenticalAcrossGrid)
{
    // Completes the mode cube: the grid test above already checks
    // (fast, active) == (fast, full-scan); here (fast, active) must
    // also equal (legacy, active) and (legacy, full-scan), so all
    // four {fast path on/off} x {active set on/off} cells agree.
    for (const auto &[name, cfg] : bitIdentityGrid()) {
        SCOPED_TRACE(name);
        const RunResult fast = runSystem(cfg);
        RunResult legacy;
        {
            DisableFastPath off;
            legacy = runSystem(cfg);
        }
        RunResult legacyOracle;
        {
            DisableFastPath off;
            ForceFullScan scan;
            legacyOracle = runSystem(cfg);
        }
        expectSameResult(fast, legacy);
        expectSameResult(fast, legacyOracle);
    }
}

TEST(ActiveSetScheduler, FastPathBitIdenticalOnParallelSweep)
{
    // The fast path must also hold under worker-thread parallelism
    // (each worker owns its System; the TSan CI stage re-runs this).
    std::vector<SystemConfig> points;
    for (auto &[name, cfg] : bitIdentityGrid()) {
        if (cfg.sim.metricsEvery == 0 &&
            cfg.sim.watchdogCycles == SimConfig{}.watchdogCycles) {
            points.push_back(cfg);
        }
    }
    ASSERT_GE(points.size(), 4u);

    const std::vector<RunResult> fast = runSweep(points, 4);
    std::vector<RunResult> legacy;
    {
        DisableFastPath off;
        legacy = runSweep(points, 4);
    }
    ASSERT_EQ(fast.size(), legacy.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectSameResult(fast[i], legacy[i]);
    }
}

// ---------------------------------------------------------------- //
// Bit-identity: columnar tick engine vs legacy per-node layout

TEST(ActiveSetScheduler, ColumnarBitIdenticalAcrossGrid)
{
    // Third axis of the mode cube. The tests above pin the four
    // {fast path} x {full scan} cells with the columnar engine on;
    // here the same grid must agree with all four cells of the
    // legacy-layout plane, so every one of the eight
    // {columnar} x {fast path} x {full scan} combinations produces
    // the same RunResult.
    for (const auto &[name, cfg] : bitIdentityGrid()) {
        SCOPED_TRACE(name);
        const RunResult columnar = runSystem(cfg);
        RunResult legacy;
        {
            DisableColumnar off;
            legacy = runSystem(cfg);
        }
        RunResult legacyNoFast;
        {
            DisableColumnar off;
            DisableFastPath slow;
            legacyNoFast = runSystem(cfg);
        }
        RunResult legacyFullScan;
        {
            DisableColumnar off;
            ForceFullScan scan;
            legacyFullScan = runSystem(cfg);
        }
        RunResult legacyAllOracles;
        {
            DisableColumnar off;
            DisableFastPath slow;
            ForceFullScan scan;
            legacyAllOracles = runSystem(cfg);
        }
        expectSameResult(columnar, legacy);
        expectSameResult(columnar, legacyNoFast);
        expectSameResult(columnar, legacyFullScan);
        expectSameResult(columnar, legacyAllOracles);
    }
}

TEST(ActiveSetScheduler, ColumnarBitIdenticalOnParallelSweep)
{
    // The layout axis crossed with --jobs: each sweep worker owns its
    // System (and therefore its own columns), so worker parallelism
    // must not perturb the layout comparison. The TSan CI stage
    // re-runs this against data races.
    std::vector<SystemConfig> points;
    for (auto &[name, cfg] : bitIdentityGrid()) {
        if (cfg.sim.metricsEvery == 0 &&
            cfg.sim.watchdogCycles == SimConfig{}.watchdogCycles) {
            points.push_back(cfg);
        }
    }
    ASSERT_GE(points.size(), 4u);

    const std::vector<RunResult> columnar = runSweep(points, 4);
    std::vector<RunResult> legacy;
    {
        DisableColumnar off;
        legacy = runSweep(points, 4);
    }
    ASSERT_EQ(columnar.size(), legacy.size());
    for (std::size_t i = 0; i < columnar.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectSameResult(columnar[i], legacy[i]);
    }
}

// ---------------------------------------------------------------- //
// ActiveMask layout smoke tests (run by the layout_smoke ctest)

TEST(LayoutSmoke, ScanVisitsMembersInAscendingIdOrder)
{
    // The columnar determinism argument (DESIGN.md section 14) leans
    // on forEach() visiting the live set in ascending id order no
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

TEST(ActiveSetScheduler, SchedMetricsAbsentUnderFullScan)
{
    SystemConfig cfg = SystemConfig::ring("2:4", 64);
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.01;

    ForceFullScan scan;
    const RunResult result = runSystem(cfg);
    for (const MetricSample &sample : result.metrics)
        EXPECT_NE(sample.name.rfind("sched.", 0), 0u)
            << "unexpected " << sample.name;
}

} // namespace
} // namespace hrsim
