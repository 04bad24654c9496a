/**
 * @file
 * Checkpoint/restore tests (src/ckpt/; DESIGN.md section 16).
 *
 * The determinism contract under test: saving never perturbs a run,
 * and restoring a snapshot into a fresh System then running to cycle
 * Y produces results byte-identical to an uninterrupted run reaching
 * Y — across ring and mesh topologies, buffer depths, double-speed
 * global rings and fault plans. Plus the refusal paths: config-key,
 * schema-version, fault-plane and topology mismatches must throw
 * CheckpointError naming the disagreement, never restore garbage.
 *
 * Suites are named Checkpoint* so scripts/ci.sh can fold them into
 * the sanitizer test filter.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bit_identity_grid.hh"
#include "ckpt/codec.hh"
#include "ckpt/result_io.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "fault/fault_plan.hh"
#include "obs/manifest.hh"

#include <filesystem>
#include <fstream>

namespace hrsim
{
namespace
{

/** Unique-enough temp path; removed by the owning test. */
class TempCkpt
{
  public:
    explicit TempCkpt(const std::string &stem)
        : path_(testing::TempDir() + "hrsim_" + stem + "_" +
                std::to_string(::getpid()) + ".ckpt")
    {
    }
    ~TempCkpt() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

using testgrid::faultSpec;
using testgrid::shortSim;

/**
 * The acceptance grid: rings including single-level and a
 * double-speed root, meshes at 1 / 4 / cl-sized buffers, and a
 * faulted config per network kind.
 */
std::vector<std::pair<std::string, SystemConfig>>
checkpointGrid()
{
    std::vector<std::pair<std::string, SystemConfig>> grid;
    const auto add = [&grid](std::string name, SystemConfig cfg) {
        grid.emplace_back(std::move(name), cfg);
    };

    SystemConfig cfg = SystemConfig::ring("8", 64);
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.02;
    add("ring 8 single-level", cfg);

    cfg = SystemConfig::ring("2:4", 64);
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.01;
    add("ring 2:4 low-C", cfg);

    cfg = SystemConfig::ring("4:4", 32);
    cfg.sim = shortSim();
    cfg.workload.outstandingT = 4;
    add("ring 4:4 saturating", cfg);

    cfg = SystemConfig::ring("2:2:4", 64);
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.005;
    cfg.globalRingSpeed = 2;
    add("ring 2:2:4 speed-2", cfg);

    cfg = SystemConfig::mesh(3, 64, 1);
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.01;
    add("mesh 3 buffers-1", cfg);

    cfg = SystemConfig::mesh(4, 32, 4);
    cfg.sim = shortSim();
    cfg.workload.outstandingT = 2;
    add("mesh 4 buffers-4", cfg);

    for (auto &[name, faulted] : testgrid::faultAndBufferGrid())
        add(name, faulted);
    return grid;
}

/** Full RunResult equality — every field, every metric sample. */
void
expectSameResult(const RunResult &got, const RunResult &want)
{
    EXPECT_EQ(got.avgLatency, want.avgLatency);
    EXPECT_EQ(got.latencyCI95, want.latencyCI95);
    EXPECT_EQ(got.samples, want.samples);
    EXPECT_EQ(got.latencyP50, want.latencyP50);
    EXPECT_EQ(got.latencyP95, want.latencyP95);
    EXPECT_EQ(got.latencyP99, want.latencyP99);
    EXPECT_EQ(got.networkUtilization, want.networkUtilization);
    EXPECT_EQ(got.ringLevelUtilization, want.ringLevelUtilization);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.throughputPerPm, want.throughputPerPm);
    EXPECT_EQ(got.stopReason, want.stopReason);
    EXPECT_EQ(got.relHalfWidth, want.relHalfWidth);
    EXPECT_EQ(got.warmupCycles, want.warmupCycles);

    EXPECT_EQ(got.counters.missesGenerated,
              want.counters.missesGenerated);
    EXPECT_EQ(got.counters.remoteIssued, want.counters.remoteIssued);
    EXPECT_EQ(got.counters.remoteCompleted,
              want.counters.remoteCompleted);
    EXPECT_EQ(got.counters.localIssued, want.counters.localIssued);
    EXPECT_EQ(got.counters.localCompleted,
              want.counters.localCompleted);
    EXPECT_EQ(got.counters.blockedCycles,
              want.counters.blockedCycles);

    EXPECT_EQ(got.metrics, want.metrics);

    ASSERT_EQ(got.snapshots.size(), want.snapshots.size());
    for (std::size_t i = 0; i < got.snapshots.size(); ++i) {
        SCOPED_TRACE("snapshot " + std::to_string(i));
        EXPECT_EQ(got.snapshots[i].cycle, want.snapshots[i].cycle);
        EXPECT_EQ(got.snapshots[i].metrics,
                  want.snapshots[i].metrics);
    }
}

/**
 * The core contract, for one config: an uninterrupted control run, a
 * donor run that saves at @a save_at (must equal the control — saving
 * perturbs nothing), and a fresh System restored from the snapshot
 * (must also equal the control).
 */
void
roundTrip(const SystemConfig &cfg, Cycle save_at,
          const std::string &stem)
{
    TempCkpt file(stem);

    System control(cfg);
    const RunResult want = control.run();

    SystemConfig donor_cfg = cfg;
    donor_cfg.ckpt.savePath = file.path();
    donor_cfg.ckpt.saveAt = save_at;
    System donor(donor_cfg);
    {
        SCOPED_TRACE("donor (save must not perturb)");
        expectSameResult(donor.run(), want);
    }

    SystemConfig restore_cfg = cfg;
    restore_cfg.ckpt.restorePath = file.path();
    System restored(restore_cfg);
    {
        SCOPED_TRACE("restored");
        expectSameResult(restored.run(), want);
        EXPECT_TRUE(restored.restored());
    }
}

// ---------------------------------------------------------------- //
// Bit-identity across the acceptance grid

TEST(CheckpointBitIdentity, GridSaveRestoreEqualsUninterrupted)
{
    std::size_t stem = 0;
    for (const auto &[name, cfg] : checkpointGrid()) {
        SCOPED_TRACE(name);
        // Mid-measurement save: past the warmup and past the fault
        // windows' opening edges, so the snapshot carries live
        // faults, in-flight worms and a started utilization window.
        roundTrip(cfg, 1250, "grid" + std::to_string(stem++));
    }
}

TEST(CheckpointBitIdentity, SaveAtWarmupBoundary)
{
    SystemConfig cfg = SystemConfig::ring("2:4", 64);
    cfg.sim = shortSim();
    cfg.workload.outstandingT = 4;
    // Exactly at the warmup boundary: the snapshot must capture the
    // pre-measurement state and the restored run must re-open the
    // measurement window exactly where the uninterrupted one did.
    roundTrip(cfg, cfg.sim.warmupCycles, "warmup_boundary");
}

TEST(CheckpointBitIdentity, MetricsSnapshotsSurviveRestore)
{
    SystemConfig cfg = SystemConfig::ring("2:4", 64);
    cfg.sim = shortSim();
    cfg.sim.metricsEvery = 500;
    cfg.workload.outstandingT = 4;
    // The save point sits between two snapshot ticks; the restored
    // run's artifact must reproduce the pre-save snapshots too.
    roundTrip(cfg, 1250, "snapshots");
}

TEST(CheckpointBitIdentity, AdaptiveRunRestoresControllerState)
{
    SystemConfig cfg = SystemConfig::ring("2:4", 64);
    cfg.sim = shortSim();
    cfg.workload.outstandingT = 4;
    cfg.sim.stop.relHw = 0.05;
    roundTrip(cfg, 1250, "adaptive");
}

TEST(CheckpointBitIdentity, PeriodicSavesRestoreFromTheLast)
{
    SystemConfig cfg = SystemConfig::mesh(3, 64, 4);
    cfg.sim = shortSim();
    cfg.workload.outstandingT = 4;

    System control(cfg);
    const RunResult want = control.run();

    TempCkpt file("periodic");
    SystemConfig donor_cfg = cfg;
    donor_cfg.ckpt.savePath = file.path();
    donor_cfg.ckpt.saveEvery = 700;
    System donor(donor_cfg);
    expectSameResult(donor.run(), want);

    // The file now holds the last periodic snapshot (cycle 2800 of
    // 3200); restoring it must still complete to the same result.
    EXPECT_EQ(peekCheckpointHeader(file.path()).cycle, 2800u);
    SystemConfig restore_cfg = cfg;
    restore_cfg.ckpt.restorePath = file.path();
    System restored(restore_cfg);
    expectSameResult(restored.run(), want);
}

TEST(CheckpointBitIdentity, StopAfterSaveEndsTheRunEarly)
{
    SystemConfig cfg = SystemConfig::ring("2:4", 64);
    cfg.sim = shortSim();
    cfg.workload.outstandingT = 4;

    TempCkpt file("stop_after");
    SystemConfig donor_cfg = cfg;
    donor_cfg.ckpt.savePath = file.path();
    donor_cfg.ckpt.saveAt = 1000;
    donor_cfg.ckpt.stopAfterSave = true;
    System donor(donor_cfg);
    const RunResult partial = donor.run();
    EXPECT_EQ(partial.cycles, 1000u);

    // The early stop must not have contaminated the snapshot: a
    // restore still completes to the uninterrupted result.
    System control(cfg);
    const RunResult want = control.run();
    SystemConfig restore_cfg = cfg;
    restore_cfg.ckpt.restorePath = file.path();
    System restored(restore_cfg);
    expectSameResult(restored.run(), want);
}

// ---------------------------------------------------------------- //
// Warm-start forking

TEST(CheckpointFork, ReseededReplicasDivergeFromTheDonorStream)
{
    SystemConfig cfg = SystemConfig::ring("2:4", 64);
    cfg.sim = shortSim();
    cfg.workload.outstandingT = 4;

    TempCkpt file("fork");
    SystemConfig donor_cfg = cfg;
    donor_cfg.ckpt.savePath = file.path();
    donor_cfg.ckpt.saveAt = cfg.sim.warmupCycles;
    donor_cfg.ckpt.stopAfterSave = true;
    System donor(donor_cfg);
    donor.run();

    const auto replica = [&](std::uint64_t fork_seed) {
        SystemConfig fork_cfg = cfg;
        // A forked replica's own seed differs from the donor's; the
        // seed-normalized config-key comparison must accept it.
        fork_cfg.sim.seed = fork_seed;
        fork_cfg.ckpt.restorePath = file.path();
        fork_cfg.ckpt.forkSeed = fork_seed;
        System system(fork_cfg);
        return system.run();
    };

    const RunResult a = replica(101);
    const RunResult b = replica(202);
    const RunResult a2 = replica(101);

    // Same fork seed: fully deterministic replica.
    EXPECT_EQ(a.avgLatency, a2.avgLatency);
    EXPECT_EQ(a.samples, a2.samples);
    // Different fork seeds: statistically independent replicas.
    EXPECT_NE(a.avgLatency, b.avgLatency);
    EXPECT_GT(a.samples, 0u);
    EXPECT_GT(b.samples, 0u);
}

// ---------------------------------------------------------------- //
// Refusal paths

TEST(CheckpointMismatch, ConfigKeyMismatchNamesBothKeys)
{
    SystemConfig cfg = SystemConfig::ring("2:4", 64);
    cfg.sim = shortSim();
    cfg.workload.outstandingT = 4;

    TempCkpt file("mismatch");
    SystemConfig donor_cfg = cfg;
    donor_cfg.ckpt.savePath = file.path();
    donor_cfg.ckpt.saveAt = 1000;
    donor_cfg.ckpt.stopAfterSave = true;
    System donor(donor_cfg);
    donor.run();

    SystemConfig other = SystemConfig::ring("4:4", 64);
    other.sim = shortSim();
    other.workload.outstandingT = 4;
    other.ckpt.restorePath = file.path();
    System restored(other);
    try {
        restored.run();
        FAIL() << "config mismatch must throw";
    } catch (const CheckpointError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find(configKey(cfg)), std::string::npos)
            << what;
        EXPECT_NE(what.find(configKey(other)), std::string::npos)
            << what;
    }
}

TEST(CheckpointMismatch, SeedMismatchRefusedUnlessForking)
{
    SystemConfig cfg = SystemConfig::ring("2:4", 64);
    cfg.sim = shortSim();
    cfg.workload.outstandingT = 4;

    TempCkpt file("seed_mismatch");
    SystemConfig donor_cfg = cfg;
    donor_cfg.ckpt.savePath = file.path();
    donor_cfg.ckpt.saveAt = 1000;
    donor_cfg.ckpt.stopAfterSave = true;
    System donor(donor_cfg);
    donor.run();

    SystemConfig other = cfg;
    other.sim.seed = 12345;
    other.ckpt.restorePath = file.path();
    System restored(other);
    EXPECT_THROW(restored.run(), CheckpointError);
}

TEST(CheckpointMismatch, FaultPlaneMismatchRefused)
{
    SystemConfig cfg = SystemConfig::ring("2:4", 64);
    cfg.sim = shortSim();
    cfg.workload.outstandingT = 4;

    TempCkpt file("fault_mismatch");
    SystemConfig donor_cfg = cfg;
    donor_cfg.ckpt.savePath = file.path();
    donor_cfg.ckpt.saveAt = 1000;
    donor_cfg.ckpt.stopAfterSave = true;
    System donor(donor_cfg);
    donor.run();

    // A faulted config's key differs (the plan is part of identity),
    // so the key check already refuses; this asserts the refusal is a
    // CheckpointError, not a restore of mismatched depth counters.
    SystemConfig faulted = cfg;
    faulted.faultPlan.events = {faultSpec("ring.nic1:down@900..1400")};
    faulted.ckpt.restorePath = file.path();
    System restored(faulted);
    EXPECT_THROW(restored.run(), CheckpointError);
}

TEST(CheckpointMismatch, SlottedRingRefusesCheckpointing)
{
    SystemConfig cfg = SystemConfig::ring("2:4", 64);
    cfg.ringSlotted = true;
    cfg.sim = shortSim();
    TempCkpt file("slotted");
    System system(cfg);
    EXPECT_THROW(system.saveCheckpoint(file.path()),
                 CheckpointError);
}

TEST(CheckpointMismatch, CorruptFileRefused)
{
    SystemConfig cfg = SystemConfig::ring("2:4", 64);
    cfg.sim = shortSim();
    cfg.workload.outstandingT = 4;

    TempCkpt file("corrupt");
    SystemConfig donor_cfg = cfg;
    donor_cfg.ckpt.savePath = file.path();
    donor_cfg.ckpt.saveAt = 1000;
    donor_cfg.ckpt.stopAfterSave = true;
    System donor(donor_cfg);
    donor.run();

    // Flip one payload byte: the FNV hash must catch it.
    {
        std::FILE *f = std::fopen(file.path().c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, -64, SEEK_END), 0);
        const int byte = std::fgetc(f);
        ASSERT_NE(byte, EOF);
        ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
        std::fputc(byte ^ 0xff, f);
        std::fclose(f);
    }
    SystemConfig restore_cfg = cfg;
    restore_cfg.ckpt.restorePath = file.path();
    System restored(restore_cfg);
    EXPECT_THROW(restored.run(), CheckpointError);
}

TEST(CheckpointMismatch, OlderSchemaVersionRefusedNamingBoth)
{
    SystemConfig cfg = SystemConfig::ring("2:4", 64);
    cfg.sim = shortSim();
    cfg.workload.outstandingT = 4;

    TempCkpt file("old_schema");
    SystemConfig donor_cfg = cfg;
    donor_cfg.ckpt.savePath = file.path();
    donor_cfg.ckpt.saveAt = 1000;
    donor_cfg.ckpt.stopAfterSave = true;
    System donor(donor_cfg);
    donor.run();

    // Rewrite the little-endian u32 version that follows the 8-byte
    // magic to the layout before this build's (2, the last schema
    // whose header carried the tick-plane flags). The header is not
    // covered by the payload hash, so only the version gate (which
    // runs before the hash check) can refuse the file.
    ASSERT_EQ(ckptSchemaVersion, 3u);
    {
        std::FILE *f = std::fopen(file.path().c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, 8, SEEK_SET), 0);
        const unsigned char old_version[4] = {2, 0, 0, 0};
        ASSERT_EQ(std::fwrite(old_version, 1, 4, f), 4u);
        std::fclose(f);
    }
    SystemConfig restore_cfg = cfg;
    restore_cfg.ckpt.restorePath = file.path();
    System restored(restore_cfg);
    try {
        restored.run();
        FAIL() << "an older schema version must throw";
    } catch (const CheckpointError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("schema version 2 "), std::string::npos)
            << what;
        EXPECT_NE(what.find("version 3"), std::string::npos) << what;
    }
}

// ---------------------------------------------------------------- //
// Crash-safe sweep journaling and warm-start forking

/** Unique temp directory, recursively removed by the owning test. */
class TempJournal
{
  public:
    explicit TempJournal(const std::string &stem)
        : path_(testing::TempDir() + "hrsim_" + stem + "_" +
                std::to_string(::getpid()))
    {
        std::filesystem::create_directories(path_);
    }
    ~TempJournal() { std::filesystem::remove_all(path_); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

/** A small mixed sweep: enough shape variety to exercise the codec. */
std::vector<SystemConfig>
sweepPoints()
{
    std::vector<SystemConfig> points;
    SystemConfig cfg = SystemConfig::ring("8", 64);
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.02;
    points.push_back(cfg);

    cfg = SystemConfig::ring("2:4", 64);
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.01;
    points.push_back(cfg);

    cfg = SystemConfig::mesh(3, 64, 1);
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.01;
    points.push_back(cfg);

    cfg = SystemConfig::ring("4:4", 32);
    cfg.sim = shortSim();
    cfg.workload.outstandingT = 4;
    points.push_back(cfg);
    return points;
}

TEST(CheckpointSweep, ResultFileRoundTripIsExact)
{
    TempJournal dir("result_roundtrip");
    const std::string path = dir.path() + "/point_0.result";

    SystemConfig cfg = sweepPoints()[0];
    cfg.sim.metricsEvery = 500; // exercise the snapshot encoder too
    const RunResult want = runSystem(cfg);
    const std::string key = configKey(cfg);

    RunResult probe;
    EXPECT_FALSE(tryReadResultFile(path, key, probe));

    writeResultFile(path, key, want);
    RunResult got;
    ASSERT_TRUE(tryReadResultFile(path, key, got));
    expectSameResult(got, want);
}

TEST(CheckpointSweep, JournalConfigMismatchNamesBothKeys)
{
    TempJournal dir("journal_mismatch");
    const std::string path = dir.path() + "/point_0.result";

    const RunResult result = runSystem(sweepPoints()[0]);
    writeResultFile(path, "key-of-the-journal", result);

    RunResult out;
    try {
        tryReadResultFile(path, "key-of-the-run", out);
        FAIL() << "expected CheckpointError";
    } catch (const CheckpointError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("key-of-the-journal"), std::string::npos)
            << what;
        EXPECT_NE(what.find("key-of-the-run"), std::string::npos)
            << what;
    }
}

TEST(CheckpointSweep, JournaledSweepMatchesPlainSweep)
{
    const std::vector<SystemConfig> points = sweepPoints();
    const std::vector<RunResult> want = runSweep(points, 1);

    TempJournal dir("journaled_sweep");
    SweepOptions opts;
    opts.jobs = 1;
    opts.journalDir = dir.path();
    opts.checkpointEvery = 700;
    SweepRunner runner(opts);
    const std::vector<RunResult> got = runner.run(points);

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectSameResult(got[i], want[i]);
        EXPECT_TRUE(std::filesystem::exists(
            dir.path() + "/point_" + std::to_string(i) +
            ".result"));
    }
}

TEST(CheckpointSweep, ResumedSweepReproducesArtifactsByteForByte)
{
    const std::vector<SystemConfig> points = sweepPoints();
    const std::vector<RunResult> want = runSweep(points, 1);

    // Reference: the uninterrupted journaled sweep.
    TempJournal ref("sweep_ref");
    SweepOptions opts;
    opts.jobs = 1;
    opts.journalDir = ref.path();
    opts.checkpointEvery = 700;
    {
        SweepRunner runner(opts);
        runner.run(points);
    }

    // Simulate a sweep killed mid-flight: point 0 completed (its
    // .result landed), point 1 was in progress with its last
    // periodic checkpoint at cycle 1400, points 2 and 3 never
    // started.
    TempJournal killed("sweep_killed");
    writeBytes(killed.path() + "/point_0.result",
               readBytes(ref.path() + "/point_0.result"));
    {
        SystemConfig in_flight = points[1];
        in_flight.ckpt.savePath = killed.path() + "/point_1.ckpt";
        in_flight.ckpt.saveEvery = 700;
        in_flight.ckpt.saveAt = 1400;
        in_flight.ckpt.stopAfterSave = true;
        runSystem(in_flight);
        EXPECT_EQ(
            peekCheckpointHeader(killed.path() + "/point_1.ckpt")
                .cycle,
            1400u);
    }

    opts.journalDir = killed.path();
    opts.resume = true;
    SweepRunner resumed(opts);
    const std::vector<RunResult> got = resumed.run(points);

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectSameResult(got[i], want[i]);
        const std::string name =
            "/point_" + std::to_string(i) + ".result";
        EXPECT_EQ(readBytes(killed.path() + name),
                  readBytes(ref.path() + name));
        // Scratch checkpoints are removed once a result lands, so
        // both directories hold exactly the journaled results.
        const std::string ckpt =
            "/point_" + std::to_string(i) + ".ckpt";
        EXPECT_FALSE(std::filesystem::exists(killed.path() + ckpt));
        EXPECT_FALSE(std::filesystem::exists(ref.path() + ckpt));
    }
}

TEST(CheckpointSweep, JournaledSweepUnderJobs4MatchesSerial)
{
    const std::vector<SystemConfig> points = sweepPoints();
    const std::vector<RunResult> want = runSweep(points, 1);

    TempJournal serial("sweep_serial");
    TempJournal parallel("sweep_jobs4");
    SweepOptions opts;
    opts.jobs = 1;
    opts.journalDir = serial.path();
    opts.checkpointEvery = 700;
    {
        SweepRunner runner(opts);
        runner.run(points);
    }
    opts.jobs = 4;
    opts.journalDir = parallel.path();
    SweepRunner runner(opts);
    const std::vector<RunResult> got = runner.run(points);

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectSameResult(got[i], want[i]);
        const std::string name =
            "/point_" + std::to_string(i) + ".result";
        EXPECT_EQ(readBytes(parallel.path() + name),
                  readBytes(serial.path() + name));
    }
}

TEST(CheckpointSweep, WarmStartReplicasShareOneWarmupCheckpoint)
{
    TempJournal dir("warm_start");
    const std::string donor = dir.path() + "/warmup.ckpt";

    SystemConfig base = SystemConfig::ring("2:4", 64);
    base.sim = shortSim();
    base.workload.missRateC = 0.01;

    const std::vector<std::uint64_t> seeds = {101, 202};
    const std::vector<SystemConfig> replicas =
        warmStartReplicas(base, donor, seeds);
    ASSERT_EQ(replicas.size(), seeds.size());
    ASSERT_TRUE(std::filesystem::exists(donor));
    EXPECT_EQ(peekCheckpointHeader(donor).cycle,
              base.sim.warmupCycles);

    // A second expansion must reuse the snapshot, not redo warmup.
    const std::string donor_bytes = readBytes(donor);
    warmStartReplicas(base, donor, seeds);
    EXPECT_EQ(readBytes(donor), donor_bytes);

    const std::vector<RunResult> results = runSweep(replicas, 1);
    ASSERT_EQ(results.size(), 2u);
    // Different fork seeds draw different measurement streams...
    EXPECT_NE(results[0].counters.missesGenerated,
              results[1].counters.missesGenerated);
    // ...but each replica is itself deterministic.
    expectSameResult(runSystem(replicas[0]), results[0]);
    for (const RunResult &result : results)
        EXPECT_EQ(result.cycles, 3200u);
}

} // namespace
} // namespace hrsim
