/**
 * @file
 * Checkpoint/restore tests (src/ckpt/; DESIGN.md section 13).
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

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bit_identity_grid.hh"
#include "ckpt/codec.hh"
#include "ckpt/result_io.hh"
#include "ckpt/state_io.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "fault/fault_plan.hh"
#include "mesh/mesh_network.hh"
#include "obs/manifest.hh"
#include "proto/packet_factory.hh"
#include "ring/ring_network.hh"
#include "stats/batch_means.hh"
#include "workload/processor.hh"

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
// Hostile payloads: decoded counts and enums are checked before use

/** Run @a decode over @a payload; it must throw a CheckpointError
 *  whose message names @a field. */
template <typename Decode>
void
expectRefused(const CkptWriter &payload, Decode decode,
              const std::string &field)
{
    CkptReader r(payload.data());
    try {
        decode(r);
        ADD_FAILURE() << "decoding must refuse the " << field;
    } catch (const CheckpointError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find(field), std::string::npos) << what;
    }
}

/** RunResult's fixed fields up to its ring-level count. */
void
writeResultPrefix(CkptWriter &w)
{
    for (int i = 0; i < 7; ++i)
        w.u64(0);
}

TEST(CheckpointHostile, HugeCountsThrowBeforeAllocating)
{
    constexpr std::uint32_t huge = 0xFFFFFFFFu;
    const auto samples = [](CkptReader &r) {
        std::vector<MetricSample> out;
        loadMetricSamples(r, out);
    };
    const auto snapshots = [](CkptReader &r) {
        std::vector<MetricSnapshot> out;
        loadMetricSnapshots(r, out);
    };
    const auto result = [](CkptReader &r) { loadRunResult(r); };

    CkptWriter count_only;
    count_only.u32(huge);
    expectRefused(count_only, samples, "metric sample count");
    expectRefused(count_only, snapshots, "metric snapshot count");

    CkptWriter levels;
    writeResultPrefix(levels);
    levels.u32(huge);
    expectRefused(levels, result, "ring level count");

    // A sane RunResult whose nested metric list claims 2^32 - 1
    // entries.
    CkptWriter nested;
    writeResultPrefix(nested);
    nested.u32(0); // ring levels
    for (int i = 0; i < 6; ++i)
        nested.u64(0); // counters
    nested.u64(0);     // cycles
    nested.f64(0.0);   // throughput
    nested.u8(0);      // stop reason
    nested.f64(0.0);   // half width
    nested.u64(0);     // warmup cycles
    nested.u32(huge);
    expectRefused(nested, result, "metric sample count");
}

TEST(CheckpointHostile, OutOfRangeEnumsAreRefused)
{
    const auto write_sample = [](CkptWriter &w, std::uint8_t kind) {
        w.u32(1);
        w.str("m");
        w.u8(kind);
        w.f64(1.0);
        w.u64(1);
    };
    const auto samples = [](CkptReader &r) {
        std::vector<MetricSample> out;
        loadMetricSamples(r, out);
    };
    CkptWriter bad_kind;
    write_sample(bad_kind, 7);
    expectRefused(bad_kind, samples, "metric kind");

    // The last valid enumerant still decodes.
    CkptWriter gauge;
    write_sample(gauge, static_cast<std::uint8_t>(MetricKind::Gauge));
    CkptReader gauge_reader(gauge.data());
    std::vector<MetricSample> decoded;
    loadMetricSamples(gauge_reader, decoded);
    ASSERT_EQ(decoded.size(), 1u);
    EXPECT_EQ(decoded[0].kind, MetricKind::Gauge);
    EXPECT_TRUE(gauge_reader.atEnd());

    Packet pkt;
    pkt.type = PacketType::WriteResponse;
    CkptWriter packet;
    savePacket(packet, pkt);
    CkptReader packet_reader(packet.data());
    EXPECT_EQ(loadPacket(packet_reader).type, PacketType::WriteResponse);

    std::vector<std::uint8_t> bytes = packet.data();
    bytes[8] = 4; // the type byte follows the u64 packet id
    CkptWriter bad_type;
    for (const std::uint8_t b : bytes)
        bad_type.u8(b);
    expectRefused(bad_type, [](CkptReader &r) { loadPacket(r); },
                  "packet type");
}

/** One flit in the checkpoint encoding (see saveFlit). */
struct FlitRecord
{
    std::uint64_t packet = 7;
    std::uint32_t index = 0;
    std::uint32_t sizeFlits = 3;
    std::int32_t dst = 2;
    std::int32_t src = 1;
    std::uint8_t type = 0;
    std::uint64_t issueCycle = 40;
    std::uint64_t reqId = 0;
};

void
writeFlitRecord(CkptWriter &w, const FlitRecord &f)
{
    w.u64(f.packet);
    w.u32(f.index);
    w.u32(f.sizeFlits);
    w.i32(f.dst);
    w.i32(f.src);
    w.u8(f.type);
    w.u64(f.issueCycle);
    w.u64(f.reqId);
    w.u16(0);        // ttl
    w.boolean(false); // poisoned
}

TEST(CheckpointHostile, MalformedFlitsAreRefused)
{
    const auto flits = [](CkptReader &r) {
        PacketTable table;
        table.beginLoad(4);
        while (!r.atEnd())
            loadFlit(r, table);
    };
    const auto refused = [&flits](std::vector<FlitRecord> records,
                                  const std::string &field) {
        CkptWriter w;
        for (const FlitRecord &f : records)
            writeFlitRecord(w, f);
        expectRefused(w, flits, field);
    };

    FlitRecord empty;
    empty.sizeFlits = 0;
    refused({empty}, "sizeFlits 0");

    FlitRecord never_tail;
    never_tail.index = 3; // a worm this flit joins would never unbind
    refused({never_tail}, "index 3");

    // dst must be one of the restoring network's PMs (here 0..3).
    FlitRecord far;
    far.dst = 4;
    refused({far}, "dst 4");
    far.dst = -2; // broadcast: slotted rings never checkpoint
    refused({far}, "dst -2");

    FlitRecord huge;
    huge.sizeFlits = maxPacketFlits + 1;
    huge.index = maxPacketFlits;
    refused({huge}, "sizeFlits 65536");

    // Flits of one packet id must agree on the packet's metadata.
    FlitRecord head;
    FlitRecord body = head;
    body.index = 1;
    body.src = 5;
    refused({head, body}, "disagree on src");
    body = head;
    body.index = 1;
    body.issueCycle = 41;
    refused({head, body}, "disagree on issueCycle");
    body = head;
    body.index = 1;
    body.reqId = 9;
    refused({head, body}, "disagree on reqId");
    body = head;
    body.index = 1;
    body.sizeFlits = 4;
    refused({head, body}, "disagree on sizeFlits");

    // A consistent worm loads, one slot with one live flit per flit.
    CkptWriter ok;
    for (std::uint32_t i = 0; i < 3; ++i) {
        FlitRecord f;
        f.index = i;
        writeFlitRecord(ok, f);
    }
    CkptReader reader(ok.data());
    PacketTable table;
    table.beginLoad(4);
    Flit last;
    for (int i = 0; i < 3; ++i)
        last = loadFlit(reader, table);
    EXPECT_TRUE(last.isTail());
    EXPECT_EQ(table.slotOf(7), last.slot);
    EXPECT_EQ(table.liveSlots(), 1u);
    EXPECT_EQ(table.liveFlits(), 3u);
    EXPECT_EQ(table.packet(last).issueCycle, 40u);
    table.endLoad();
}

TEST(CheckpointHostile, FifoDeeperThanCapacityIsRefused)
{
    const auto snapshot = [](std::uint32_t count) {
        CkptWriter w;
        w.u32(count);
        for (std::uint32_t i = 0; i < count; ++i) {
            FlitRecord f;
            f.packet = i + 1;
            f.sizeFlits = 1;
            writeFlitRecord(w, f);
        }
        return w;
    };
    const auto load = [](CkptReader &r) {
        PacketTable table;
        table.beginLoad(4);
        StagedFifo<Flit> fifo(3);
        loadFlitFifo(r, fifo, table);
        EXPECT_EQ(fifo.size(), 3u);
    };
    CkptReader full(snapshot(3).data());
    load(full);
    EXPECT_TRUE(full.atEnd());
    expectRefused(snapshot(4), load, "deeper than the restoring queue");
}

/** Rewrite the little-endian i32 at @a offset of @a bytes. */
void
putI32(std::vector<std::uint8_t> &bytes, std::size_t offset,
       std::int32_t value)
{
    const auto v = static_cast<std::uint32_t>(value);
    for (int i = 0; i < 4; ++i)
        bytes[offset + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(v >> (8 * i));
}

/** Offsets of every occurrence of @a pattern in @a bytes. */
std::vector<std::size_t>
findAll(const std::vector<std::uint8_t> &bytes, const CkptWriter &pattern)
{
    std::vector<std::size_t> offsets;
    auto at = bytes.begin();
    while ((at = std::search(at, bytes.end(), pattern.data().begin(),
                             pattern.data().end())) != bytes.end()) {
        offsets.push_back(static_cast<std::size_t>(at - bytes.begin()));
        ++at;
    }
    return offsets;
}

/** @a bytes as a payload for expectRefused(). */
CkptWriter
payloadOf(const std::vector<std::uint8_t> &bytes)
{
    CkptWriter w;
    for (const std::uint8_t b : bytes)
        w.u8(b);
    return w;
}

/** Overwrite the u64 at @a offset. */
void
putU64(std::vector<std::uint8_t> &bytes, std::size_t offset,
       std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        bytes[offset + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(value >> (8 * i));
}

/** A packet id no other field of a small network's state spells. */
constexpr PacketId markedPacket = 0x0123456789ABCDEFull;

/**
 * Point every flit of markedPacket in the network snapshot @a bytes
 * at @a dst. Flits are encoded as u64 packet id, u32 index, u32 size,
 * then the i32 dst (see saveFlit). Returns the flits rewritten.
 */
int
redirectMarkedFlits(std::vector<std::uint8_t> &bytes, std::int32_t dst)
{
    CkptWriter id;
    id.u64(markedPacket);
    const std::vector<std::size_t> flits = findAll(bytes, id);
    for (const std::size_t at : flits)
        putI32(bytes, at + 16, dst);
    return static_cast<int>(flits.size());
}

/** A two-flit write from PM 0 to PM 3, staged and committed. */
Packet
markedWrite()
{
    Packet pkt;
    pkt.id = markedPacket;
    pkt.type = PacketType::WriteRequest;
    pkt.src = 0;
    pkt.dst = 3;
    pkt.sizeFlits = 2;
    return pkt;
}

template <typename Net>
void
expectForeignDstRefused(const typename Net::Params &params)
{
    Net net(params);
    ASSERT_TRUE(net.canInject(0, markedWrite()));
    net.inject(0, markedWrite());
    net.tick(0); // commit: a checkpoint is taken at a tick boundary
    CkptWriter saved;
    net.saveState(saved);

    std::vector<std::uint8_t> bytes = saved.data();
    ASSERT_EQ(redirectMarkedFlits(bytes, 3), 2); // unchanged
    {
        Net fresh(params);
        CkptReader r(bytes);
        fresh.loadState(r);
        EXPECT_TRUE(r.atEnd());
        EXPECT_EQ(fresh.flitsInFlight(), 2u);
    }
    ASSERT_EQ(redirectMarkedFlits(bytes, net.numProcessors()), 2);
    expectRefused(
        payloadOf(bytes),
        [&params](CkptReader &r) {
            Net fresh(params);
            fresh.loadState(r);
        },
        "dst " + std::to_string(net.numProcessors()) +
            " is not a PM of the restoring network");
}

TEST(CheckpointHostile, RingFlitWithForeignDstIsRefused)
{
    RingNetwork::Params params;
    params.topo = RingTopology::parse("4");
    expectForeignDstRefused<RingNetwork>(params);
}

TEST(CheckpointHostile, IriBodyFlitWithoutItsRouteMemoIsRefused)
{
    // A 5-flit write climbing out of the first sub-ring: six ticks
    // in, its head has been diverted into IRI 0's up queue and a body
    // flit sits in the IRI's lower latch, following the head's route.
    RingNetwork::Params params;
    params.topo = RingTopology::parse("2:4");
    params.cacheLineBytes = 64;
    RingNetwork net(params);
    Packet pkt = markedWrite();
    pkt.dst = 5;
    pkt.sizeFlits = 5;
    ASSERT_TRUE(net.canInject(0, pkt));
    net.inject(0, pkt);
    for (Cycle now = 0; now < 6; ++now)
        net.tick(now);
    std::ostringstream dump;
    net.debugDump(dump);
    const std::string latch =
        "lo[latch=" + std::to_string(markedPacket) + ":";
    const std::size_t at = dump.str().find(latch);
    ASSERT_NE(at, std::string::npos) << dump.str();
    EXPECT_NE(dump.str()[at + latch.size()], '0') << dump.str();

    CkptWriter saved;
    net.saveState(saved);
    // The lower memo opens IRI 0's record: the u64 packet id, then
    // the valid byte and the route (ChangeRing).
    CkptWriter memo;
    memo.u64(markedPacket);
    memo.boolean(true);
    memo.u8(static_cast<std::uint8_t>(WormRoute::ChangeRing));
    std::vector<std::uint8_t> bytes = saved.data();
    const std::vector<std::size_t> found = findAll(bytes, memo);
    ASSERT_EQ(found.size(), 1u);
    {
        RingNetwork fresh(params);
        CkptReader r(bytes);
        fresh.loadState(r);
        EXPECT_TRUE(r.atEnd());
    }
    bytes[found[0] + 8] = 0; // clear the memo's valid byte
    expectRefused(
        payloadOf(bytes),
        [&params](CkptReader &r) {
            RingNetwork fresh(params);
            fresh.loadState(r);
        },
        "IRI lower route memo does not name the body flit");
}

TEST(CheckpointHostile, RingWormShapeIsChecked)
{
    // A 5-flit write from PM 0 to PM 5 on a 2:4 ring (64 B). Between
    // ticks 3 and 8 its worm streams through ring transit sources;
    // each output holding it is saved as [inWorm=1][RingTransit]
    // [packet id] (RingOutput::saveState), with the worm's next flit
    // at the front of its transit source.
    RingNetwork::Params params;
    params.topo = RingTopology::parse("2:4");
    params.cacheLineBytes = 64;
    Packet first = markedWrite();
    first.dst = 5;
    first.sizeFlits = 5;
    // A second write, PM 4 to PM 3, is still in flight at tick 6.
    Packet second = first;
    second.id = markedPacket + 1;
    second.src = 4;
    second.dst = 3;
    const auto snapshot = [&](Cycle ticks, bool with_second) {
        RingNetwork net(params);
        net.inject(0, first);
        if (with_second)
            net.inject(4, second);
        for (Cycle now = 0; now < ticks; ++now)
            net.tick(now);
        CkptWriter saved;
        net.saveState(saved);
        return saved.data();
    };
    const auto load = [&params](CkptReader &r) {
        RingNetwork fresh(params);
        fresh.loadState(r);
    };
    CkptWriter held;
    held.boolean(true);
    held.u8(static_cast<std::uint8_t>(RingSource::RingTransit));
    held.u64(markedPacket);

    // Drop the worm: its body flit fronts a source no worm holds,
    // which the next tick would assert on.
    int mutants = 0;
    for (Cycle ticks = 3; ticks <= 8; ++ticks) {
        SCOPED_TRACE("ticks " + std::to_string(ticks));
        const std::vector<std::uint8_t> saved = snapshot(ticks, false);
        {
            CkptReader r(saved);
            load(r);
            EXPECT_TRUE(r.atEnd());
        }
        for (const std::size_t at : findAll(saved, held)) {
            std::vector<std::uint8_t> bytes = saved;
            bytes[at] = 0;
            bytes[at + 1] = 0;
            expectRefused(payloadOf(bytes), load,
                          "is a body flit no worm holds");
            ++mutants;
        }
    }
    EXPECT_EQ(mutants, 12);

    // Hand each link the first worm holds to the second packet.
    const std::vector<std::uint8_t> saved = snapshot(6, true);
    const std::vector<std::size_t> holders = findAll(saved, held);
    ASSERT_EQ(holders.size(), 3u);
    for (const std::size_t at : holders) {
        std::vector<std::uint8_t> bytes = saved;
        putU64(bytes, at + 2, second.id);
        expectRefused(payloadOf(bytes), load,
                      "is not the worm holding the link (packet " +
                          std::to_string(second.id) + ")");
    }
}

TEST(CheckpointHostile, MeshFlitWithForeignDstIsRefused)
{
    expectForeignDstRefused<MeshNetwork>(MeshNetwork::Params{2, 32, 4});
}

TEST(CheckpointHostile, MeshPortStateIsRangeChecked)
{
    // An idle 2x2 mesh: router 0 sits at (0, 0), so its east and
    // south links are wired and its west and north ones are not.
    const MeshNetwork::Params params{2, 32, 4};
    CkptWriter saved;
    MeshNetwork(params).saveState(saved);

    // Router 0's fields (MeshRouter::saveState): after the network's
    // u32 satTicks come six empty FIFOs (a u32 count each), the u8
    // localSrc, five i32 inputBound entries, then per output an i32
    // owner, a u64 worm id and an i32 rrPtr, then the u8 boundMask
    // and u8 ownedMask.
    constexpr std::size_t localSrc = 4 + 6 * 4;
    constexpr std::size_t inputBound = localSrc + 1;
    constexpr std::size_t outputs = inputBound + 5 * 4;
    const auto owner = [](std::size_t out) { return outputs + 16 * out; };
    const auto rr = [](std::size_t out) {
        return outputs + 16 * out + 12;
    };
    constexpr std::size_t boundMask = outputs + 5 * 16;
    constexpr std::size_t ownedMask = boundMask + 1;
    ASSERT_EQ(saved.data()[localSrc], 0);
    for (std::size_t p = 0; p < NumMeshPorts; ++p) {
        ASSERT_EQ(saved.data()[inputBound + 4 * p], 0xFF);
        ASSERT_EQ(saved.data()[owner(p)], 0xFF);
    }
    ASSERT_EQ(saved.data()[boundMask], 0);
    ASSERT_EQ(saved.data()[ownedMask], 0);

    const auto load = [&params](CkptReader &r) {
        MeshNetwork fresh(params);
        fresh.loadState(r);
    };
    const auto refused =
        [&](const std::function<void(std::vector<std::uint8_t> &)> &edit,
            const std::string &field) {
            std::vector<std::uint8_t> bytes = saved.data();
            edit(bytes);
            expectRefused(payloadOf(bytes), load, field);
        };
    // A worm from the east input (0) bound to the south output (2).
    const auto bind_east_to = [&](std::vector<std::uint8_t> &b,
                                  std::size_t out) {
        putI32(b, inputBound + 0, static_cast<std::int32_t>(out));
        putI32(b, owner(out), PortEast);
        b[boundMask] = 1u << PortEast;
        b[ownedMask] = static_cast<std::uint8_t>(1u << out);
    };

    refused([&](auto &b) { putI32(b, owner(0), 9); },
            "output 0 owner 9 outside [-1, 4]");
    refused([&](auto &b) { putI32(b, owner(4), -2); },
            "output 4 owner -2 outside [-1, 4]");
    refused([&](auto &b) { putI32(b, rr(2), -1); },
            "output 2 rrPtr -1 outside [0, 4]");
    refused([&](auto &b) { putI32(b, rr(1), NumMeshPorts); },
            "output 1 rrPtr 5 outside [0, 4]");
    refused([&](auto &b) { putI32(b, inputBound + 4 * 3, 5); },
            "inputBound[3] 5 outside [-1, 4]");
    refused([&](auto &b) { b[ownedMask] = 1u << 5; },
            "ownedMask 32 disagrees");
    refused([&](auto &b) { b[boundMask] = 1; }, "boundMask 1 disagrees");
    refused([&](auto &b) { b[localSrc] = 1; }, "localSrc disagrees");
    refused(
        [&](auto &b) {
            bind_east_to(b, 2);
            putI32(b, inputBound + 0, -1);
        },
        "output 2 owner is input 0, whose inputBound disagrees");
    refused(
        [&](auto &b) {
            bind_east_to(b, 2);
            putI32(b, owner(2), -1);
        },
        "inputBound[0] names output 2, whose owner disagrees");
    refused(
        [&](auto &b) {
            bind_east_to(b, 2);
            b[ownedMask] = 1u << 3;
        },
        "ownedMask 8 disagrees");
    refused([&](auto &b) { bind_east_to(b, 1); },
            "owner binds unwired output 1");
    refused(
        [&](auto &b) {
            putI32(b, inputBound + 4 * PortNorth, PortSouth);
            putI32(b, owner(PortSouth), PortNorth);
            b[boundMask] = 1u << PortNorth;
            b[ownedMask] = 1u << PortSouth;
        },
        "output 2 owner is unwired input 3");
    // A consistent binding gets past the port checks: the worm it
    // names has no flit in flight, which bindLoadedWorms() refuses.
    refused([&](auto &b) { bind_east_to(b, 2); }, "with no flit in flight");
}

TEST(CheckpointHostile, MeshWormShapeIsChecked)
{
    // A 3x3 mesh (64 B) and two 5-flit writes from PM 0 to PM 8,
    // both in router 0's request queue. After one tick nothing has
    // crossed yet; after two, router 0's local input is bound to its
    // east output, with the first worm's flit 1 at the request
    // queue's front and the second worm's flit 1 behind it.
    const MeshNetwork::Params params{3, 64, 4};
    Packet first = markedWrite();
    first.dst = 8;
    first.sizeFlits = 5;
    Packet second = first;
    second.id = markedPacket + 1;
    const auto snapshot = [&params, &first, &second](Cycle ticks) {
        MeshNetwork net(params);
        net.inject(0, first);
        net.inject(0, second);
        for (Cycle now = 0; now < ticks; ++now)
            net.tick(now);
        CkptWriter saved;
        net.saveState(saved);
        return saved.data();
    };
    const auto load = [&params](CkptReader &r) {
        MeshNetwork fresh(params);
        fresh.loadState(r);
    };
    // Flits are encoded as u64 packet id, u32 index, u32 size.
    const auto flit = [](PacketId id, std::uint32_t index) {
        CkptWriter w;
        w.u64(id);
        w.u32(index);
        w.u32(5);
        return w;
    };

    // The unbound queue's head becomes flit 1, which the next tick
    // would route.
    std::vector<std::uint8_t> saved = snapshot(1);
    {
        CkptReader r(saved);
        load(r);
        EXPECT_TRUE(r.atEnd());
    }
    const std::vector<std::size_t> head = findAll(saved, flit(first.id, 0));
    ASSERT_EQ(head.size(), 1u);
    std::vector<std::uint8_t> bytes = saved;
    putI32(bytes, head[0] + 8, 1);
    expectRefused(payloadOf(bytes), load,
                  "mesh router 0 request queue front of packet " +
                      std::to_string(first.id) +
                      " is a body flit no worm holds");

    // Swap the two packets' flit 1: the bound request queue's front
    // now belongs to a worm its output does not hold.
    saved = snapshot(2);
    {
        CkptReader r(saved);
        load(r);
        EXPECT_TRUE(r.atEnd());
    }
    const std::vector<std::size_t> a = findAll(saved, flit(first.id, 1));
    const std::vector<std::size_t> b = findAll(saved, flit(second.id, 1));
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    bytes = saved;
    putU64(bytes, a[0], second.id);
    putU64(bytes, b[0], first.id);
    expectRefused(payloadOf(bytes), load,
                  "mesh router 0 request queue front of packet " +
                      std::to_string(second.id) +
                      " is not the worm output 0 holds");
}

TEST(CheckpointHostile, ProcessorTargetsAreRangeChecked)
{
    // PM 0 of a 4-PM ring, T = 1, a miss every cycle and the network
    // never ticked: the first miss goes out as a remote transaction,
    // the second stalls on the outstanding limit.
    RingNetwork::Params params;
    params.topo = RingTopology::parse("4");
    RingNetwork net(params);
    PacketFactory factory(ChannelSpec::ring(), 32);
    BatchMeans latency(0, 1000, 4);
    WorkloadCounters counters;
    WorkloadConfig cfg;
    cfg.missRateC = 1.0;
    cfg.outstandingT = 1;
    RetryPolicy policy;
    RetryCounters retry_counters;
    const auto make = [&]() {
        auto proc = std::make_unique<Processor>(
            0, std::vector<NodeId>{0, 1, 2, 3}, cfg, factory, net,
            latency, counters, 5);
        proc->setRetryPolicy(&policy, &retry_counters);
        return proc;
    };

    CkptWriter idle;
    make()->saveState(idle); // unstalled: target is invalidNode
    CkptReader idle_reader(idle.data());
    make()->loadState(idle_reader);
    EXPECT_TRUE(idle_reader.atEnd());

    auto proc = make();
    proc->tick(0);
    proc->tick(1);
    ASSERT_TRUE(proc->blocked());
    ASSERT_EQ(proc->pendingRetries(), 1u);
    CkptWriter saved;
    proc->saveState(saved);

    // Processor::saveState: the RNG, i32 outstanding, the stalled
    // flag, the stalled miss's i32 target, ...; the one remote
    // transaction (i32 target, isRead, u32 retries, u64 issue and
    // deadline, one u64 id behind a u32 count) closes the record.
    CkptWriter rng;
    saveRng(rng, Rng(0, 0));
    const std::size_t outstanding = rng.data().size();
    const std::size_t stalled_target = outstanding + 4 + 1;
    const std::size_t txn_target = saved.data().size() - 37;
    const auto load = [&make](CkptReader &r) { make()->loadState(r); };
    const auto refused = [&](std::size_t offset, std::int32_t value,
                             const std::string &field) {
        std::vector<std::uint8_t> bytes = saved.data();
        putI32(bytes, offset, value);
        expectRefused(payloadOf(bytes), load, field);
    };
    refused(outstanding, -1, "outstanding -1 outside [0, 1]");
    refused(outstanding, 2, "outstanding 2 outside [0, 1]");
    refused(stalled_target, 4, "stalled miss target 4 outside [0, 3]");
    refused(stalled_target, invalidNode,
            "stalled miss target -1 outside [0, 3]");
    refused(txn_target, 4, "remote transaction target 4 outside [0, 3]");
    refused(txn_target, -7,
            "remote transaction target -7 outside [0, 3]");

    CkptReader r(saved.data());
    make()->loadState(r);
    EXPECT_TRUE(r.atEnd());
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
