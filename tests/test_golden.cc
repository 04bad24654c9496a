/**
 * @file
 * Golden digest corpus (tests/golden/digests.txt): one line per
 * config of the shared bit-identity grid, carrying an FNV-1a digest
 * of the complete RunResult — every scalar field, the counters, every
 * metric sample and every mid-run snapshot — and one of the flit
 * trace. The digests were recorded while several independent tick
 * engines still agreed bit for bit, so they stand in for those
 * engines as the oracle: any change to what a run computes or traces
 * shows up here as a named config.
 *
 * A second corpus (tests/golden/ckpt_digests.txt) pins the
 * checkpoint bytes: for every config the wormhole ring or the mesh
 * can checkpoint, an FNV-1a digest of the checkpoint file saved at a
 * fixed mid-run cycle and one of the saveRunResult() bytes of the
 * run's result. Together they fix the byte layout of every
 * checkpointed component and of the sweep journal's result files.
 *
 * A corpus change is a deliberate act (DESIGN.md section 7): rewrite
 * both files with scripts/regen_golden.sh, which reruns this suite
 * with HRSIM_GOLDEN_OUT and HRSIM_GOLDEN_CKPT_OUT set, and say why in
 * CHANGES.md.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bit_identity_grid.hh"
#include "ckpt/codec.hh"
#include "ckpt/result_io.hh"
#include "core/system.hh"
#include "obs/flit_trace.hh"
#include "obs/manifest.hh"

#ifndef HRSIM_GOLDEN_FILE
#error "HRSIM_GOLDEN_FILE must name tests/golden/digests.txt"
#endif
#ifndef HRSIM_GOLDEN_CKPT_FILE
#error "HRSIM_GOLDEN_CKPT_FILE must name tests/golden/ckpt_digests.txt"
#endif

namespace hrsim
{
namespace
{

/** Canonical text rendering of a RunResult; doubles by bit pattern. */
class Canon
{
  public:
    void
    add(const char *field, std::uint64_t value)
    {
        text_ += field;
        text_ += '=';
        text_ += std::to_string(value);
        text_ += '\n';
    }

    void
    addDouble(const char *field, double value)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof(bits));
        add(field, bits);
    }

    void
    addSamples(const std::vector<MetricSample> &samples)
    {
        add("metrics", samples.size());
        for (const MetricSample &sample : samples) {
            text_ += sample.name;
            text_ += '\n';
            add("kind", static_cast<std::uint64_t>(sample.kind));
            addDouble("value", sample.value);
            add("count", sample.count);
        }
    }

    const std::string &text() const { return text_; }

  private:
    std::string text_;
};

std::uint64_t
resultDigest(const RunResult &result)
{
    Canon c;
    c.addDouble("avgLatency", result.avgLatency);
    c.addDouble("latencyCI95", result.latencyCI95);
    c.add("samples", result.samples);
    c.addDouble("latencyP50", result.latencyP50);
    c.addDouble("latencyP95", result.latencyP95);
    c.addDouble("latencyP99", result.latencyP99);
    c.addDouble("networkUtilization", result.networkUtilization);
    c.add("ringLevels", result.ringLevelUtilization.size());
    for (const double util : result.ringLevelUtilization)
        c.addDouble("ringLevelUtilization", util);
    c.add("missesGenerated", result.counters.missesGenerated);
    c.add("remoteIssued", result.counters.remoteIssued);
    c.add("remoteCompleted", result.counters.remoteCompleted);
    c.add("localIssued", result.counters.localIssued);
    c.add("localCompleted", result.counters.localCompleted);
    c.add("blockedCycles", result.counters.blockedCycles);
    c.add("cycles", result.cycles);
    c.addDouble("throughputPerPm", result.throughputPerPm);
    c.add("stopReason", static_cast<std::uint64_t>(result.stopReason));
    c.addDouble("relHalfWidth", result.relHalfWidth);
    c.add("warmupCycles", result.warmupCycles);
    c.addSamples(result.metrics);
    c.add("snapshots", result.snapshots.size());
    for (const MetricSnapshot &snapshot : result.snapshots) {
        c.add("snapshotCycle", snapshot.cycle);
        c.addSamples(snapshot.metrics);
    }
    return fnv1a64(c.text());
}

std::string
hex(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
    return buf;
}

/** One corpus line: name, result digest, trace digest. */
struct GoldenEntry
{
    std::string name;
    std::string result;
    std::string trace;
};

/** The corpus configs, in file order. */
testgrid::NamedConfigs
goldenGrid()
{
    testgrid::NamedConfigs grid = testgrid::bitIdentityGrid();
    for (auto &entry : testgrid::faultAndBufferGrid())
        grid.push_back(std::move(entry));
    grid.emplace_back("ring 2:4 trace replay",
                      testgrid::traceReplayConfig());
    for (auto &entry : testgrid::modelCornerGrid())
        grid.push_back(std::move(entry));
    return grid;
}

GoldenEntry
runEntry(const std::string &name, const SystemConfig &cfg)
{
    std::ostringstream events;
    FlitTracer tracer(events);
    System system(cfg);
    if (FlitTracer::compiledIn())
        system.setTracer(&tracer);
    const RunResult result = system.run();
    GoldenEntry entry{name, hex(resultDigest(result)), "-"};
    if (FlitTracer::compiledIn())
        entry.trace = hex(fnv1a64(events.str()));
    return entry;
}

constexpr const char *kSeparator = " | ";

/** Parse "<name> | <result> | <trace>" lines; '#' lines are comments. */
std::vector<GoldenEntry>
readCorpus(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::vector<GoldenEntry> entries;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t first = line.find(kSeparator);
        const std::size_t second =
            first == std::string::npos
                ? std::string::npos
                : line.find(kSeparator, first + 1);
        if (second == std::string::npos) {
            ADD_FAILURE() << "malformed corpus line: " << line;
            continue;
        }
        const std::size_t sep = std::strlen(kSeparator);
        entries.push_back({line.substr(0, first),
                           line.substr(first + sep, second - first - sep),
                           line.substr(second + sep)});
    }
    return entries;
}

void
writeCorpus(const std::string &path, const std::string &columns,
            const std::vector<GoldenEntry> &entries)
{
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << "# Golden digests: <config> | " << columns << "\n"
        << "# Written by scripts/regen_golden.sh; any change needs a "
           "CHANGES.md line (DESIGN.md section 7).\n";
    for (const GoldenEntry &entry : entries) {
        out << entry.name << kSeparator << entry.result << kSeparator
            << entry.trace << '\n';
    }
}

/**
 * Compare @a got with the corpus at @a path, or rewrite the corpus
 * when the environment variable @a out_env names a file. The second
 * column is always compared; the third only when @a third is set.
 */
void
checkCorpus(const std::vector<GoldenEntry> &got, const char *path,
            const char *out_env, const std::string &columns,
            const char *second, const char *third)
{
    if (const char *out = std::getenv(out_env)) {
        ASSERT_TRUE(FlitTracer::compiledIn())
            << "regenerate from a build with HRSIM_TRACE_FLITS=ON so "
               "the trace digests are recorded too";
        writeCorpus(out, columns, got);
        return;
    }

    const std::vector<GoldenEntry> want = readCorpus(path);
    ASSERT_EQ(got.size(), want.size())
        << "the grid and the corpus list different configs; "
           "regenerate with scripts/regen_golden.sh";
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(got[i].name);
        EXPECT_EQ(got[i].name, want[i].name);
        EXPECT_EQ(got[i].result, want[i].result) << second;
        if (third != nullptr) {
            EXPECT_EQ(got[i].trace, want[i].trace) << third;
        }
    }
}

TEST(Golden, DigestsMatchCorpus)
{
    std::vector<GoldenEntry> got;
    for (const auto &[name, cfg] : goldenGrid())
        got.push_back(runEntry(name, cfg));
    // A build without the trace hooks records no events; its trace
    // digest is not comparable.
    checkCorpus(got, HRSIM_GOLDEN_FILE, "HRSIM_GOLDEN_OUT",
                "<FNV-1a of the RunResult> | <FNV-1a of the flit trace>",
                "RunResult digest",
                FlitTracer::compiledIn() ? "flit trace digest" : nullptr);
}

/** The mid-run cycle every pinned checkpoint is saved at: past the
 *  warmup and inside every fault window of the faulted lines. */
constexpr Cycle kPinnedSaveCycle = 1200;

TEST(Golden, CheckpointDigestsMatchCorpus)
{
    const std::string path = testing::TempDir() + "hrsim_golden_" +
                             std::to_string(::getpid()) + ".ckpt";
    std::vector<GoldenEntry> got;
    for (auto [name, cfg] : goldenGrid()) {
        if (cfg.kind == NetworkKind::HierarchicalRing && cfg.ringSlotted)
            continue; // the slotted ring does not checkpoint
        cfg.ckpt.savePath = path;
        cfg.ckpt.saveAt = kPinnedSaveCycle;
        System system(cfg);
        const RunResult result = system.run();
        std::ifstream in(path, std::ios::binary);
        const std::string file((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
        std::remove(path.c_str());
        ASSERT_FALSE(file.empty()) << name << ": no checkpoint written";
        CkptWriter bytes;
        saveRunResult(bytes, result);
        got.push_back(
            {name, hex(fnv1a64(file)),
             hex(ckptFnv1a(bytes.data().data(), bytes.size()))});
    }
    checkCorpus(got, HRSIM_GOLDEN_CKPT_FILE, "HRSIM_GOLDEN_CKPT_OUT",
                "<FNV-1a of the checkpoint saved at cycle 1200> | "
                "<FNV-1a of the saveRunResult bytes>",
                "checkpoint file digest", "saveRunResult digest");
}

} // namespace
} // namespace hrsim
