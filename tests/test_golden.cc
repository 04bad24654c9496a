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
 * A corpus change is a deliberate act (DESIGN.md section 7): rewrite
 * the file with scripts/regen_golden.sh, which reruns this test with
 * HRSIM_GOLDEN_OUT set, and say why in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bit_identity_grid.hh"
#include "core/system.hh"
#include "obs/flit_trace.hh"
#include "obs/manifest.hh"

#ifndef HRSIM_GOLDEN_FILE
#error "HRSIM_GOLDEN_FILE must name tests/golden/digests.txt"
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
writeCorpus(const std::string &path,
            const std::vector<GoldenEntry> &entries)
{
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << "# Golden digests: <config> | <FNV-1a of the RunResult> | "
           "<FNV-1a of the flit trace>\n"
           "# Written by scripts/regen_golden.sh; any change needs a "
           "CHANGES.md line (DESIGN.md section 7).\n";
    for (const GoldenEntry &entry : entries) {
        out << entry.name << kSeparator << entry.result << kSeparator
            << entry.trace << '\n';
    }
}

TEST(Golden, DigestsMatchCorpus)
{
    std::vector<GoldenEntry> got;
    for (const auto &[name, cfg] : goldenGrid())
        got.push_back(runEntry(name, cfg));

    if (const char *out = std::getenv("HRSIM_GOLDEN_OUT")) {
        ASSERT_TRUE(FlitTracer::compiledIn())
            << "regenerate from a build with HRSIM_TRACE_FLITS=ON so "
               "the trace digests are recorded too";
        writeCorpus(out, got);
        return;
    }

    const std::vector<GoldenEntry> want = readCorpus(HRSIM_GOLDEN_FILE);
    ASSERT_EQ(got.size(), want.size())
        << "the grid and the corpus list different configs; "
           "regenerate with scripts/regen_golden.sh";
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(got[i].name);
        EXPECT_EQ(got[i].name, want[i].name);
        EXPECT_EQ(got[i].result, want[i].result) << "RunResult digest";
        // A build without the trace hooks records no events; its
        // trace digest is not comparable.
        if (FlitTracer::compiledIn()) {
            EXPECT_EQ(got[i].trace, want[i].trace)
                << "flit trace digest";
        }
    }
}

} // namespace
} // namespace hrsim
