#include "ckpt/result_io.hh"

#include <cstdio>
#include <fstream>

namespace hrsim
{

namespace
{

/** Eight bytes of magic: "hrsimrs" + a format byte. */
constexpr char resultMagic[8] = {'h', 'r', 's', 'i',
                                 'm', 'r', 's', '1'};

} // namespace

void
saveMetricSamples(CkptWriter &w,
                  const std::vector<MetricSample> &samples)
{
    w.u32(static_cast<std::uint32_t>(samples.size()));
    for (const MetricSample &sample : samples) {
        w.str(sample.name);
        w.u8(static_cast<std::uint8_t>(sample.kind));
        w.f64(sample.value);
        w.u64(sample.count);
    }
}

void
loadMetricSamples(CkptReader &r, std::vector<MetricSample> &samples)
{
    samples.clear();
    // name length + kind + value + count
    const std::uint32_t count = r.count("metric sample", 4 + 1 + 8 + 8);
    samples.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        MetricSample sample;
        sample.name = r.str();
        sample.kind = r.enumerant("metric kind", MetricKind::Gauge);
        sample.value = r.f64();
        sample.count = r.u64();
        samples.push_back(std::move(sample));
    }
}

void
saveMetricSnapshots(CkptWriter &w,
                    const std::vector<MetricSnapshot> &snapshots)
{
    w.u32(static_cast<std::uint32_t>(snapshots.size()));
    for (const MetricSnapshot &snap : snapshots) {
        w.u64(snap.cycle);
        saveMetricSamples(w, snap.metrics);
    }
}

void
loadMetricSnapshots(CkptReader &r,
                    std::vector<MetricSnapshot> &snapshots)
{
    snapshots.clear();
    // cycle + sample count
    const std::uint32_t count = r.count("metric snapshot", 8 + 4);
    snapshots.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        MetricSnapshot snap;
        snap.cycle = r.u64();
        loadMetricSamples(r, snap.metrics);
        snapshots.push_back(std::move(snap));
    }
}

void
saveRunResult(CkptWriter &w, const RunResult &result)
{
    w.f64(result.avgLatency);
    w.f64(result.latencyCI95);
    w.u64(result.samples);
    w.f64(result.latencyP50);
    w.f64(result.latencyP95);
    w.f64(result.latencyP99);
    w.f64(result.networkUtilization);
    w.u32(static_cast<std::uint32_t>(
        result.ringLevelUtilization.size()));
    for (const double util : result.ringLevelUtilization)
        w.f64(util);
    w.u64(result.counters.missesGenerated);
    w.u64(result.counters.remoteIssued);
    w.u64(result.counters.remoteCompleted);
    w.u64(result.counters.localIssued);
    w.u64(result.counters.localCompleted);
    w.u64(result.counters.blockedCycles);
    w.u64(result.cycles);
    w.f64(result.throughputPerPm);
    w.u8(static_cast<std::uint8_t>(result.stopReason));
    w.f64(result.relHalfWidth);
    w.u64(result.warmupCycles);
    saveMetricSamples(w, result.metrics);
    saveMetricSnapshots(w, result.snapshots);
}

RunResult
loadRunResult(CkptReader &r)
{
    RunResult result;
    result.avgLatency = r.f64();
    result.latencyCI95 = r.f64();
    result.samples = r.u64();
    result.latencyP50 = r.f64();
    result.latencyP95 = r.f64();
    result.latencyP99 = r.f64();
    result.networkUtilization = r.f64();
    const std::uint32_t levels = r.count("ring level", 8);
    result.ringLevelUtilization.reserve(levels);
    for (std::uint32_t i = 0; i < levels; ++i)
        result.ringLevelUtilization.push_back(r.f64());
    result.counters.missesGenerated = r.u64();
    result.counters.remoteIssued = r.u64();
    result.counters.remoteCompleted = r.u64();
    result.counters.localIssued = r.u64();
    result.counters.localCompleted = r.u64();
    result.counters.blockedCycles = r.u64();
    result.cycles = r.u64();
    result.throughputPerPm = r.f64();
    result.stopReason =
        r.enumerant("stop reason", StopReason::Saturated);
    result.relHalfWidth = r.f64();
    result.warmupCycles = r.u64();
    loadMetricSamples(r, result.metrics);
    loadMetricSnapshots(r, result.snapshots);
    return result;
}

void
writeResultFile(const std::string &path,
                const std::string &configKey,
                const RunResult &result)
{
    CkptWriter payload;
    saveRunResult(payload, result);

    CkptWriter container;
    container.u32(ckptSchemaVersion);
    container.str(configKey);
    container.u64(payload.size());

    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            throw CheckpointError(
                "sweep journal: cannot open file for writing: " +
                tmp);
        }
        out.write(resultMagic, sizeof(resultMagic));
        out.write(reinterpret_cast<const char *>(
                      container.data().data()),
                  static_cast<std::streamsize>(container.size()));
        out.write(reinterpret_cast<const char *>(
                      payload.data().data()),
                  static_cast<std::streamsize>(payload.size()));
        CkptWriter trailer;
        trailer.u64(
            ckptFnv1a(payload.data().data(), payload.size()));
        out.write(reinterpret_cast<const char *>(
                      trailer.data().data()),
                  static_cast<std::streamsize>(trailer.size()));
        out.flush();
        if (!out) {
            std::remove(tmp.c_str());
            throw CheckpointError("sweep journal: write failed: " +
                                  tmp);
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw CheckpointError("sweep journal: cannot rename " + tmp +
                              " to " + path);
    }
}

bool
tryReadResultFile(const std::string &path,
                  const std::string &configKey, RunResult &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false; // the point has not completed
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    if (in.bad()) {
        throw CheckpointError("sweep journal: read error on file: " +
                              path);
    }

    if (bytes.size() < sizeof(resultMagic) ||
        std::memcmp(bytes.data(), resultMagic,
                    sizeof(resultMagic)) != 0) {
        throw CheckpointError(
            "sweep journal: not a hrsim result file: " + path);
    }
    bytes.erase(bytes.begin(), bytes.begin() + sizeof(resultMagic));
    CkptReader r(std::move(bytes));

    const std::uint32_t version = r.u32();
    if (version != ckptSchemaVersion) {
        throw CheckpointError(
            "sweep journal: schema version " +
            std::to_string(version) + " in " + path +
            " does not match this build's version " +
            std::to_string(ckptSchemaVersion));
    }
    const std::string stored_key = r.str();
    if (stored_key != configKey) {
        throw CheckpointError(
            "sweep journal: config mismatch for " + path +
            "\n  journal: " + stored_key + "\n  run:     " +
            configKey);
    }

    const std::uint64_t payload_size = r.u64();
    if (payload_size > r.remaining()) {
        throw CheckpointError("sweep journal: truncated payload in " +
                              path);
    }
    std::vector<std::uint8_t> payload(payload_size);
    for (std::uint64_t i = 0; i < payload_size; ++i)
        payload[i] = r.u8();

    const std::uint64_t stored_hash = r.u64();
    if (stored_hash != ckptFnv1a(payload.data(), payload.size())) {
        throw CheckpointError(
            "sweep journal: payload hash mismatch in " + path +
            " (file is corrupt or was not fully written)");
    }
    if (!r.atEnd()) {
        throw CheckpointError(
            "sweep journal: trailing bytes after payload in " +
            path);
    }

    CkptReader pr(std::move(payload));
    out = loadRunResult(pr);
    if (!pr.atEnd()) {
        throw CheckpointError(
            "sweep journal: trailing bytes after result in " + path);
    }
    return true;
}

} // namespace hrsim
