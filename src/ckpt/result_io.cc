#include "ckpt/result_io.hh"

namespace hrsim
{

namespace
{

/** Eight bytes of magic: "hrsimrs" + a format byte. */
constexpr char resultMagic[8] = {'h', 'r', 's', 'i',
                                 'm', 'r', 's', '1'};

constexpr ContainerFormat resultFormat{resultMagic, "sweep journal",
                                       "result", false};

} // namespace

/** Every RunResult field in a fixed documented order. */
template <class Io, class Result>
void
ckptRunResult(Io &io, Result &result)
{
    io.f64(result.avgLatency);
    io.f64(result.latencyCI95);
    io.u64(result.samples);
    io.f64(result.latencyP50);
    io.f64(result.latencyP95);
    io.f64(result.latencyP99);
    io.f64(result.networkUtilization);
    io.seq(result.ringLevelUtilization, "ring level", 8,
           [](auto &io_, auto &util) { io_.f64(util); });
    ckptWorkloadCounters(io, result.counters);
    io.u64(result.cycles);
    io.f64(result.throughputPerPm);
    io.enumerant(result.stopReason, "stop reason", StopReason::Saturated);
    io.f64(result.relHalfWidth);
    io.u64(result.warmupCycles);
    ckptMetricSamples(io, result.metrics);
    ckptMetricSnapshots(io, result.snapshots);
}

void
saveRunResult(CkptWriter &w, const RunResult &result)
{
    ckptRunResult(w, result);
}

RunResult
loadRunResult(CkptReader &r)
{
    RunResult result;
    ckptRunResult(r, result);
    return result;
}

void
writeResultFile(const std::string &path,
                const std::string &configKey,
                const RunResult &result)
{
    CkptWriter payload;
    saveRunResult(payload, result);
    writeContainerFile(path, resultFormat,
                       {ckptSchemaVersion, configKey, 0}, payload);
}

bool
tryReadResultFile(const std::string &path,
                  const std::string &configKey, RunResult &out)
{
    CheckpointHeader header;
    std::vector<std::uint8_t> payload;
    if (!readContainerFile(path, resultFormat, header, &payload))
        return false; // the point has not completed
    if (header.configKey != configKey) {
        throw CheckpointError(
            "sweep journal: config mismatch for " + path +
            "\n  journal: " + header.configKey + "\n  run:     " +
            configKey);
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
