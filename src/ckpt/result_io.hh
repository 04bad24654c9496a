/**
 * @file
 * RunResult serialization for crash-safe sweep journals.
 *
 * A journaled sweep (SweepOptions::journalDir) persists every
 * completed point's RunResult to its own file so a killed sweep can
 * be resumed without recomputing finished points. The container
 * mirrors the checkpoint one — magic, schema version, the producing
 * point's config key, an FNV-1a payload hash, temporary-file +
 * rename atomicity — and the payload uses the same explicit
 * little-endian codec, so f64 fields (latencies, utilizations)
 * round-trip bit-exactly and a resumed sweep's artifacts are
 * byte-identical to an uninterrupted run's.
 *
 * The metric sample/snapshot encoders live here because both the
 * result payload and the System checkpoint payload carry them; they
 * must stay byte-compatible with ckptSchemaVersion.
 */

#ifndef HRSIM_CKPT_RESULT_IO_HH
#define HRSIM_CKPT_RESULT_IO_HH

#include <string>

#include "ckpt/codec.hh"
#include "core/system.hh"

namespace hrsim
{

/** A sorted registry materialization (count + samples). */
template <class Io, class Samples>
void
ckptMetricSamples(Io &io, Samples &samples)
{
    // name length + kind + value + count
    io.seq(samples, "metric sample", 4 + 1 + 8 + 8,
           [](auto &io_, auto &sample) {
               io_.str(sample.name);
               io_.enumerant(sample.kind, "metric kind",
                             MetricKind::Gauge);
               io_.f64(sample.value);
               io_.u64(sample.count);
           });
}

/** Mid-run snapshots (count + {cycle, samples}). */
template <class Io, class Snapshots>
void
ckptMetricSnapshots(Io &io, Snapshots &snapshots)
{
    // cycle + sample count
    io.seq(snapshots, "metric snapshot", 8 + 4,
           [](auto &io_, auto &snap) {
               io_.u64(snap.cycle);
               ckptMetricSamples(io_, snap.metrics);
           });
}

/** Encode every RunResult field in a fixed documented order. */
void saveRunResult(CkptWriter &w, const RunResult &result);
RunResult loadRunResult(CkptReader &r);

/**
 * Atomically persist @a result to @a path, stamped with the
 * producing point's @a configKey. Throws CheckpointError on I/O
 * failure.
 */
void writeResultFile(const std::string &path,
                     const std::string &configKey,
                     const RunResult &result);

/**
 * Probe a journaled result. Returns false when @a path does not
 * exist (the point has not completed); throws CheckpointError when
 * the file is corrupt or was produced by a different config — the
 * message names both keys, because silently recomputing would mask a
 * resumed sweep whose point list changed underneath the journal.
 */
bool tryReadResultFile(const std::string &path,
                       const std::string &configKey, RunResult &out);

} // namespace hrsim

#endif // HRSIM_CKPT_RESULT_IO_HH
