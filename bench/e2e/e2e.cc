/**
 * @file
 * hrsim_e2e: runs one workload of the end-to-end benchmark in one
 * single-threaded process (workloads and metrics: README.md).
 *
 *   hrsim_e2e --workload W [--seed N] [--seconds S] [--trace]
 *             [--smoke] [--out DIR]
 *
 * A workload is a fixed amount of simulated work (a repetition);
 * repetitions start from a fresh System with the same seed and repeat
 * while the next one still fits in --seconds (at least one runs).
 * --seconds 0 therefore runs exactly one. --smoke shortens every
 * repetition for a quick check. --trace replaces the timing run with
 * pairs of repetitions, one through System itself and one through the
 * traced driver (traced_system.hh), writes the spans to
 * DIR/trace_<workload>.jsonl and reports per-layer metrics instead.
 *
 * Prints one JSON object on stdout: the metrics, the model outputs of
 * every repetition, and what failed. bench/e2e/run.py builds this
 * binary, checks the outputs against expected.json and prints the
 * benchmark's result line.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/analysis.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "obs/json.hh"
#include "traced_system.hh"

namespace
{

using namespace hrsim;
using namespace hrsim::e2e;

/** Untimed warmup of the single-system workloads (cycles). */
constexpr Cycle warmupCycles = 20000;
/** Cycles per timed chunk of the single-system workloads. */
constexpr Cycle chunkCycles = 2000;
/**
 * System constructions timed for setup_s (single systems), and passes
 * over all sweep points. A few are taken before every repetition so
 * the samples span the run; the rest follow the last one.
 */
constexpr std::size_t setupConstructions = 101;
constexpr std::size_t setupConstructionsPerRep = 8;
constexpr std::size_t sweepSetupPasses = 5;
/** Metric-snapshot and checkpoint probes per reference repetition of
 *  a traced run (per traced sweep). */
constexpr std::uint32_t probesPerRun = 5;
/** Loop iterations per traced repetition that get per-call spans. */
constexpr std::uint64_t sampledIterations = 1000;

/**
 * One simulated system, measured in chunks. These are bench_simspeed's
 * RingLarge, MeshLarge and RingSmallLowC configs; why each was chosen
 * is in README.md: ring_sat and mesh_sat load one network kind each to
 * saturation, ring_lowc is idle often enough that fast-forward and the
 * workload layer carry much of the host time.
 */
struct SingleWorkload
{
    const char *name;
    const char *ringTopo; //!< nullptr selects the mesh
    int meshWidth;
    std::uint32_t lineBytes;
    int outstandingT;
    double localityR;
    double missRateC;
    std::uint32_t chunks;      //!< per repetition
    std::uint32_t smokeChunks; //!< per --smoke repetition
};

const SingleWorkload singleWorkloads[] = {
    {"ring_sat", "3:3:12", 0, 64, 4, 1.0, 0.04, 50, 20},
    {"mesh_sat", nullptr, 11, 64, 4, 1.0, 0.04, 20, 8},
    {"ring_lowc", "2:4", 0, 64, 4, 1.0, 0.01, 1000, 200},
};

constexpr const char *sweepWorkload = "fig14_sweep";

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::string out = ".";
};

/** Builder for one flat JSON object. */
class JsonObject
{
  public:
    JsonObject &
    raw(const std::string &key, const std::string &json)
    {
        body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + json;
        return *this;
    }

    JsonObject &
    num(const std::string &key, double value)
    {
        return raw(key, std::isfinite(value) ? jsonNumber(value) : "null");
    }

    JsonObject &
    count(const std::string &key, std::uint64_t value)
    {
        return raw(key, std::to_string(value));
    }

    JsonObject &
    flag(const std::string &key, bool value)
    {
        return raw(key, value ? "true" : "false");
    }

    std::string str() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

double
secondsSince(std::uint64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) / 1e9;
}

/**
 * Peak resident set of this program: VmHWM, which starts afresh at
 * exec. (getrusage's ru_maxrss also counts the parent process the
 * benchmark was forked from.)
 */
double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/** Run @a rep (returning its wall seconds) while another still fits
 *  in @a seconds; always at least once. */
template <class Rep>
void
repeatFor(double seconds, Rep rep)
{
    const std::uint64_t start = nowNs();
    double last = 0.0;
    do {
        last = rep();
    } while (secondsSince(start) + last <= seconds);
}

std::string
outputsJson(const ModelOutputs &out)
{
    const WorkloadCounters &c = out.counters;
    return JsonObject()
        .count("misses_generated", c.missesGenerated)
        .count("remote_issued", c.remoteIssued)
        .count("remote_completed", c.remoteCompleted)
        .count("local_issued", c.localIssued)
        .count("local_completed", c.localCompleted)
        .count("blocked_cycles", c.blockedCycles)
        .count("latency_samples", out.samples)
        .num("latency_mean", out.mean)
        .num("latency_p50", out.p50)
        .num("latency_p95", out.p95)
        .num("latency_p99", out.p99)
        .count("skipped_cycles", out.skippedCycles)
        .raw("outstanding", std::to_string(out.outstanding))
        .str();
}

/** One repetition as run.py checks it. */
struct RepRecord
{
    double wallS = 0.0;
    std::uint32_t ops = 0;
    std::uint32_t failed = 0;
    bool conserved = true;
    std::string outputs = "null";
    /** System's fast-forwarded cycles over the timed chunks. */
    std::uint64_t skipped = 0;

    std::string
    json() const
    {
        return JsonObject()
            .num("wall_s", wallS)
            .count("ops", ops)
            .count("failed", failed)
            .flag("conserved", conserved)
            .raw("outputs", outputs)
            .str();
    }
};

std::string
repsJson(const std::vector<RepRecord> &reps)
{
    std::string json = "[";
    for (std::size_t i = 0; i < reps.size(); ++i) {
        if (i != 0)
            json += ',';
        json += reps[i].json();
    }
    return json + "]";
}

void
reportFailure(const std::string &what, const std::exception &err)
{
    std::fprintf(stderr, "hrsim_e2e: %s failed: %s\n", what.c_str(),
                 err.what());
}

/** Metric-snapshot and checkpoint timings, taken between chunks. */
struct Probes
{
    std::vector<double> snapshotUs;
    std::vector<double> saveMs;
    std::vector<double> restoreMs;
    std::uint64_t bytes = 0;
    std::size_t metrics = 0;
    bool ok = true;

    /** Time snapshot(), saveCheckpoint() and restoreCheckpoint() into
     *  a fresh System; the restored copy must match @a system. */
    void
    take(System &system, const std::string &path)
    {
        std::uint64_t t0 = nowNs();
        metrics = system.metrics().snapshot().size();
        snapshotUs.push_back(static_cast<double>(nowNs() - t0) / 1e3);

        t0 = nowNs();
        system.saveCheckpoint(path);
        saveMs.push_back(static_cast<double>(nowNs() - t0) / 1e6);
        bytes = std::filesystem::file_size(path);

        System fresh(system.config());
        t0 = nowNs();
        fresh.restoreCheckpoint(path);
        restoreMs.push_back(static_cast<double>(nowNs() - t0) / 1e6);
        ok = ok && fresh.now() == system.now() &&
             outputsOf(fresh) == outputsOf(system);
        std::filesystem::remove(path);
    }

    void
    addMetrics(JsonObject &m) const
    {
        m.num("obs.snapshot_us", median(snapshotUs))
            .count("obs.metrics", metrics)
            .num("ckpt.save_ms", median(saveMs))
            .num("ckpt.restore_ms", median(restoreMs))
            .count("ckpt.bytes", bytes);
    }
};

std::string
outPath(const Options &opt, const std::string &stem,
        const std::string &ext)
{
    return (std::filesystem::path(opt.out) /
            (stem + "_" + opt.workload + ext))
        .string();
}

/** What a traced run measures besides its reference repetitions. */
struct TracedRun
{
    Tracer tracer;
    Probes probes;
    std::uint32_t ops = 0; //!< chunks or points the driver ran
    std::uint32_t failed = 0;
    bool identical = true; //!< every output equalled the reference's
    double wallNs = 0.0;   //!< summed over the driver's operations
    double hops = 0.0;
    double streamed = 0.0;
    /** Fast-forwarded and simulated cycles of the reference runs, from
     *  System's own sched.skipped_cycles. */
    double refSkipped = 0.0;
    double refCycles = 0.0;

    /**
     * Write the spans and add every per-layer metric. @a setup_ms and
     * @a ref_op_ms are the reference's construction and operation
     * times. Returns the report's "traced" object.
     */
    std::string
    finish(JsonObject &m, const Options &opt, double sim_cycles,
           double node_cycles, const std::vector<double> &setup_ms,
           const std::vector<double> &ref_op_ms)
    {
        tracer.writeJsonl(outPath(opt, "trace", ".jsonl"));
        const LayerTotals &t = tracer.totals;
        const auto ns = [&](Layer l) {
            return static_cast<double>(t.ns[static_cast<int>(l)]);
        };
        const auto calls = [&](Layer l) {
            return static_cast<double>(t.calls[static_cast<int>(l)]);
        };
        double ref_ns = 0.0;
        for (const double ms : ref_op_ms)
            ref_ns += ms * 1e6;
        m.num("net.tick_ns_per_cycle", ns(Layer::Net) / sim_cycles)
            .num("net.ns_per_flit_hop", ns(Layer::Net) / hops)
            .num("net.flit_hops_per_cycle", hops / sim_cycles)
            .num("net.streamed_per_hop", streamed / hops)
            .num("net.share", ns(Layer::Net) / wallNs)
            .num("workload.proc_tick_ns_per_cycle",
                 ns(Layer::Proc) / sim_cycles)
            .num("workload.proc_ticks_per_node_cycle",
                 calls(Layer::Proc) / node_cycles)
            .num("workload.mem_tick_ns_per_cycle",
                 ns(Layer::Mem) / sim_cycles)
            .num("workload.mem_ticks_per_node_cycle",
                 calls(Layer::Mem) / node_cycles)
            .num("workload.deliver_ns_per_cycle",
                 ns(Layer::Deliver) / sim_cycles)
            .num("workload.share",
                 (ns(Layer::Proc) + ns(Layer::Mem) + ns(Layer::Deliver)) /
                     wallNs)
            .num("sched.skipped_frac", refSkipped / refCycles)
            .num("sched.active_frac",
                 t.activeSamples == 0
                     ? 0.0
                     : t.activeFracSum /
                           static_cast<double>(t.activeSamples))
            .num("core.setup_ms.p50", median(setup_ms))
            .num("core.op_ms.p50", median(ref_op_ms))
            .num("core.op_ms.p95", quantile(ref_op_ms, 0.95))
            .count("core.ops", ref_op_ms.size());
        probes.addMetrics(m);
        m.num("trace.overhead", wallNs / ref_ns)
            .count("trace.identical", identical ? 1 : 0);
        return JsonObject()
            .count("ops", ops)
            .count("failed", failed)
            .flag("identical", identical)
            .flag("probes_ok", probes.ok)
            .count("spans", tracer.spans())
            .str();
    }
};

// ---------------------------------------------------------------------
// Single-system workloads

SystemConfig
singleConfig(const SingleWorkload &w, std::uint64_t seed,
             std::uint32_t chunks)
{
    SystemConfig cfg =
        w.ringTopo != nullptr
            ? SystemConfig::ring(w.ringTopo, w.lineBytes)
            : SystemConfig::mesh(w.meshWidth, w.lineBytes, 4);
    cfg.workload.outstandingT = w.outstandingT;
    cfg.workload.localityR = w.localityR;
    cfg.workload.missRateC = w.missRateC;
    cfg.sim.warmupCycles = warmupCycles;
    cfg.sim.batchCycles = chunkCycles;
    cfg.sim.numBatches = chunks;
    cfg.sim.seed = seed;
    return cfg;
}

/** One repetition through System::step(): untimed warmup, then
 *  @a chunks timed chunks appended to @a chunk_ms. */
RepRecord
runSingleRep(const SystemConfig &cfg, std::vector<double> &chunk_ms,
             Probes *probes, const std::string &ckpt_path)
{
    RepRecord rec;
    rec.ops = cfg.sim.numBatches;
    std::uint32_t done = 0;
    const std::uint64_t start = nowNs();
    try {
        System system(cfg);
        system.step(warmupCycles);
        system.network().utilization().startMeasurement(system.now());
        const std::uint64_t skipped0 = skippedCycles(system);
        const std::uint32_t probe_every =
            std::max<std::uint32_t>(1, rec.ops / probesPerRun);
        for (; done < rec.ops; ++done) {
            if (probes != nullptr && done % probe_every == 0)
                probes->take(system, ckpt_path);
            const std::uint64_t t0 = nowNs();
            system.step(chunkCycles);
            chunk_ms.push_back(static_cast<double>(nowNs() - t0) / 1e6);
        }
        const ModelOutputs out = outputsOf(system);
        rec.conserved = out.conserved();
        rec.outputs = outputsJson(out);
        rec.skipped = out.skippedCycles - skipped0;
    } catch (const std::exception &err) {
        reportFailure("chunk " + std::to_string(done), err);
        rec.failed = rec.ops - done;
    }
    rec.wallS = secondsSince(start);
    return rec;
}

std::string
runSingle(const Options &opt, const SingleWorkload &w, JsonObject result)
{
    const std::uint32_t chunks = opt.smoke ? w.smokeChunks : w.chunks;
    const SystemConfig cfg = singleConfig(w, opt.seed, chunks);
    const double pms = cfg.numProcessors();

    std::vector<double> setup_ms;
    // Each construction gets its own seed derived from the run's:
    // processors pre-draw their first miss at construction, so at a
    // low miss rate one seed's setup cost is far from the typical one.
    const auto time_setup = [&](std::size_t constructions) {
        for (std::size_t i = 0; i < constructions; ++i) {
            SystemConfig sample = cfg;
            sample.sim.seed =
                SweepRunner::pointSeed(cfg.sim.seed, setup_ms.size());
            const std::uint64_t t0 = nowNs();
            const auto system = std::make_unique<System>(sample);
            setup_ms.push_back(static_cast<double>(nowNs() - t0) / 1e6);
        }
    };

    JsonObject metrics;
    std::vector<RepRecord> reps;
    std::vector<double> chunk_ms;

    if (!opt.trace) {
        std::vector<double> rep_s;
        repeatFor(opt.seconds, [&] {
            time_setup(setupConstructionsPerRep);
            reps.push_back(runSingleRep(cfg, chunk_ms, nullptr, ""));
            rep_s.push_back(reps.back().wallS);
            return reps.back().wallS;
        });
        if (setup_ms.size() < setupConstructions)
            time_setup(setupConstructions - setup_ms.size());
        metrics
            .num("node_cycles_per_s",
                 static_cast<double>(chunkCycles) * pms /
                     (median(chunk_ms) / 1e3))
            .num("sweep_s", median(rep_s))
            .num("setup_s", median(setup_ms) / 1e3)
            .num("peak_rss_mb", peakRssMiB());
        return result.raw("reps", repsJson(reps))
            .raw("tail", JsonObject()
                             .num("op_ms_p50", median(chunk_ms))
                             .num("op_ms_p95", quantile(chunk_ms, 0.95))
                             .count("samples", chunk_ms.size())
                             .str())
            .raw("metrics", metrics.str())
            .str();
    }

    // Reference and traced repetitions alternate, so machine drift
    // during the run weighs on both sides of trace.overhead alike.
    time_setup(setupConstructions);
    TracedRun tr;
    repeatFor(opt.seconds, [&] {
        const std::uint64_t start = nowNs();
        reps.push_back(runSingleRep(cfg, chunk_ms, &tr.probes,
                                    outPath(opt, "ckpt", ".bin")));
        tr.refSkipped += static_cast<double>(reps.back().skipped);
        tr.refCycles += static_cast<double>(chunks) *
                        static_cast<double>(chunkCycles);
        const std::uint32_t first_op = tr.ops;
        tr.ops += chunks;
        try {
            TracedSystem ts(cfg, tr.tracer);
            // The warmup is untimed, as in the reference repetition.
            const LayerTotals before = tr.tracer.totals;
            tr.tracer.setSampleEvery(0);
            ts.step(warmupCycles, -1, 0);
            tr.tracer.totals = before;
            ts.network().utilization().startMeasurement(ts.now());
            tr.tracer.setSampleEvery(std::max<std::uint64_t>(
                1, chunks * chunkCycles / sampledIterations));
            const std::uint64_t streamed0 = streamedFlits(ts.system());
            for (std::uint32_t c = 0; c < chunks; ++c) {
                const std::uint32_t op = first_op + c;
                const std::uint64_t t0 = nowNs();
                const std::int64_t root =
                    tr.tracer.open("chunk", -1, op, t0);
                ts.step(chunkCycles, root, op);
                const std::uint64_t t1 = nowNs();
                tr.tracer.close(root, t1);
                tr.wallNs += static_cast<double>(t1 - t0);
            }
            tr.streamed += static_cast<double>(
                streamedFlits(ts.system()) - streamed0);
            tr.hops += static_cast<double>(flitHops(ts.network()));
            tr.identical = tr.identical &&
                           reps.back().outputs == outputsJson(ts.outputs());
        } catch (const std::exception &err) {
            reportFailure("traced run", err);
            tr.failed += chunks;
            tr.identical = false;
        }
        return secondsSince(start);
    });

    const double sim_cycles =
        static_cast<double>(tr.ops) * static_cast<double>(chunkCycles);
    const std::string traced = tr.finish(
        metrics, opt, sim_cycles, sim_cycles * pms, setup_ms, chunk_ms);
    return result.raw("reps", repsJson(reps))
        .raw("traced", traced)
        .raw("metrics", metrics.str())
        .str();
}

// ---------------------------------------------------------------------
// fig14_sweep: the paper's Figure 14 as one user would run it

struct SweepPoint
{
    SystemConfig cfg;
    std::uint32_t lineBytes;
    int outstandingT;
    bool mesh;
};

/** Figure 14 (4-flit mesh buffers, R = 1.0, C = 0.04), in the order
 *  bench_fig14_compare_4flit runs it: per line size and T, the mesh
 *  widths up to 11x11, then the ring ladder up to 128 PMs. */
std::vector<SweepPoint>
fig14Points(std::uint64_t seed, bool smoke)
{
    SimConfig sim;
    sim.warmupCycles = smoke ? 80 : 4000;
    sim.batchCycles = smoke ? 80 : 4000;
    sim.numBatches = 5;
    sim.seed = seed;

    std::vector<SweepPoint> points;
    for (const std::uint32_t line : {16u, 32u, 64u, 128u}) {
        for (const int t : {1, 2, 4}) {
            for (const int width : standardMeshWidths(121)) {
                SystemConfig cfg = SystemConfig::mesh(width, line, 4);
                cfg.workload.outstandingT = t;
                cfg.sim = sim;
                points.push_back({cfg, line, t, true});
            }
            for (const std::string &topo :
                 standardRingLadder(static_cast<int>(line))) {
                SystemConfig cfg = SystemConfig::ring(topo, line);
                cfg.workload.outstandingT = t;
                cfg.sim = sim;
                if (cfg.numProcessors() <= 128)
                    points.push_back({cfg, line, t, false});
            }
        }
    }
    return points;
}

Cycle
horizon(const SystemConfig &cfg)
{
    return cfg.sim.warmupCycles +
           cfg.sim.batchCycles * static_cast<Cycle>(cfg.sim.numBatches);
}

std::string
sweepOutputsJson(const std::vector<ModelOutputs> &outs)
{
    std::string latencies = "[";
    std::uint64_t samples = 0;
    std::uint64_t completed = 0;
    std::uint64_t blocked = 0;
    std::uint64_t skipped = 0;
    for (std::size_t i = 0; i < outs.size(); ++i) {
        if (i != 0)
            latencies += ',';
        latencies += jsonNumber(outs[i].mean);
        samples += outs[i].samples;
        completed += outs[i].counters.remoteCompleted;
        blocked += outs[i].counters.blockedCycles;
        skipped += outs[i].skippedCycles;
    }
    return JsonObject()
        .raw("avg_latency", latencies + "]")
        .count("latency_samples", samples)
        .count("remote_completed", completed)
        .count("blocked_cycles", blocked)
        .count("skipped_cycles", skipped)
        .str();
}

/** Mesh-vs-ring crossover (nodes) per line size and T. */
std::string
crossoverJson(const std::vector<SweepPoint> &points,
              const std::vector<ModelOutputs> &outs)
{
    JsonObject by_line;
    for (const std::uint32_t line : {16u, 32u, 64u, 128u}) {
        JsonObject by_t;
        for (const int t : {1, 2, 4}) {
            std::vector<std::pair<double, double>> ring;
            std::vector<std::pair<double, double>> mesh;
            for (std::size_t i = 0; i < points.size(); ++i) {
                const SweepPoint &p = points[i];
                if (p.lineBytes != line || p.outstandingT != t)
                    continue;
                (p.mesh ? mesh : ring)
                    .emplace_back(p.cfg.numProcessors(), outs[i].mean);
            }
            const std::optional<double> x = crossoverPoint(ring, mesh);
            by_t.num(std::to_string(t), x ? *x : NAN);
        }
        by_line.raw(std::to_string(line), by_t.str());
    }
    return by_line.str();
}

std::string
runSweep(const Options &opt, JsonObject result)
{
    const std::vector<SweepPoint> points = fig14Points(opt.seed, opt.smoke);
    std::vector<SystemConfig> configs;
    double sim_cycles = 0.0;
    double node_cycles = 0.0;
    for (const SweepPoint &p : points) {
        configs.push_back(p.cfg);
        sim_cycles += static_cast<double>(horizon(p.cfg));
        node_cycles += static_cast<double>(horizon(p.cfg)) *
                       p.cfg.numProcessors();
    }
    const auto ops = static_cast<std::uint32_t>(points.size());

    std::vector<double> pass_s;
    std::vector<double> setup_ms;
    const auto time_setup_pass = [&] {
        double total = 0.0;
        for (const SystemConfig &cfg : configs) {
            const std::uint64_t t0 = nowNs();
            const auto system = std::make_unique<System>(cfg);
            const double ms = static_cast<double>(nowNs() - t0) / 1e6;
            setup_ms.push_back(ms);
            total += ms / 1e3;
        }
        pass_s.push_back(total);
    };

    JsonObject metrics;
    std::vector<RepRecord> reps;
    std::string crossover = "null";

    if (!opt.trace) {
        std::vector<double> sweep_s;
        repeatFor(opt.seconds, [&] {
            time_setup_pass();
            RepRecord rec;
            rec.ops = ops;
            const std::uint64_t start = nowNs();
            try {
                SweepOptions sweep_opts;
                sweep_opts.jobs = 1;
                SweepRunner runner(sweep_opts);
                const std::vector<RunResult> results = runner.run(configs);
                rec.wallS = secondsSince(start);
                std::vector<ModelOutputs> outs;
                for (const RunResult &r : results) {
                    outs.push_back(outputsOf(r));
                    rec.conserved = rec.conserved && outs.back().conserved();
                }
                rec.outputs = sweepOutputsJson(outs);
                if (crossover == "null")
                    crossover = crossoverJson(points, outs);
            } catch (const std::exception &err) {
                rec.wallS = secondsSince(start);
                reportFailure("sweep", err);
                rec.failed = ops;
            }
            reps.push_back(rec);
            sweep_s.push_back(rec.wallS);
            return rec.wallS;
        });
        while (pass_s.size() < sweepSetupPasses)
            time_setup_pass();
        metrics.num("node_cycles_per_s", node_cycles / median(sweep_s))
            .num("sweep_s", median(sweep_s))
            .num("setup_s", median(pass_s))
            .num("peak_rss_mb", peakRssMiB());
        return result.raw("reps", repsJson(reps))
            .raw("crossover", crossover)
            .raw("metrics", metrics.str())
            .str();
    }

    while (pass_s.size() < sweepSetupPasses)
        time_setup_pass();

    // Reference: every point through System::run(), timed per point.
    RepRecord ref;
    ref.ops = ops;
    std::vector<double> point_ms;
    std::vector<ModelOutputs> ref_outs(points.size());
    const std::uint64_t ref_start = nowNs();
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::uint64_t t0 = nowNs();
        try {
            ref_outs[i] = outputsOf(runSystem(configs[i]));
            ref.conserved = ref.conserved && ref_outs[i].conserved();
        } catch (const std::exception &err) {
            reportFailure("point " + std::to_string(i), err);
            ++ref.failed;
        }
        point_ms.push_back(static_cast<double>(nowNs() - t0) / 1e6);
    }
    ref.wallS = secondsSince(ref_start);
    ref.outputs = sweepOutputsJson(ref_outs);
    reps.push_back(ref);
    crossover = crossoverJson(points, ref_outs);

    TracedRun tr;
    for (const ModelOutputs &out : ref_outs)
        tr.refSkipped += static_cast<double>(out.skippedCycles);
    tr.refCycles = sim_cycles;
    for (std::uint32_t k = 0; k < probesPerRun; ++k) {
        const SystemConfig &cfg =
            configs[k * (configs.size() - 1) / (probesPerRun - 1)];
        System system(cfg);
        system.step(cfg.sim.warmupCycles);
        tr.probes.take(system, outPath(opt, "ckpt", ".bin"));
    }

    tr.tracer.setSampleEvery(std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(sim_cycles) / sampledIterations));
    tr.ops = ops;
    for (std::uint32_t i = 0; i < ops; ++i) {
        const SystemConfig &cfg = configs[i];
        const std::uint64_t t0 = nowNs();
        const std::int64_t root = tr.tracer.open("point", -1, i, t0);
        try {
            auto ts = std::make_unique<TracedSystem>(cfg, tr.tracer);
            const std::uint64_t t1 = nowNs();
            tr.tracer.record("setup", root, i, t0, t1);
            ts->network().utilization().startMeasurement(0);
            const std::uint64_t streamed0 = streamedFlits(ts->system());
            const std::int64_t run = tr.tracer.open("run", root, i, t1);
            ts->step(horizon(cfg), run, i);
            ts->syncSkipped();
            tr.tracer.close(run, nowNs());
            tr.hops += static_cast<double>(flitHops(ts->network()));
            tr.streamed += static_cast<double>(
                streamedFlits(ts->system()) - streamed0);
            tr.identical = tr.identical && ts->outputs() == ref_outs[i];
        } catch (const std::exception &err) {
            reportFailure("traced point " + std::to_string(i), err);
            ++tr.failed;
            tr.identical = false;
        }
        const std::uint64_t t2 = nowNs();
        tr.tracer.close(root, t2);
        tr.wallNs += static_cast<double>(t2 - t0);
    }

    const std::string traced = tr.finish(metrics, opt, sim_cycles,
                                         node_cycles, setup_ms, point_ms);
    return result.raw("reps", repsJson(reps))
        .raw("traced", traced)
        .raw("crossover", crossover)
        .raw("metrics", metrics.str())
        .str();
}

[[noreturn]] void
usage(const std::string &problem)
{
    std::fprintf(stderr,
                 "hrsim_e2e: %s\nusage: hrsim_e2e --workload "
                 "ring_sat|mesh_sat|ring_lowc|fig14_sweep [--seed N] "
                 "[--seconds S] [--trace] [--smoke] [--out DIR]\n",
                 problem.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                opt.workload = value();
            } else if (arg == "--seed") {
                const std::string text = value();
                std::size_t used = 0;
                opt.seed = std::stoull(text, &used);
                if (used != text.size() || text[0] == '-')
                    usage("bad --seed " + text);
            } else if (arg == "--seconds") {
                const std::string text = value();
                std::size_t used = 0;
                opt.seconds = std::stod(text, &used);
                if (used != text.size() || !(opt.seconds >= 0.0))
                    usage("bad --seconds " + text);
            } else if (arg == "--trace") {
                opt.trace = true;
            } else if (arg == "--smoke") {
                opt.smoke = true;
            } else if (arg == "--out") {
                opt.out = value();
            } else {
                usage("unknown argument " + arg);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + arg);
        }
    }
    if (opt.workload.empty())
        usage("--workload is required");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    JsonObject result;
    result.raw("workload", "\"" + opt.workload + "\"")
        .count("seed", opt.seed)
        .flag("smoke", opt.smoke)
        .flag("trace", opt.trace);
    std::string body;
    if (opt.workload == sweepWorkload) {
        body = runSweep(opt, result);
    } else {
        const auto *w = std::find_if(
            std::begin(singleWorkloads), std::end(singleWorkloads),
            [&](const SingleWorkload &s) { return opt.workload == s.name; });
        if (w == std::end(singleWorkloads))
            usage("unknown workload " + opt.workload);
        body = runSingle(opt, *w, result);
    }
    std::cout << body << std::endl;
    return 0;
}
