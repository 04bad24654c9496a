/**
 * @file
 * Command-line driver: run any single simulation the library can
 * express and print the full metric set, optionally as CSV.
 *
 * Examples:
 *   hrsim_cli --ring 3:3:6 --line 64 --r 0.3 --t 4
 *   hrsim_cli --mesh 8 --line 128 --buffers 1 --c 0.08 --csv
 *   hrsim_cli --ring 5:3:6 --speed 2 --slotted --seed 7
 *   hrsim_cli --sweep both --line 64 --jobs 4
 *   hrsim_cli --sweep ring --line 32 --list-sweep
 *   hrsim_cli --ring 3:3:12 --metrics-out run.json --metrics-every 2000
 *   hrsim_cli --sweep ring --jobs 4 --metrics-out sweep.json
 *   hrsim_cli --mesh 4 --trace-flits flits.log --batches 1
 */

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/codec.hh"
#include "common/log.hh"
#include "core/analysis.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "obs/flit_trace.hh"
#include "obs/manifest.hh"
#include "obs/metric_sink.hh"

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(stderr,
        "usage: %s (--ring A:B:C | --mesh WIDTH) [options]\n"
        "\n"
        "network:\n"
        "  --ring TOPO       hierarchical ring, e.g. 2:3:4\n"
        "  --mesh W          square W x W mesh\n"
        "  --line BYTES      cache line size: 16|32|64|128 (32)\n"
        "  --buffers FLITS   mesh buffers: 1|4|0=cl-sized (4)\n"
        "  --speed N         global ring clock multiplier (1)\n"
        "  --slotted         slotted instead of wormhole switching\n"
        "  --no-bypass       disable the ring NIC bypass path\n"
        "\n"
        "workload:\n"
        "  --r R             locality region parameter (1.0)\n"
        "  --c C             cache miss rate per cycle (0.04)\n"
        "  --t T             outstanding transactions (4)\n"
        "  --mem CYCLES      memory service time (20)\n"
        "  --pipelined-mem   pipelined instead of serialized memory\n"
        "\n"
        "measurement:\n"
        "  --warmup CYCLES   discarded first batch (4000)\n"
        "  --batch CYCLES    measured batch length (4000)\n"
        "  --batches N       number of measured batches (5)\n"
        "  --seed N          master RNG seed\n"
        "  --csv             one machine-readable CSV line\n"
        "\n"
        "fault injection (deterministic; see DESIGN.md section 13):\n"
        "  --fault SPEC      schedule one fault window, e.g.\n"
        "                    mesh.r3.east:down@20000..40000 or\n"
        "                    ring.nic2:stall@1000..; repeatable,\n"
        "                    specs apply in order\n"
        "  --fault-plan FILE load a fault schedule file: one spec\n"
        "                    per line, optional 'timeout N' and\n"
        "                    'retries N' directives, '#' comments\n"
        "  --fault-timeout N cycles before an unanswered request is\n"
        "                    reissued (4096)\n"
        "  --fault-retries N reissues before a transaction is\n"
        "                    abandoned (3)\n"
        "\n"
        "adaptive run control (default: fixed-length, bit-identical\n"
        "to the flags above; see DESIGN.md section 11):\n"
        "  --stop-rel-hw X   stop once the 95%% relative confidence\n"
        "                    half-width of latency drops to X (e.g.\n"
        "                    0.05); enables MSER warmup detection,\n"
        "                    the sequential stopping rule and the\n"
        "                    saturation detector\n"
        "  --stop-batch N    adaptive batch/checkpoint length in\n"
        "                    cycles (default: --batch value / 4)\n"
        "  --max-cycles N    adaptive hard bound (default: 8x the\n"
        "                    fixed-length horizon)\n"
        "  --stop-min-batches N  retained batches required before\n"
        "                    convergence may be declared (8)\n"
        "\n"
        "sweep mode (instead of a single point):\n"
        "  --sweep KIND      run the standard figure sweep, KIND =\n"
        "                    ring (Table 2 ladder) | mesh (square\n"
        "                    widths) | both; prints one CSV row per\n"
        "                    point, in a fixed order\n"
        "  --jobs N          sweep worker threads (default 1; 1 runs\n"
        "                    the points serially, exactly as repeated\n"
        "                    single-point invocations; any N yields\n"
        "                    bit-identical output; only meaningful\n"
        "                    with --sweep)\n"
        "  --list-sweep      print the sweep's points and exit\n"
        "\n"
        "checkpoint/restore (see DESIGN.md section 16):\n"
        "  --save-to FILE    write deterministic snapshots of the\n"
        "                    complete simulator state to FILE (needs\n"
        "                    --save-at and/or --save-every)\n"
        "  --save-at N       snapshot once at the start of cycle N\n"
        "  --save-every N    snapshot at every multiple of N cycles\n"
        "  --save-stop       end the run right after the --save-at\n"
        "                    snapshot (warm-start donor runs)\n"
        "  --restore FILE    resume from a snapshot; the run must use\n"
        "                    the exact config that produced it, and\n"
        "                    continues bit-identically to the\n"
        "                    uninterrupted run\n"
        "  --fork-seed N     warm-start fork: restore FILE but reseed\n"
        "                    every generator from seed N, sharing the\n"
        "                    donor's warmed-up state while drawing a\n"
        "                    fresh measurement stream\n"
        "  --sweep-dir DIR   journal each sweep point's result (and,\n"
        "                    with --save-every, periodic in-progress\n"
        "                    snapshots) to DIR; needs --sweep\n"
        "  --sweep-resume    resume a killed journaled sweep: skip\n"
        "                    points with journaled results, restore\n"
        "                    in-progress ones; artifacts are\n"
        "                    byte-identical to the uninterrupted\n"
        "                    sweep's\n"
        "\n"
        "observability (see DESIGN.md section 9):\n"
        "  --metrics-out FILE    write every registered metric plus a\n"
        "                        run manifest to FILE (- = stdout)\n"
        "  --metrics-format FMT  metrics serialization: json (default)\n"
        "                        or csv\n"
        "  --metrics-every N     also record a metric snapshot every N\n"
        "                        cycles (0 = off; needs --metrics-out)\n"
        "  --trace-flits FILE    log every flit inject/hop/eject event\n"
        "                        to FILE (single runs only; results\n"
        "                        are unchanged by tracing)\n",
        argv0);
}

const char *
argString(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        hrsim::fatal(std::string("missing value for ") + argv[i]);
    return argv[++i];
}

[[noreturn]] void
badNumber(const char *flag, const char *text, const char *expected)
{
    hrsim::fatal(std::string("bad value for ") + flag + ": '" + text +
                 "' (expected " + expected + ")");
}

/**
 * Numeric flag values must be the whole token: no leading blanks, no
 * trailing characters ("0.04x", "1e4" for an integer), no empty
 * string, nothing out of range. Each parser ends in fatal() naming
 * the flag and the value otherwise.
 */
double
argDouble(int argc, char **argv, int &i)
{
    const char *flag = argv[i];
    const char *text = argString(argc, argv, i);
    char *end = nullptr;
    errno = 0;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || std::isspace(
            static_cast<unsigned char>(text[0])) ||
        errno == ERANGE || !std::isfinite(value)) {
        badNumber(flag, text, "a finite number");
    }
    return value;
}

long
argLong(int argc, char **argv, int &i)
{
    const char *flag = argv[i];
    const char *text = argString(argc, argv, i);
    char *end = nullptr;
    errno = 0;
    const long value = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || std::isspace(
            static_cast<unsigned char>(text[0])) ||
        errno == ERANGE) {
        badNumber(flag, text, "an integer");
    }
    return value;
}

/** argLong() for flags stored in an int field, at least @a min. */
int
argInt(int argc, char **argv, int &i, int min)
{
    const char *flag = argv[i];
    const long value = argLong(argc, argv, i);
    if (value < min || value > std::numeric_limits<int>::max()) {
        badNumber(flag, argv[i],
                  ("an integer in [" + std::to_string(min) + ", " +
                   std::to_string(std::numeric_limits<int>::max()) +
                   "]")
                      .c_str());
    }
    return static_cast<int>(value);
}

/**
 * Integer flag stored in an unsigned field: digits only (a sign would
 * make strtoull wrap "-1" to 2^64 - 1), at most @a max.
 */
std::uint64_t
argUnsigned(int argc, char **argv, int &i,
            std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    const char *flag = argv[i];
    const char *text = argString(argc, argv, i);
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        badNumber(flag, text, "a non-negative integer");
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (*end != '\0')
        badNumber(flag, text, "a non-negative integer");
    if (errno == ERANGE || value > max) {
        badNumber(flag, text,
                  ("an integer <= " + std::to_string(max)).c_str());
    }
    return value;
}

/** argUnsigned() for flags stored in a 32-bit unsigned field. */
std::uint32_t
argU32(int argc, char **argv, int &i)
{
    return static_cast<std::uint32_t>(argUnsigned(
        argc, argv, i, std::numeric_limits<std::uint32_t>::max()));
}

void
printCsvHeader(bool adaptive)
{
    std::printf("label,processors,line,R,C,T,latency,ci95,"
                "p50,p95,p99,util,samples,throughput_per_pm");
    // Extra columns only in adaptive mode: fixed-length output stays
    // byte-identical to earlier releases.
    if (adaptive)
        std::printf(",stop_reason,cycles_simulated,rel_hw");
    std::printf("\n");
}

void
printCsvRow(const std::string &label, const hrsim::SystemConfig &cfg,
            const hrsim::RunResult &result)
{
    std::printf("%s,%d,%u,%.3f,%.4f,%d,%.2f,%.2f,%.2f,%.2f,"
                "%.2f,%.4f,%llu,%.6f",
                label.c_str(), cfg.numProcessors(),
                cfg.cacheLineBytes, cfg.workload.localityR,
                cfg.workload.missRateC, cfg.workload.outstandingT,
                result.avgLatency, result.latencyCI95,
                result.latencyP50, result.latencyP95,
                result.latencyP99, result.networkUtilization,
                static_cast<unsigned long long>(result.samples),
                result.throughputPerPm);
    if (cfg.sim.stop.enabled()) {
        std::printf(",%s,%llu,%.4f", hrsim::toString(result.stopReason),
                    static_cast<unsigned long long>(result.cycles),
                    result.relHalfWidth);
    }
    std::printf("\n");
}

/**
 * The standard figure sweep: the Table 2 ring ladder and/or the
 * square-mesh widths, every point inheriting the workload and
 * measurement settings of @a base.
 */
void
buildSweep(const hrsim::SystemConfig &base, const std::string &kind,
           std::vector<hrsim::SystemConfig> &points,
           std::vector<std::string> &labels)
{
    using namespace hrsim;
    if (kind != "ring" && kind != "mesh" && kind != "both")
        fatal("--sweep expects ring, mesh or both, got: " + kind);
    if (kind == "ring" || kind == "both") {
        for (const std::string &topo : standardRingLadder(
                 static_cast<int>(base.cacheLineBytes))) {
            SystemConfig cfg = base;
            cfg.kind = NetworkKind::HierarchicalRing;
            cfg.ringTopo = RingTopology::parse(topo);
            points.push_back(cfg);
            labels.push_back("ring " + topo);
        }
    }
    if (kind == "mesh" || kind == "both") {
        for (const int width : standardMeshWidths()) {
            SystemConfig cfg = base;
            cfg.kind = NetworkKind::Mesh;
            cfg.meshWidth = width;
            points.push_back(cfg);
            labels.push_back("mesh " + std::to_string(width) + "x" +
                             std::to_string(width));
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hrsim;

    SystemConfig cfg;
    bool have_network = false;
    bool csv = false;
    std::string label;
    std::string sweep_kind;
    bool list_sweep = false;
    unsigned jobs = 1;
    bool jobs_given = false;
    std::string metrics_out;
    std::string metrics_format = "json";
    bool metrics_format_given = false;
    bool stop_knob_given = false;
    std::string trace_path;
    std::string fault_plan_path;
    std::vector<std::string> fault_specs;
    long fault_timeout = -1;
    long fault_retries = -1;
    bool warmup_given = false;
    bool seed_given = false;
    bool save_stop = false;
    bool fork_seed_given = false;
    std::string sweep_dir;
    bool sweep_resume = false;

    try {
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            if (!std::strcmp(arg, "--ring")) {
                if (i + 1 >= argc)
                    fatal("missing topology for --ring");
                label = std::string("ring ") + argv[i + 1];
                cfg.kind = NetworkKind::HierarchicalRing;
                cfg.ringTopo = RingTopology::parse(argv[++i]);
                have_network = true;
            } else if (!std::strcmp(arg, "--mesh")) {
                const int w = argInt(argc, argv, i, 1);
                label = "mesh " + std::to_string(w) + "x" +
                        std::to_string(w);
                cfg.kind = NetworkKind::Mesh;
                cfg.meshWidth = w;
                have_network = true;
            } else if (!std::strcmp(arg, "--line")) {
                cfg.cacheLineBytes = argU32(argc, argv, i);
            } else if (!std::strcmp(arg, "--buffers")) {
                cfg.meshBufferFlits = argU32(argc, argv, i);
            } else if (!std::strcmp(arg, "--speed")) {
                cfg.globalRingSpeed = argU32(argc, argv, i);
            } else if (!std::strcmp(arg, "--slotted")) {
                cfg.ringSlotted = true;
            } else if (!std::strcmp(arg, "--no-bypass")) {
                cfg.ringBypass = false;
            } else if (!std::strcmp(arg, "--r")) {
                cfg.workload.localityR = argDouble(argc, argv, i);
            } else if (!std::strcmp(arg, "--c")) {
                cfg.workload.missRateC = argDouble(argc, argv, i);
            } else if (!std::strcmp(arg, "--t")) {
                cfg.workload.outstandingT = argInt(argc, argv, i, 1);
            } else if (!std::strcmp(arg, "--mem")) {
                cfg.workload.memoryLatency = argU32(argc, argv, i);
            } else if (!std::strcmp(arg, "--pipelined-mem")) {
                cfg.workload.memorySerialized = false;
            } else if (!std::strcmp(arg, "--warmup")) {
                cfg.sim.warmupCycles = argUnsigned(argc, argv, i);
                warmup_given = true;
            } else if (!std::strcmp(arg, "--batch")) {
                cfg.sim.batchCycles = argUnsigned(argc, argv, i);
            } else if (!std::strcmp(arg, "--batches")) {
                cfg.sim.numBatches = argU32(argc, argv, i);
            } else if (!std::strcmp(arg, "--seed")) {
                cfg.sim.seed = argUnsigned(argc, argv, i);
                seed_given = true;
            } else if (!std::strcmp(arg, "--stop-rel-hw")) {
                cfg.sim.stop.relHw = argDouble(argc, argv, i);
                if (cfg.sim.stop.relHw <= 0.0 ||
                    cfg.sim.stop.relHw >= 1.0)
                    fatal("--stop-rel-hw needs a target in (0, 1)");
            } else if (!std::strcmp(arg, "--stop-batch")) {
                cfg.sim.stop.batchCycles = argUnsigned(argc, argv, i);
                stop_knob_given = true;
            } else if (!std::strcmp(arg, "--max-cycles")) {
                cfg.sim.stop.maxCycles = argUnsigned(argc, argv, i);
                stop_knob_given = true;
            } else if (!std::strcmp(arg, "--stop-min-batches")) {
                const std::uint32_t n = argU32(argc, argv, i);
                if (n < 2)
                    fatal("--stop-min-batches needs at least 2");
                cfg.sim.stop.minBatches = n;
                stop_knob_given = true;
            } else if (!std::strcmp(arg, "--csv")) {
                csv = true;
            } else if (!std::strcmp(arg, "--sweep")) {
                sweep_kind = argString(argc, argv, i);
            } else if (!std::strcmp(arg, "--list-sweep")) {
                list_sweep = true;
            } else if (!std::strcmp(arg, "--metrics-out")) {
                metrics_out = argString(argc, argv, i);
            } else if (!std::strcmp(arg, "--metrics-format")) {
                metrics_format = argString(argc, argv, i);
                metrics_format_given = true;
            } else if (!std::strcmp(arg, "--metrics-every")) {
                cfg.sim.metricsEvery = argUnsigned(argc, argv, i);
            } else if (!std::strcmp(arg, "--fault")) {
                fault_specs.push_back(argString(argc, argv, i));
            } else if (!std::strcmp(arg, "--fault-plan")) {
                fault_plan_path = argString(argc, argv, i);
            } else if (!std::strcmp(arg, "--fault-timeout")) {
                fault_timeout = argLong(argc, argv, i);
                if (fault_timeout <= 0)
                    fatal("--fault-timeout needs a positive cycle "
                          "count");
            } else if (!std::strcmp(arg, "--fault-retries")) {
                fault_retries = argLong(argc, argv, i);
                if (fault_retries < 0)
                    fatal("--fault-retries needs a non-negative "
                          "count");
            } else if (!std::strcmp(arg, "--save-to")) {
                cfg.ckpt.savePath = argString(argc, argv, i);
            } else if (!std::strcmp(arg, "--save-at")) {
                const Cycle n = argUnsigned(argc, argv, i);
                if (n < 1)
                    fatal("--save-at needs a cycle >= 1");
                cfg.ckpt.saveAt = n;
            } else if (!std::strcmp(arg, "--save-every")) {
                const Cycle n = argUnsigned(argc, argv, i);
                if (n < 1)
                    fatal("--save-every needs a period >= 1");
                cfg.ckpt.saveEvery = n;
            } else if (!std::strcmp(arg, "--save-stop")) {
                save_stop = true;
            } else if (!std::strcmp(arg, "--restore")) {
                cfg.ckpt.restorePath = argString(argc, argv, i);
            } else if (!std::strcmp(arg, "--fork-seed")) {
                const std::uint64_t n = argUnsigned(argc, argv, i);
                if (n < 1)
                    fatal("--fork-seed needs a nonzero seed (0 means "
                          "exact resume; just drop the flag)");
                cfg.ckpt.forkSeed = n;
                fork_seed_given = true;
            } else if (!std::strcmp(arg, "--sweep-dir")) {
                sweep_dir = argString(argc, argv, i);
            } else if (!std::strcmp(arg, "--sweep-resume")) {
                sweep_resume = true;
            } else if (!std::strcmp(arg, "--trace-flits")) {
                trace_path = argString(argc, argv, i);
            } else if (!std::strcmp(arg, "--jobs")) {
                const std::uint32_t n = argU32(argc, argv, i);
                if (n < 1)
                    fatal("--jobs needs a worker count >= 1");
                jobs = n;
                jobs_given = true;
            } else if (!std::strcmp(arg, "--help") ||
                       !std::strcmp(arg, "-h")) {
                usage(argv[0]);
                return 0;
            } else {
                fatal(std::string("unknown option: ") + arg);
            }
        }
        // Assemble the fault plan: the plan file first (it may set
        // the retry directives), then --fault specs in command-line
        // order, then explicit --fault-timeout/--fault-retries
        // overriding both.
        if (!fault_plan_path.empty()) {
            std::string err;
            if (!loadFaultPlanFile(fault_plan_path, cfg.faultPlan,
                                   err))
                fatal(err);
        }
        for (const std::string &spec : fault_specs) {
            FaultEvent event;
            std::string err;
            if (!parseFaultSpec(spec, event, err))
                fatal("--fault " + spec + ": " + err);
            cfg.faultPlan.events.push_back(event);
        }
        if (fault_timeout > 0) {
            cfg.faultPlan.retry.timeoutCycles =
                static_cast<Cycle>(fault_timeout);
        }
        if (fault_retries >= 0) {
            cfg.faultPlan.retry.maxRetries =
                static_cast<std::uint32_t>(fault_retries);
        }
        if ((fault_timeout > 0 || fault_retries >= 0) &&
            cfg.faultPlan.empty()) {
            std::fprintf(stderr,
                         "warning: --fault-timeout/--fault-retries "
                         "have no effect without --fault or "
                         "--fault-plan\n");
        }
        if (!cfg.faultPlan.empty() && cfg.ringSlotted) {
            fatal("fault injection is not supported with --slotted; "
                  "use the wormhole ring or the mesh");
        }
        if (!cfg.faultPlan.empty() && cfg.sim.stop.enabled()) {
            // Legitimate but easy to misread: the stopping rule
            // converges on the latency of the transactions that DID
            // complete, so an outage mostly shows up in drop.*/retry.*
            // and the delivery rate, not in the latency target.
            std::fprintf(stderr,
                         "warning: --stop-rel-hw with a fault plan "
                         "converges on survivors' latency only; "
                         "compare drop.* / retry.* metrics, not just "
                         "the latency column\n");
        }
        if (metrics_format != "json" && metrics_format != "csv") {
            fatal("--metrics-format expects json or csv, got: " +
                  metrics_format);
        }
        if (cfg.sim.metricsEvery != 0 && metrics_out.empty()) {
            std::fprintf(stderr,
                         "warning: --metrics-every has no effect "
                         "without --metrics-out\n");
        }
        if (metrics_format_given && metrics_out.empty()) {
            std::fprintf(stderr,
                         "warning: --metrics-format has no effect "
                         "without --metrics-out\n");
        }
        if (stop_knob_given && !cfg.sim.stop.enabled()) {
            std::fprintf(stderr,
                         "warning: --stop-batch/--max-cycles/"
                         "--stop-min-batches have no effect without "
                         "--stop-rel-hw\n");
        }
        if (!sweep_kind.empty() || list_sweep) {
            if (sweep_kind.empty())
                sweep_kind = "both";
            if (sweep_resume && sweep_dir.empty())
                fatal("--sweep-resume needs --sweep-dir");
            if (cfg.ckpt.saveEvery != 0 && sweep_dir.empty()) {
                std::fprintf(stderr,
                             "warning: in sweep mode --save-every "
                             "only journals in-progress snapshots "
                             "under --sweep-dir; ignoring it\n");
            }
            if (!cfg.ckpt.savePath.empty() ||
                !cfg.ckpt.restorePath.empty() ||
                cfg.ckpt.saveAt != 0 || save_stop) {
                std::fprintf(stderr,
                             "warning: --save-to/--save-at/"
                             "--save-stop/--restore apply to "
                             "single-point runs; in sweep mode use "
                             "--sweep-dir (plus --save-every for "
                             "periodic in-progress snapshots)\n");
            }
            // Points inherit the base config; the single-run
            // checkpoint flags must not ride along into every point
            // (the journal's own scratch snapshots are wired per
            // point by the runner).
            const Cycle journal_every = cfg.ckpt.saveEvery;
            cfg.ckpt = {};
            std::vector<SystemConfig> points;
            std::vector<std::string> labels;
            buildSweep(cfg, sweep_kind, points, labels);
            if (list_sweep) {
                std::printf("label,processors\n");
                for (std::size_t p = 0; p < points.size(); ++p) {
                    std::printf("%s,%d\n", labels[p].c_str(),
                                points[p].numProcessors());
                }
                return 0;
            }
            if (!trace_path.empty()) {
                std::fprintf(stderr,
                             "warning: --trace-flits applies to "
                             "single-point runs; ignoring it in "
                             "sweep mode\n");
            }
            SweepOptions opts;
            opts.jobs = jobs;
            if (!sweep_dir.empty()) {
                std::error_code dir_err;
                std::filesystem::create_directories(sweep_dir,
                                                    dir_err);
                if (dir_err) {
                    fatal("cannot create --sweep-dir " + sweep_dir +
                          ": " + dir_err.message());
                }
                opts.journalDir = sweep_dir;
                opts.resume = sweep_resume;
                opts.checkpointEvery = journal_every;
            }
            SweepRunner runner(opts);
            const auto wall_start = std::chrono::steady_clock::now();
            const std::vector<RunResult> results = runner.run(points);
            const double wall_seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
            printCsvHeader(cfg.sim.stop.enabled());
            for (std::size_t p = 0; p < points.size(); ++p)
                printCsvRow(labels[p], points[p], results[p]);
            if (!metrics_out.empty()) {
                // The manifest's config key renders the sweep's base
                // config: the workload/measurement settings every
                // point inherits.
                double node_cycles = 0.0;
                std::vector<MetricPoint> mpoints;
                mpoints.reserve(points.size());
                for (std::size_t p = 0; p < points.size(); ++p) {
                    mpoints.push_back(
                        metricPoint(labels[p], results[p]));
                    node_cycles +=
                        static_cast<double>(results[p].cycles) *
                        points[p].numProcessors();
                }
                writeMetricsFile(metrics_out, metrics_format,
                                 makeManifest(cfg, jobs, wall_seconds,
                                              node_cycles),
                                 mpoints);
            }
            return 0;
        }
        if (!have_network)
            fatal("one of --ring or --mesh is required");
        // Checkpoint flag hygiene for single-point runs. The hard
        // config-key check lives in System::restoreCheckpoint (it
        // refuses a mismatched snapshot naming both keys); here we
        // catch combinations that are about to trip it or that
        // silently do nothing.
        if (sweep_dir.empty() && sweep_resume)
            fatal("--sweep-resume needs --sweep-dir");
        if (!sweep_dir.empty()) {
            std::fprintf(stderr,
                         "warning: --sweep-dir/--sweep-resume only "
                         "apply to --sweep mode; ignoring them\n");
        }
        if ((cfg.ckpt.saveAt != 0 || cfg.ckpt.saveEvery != 0 ||
             save_stop) &&
            cfg.ckpt.savePath.empty()) {
            std::fprintf(stderr,
                         "warning: --save-at/--save-every/--save-stop "
                         "have no effect without --save-to\n");
        }
        if (!cfg.ckpt.savePath.empty() && cfg.ckpt.saveAt == 0 &&
            cfg.ckpt.saveEvery == 0) {
            std::fprintf(stderr,
                         "warning: --save-to never fires without "
                         "--save-at or --save-every\n");
        }
        if (save_stop && cfg.ckpt.saveAt == 0) {
            std::fprintf(stderr,
                         "warning: --save-stop only applies to the "
                         "--save-at snapshot\n");
        }
        cfg.ckpt.stopAfterSave = save_stop;
        if (fork_seed_given && cfg.ckpt.restorePath.empty()) {
            std::fprintf(stderr,
                         "warning: --fork-seed has no effect without "
                         "--restore\n");
            cfg.ckpt.forkSeed = 0;
        }
        if (!cfg.ckpt.restorePath.empty()) {
            if (warmup_given) {
                std::fprintf(stderr,
                             "warning: --restore overrides --warmup: "
                             "the measurement schedule is part of the "
                             "snapshot's config key, and a mismatch "
                             "is refused\n");
            }
            if (seed_given && !fork_seed_given) {
                std::fprintf(stderr,
                             "warning: --restore with --seed: an "
                             "exact resume must replay the snapshot's "
                             "seed, and a different one is refused; "
                             "use --fork-seed to draw a fresh stream "
                             "from the warmed-up state\n");
            }
            if (seed_given && fork_seed_given) {
                std::fprintf(stderr,
                             "warning: --fork-seed supersedes --seed "
                             "for a warm-start fork\n");
            }
            // A fork's identity is its fork seed: run the replica
            // under it so the artifact's config key (and manifest)
            // names the stream actually drawn.
            if (fork_seed_given)
                cfg.sim.seed = cfg.ckpt.forkSeed;
        }
        if (jobs_given) {
            std::fprintf(stderr,
                         "warning: --jobs only applies to --sweep "
                         "mode; running the single point serially\n");
        }

        System system(cfg);
        std::ofstream trace_stream;
        std::unique_ptr<FlitTracer> tracer;
        if (!trace_path.empty()) {
            if (!FlitTracer::compiledIn()) {
                std::fprintf(stderr,
                             "warning: flit-trace hooks compiled out "
                             "(HRSIM_TRACE_FLITS=0); the trace will "
                             "be empty\n");
            }
            trace_stream.open(trace_path);
            if (!trace_stream)
                fatal("cannot open trace file: " + trace_path);
            tracer = std::make_unique<FlitTracer>(trace_stream);
            system.setTracer(tracer.get());
        }
        const auto wall_start = std::chrono::steady_clock::now();
        const RunResult result = system.run();
        const double wall_seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wall_start)
                .count();
        if (!metrics_out.empty()) {
            const double node_cycles =
                static_cast<double>(result.cycles) *
                cfg.numProcessors();
            writeMetricsFile(metrics_out, metrics_format,
                             makeManifest(cfg, 1, wall_seconds,
                                          node_cycles),
                             {metricPoint(label, result)});
        }

        if (csv) {
            printCsvHeader(cfg.sim.stop.enabled());
            printCsvRow(label, cfg, result);
            return 0;
        }

        std::printf("%s, %d PMs, %uB lines, R=%.2f C=%.3f T=%d\n",
                    label.c_str(), cfg.numProcessors(),
                    cfg.cacheLineBytes, cfg.workload.localityR,
                    cfg.workload.missRateC, cfg.workload.outstandingT);
        std::printf("  latency  : %.1f cycles (+/- %.1f at 95%%)\n",
                    result.avgLatency, result.latencyCI95);
        std::printf("  p50/p95/p99: %.0f / %.0f / %.0f cycles\n",
                    result.latencyP50, result.latencyP95,
                    result.latencyP99);
        std::printf("  samples  : %llu remote round trips\n",
                    static_cast<unsigned long long>(result.samples));
        std::printf("  net util : %.1f%%\n",
                    100.0 * result.networkUtilization);
        for (std::size_t level = 0;
             level < result.ringLevelUtilization.size(); ++level) {
            std::printf("  ring L%zu  : %.1f%%%s\n", level,
                        100.0 * result.ringLevelUtilization[level],
                        level == 0 ? " (global)" : "");
        }
        std::printf("  thpt/PM  : %.4f transactions/cycle\n",
                    result.throughputPerPm);
        if (cfg.sim.stop.enabled()) {
            std::printf(
                "  run      : %s after %llu cycles (rel hw %.3f, "
                "MSER warmup %llu)\n",
                toString(result.stopReason),
                static_cast<unsigned long long>(result.cycles),
                result.relHalfWidth,
                static_cast<unsigned long long>(result.warmupCycles));
        }
        return 0;
    } catch (const ConfigError &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        usage(argv[0]);
        return 1;
    } catch (const StallError &err) {
        std::fprintf(stderr, "simulation stalled: %s\n", err.what());
        return 2;
    } catch (const CheckpointError &err) {
        std::fprintf(stderr, "checkpoint error: %s\n", err.what());
        return 3;
    }
}
