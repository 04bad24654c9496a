#include "obs/manifest.hh"

#include <cstdio>

#include "obs/build_info.hh"

namespace hrsim
{

std::uint64_t
fnv1a64(std::string_view text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

namespace
{

std::string
fmt(const char *format, double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), format, value);
    return buf;
}

} // namespace

std::string
configKey(const SystemConfig &cfg)
{
    std::string key;
    if (cfg.kind == NetworkKind::HierarchicalRing) {
        key += "ring topo=" + cfg.ringTopo.toString();
        key += " speed=" + std::to_string(cfg.globalRingSpeed);
        key += cfg.ringSlotted ? " switch=slotted" : " switch=wormhole";
        key += cfg.ringBypass ? " bypass=1" : " bypass=0";
        key += cfg.ringWrapRegion ? " wrap=1" : " wrap=0";
        key += " iri_wait=" + std::to_string(cfg.ringIriWaitLimit);
        key += " iri_q=" + std::to_string(cfg.ringIriQueuePackets);
    } else {
        key += "mesh width=" + std::to_string(cfg.meshWidth);
        key += " buffers=" + std::to_string(cfg.meshBufferFlits);
        key += cfg.meshRoundRobin ? " arb=rr" : " arb=fixed";
    }
    key += " line=" + std::to_string(cfg.cacheLineBytes);
    key += " R=" + fmt("%.17g", cfg.workload.localityR);
    key += " C=" + fmt("%.17g", cfg.workload.missRateC);
    key += " T=" + std::to_string(cfg.workload.outstandingT);
    key += " read=" + fmt("%.17g", cfg.workload.readFraction);
    key += " mem=" + std::to_string(cfg.workload.memoryLatency);
    key += cfg.workload.memorySerialized ? " mem_serial=1"
                                         : " mem_serial=0";
    key += " warmup=" + std::to_string(cfg.sim.warmupCycles);
    key += " batch=" + std::to_string(cfg.sim.batchCycles);
    key += " batches=" + std::to_string(cfg.sim.numBatches);
    if (cfg.sim.stop.enabled()) {
        // Adaptive run control changes what a run simulates, so the
        // resolved policy is part of the result's identity. Appended
        // only when enabled: fixed-length keys (and their hashes)
        // stay stable across releases.
        const StopPolicy policy = resolveStopPolicy(cfg.sim);
        key += " stop_rel_hw=" + fmt("%.17g", policy.relHw);
        key += " stop_batch=" + std::to_string(policy.batchCycles);
        key += " stop_max=" + std::to_string(policy.maxCycles);
        key += " stop_min_batches=" +
               std::to_string(policy.minBatches);
        key += " stop_div_window=" +
               std::to_string(policy.divergenceWindow);
        key += " stop_div_occ=" +
               fmt("%.17g", policy.divergenceOccupancy);
        key += " stop_div_growth=" +
               fmt("%.17g", policy.divergenceGrowth);
    }
    key += " seed=" + std::to_string(cfg.sim.seed);
    if (cfg.trace != nullptr)
        key += " trace_records=" + std::to_string(cfg.trace->size());
    if (!cfg.faultPlan.empty()) {
        // A fault schedule changes what a run simulates, so it is
        // part of the result's identity. Appended only when present:
        // fault-free keys (and their hashes) stay stable.
        key += " faults=" + cfg.faultPlan.canonical();
    }
    return key;
}

RunManifest
makeManifest(const SystemConfig &cfg, unsigned jobs,
             double wall_seconds, double total_node_cycles)
{
    RunManifest manifest;
    manifest.gitDescribe = buildGitDescribe();
    manifest.buildType = buildType();
    manifest.buildFlags = buildCxxFlags();
    manifest.config = configKey(cfg);
    char hash[24];
    std::snprintf(hash, sizeof(hash), "0x%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(manifest.config)));
    manifest.configHash = hash;
    manifest.seed = cfg.sim.seed;
    manifest.jobs = jobs;
    manifest.restoredFrom = cfg.ckpt.restorePath;
    manifest.wallSeconds = wall_seconds;
    manifest.nodeCyclesPerSec =
        wall_seconds > 0.0 ? total_node_cycles / wall_seconds : 0.0;
    return manifest;
}

} // namespace hrsim
