/**
 * @file
 * Shared test configurations: the short fixed-length protocol and the
 * bit-identity grid that engine-equivalence checks run over — the
 * active-set scheduler tests, the checkpoint round trips and the
 * golden digest corpus (tests/golden/digests.txt) all draw from here
 * so the configs they pin cannot drift apart.
 */

#ifndef HRSIM_TESTS_BIT_IDENTITY_GRID_HH
#define HRSIM_TESTS_BIT_IDENTITY_GRID_HH

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/system.hh"
#include "fault/fault_plan.hh"
#include "workload/trace.hh"

namespace hrsim
{
namespace testgrid
{

using NamedConfigs = std::vector<std::pair<std::string, SystemConfig>>;

/** 800-cycle warmup plus three 800-cycle batches: 3200 cycles. */
inline SimConfig
shortSim()
{
    SimConfig sim;
    sim.warmupCycles = 800;
    sim.batchCycles = 800;
    sim.numBatches = 3;
    return sim;
}

/** Parse one fault spec; a malformed literal is a test bug. */
inline FaultEvent
faultSpec(const std::string &text)
{
    FaultEvent event;
    std::string err;
    if (!parseFaultSpec(text, event, err))
        throw std::logic_error("bad fault spec \"" + text + "\": " + err);
    return event;
}

/** Network/workload grid covering every scheduler specialization:
 *  ring (hierarchical, multi-level, double-speed global ring),
 *  slotted rings, meshes, cache-line sizes, low-rate (sleep/
 *  fast-forward heavy) and saturating (always-awake) workloads. */
inline NamedConfigs
bitIdentityGrid()
{
    NamedConfigs grid;
    const auto add = [&grid](std::string name, SystemConfig cfg) {
        grid.emplace_back(std::move(name), cfg);
    };

    SystemConfig cfg = SystemConfig::ring("2:4", 64);
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

    cfg = SystemConfig::ring("2:4", 128);
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.02;
    add("ring 2:4 cl=128", cfg);

    cfg = SystemConfig::mesh(3, 64, 4);
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.01;
    add("mesh 3 low-C", cfg);

    cfg = SystemConfig::mesh(4, 32, 1);
    cfg.sim = shortSim();
    cfg.workload.outstandingT = 2;
    add("mesh 4 1-flit buffers", cfg);

    cfg = SystemConfig::ring("2:4", 32);
    cfg.ringSlotted = true;
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.02;
    add("slotted 2:4", cfg);

    cfg = SystemConfig::ring("2:4", 64);
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.01;
    cfg.sim.metricsEvery = 500;
    add("ring 2:4 metricsEvery=500", cfg);

    cfg = SystemConfig::ring("2:4", 64);
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.01;
    cfg.sim.watchdogCycles = 50; // clamp every fast-forward jump
    add("ring 2:4 tiny watchdog", cfg);

    // Single-level rings (the Figure 6 family) idle often enough that
    // the network is regularly quiescent exactly AT the warmup cycle;
    // a fast-forward that jumps the boundary instead of landing on it
    // skips startMeasurement() and dies at stopMeasurement().
    cfg = SystemConfig::ring("4", 16);
    cfg.sim = shortSim();
    add("ring 4 single-level cl=16", cfg);

    cfg = SystemConfig::ring("8", 16);
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.01;
    add("ring 8 single-level low-C", cfg);

    // Saturates the double-speed global ring and escapes blocked
    // worms almost at once, so both IRI sides keep taking the wait,
    // escape and clock-domain-crossing paths no fault-free line
    // above reaches.
    cfg = SystemConfig::ring("2:2:4", 64);
    cfg.sim = shortSim();
    cfg.workload.outstandingT = 8;
    cfg.globalRingSpeed = 2;
    cfg.ringIriWaitLimit = 1;
    add("ring 2:2:4 speed-2 escapes", cfg);

    // Saturates a slotted hierarchy whose global ring is
    // double-clocked, so both IRI halves keep retrying cells (full
    // transfer queues) and the up/down queues cross clock domains.
    cfg = SystemConfig::ring("2:2:4", 32);
    cfg.ringSlotted = true;
    cfg.sim = shortSim();
    cfg.workload.outstandingT = 4;
    cfg.globalRingSpeed = 2;
    add("slotted 2:2:4 speed-2 saturating", cfg);

    return grid;
}

/** Cl-sized mesh buffers and one active fault plan per network
 *  kind: links going down and stalling mid-measurement, with the
 *  processors' retry engine armed. */
inline NamedConfigs
faultAndBufferGrid()
{
    NamedConfigs grid;

    SystemConfig cfg = SystemConfig::mesh(3, 64, 0);
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.02;
    grid.emplace_back("mesh 3 buffers-cl", cfg);

    cfg = SystemConfig::ring("2:4", 64);
    cfg.sim = shortSim();
    cfg.workload.outstandingT = 4;
    cfg.faultPlan.events = {faultSpec("ring.nic1:down@900..1400"),
                            faultSpec("ring.l0.iri0.lower:stall@1200..")};
    cfg.faultPlan.retry.timeoutCycles = 400;
    cfg.faultPlan.retry.maxRetries = 3;
    grid.emplace_back("ring 2:4 faulted", cfg);

    cfg = SystemConfig::mesh(4, 64, 4);
    cfg.sim = shortSim();
    cfg.workload.outstandingT = 4;
    cfg.faultPlan.events = {faultSpec("mesh.r5.east:down@900..1500")};
    cfg.faultPlan.retry.timeoutCycles = 400;
    cfg.faultPlan.retry.maxRetries = 3;
    grid.emplace_back("mesh 4 faulted", cfg);

    // The IRI sides on the global ring: one stalls for a window, the
    // other's output link goes down and drains a worm into the fault.
    cfg = SystemConfig::ring("2:4", 64);
    cfg.sim = shortSim();
    cfg.workload.outstandingT = 4;
    cfg.faultPlan.events = {
        faultSpec("ring.l0.iri0.upper:stall@1000..1600"),
        faultSpec("ring.l0.iri1.upper:down@900..1400")};
    cfg.faultPlan.retry.timeoutCycles = 400;
    cfg.faultPlan.retry.maxRetries = 3;
    grid.emplace_back("ring 2:4 upper-side faulted", cfg);

    return grid;
}

/** Model corners no line above reaches: an adaptive run with
 *  metric snapshots (the MSER controller's state and the horizon
 *  snapshots), locality R < 1 on a ring and a mesh (the region
 *  target tables), and a single outstanding transaction (T = 1). */
inline NamedConfigs
modelCornerGrid()
{
    NamedConfigs grid;

    SystemConfig cfg = SystemConfig::ring("2:4", 64);
    cfg.sim = shortSim();
    cfg.workload.outstandingT = 4;
    cfg.sim.stop.relHw = 0.05;
    cfg.sim.metricsEvery = 500;
    grid.emplace_back("ring 2:4 adaptive metricsEvery=500", cfg);

    cfg = SystemConfig::ring("2:4", 64);
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.02;
    cfg.workload.localityR = 0.5;
    grid.emplace_back("ring 2:4 R=0.5", cfg);

    cfg = SystemConfig::mesh(4, 64, 4);
    cfg.sim = shortSim();
    cfg.workload.missRateC = 0.02;
    cfg.workload.localityR = 0.5;
    grid.emplace_back("mesh 4 R=0.5", cfg);

    cfg = SystemConfig::ring("2:4", 32);
    cfg.sim = shortSim();
    cfg.workload.outstandingT = 1;
    grid.emplace_back("ring 2:4 T=1", cfg);

    return grid;
}

/** A 2:4 ring replaying a synthetic uniform trace instead of the
 *  M-MRP generator. The trace is a function-local static, so the
 *  returned config's pointer stays valid for the whole process. */
inline SystemConfig
traceReplayConfig()
{
    static const Trace trace =
        Trace::synthesizeUniform(8, 2500, 0.015, 0.7, 17);
    SystemConfig cfg = SystemConfig::ring("2:4", 32);
    cfg.trace = &trace;
    cfg.sim = shortSim();
    return cfg;
}

} // namespace testgrid
} // namespace hrsim

#endif // HRSIM_TESTS_BIT_IDENTITY_GRID_HH
