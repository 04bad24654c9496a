/**
 * @file
 * Extension: resilience study — ring vs mesh under link failures.
 *
 * The paper compares the two fabrics on latency alone and assumes a
 * perfect network. This bench re-asks the comparison under faults:
 * matched 16-PM systems (4:4 hierarchical ring, 4x4 mesh) take a
 * rising fraction of their node output links down for a fixed
 * mid-run window, with the processors' timeout/retry engine armed.
 * Reported per failure rate: survivor latency, delivery rate
 * (delivered/injected flits) and the drop/retry counts behind it.
 *
 * The asymmetry the numbers expose is structural (DESIGN.md s12):
 * e-cube mesh routing is deterministic, so every worm whose fixed
 * path crosses a dead link is drained and dropped at the fault for
 * the whole window, while a ring outage also blocks admission
 * upstream — the ring drains at the fault but stops accepting new
 * worms behind it, trading drops for backpressure.
 *
 * Everything is deterministic: the fault schedule is a pure function
 * of the failure rate, so reruns (any HRSIM_JOBS) reproduce the
 * table bit for bit.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"

namespace
{

using namespace hrsim;
using namespace hrsim::bench;

constexpr Cycle kFaultStart = 6000;
constexpr Cycle kFaultEnd = 12000;

/** Evenly-spread selection of @a k out of @a n candidates. */
std::vector<int>
spread(int n, int k)
{
    std::vector<int> picks;
    for (int i = 0; i < k; ++i)
        picks.push_back(i * n / k);
    return picks;
}

/** Down-windows on @a k of the 16 ring NIC output links. */
FaultPlan
ringPlan(int k)
{
    FaultPlan plan;
    for (const int nic : spread(16, k)) {
        FaultEvent event;
        std::string err;
        const std::string spec = "ring.nic" + std::to_string(nic) +
                                 ":down@" +
                                 std::to_string(kFaultStart) + ".." +
                                 std::to_string(kFaultEnd);
        if (!parseFaultSpec(spec, event, err))
            fatal(spec + ": " + err);
        plan.events.push_back(event);
    }
    plan.retry.timeoutCycles = 1000;
    plan.retry.maxRetries = 4;
    return plan;
}

/** Down-windows on @a k of the 4x4 mesh's eastward links. */
FaultPlan
meshPlan(int k)
{
    // Routers with an east neighbour (x < 3), row-major.
    std::vector<int> east;
    for (int r = 0; r < 16; ++r) {
        if (r % 4 != 3)
            east.push_back(r);
    }
    FaultPlan plan;
    for (const int pick : spread(static_cast<int>(east.size()), k)) {
        FaultEvent event;
        std::string err;
        const std::string spec =
            "mesh.r" + std::to_string(east[pick]) + ".east:down@" +
            std::to_string(kFaultStart) + ".." +
            std::to_string(kFaultEnd);
        if (!parseFaultSpec(spec, event, err))
            fatal(spec + ": " + err);
        plan.events.push_back(event);
    }
    plan.retry.timeoutCycles = 1000;
    plan.retry.maxRetries = 4;
    return plan;
}

struct FaultPoint
{
    RunResult result;
    double deliveryRate = 1.0;
    std::uint64_t droppedWorms = 0;
    std::uint64_t reissued = 0;
    std::uint64_t abandoned = 0;
};

FaultPoint
runFaulted(const std::string &series, const SystemConfig &cfg)
{
    System system(cfg);
    FaultPoint point;
    point.result = system.run();
    if (system.faults() != nullptr) {
        const FaultAccounting &acct = system.faults()->accounting();
        point.deliveryRate =
            acct.injectedFlits > 0
                ? static_cast<double>(acct.deliveredFlits) /
                      static_cast<double>(acct.injectedFlits)
                : 1.0;
        point.droppedWorms = acct.droppedWorms;
        point.reissued = system.retryCounters().reissued;
        point.abandoned = system.retryCounters().abandoned;
    }
    BenchMetricsDump::instance().add(series, cfg, point.result);
    return point;
}

} // namespace

int
main()
{
    // Failed node output links out of 16 (0%, 6%, 12%, 25%).
    const std::vector<int> kills = {0, 1, 2, 4};

    Report latency("Extension: survivor latency under link failures, "
                   "16 PMs, 64B lines (R=1.0, C=0.04, T=4, "
                   "window 6000..12000, timeout 1000, retries 4)",
                   "failed links (%)", "latency, cycles");
    Report delivery("Extension: delivery rate under link failures "
                    "(delivered / injected flits)",
                    "failed links (%)", "delivery rate, %");

    std::printf("series        fail%%   latency  delivery   dropped "
                "reissued abandoned\n");
    for (const int k : kills) {
        const int pct = k * 100 / 16;

        SystemConfig ring = ringConfig("4:4", 64, 4, 1.0);
        ring.faultPlan = ringPlan(k);
        const FaultPoint rp = runFaulted("ring 4:4", ring);
        latency.add("ring", pct, rp.result.avgLatency);
        delivery.add("ring", pct, 100.0 * rp.deliveryRate);
        std::printf("ring 4:4      %4d  %8.1f  %8.4f  %8llu %8llu "
                    "%9llu\n",
                    pct, rp.result.avgLatency, rp.deliveryRate,
                    static_cast<unsigned long long>(rp.droppedWorms),
                    static_cast<unsigned long long>(rp.reissued),
                    static_cast<unsigned long long>(rp.abandoned));

        SystemConfig mesh = meshConfig(4, 64, 4, 4, 1.0);
        mesh.faultPlan = meshPlan(k);
        const FaultPoint mp = runFaulted("mesh 4x4", mesh);
        latency.add("mesh", pct, mp.result.avgLatency);
        delivery.add("mesh", pct, 100.0 * mp.deliveryRate);
        std::printf("mesh 4x4      %4d  %8.1f  %8.4f  %8llu %8llu "
                    "%9llu\n",
                    pct, mp.result.avgLatency, mp.deliveryRate,
                    static_cast<unsigned long long>(mp.droppedWorms),
                    static_cast<unsigned long long>(mp.reissued),
                    static_cast<unsigned long long>(mp.abandoned));
    }
    std::printf("\n");

    emit(latency);
    emit(delivery);
    std::printf("structural note: e-cube mesh worms crossing a dead "
                "link are dropped for the whole window (no adaptive "
                "detour); the ring also refuses admission upstream of "
                "the fault, trading drops for backpressure\n");
    return 0;
}
