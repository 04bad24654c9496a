#include "traced_system.hh"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "ckpt/codec.hh"
#include "obs/json.hh"
#include "workload/region.hh"

namespace hrsim::e2e
{

namespace
{

/** Span budget (~10 MB of JSON Lines): sampling stops once the log
 *  holds this many spans. */
constexpr std::size_t maxSpans = 100000;

double
sampleValue(const std::vector<MetricSample> &samples,
            const std::string &name)
{
    for (const MetricSample &sample : samples) {
        if (sample.name == name)
            return sample.kind == MetricKind::Counter
                       ? static_cast<double>(sample.count)
                       : sample.value;
    }
    return 0.0;
}

bool
countersEqual(const WorkloadCounters &a, const WorkloadCounters &b)
{
    return a.missesGenerated == b.missesGenerated &&
           a.remoteIssued == b.remoteIssued &&
           a.remoteCompleted == b.remoteCompleted &&
           a.localIssued == b.localIssued &&
           a.localCompleted == b.localCompleted &&
           a.blockedCycles == b.blockedCycles;
}

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

} // namespace

bool
ModelOutputs::operator==(const ModelOutputs &other) const
{
    return countersEqual(counters, other.counters) &&
           samples == other.samples && mean == other.mean &&
           p50 == other.p50 && p95 == other.p95 && p99 == other.p99 &&
           skippedCycles == other.skippedCycles &&
           outstanding == other.outstanding;
}

bool
ModelOutputs::conserved() const
{
    const auto issued = static_cast<std::int64_t>(
        counters.remoteIssued + counters.localIssued);
    const auto completed = static_cast<std::int64_t>(
        counters.remoteCompleted + counters.localCompleted);
    return issued - completed == outstanding &&
           samples <= counters.remoteCompleted;
}

std::uint64_t
skippedCycles(const System &system)
{
    return static_cast<std::uint64_t>(
        sampleValue(system.metrics().snapshot(), "sched.skipped_cycles"));
}

std::uint64_t
flitHops(const Network &network)
{
    // The tracker exposes utilization ratios only; its checkpoint
    // record carries the raw per-group transfer counts. This must
    // follow UtilizationTracker::saveState(): measuring flag, window
    // start, window length, group count, one count per group.
    const UtilizationTracker &tracker = network.utilization();
    CkptWriter w;
    tracker.saveState(w);
    CkptReader r(w.data());
    r.boolean();
    r.u64();
    r.u64();
    const std::uint32_t groups = r.u32();
    std::uint64_t hops = 0;
    for (std::uint32_t g = 0; g < groups && r.remaining() >= 8; ++g)
        hops += r.u64();
    if (groups != tracker.numGroups() || !r.atEnd()) {
        throw std::runtime_error(
            "flitHops: the utilization checkpoint record changed layout; "
            "update bench/e2e/traced_system.cc to match "
            "UtilizationTracker::saveState()");
    }
    return hops;
}

std::uint64_t
streamedFlits(const System &system)
{
    double total = 0.0;
    for (const MetricSample &sample : system.metrics().snapshot()) {
        if (endsWith(sample.name, ".streamed_flits"))
            total += sample.value;
    }
    return static_cast<std::uint64_t>(total);
}

ModelOutputs
outputsOf(System &system)
{
    ModelOutputs out;
    out.counters = system.counters();
    out.samples = system.latency().sampleCount();
    out.mean = system.latency().mean();
    out.p50 = system.latencyHistogram().p50();
    out.p95 = system.latencyHistogram().p95();
    out.p99 = system.latencyHistogram().p99();
    out.skippedCycles = skippedCycles(system);
    out.outstanding = system.totalOutstanding();
    return out;
}

ModelOutputs
outputsOf(const RunResult &result)
{
    ModelOutputs out;
    out.counters = result.counters;
    out.samples = result.samples;
    out.mean = result.avgLatency;
    out.p50 = result.latencyP50;
    out.p95 = result.latencyP95;
    out.p99 = result.latencyP99;
    out.skippedCycles = static_cast<std::uint64_t>(
        sampleValue(result.metrics, "sched.skipped_cycles"));
    out.outstanding = static_cast<std::int64_t>(
        sampleValue(result.metrics, "sim.outstanding"));
    return out;
}

std::int64_t
Tracer::open(const char *name, std::int64_t parent, std::uint32_t op,
             std::uint64_t start)
{
    spans_.push_back(Span{name, parent, op, start, start});
    return static_cast<std::int64_t>(spans_.size() - 1);
}

void
Tracer::close(std::int64_t span, std::uint64_t end)
{
    spans_[static_cast<std::size_t>(span)].end = end;
}

void
Tracer::record(const char *name, std::int64_t parent, std::uint32_t op,
               std::uint64_t start, std::uint64_t end)
{
    spans_.push_back(Span{name, parent, op, start, end});
}

bool
Tracer::sampleNext()
{
    if (sampleEvery_ == 0 || spans_.size() >= maxSpans)
        return false;
    return iterations_++ % sampleEvery_ == 0;
}

void
Tracer::writeJsonl(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write trace file " + path);
    const std::uint64_t origin = spans_.empty() ? 0 : spans_[0].start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"id\":" << i << ",\"name\":\"" << jsonEscape(s.name)
            << "\",\"start_ns\":" << s.start - origin
            << ",\"end_ns\":" << s.end - origin << ",\"parent\":";
        if (s.parent < 0)
            out << "null";
        else
            out << s.parent;
        out << ",\"op\":" << s.op << "}\n";
    }
    if (!out)
        throw std::runtime_error("failed writing trace file " + path);
}

TracedSystem::TracedSystem(const SystemConfig &cfg, Tracer &tracer)
    : tracer_(tracer), system_(cfg),
      factory_(cfg.kind == NetworkKind::Mesh ? ChannelSpec::mesh()
                                             : ChannelSpec::ring(),
               cfg.cacheLineBytes),
      latency_(cfg.sim.warmupCycles, cfg.sim.batchCycles,
               cfg.sim.numBatches)
{
    if (!cfg.faultPlan.empty() || cfg.trace != nullptr ||
        cfg.ringSlotted || cfg.sim.metricsEvery != 0 ||
        cfg.sim.stop.enabled() || cfg.sim.tickThreads != 1 ||
        !cfg.sim.idleSkip || !cfg.ckpt.savePath.empty() ||
        !cfg.ckpt.restorePath.empty()) {
        throw std::invalid_argument(
            "TracedSystem: config uses a System feature the traced "
            "driver does not replay");
    }

    Network &net = system_.network();
    const int num_pms = net.numProcessors();
    for (NodeId pm = 0; pm < num_pms; ++pm) {
        std::vector<NodeId> region =
            cfg.kind == NetworkKind::Mesh
                ? meshRegion(pm, cfg.meshWidth, cfg.workload.localityR)
                : ringRegion(pm, num_pms, cfg.workload.localityR,
                             cfg.ringWrapRegion);
        processors_.push_back(std::make_unique<Processor>(
            pm, std::move(region), cfg.workload, factory_, net,
            latency_, counters_, cfg.sim.seed));
        processors_.back()->setHistogram(&histogram_);
        memories_.push_back(std::make_unique<MemoryModule>(
            pm, cfg.workload.memoryLatency, factory_, net,
            cfg.workload.memorySerialized));
    }
    procWake_.assign(processors_.size(), 0);
    memActive_.assign(processors_.size(), 0);
    activeMems_.reserve(processors_.size());

    const std::vector<MetricSample> names = system_.metrics().snapshot();
    activeSched_ = std::any_of(
        names.begin(), names.end(), [](const MetricSample &s) {
            return s.name == "sched.skipped_cycles";
        });
    // Every NIC, IRI and router publishes one "<component>.flits"
    // occupancy gauge.
    components_ = static_cast<double>(std::max<std::ptrdiff_t>(
        1, std::count_if(names.begin(), names.end(),
                         [](const MetricSample &s) {
                             return endsWith(s.name, ".flits") &&
                                    !endsWith(s.name, "streamed_flits");
                         })));

    net.setDeliveryHandler([this](const Packet &pkt, Cycle when) {
        const std::uint64_t start = nowNs();
        lastProgress_ = when;
        const auto dst = static_cast<std::size_t>(pkt.dst);
        if (isRequest(pkt.type)) {
            memories_[dst]->onRequest(pkt, when);
            if (!memActive_[dst]) {
                memActive_[dst] = 1;
                activeMems_.push_back(pkt.dst);
            }
        } else {
            processors_[dst]->onResponse(pkt, when);
            if (procWake_[dst] > when + 1)
                procWake_[dst] = when + 1;
        }
        const std::uint64_t end = nowNs();
        deliverNs_ += end - start;
        ++tracer_.totals.callsOf(Layer::Deliver);
        if (netSpan_ >= 0)
            tracer_.record("workload.deliver", netSpan_, op_, start, end);
    });
}

void
TracedSystem::step(Cycle cycles, std::int64_t parent, std::uint32_t op)
{
    op_ = op;
    const Cycle target = now_ + cycles;
    while (now_ < target) {
        fastForward(target);
        if (now_ == target)
            break;
        const std::int64_t cycle_span =
            tracer_.sampleNext() ? tracer_.open("cycle", parent, op, nowNs())
                                 : -1;
        tickOnce(cycle_span);
        if (cycle_span >= 0)
            tracer_.close(cycle_span, nowNs());
    }
}

void
TracedSystem::fastForward(Cycle limit)
{
    // System::fastForwardQuiescent() without the metrics-snapshot and
    // save-point clamps: the constructor rejects configs using either.
    if (!activeSched_ || !network().isIdle())
        return;
    const SimConfig &sim = system_.config().sim;
    Cycle target = limit;
    if (now_ <= sim.warmupCycles && target > sim.warmupCycles)
        target = sim.warmupCycles;
    if (sim.watchdogCycles > 0)
        target = std::min(target, lastProgress_ + sim.watchdogCycles + 1);
    for (const Cycle wake : procWake_)
        target = std::min(target, wake);
    for (const NodeId pm : activeMems_) {
        target = std::min(
            target, memories_[static_cast<std::size_t>(pm)]->nextReady());
    }
    if (target <= now_)
        return;
    skippedCycles_ += target - now_;
    now_ = target;
}

void
TracedSystem::tickOnce(std::int64_t cycle_span)
{
    LayerTotals &totals = tracer_.totals;
    const bool sampled = cycle_span >= 0;

    const std::uint64_t t0 = nowNs();
    for (std::size_t i = 0; i < processors_.size(); ++i) {
        if (procWake_[i] > now_)
            continue;
        const std::uint64_t start = sampled ? nowNs() : 0;
        processors_[i]->tick(now_);
        procWake_[i] = processors_[i]->nextWake(now_);
        ++totals.callsOf(Layer::Proc);
        if (sampled)
            tracer_.record("proc.tick", cycle_span, op_, start, nowNs());
    }
    const std::uint64_t t1 = nowNs();
    for (std::size_t i = 0; i < activeMems_.size();) {
        const auto pm = static_cast<std::size_t>(activeMems_[i]);
        const std::uint64_t start = sampled ? nowNs() : 0;
        memories_[pm]->tick(now_);
        ++totals.callsOf(Layer::Mem);
        if (sampled)
            tracer_.record("mem.tick", cycle_span, op_, start, nowNs());
        if (memories_[pm]->pendingResponses() == 0) {
            memActive_[pm] = 0;
            activeMems_[i] = activeMems_.back();
            activeMems_.pop_back();
        } else {
            ++i;
        }
    }
    const std::uint64_t t2 = nowNs();
    netSpan_ = sampled ? tracer_.open("net.tick", cycle_span, op_, t2) : -1;
    deliverNs_ = 0;
    network().tick(now_);
    const std::uint64_t t3 = nowNs();
    if (sampled) {
        tracer_.close(netSpan_, t3);
        netSpan_ = -1;
        totals.activeFracSum +=
            static_cast<double>(network().activeNodeCount()) /
            components_;
        ++totals.activeSamples;
    }
    totals.nsOf(Layer::Proc) += t1 - t0;
    totals.nsOf(Layer::Mem) += t2 - t1;
    totals.nsOf(Layer::Net) += t3 - t2 - deliverNs_;
    totals.nsOf(Layer::Deliver) += deliverNs_;
    ++totals.callsOf(Layer::Net);

    // Progress and watchdog bookkeeping, as in System::tickOnce().
    const std::uint64_t activity =
        counters_.remoteIssued + counters_.localIssued +
        counters_.remoteCompleted + counters_.localCompleted;
    if (activity != lastActivity_) {
        lastActivity_ = activity;
        lastProgress_ = now_;
    }
    const Cycle watchdog = system_.config().sim.watchdogCycles;
    if (watchdog > 0 && now_ - lastProgress_ > watchdog) {
        std::int64_t outstanding = 0;
        for (const auto &processor : processors_)
            outstanding += processor->outstanding();
        if (outstanding > 0) {
            throw StallError("traced driver: no progress for " +
                             std::to_string(now_ - lastProgress_) +
                             " cycles at cycle " + std::to_string(now_));
        }
        lastProgress_ = now_;
    }
    ++now_;
}

void
TracedSystem::syncSkipped()
{
    for (auto &processor : processors_)
        processor->syncSkipped(now_);
}

ModelOutputs
TracedSystem::outputs()
{
    ModelOutputs out;
    out.counters = counters_;
    out.samples = latency_.sampleCount();
    out.mean = latency_.mean();
    out.p50 = histogram_.p50();
    out.p95 = histogram_.p95();
    out.p99 = histogram_.p99();
    out.skippedCycles = skippedCycles_;
    for (const auto &processor : processors_)
        out.outstanding += processor->outstanding();
    return out;
}

} // namespace hrsim::e2e
