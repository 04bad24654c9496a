#include "core/system.hh"

#include <algorithm>

#include "ckpt/codec.hh"
#include "ckpt/result_io.hh"
#include "common/log.hh"
#include "mesh/mesh_network.hh"
#include "obs/manifest.hh"
#include "ring/slotted_network.hh"
#include "workload/region.hh"

namespace hrsim
{

int
SystemConfig::numProcessors() const
{
    if (kind == NetworkKind::HierarchicalRing)
        return static_cast<int>(ringTopo.numProcessors());
    return meshWidth * meshWidth;
}

SystemConfig
SystemConfig::ring(const std::string &topo,
                   std::uint32_t cache_line_bytes)
{
    SystemConfig cfg;
    cfg.kind = NetworkKind::HierarchicalRing;
    cfg.ringTopo = RingTopology::parse(topo);
    cfg.cacheLineBytes = cache_line_bytes;
    return cfg;
}

SystemConfig
SystemConfig::mesh(int width, std::uint32_t cache_line_bytes,
                   std::uint32_t buffer_flits)
{
    SystemConfig cfg;
    cfg.kind = NetworkKind::Mesh;
    cfg.meshWidth = width;
    cfg.meshBufferFlits = buffer_flits;
    cfg.cacheLineBytes = cache_line_bytes;
    return cfg;
}

StopPolicy
resolveStopPolicy(const SimConfig &sim)
{
    StopPolicy policy = sim.stop;
    if (!policy.enabled())
        return policy;
    if (policy.batchCycles == 0)
        policy.batchCycles = std::max<Cycle>(sim.batchCycles / 4, 1);
    if (policy.maxCycles == 0) {
        policy.maxCycles =
            8 * (sim.warmupCycles +
                 sim.batchCycles * static_cast<Cycle>(sim.numBatches));
    }
    return policy;
}

System::System(const SystemConfig &cfg)
    : cfg_(cfg), stopPolicy_(resolveStopPolicy(cfg.sim)),
      latency_(stopPolicy_.enabled()
                   ? BatchMeans::adaptive(stopPolicy_.batchCycles)
                   : BatchMeans(cfg.sim.warmupCycles,
                                cfg.sim.batchCycles,
                                cfg.sim.numBatches))
{
    if (cfg_.sim.tickThreads != 1) {
        fatal("System: tickThreads = " +
              std::to_string(cfg_.sim.tickThreads) +
              " is not supported; the shard-parallel tick engine was "
              "removed and every run ticks serially (use sweep "
              "workers, SweepOptions::jobs / --jobs, for parallelism)");
    }
    if (!cfg_.sim.idleSkip) {
        fatal("System: idleSkip = false is not supported; the "
              "every-cycle tick loop was removed and every run skips "
              "idle components (results are identical either way)");
    }
    if (!cacheLineSupported(cfg_.cacheLineBytes)) {
        fatal("System: cacheLineBytes = " +
              std::to_string(cfg_.cacheLineBytes) +
              " is not supported; a line must be a positive multiple "
              "of 16 bytes, at most " +
              std::to_string(maxCacheLineBytes) +
              " (whole flits on both networks, and a packet size "
              "that fits a flit's 16-bit fields)");
    }
    buildNetwork();
    buildWorkload();

    if (!cfg_.faultPlan.empty()) {
        if (cfg_.kind == NetworkKind::HierarchicalRing &&
            cfg_.ringSlotted) {
            fatal("System: fault injection is not supported with the "
                  "slotted ring (no worm-drain path); use the "
                  "wormhole ring or the mesh");
        }
        // Validates every target against the topology and shares the
        // conservation ledger with the network.
        faults_ = std::make_unique<FaultController>(cfg_.faultPlan,
                                                    *network_);
        for (auto &processor : processors_) {
            processor->setRetryPolicy(&cfg_.faultPlan.retry,
                                      &retryCounters_);
        }
    }

    network_->setDeliveryHandler(
        [this](const Packet &pkt, Cycle when) {
            lastProgress_ = when;
            const auto dst = static_cast<std::size_t>(pkt.dst);
            HRSIM_ASSERT(dst < processors_.size());
            if (isRequest(pkt.type)) {
                memories_[dst]->onRequest(pkt, when);
                if (!memActive_[dst]) {
                    memActive_[dst] = 1;
                    activeMems_.push_back(pkt.dst);
                }
            } else {
                processors_[dst]->onResponse(pkt, when);
                // A sleeping processor gains a free slot: it must be
                // ticked again from the next cycle on.
                if (procWake_[dst] > when + 1)
                    procWake_[dst] = when + 1;
            }
        });

    const auto num_pms = processors_.size();
    procWake_.assign(num_pms, 0);
    memActive_.assign(num_pms, 0);
    activeMems_.reserve(num_pms);

    registerSystemMetrics();
}

System::~System() = default;

void
System::buildNetwork()
{
    if (cfg_.kind == NetworkKind::HierarchicalRing &&
        cfg_.ringSlotted) {
        SlottedRingNetwork::Params params;
        params.topo = cfg_.ringTopo;
        params.cacheLineBytes = cfg_.cacheLineBytes;
        params.globalRingSpeed = cfg_.globalRingSpeed;
        network_ = std::make_unique<SlottedRingNetwork>(params);
        factory_ = std::make_unique<PacketFactory>(
            ChannelSpec::ring(), cfg_.cacheLineBytes);
    } else if (cfg_.kind == NetworkKind::HierarchicalRing) {
        RingNetwork::Params params;
        params.topo = cfg_.ringTopo;
        params.cacheLineBytes = cfg_.cacheLineBytes;
        params.globalRingSpeed = cfg_.globalRingSpeed;
        params.nicBypass = cfg_.ringBypass;
        params.iriWaitLimit = cfg_.ringIriWaitLimit;
        params.iriQueuePackets = cfg_.ringIriQueuePackets;
        network_ = std::make_unique<RingNetwork>(params);
        factory_ = std::make_unique<PacketFactory>(
            ChannelSpec::ring(), cfg_.cacheLineBytes);
    } else {
        MeshNetwork::Params params;
        params.width = cfg_.meshWidth;
        params.cacheLineBytes = cfg_.cacheLineBytes;
        params.bufferFlits = cfg_.meshBufferFlits;
        params.roundRobinArbitration = cfg_.meshRoundRobin;
        network_ = std::make_unique<MeshNetwork>(params);
        factory_ = std::make_unique<PacketFactory>(
            ChannelSpec::mesh(), cfg_.cacheLineBytes);
    }
}

void
System::buildWorkload()
{
    const int num_pms = network_->numProcessors();
    if (cfg_.trace != nullptr && cfg_.trace->maxNode() >= num_pms) {
        fatal("System: trace references PM " +
              std::to_string(cfg_.trace->maxNode()) +
              " but the network has only " +
              std::to_string(num_pms) + " PMs");
    }
    processors_.reserve(static_cast<std::size_t>(num_pms));
    memories_.reserve(static_cast<std::size_t>(num_pms));
    for (NodeId pm = 0; pm < num_pms; ++pm) {
        if (cfg_.trace != nullptr) {
            processors_.push_back(std::make_unique<TraceProcessor>(
                pm, cfg_.trace->forPm(pm),
                cfg_.workload.outstandingT,
                cfg_.workload.memoryLatency, *factory_, *network_,
                latency_, counters_));
        } else {
            std::vector<NodeId> region;
            if (cfg_.kind == NetworkKind::HierarchicalRing) {
                region = ringRegion(pm, num_pms,
                                    cfg_.workload.localityR,
                                    cfg_.ringWrapRegion);
            } else {
                region = meshRegion(pm, cfg_.meshWidth,
                                    cfg_.workload.localityR);
            }
            processors_.push_back(std::make_unique<Processor>(
                pm, std::move(region), cfg_.workload, *factory_,
                *network_, latency_, counters_, cfg_.sim.seed));
        }
        processors_.back()->setHistogram(&histogram_);
        memories_.push_back(std::make_unique<MemoryModule>(
            pm, cfg_.workload.memoryLatency, *factory_, *network_,
            cfg_.workload.memorySerialized));
    }
}

void
System::registerSystemMetrics()
{
    metrics_.addCounter("workload.misses_generated",
                        &counters_.missesGenerated);
    metrics_.addCounter("workload.remote_issued",
                        &counters_.remoteIssued);
    metrics_.addCounter("workload.remote_completed",
                        &counters_.remoteCompleted);
    metrics_.addCounter("workload.local_issued",
                        &counters_.localIssued);
    metrics_.addCounter("workload.local_completed",
                        &counters_.localCompleted);
    metrics_.addCounter("workload.blocked_cycles",
                        &counters_.blockedCycles);

    metrics_.addGauge("latency.avg",
                      [this]() { return latency_.mean(); });
    metrics_.addGauge("latency.ci95",
                      [this]() { return latency_.halfWidth95(); });
    metrics_.addCounter("latency.samples",
                        [this]() { return latency_.sampleCount(); });
    metrics_.addHistogram("latency", &histogram_);

    metrics_.addGauge("sim.cycles", [this]() {
        return static_cast<double>(now_);
    });
    metrics_.addGauge("sim.outstanding", [this]() {
        return static_cast<double>(totalOutstanding());
    });
    metrics_.addGauge("sim.pending_responses", [this]() {
        return static_cast<double>(totalPendingResponses());
    });

    metrics_.addGauge("net.util", [this]() {
        return network_->utilization().totalUtilization();
    });
    metrics_.addGauge("throughput.per_pm", [this]() {
        double measured;
        if (stopPolicy_.enabled()) {
            // Adaptive: the measured window is everything after the
            // current MSER truncation. now_ can sit exactly on the
            // truncation boundary early in the run.
            const Cycle trunc =
                static_cast<Cycle>(latency_.truncationBatch()) *
                stopPolicy_.batchCycles;
            measured = now_ > trunc
                           ? static_cast<double>(now_ - trunc)
                           : 1.0;
        } else {
            measured = static_cast<double>(cfg_.sim.batchCycles) *
                       cfg_.sim.numBatches;
        }
        return static_cast<double>(latency_.sampleCount()) /
               (measured *
                static_cast<double>(network_->numProcessors()));
    });

    // Adaptive run control introspection. Registered only when the
    // sequential stopping rule is on, so fixed-length artifacts stay
    // byte-identical to earlier releases.
    if (stopPolicy_.enabled()) {
        metrics_.addGauge("run.stop_reason", [this]() {
            return static_cast<double>(stopReason_);
        });
        metrics_.addGauge("run.cycles_simulated", [this]() {
            return static_cast<double>(now_);
        });
        metrics_.addGauge("run.rel_hw", [this]() {
            const double mean = latency_.mean();
            return mean > 0.0 ? latency_.halfWidth95() / mean : 0.0;
        });
        metrics_.addGauge("run.warmup_cycles", [this]() {
            return static_cast<double>(
                static_cast<Cycle>(latency_.truncationBatch()) *
                stopPolicy_.batchCycles);
        });
    }

    // Scheduler introspection.
    metrics_.addCounter("sched.skipped_cycles", &skippedCycles_);
    metrics_.addGauge("sched.active_nodes", [this]() {
        return static_cast<double>(network_->activeNodeCount());
    });

    // Fault-injection introspection. Registered only under a fault
    // plan: fault-free artifacts never mention the subsystem.
    if (faults_) {
        faults_->registerMetrics(metrics_);
        metrics_.addCounter("retry.reissued",
                            &retryCounters_.reissued);
        metrics_.addCounter("retry.stale_responses",
                            &retryCounters_.stale);
        metrics_.addCounter("retry.abandoned",
                            &retryCounters_.abandoned);
    }

    network_->registerMetrics(metrics_);
}

void
System::setTracer(FlitTracer *tracer)
{
    tracer_ = tracer;
    network_->setTracer(tracer);
}

void
System::tickOnce()
{
    if constexpr (FlitTracer::compiledIn()) {
        if (tracer_)
            tracer_->setCycle(now_);
    }
    // Fault edges fire before anything evaluates the cycle, so a
    // window [s, e) is in force for exactly the ticks it names (and
    // the lazy replay stays jump-safe; see fault_controller.hh).
    if (faults_)
        faults_->advanceTo(now_);
    // Tick only components with work to do. The nextWake() /
    // syncSkipped() contract makes a skipped processor tick
    // indistinguishable from a ticked one.
    for (std::size_t i = 0; i < processors_.size(); ++i) {
        if (procWake_[i] > now_)
            continue;
        processors_[i]->tick(now_);
        procWake_[i] = processors_[i]->nextWake(now_);
    }
    for (std::size_t i = 0; i < activeMems_.size();) {
        const auto pm = static_cast<std::size_t>(activeMems_[i]);
        memories_[pm]->tick(now_);
        if (memories_[pm]->pendingResponses() == 0) {
            // Drained: drop from the active list (order within the
            // list is immaterial — memories only touch their own NIC
            // queue).
            memActive_[pm] = 0;
            activeMems_[i] = activeMems_.back();
            activeMems_.pop_back();
        } else {
            ++i;
        }
    }
    network_->tick(now_);

    // Issue/completion activity also counts as forward progress (a
    // low-rate workload can legitimately go long stretches without a
    // delivery in flight).
    const std::uint64_t activity =
        counters_.remoteIssued + counters_.localIssued +
        counters_.remoteCompleted + counters_.localCompleted;
    if (activity != lastActivity_) {
        lastActivity_ = activity;
        lastProgress_ = now_;
    }

    if (cfg_.sim.watchdogCycles > 0 &&
        now_ - lastProgress_ > cfg_.sim.watchdogCycles) {
        // Only an actual wedged transaction counts as a stall; an
        // idle system (nothing outstanding) is simply quiescent.
        if (totalOutstanding() > 0) {
            throw StallError(
                "no packet delivered for " +
                std::to_string(now_ - lastProgress_) +
                " cycles with " + std::to_string(totalOutstanding()) +
                " transactions outstanding at cycle " +
                std::to_string(now_));
        }
        lastProgress_ = now_;
    }
    ++now_;
}

void
System::fastForwardQuiescent(Cycle limit)
{
    if (!network_->isIdle())
        return;

    Cycle target = limit;
    // Land exactly on the warmup boundary so measurement starts on
    // schedule, and never jump past the next watchdog check or
    // metrics-snapshot tick. <= because run() calls this before its
    // warmup check: a jump attempted AT the boundary must stay put
    // (target <= now_ below) or startMeasurement() is skipped.
    if (now_ <= cfg_.sim.warmupCycles &&
        target > cfg_.sim.warmupCycles) {
        target = cfg_.sim.warmupCycles;
    }
    if (cfg_.sim.watchdogCycles > 0) {
        target = std::min(
            target, lastProgress_ + cfg_.sim.watchdogCycles + 1);
    }
    if (cfg_.sim.metricsEvery != 0) {
        // The tick at k*every - 1 publishes the snapshot for k*every.
        target = std::min(
            target, (now_ / cfg_.sim.metricsEvery + 1) *
                            cfg_.sim.metricsEvery -
                        1);
    }
    // Never jump over a pending save point: the snapshot must capture
    // the state at exactly the requested cycle. <= (a jump attempted
    // AT the boundary stays put), because the run loop saves after
    // this call — same reasoning as the warmup clamp above. Once a
    // boundary's save has fired the clamp releases, so the run loop's
    // retry resumes the jump and the no-op gap is merely split across
    // two jumps: skipped-cycle totals stay bit-identical with saving
    // on or off.
    if (!cfg_.ckpt.savePath.empty()) {
        if (cfg_.ckpt.saveAt != 0 && !saveAtDone_ &&
            now_ <= cfg_.ckpt.saveAt && target > cfg_.ckpt.saveAt) {
            target = cfg_.ckpt.saveAt;
        }
        if (cfg_.ckpt.saveEvery != 0) {
            const bool pending_here =
                now_ % cfg_.ckpt.saveEvery == 0 && now_ != 0 &&
                now_ != lastEverySave_;
            const Cycle boundary =
                pending_here ? now_
                             : (now_ / cfg_.ckpt.saveEvery + 1) *
                                   cfg_.ckpt.saveEvery;
            target = std::min(target, boundary);
        }
    }

    // Earliest future event: the soonest processor wake or pending
    // memory completion. (A ready-but-uninjected response implies a
    // non-idle network next tick, so activeMems_ deadlines are
    // always in the future here.)
    for (const Cycle wake : procWake_)
        target = std::min(target, wake);
    for (const NodeId pm : activeMems_) {
        target = std::min(
            target,
            memories_[static_cast<std::size_t>(pm)]->nextReady());
    }

    if (target <= now_)
        return;
    skippedCycles_ += target - now_;
    now_ = target;
}

void
System::step(Cycle cycles)
{
    const Cycle target = now_ + cycles;
    while (now_ < target) {
        fastForwardQuiescent(target);
        if (now_ >= target)
            break;
        tickOnce();
    }
}

int
System::totalOutstanding() const
{
    int total = 0;
    for (const auto &processor : processors_)
        total += processor->outstanding();
    return total;
}

std::size_t
System::totalPendingResponses() const
{
    std::size_t total = 0;
    for (const auto &memory : memories_)
        total += memory->pendingResponses();
    return total;
}

RunResult
System::run()
{
    if (!cfg_.ckpt.restorePath.empty() && !restored_)
        restoreCheckpoint(cfg_.ckpt.restorePath);
    return stopPolicy_.enabled() ? runAdaptive() : runFixed();
}

RunResult
System::runFixed()
{
    const Cycle end = latency_.endCycle();
    UtilizationTracker &util = network_->utilization();

    while (now_ < end) {
        fastForwardQuiescent(end);
        if (now_ >= end)
            break;
        // Save before the warmup check: a snapshot at the warmup
        // boundary captures the pre-measurement state, and the
        // restored run re-runs startMeasurement() exactly where the
        // uninterrupted one did. After a save, retry the fast-forward
        // first — if the boundary interrupted a quiescent gap, the
        // jump resumes instead of burning a tick the uninterrupted
        // run would have skipped.
        if (maybeSaveCheckpoint()) {
            if (saveStopRequested_)
                break;
            continue;
        }
        if (now_ == cfg_.sim.warmupCycles)
            util.startMeasurement(now_);
        tickOnce();
        if (cfg_.sim.metricsEvery != 0 && now_ < end &&
            now_ % cfg_.sim.metricsEvery == 0) {
            // Snapshots are read-only: markSnapshot() provisionally
            // times the utilization window and the registry samplers
            // only read component state.
            util.markSnapshot(now_);
            snapshots_.push_back({now_, metrics_.snapshot()});
        }
    }
    const Cycle stop = saveStopRequested_ ? now_ : end;
    // A stop-after-save at or before the warmup boundary never opened
    // the measurement window; there is nothing to close.
    if (*util.measuringFlag())
        util.stopMeasurement(stop);
    // Credit cycles skipped by sleeping processors at the horizon so
    // counters match the every-cycle path exactly.
    for (auto &processor : processors_)
        processor->syncSkipped(stop);

    RunResult result;
    result.stopReason = StopReason::FixedLength;
    result.warmupCycles = cfg_.sim.warmupCycles;
    result.snapshots = std::move(snapshots_);
    const Cycle measured =
        saveStopRequested_
            ? stop - std::min(stop, cfg_.sim.warmupCycles)
            : cfg_.sim.batchCycles *
                  static_cast<Cycle>(cfg_.sim.numBatches);
    finishResult(result, stop, measured);
    return result;
}

double
System::outstandingOccupancy() const
{
    const double cap =
        static_cast<double>(cfg_.workload.outstandingT) *
        static_cast<double>(network_->numProcessors());
    return cap > 0.0 ? static_cast<double>(totalOutstanding()) / cap
                     : 0.0;
}

RunResult
System::runAdaptive()
{
    UtilizationTracker &util = network_->utilization();
    // No a-priori warmup: the whole run is measured and the MSER
    // truncation corrects the latency estimate afterwards. Link
    // utilization keeps the full window — its transient bias decays
    // with run length and it is not the convergence target. A
    // restored run already carries the open window in its snapshot.
    if (!restored_)
        util.startMeasurement(now_);

    if (!controller_) {
        controller_ =
            std::make_unique<RunController>(stopPolicy_, latency_);
    }
    RunController::Decision decision;
    do {
        const Cycle checkpoint = controller_->nextCheckpoint();
        while (now_ < checkpoint) {
            fastForwardQuiescent(checkpoint);
            if (now_ >= checkpoint)
                break;
            if (maybeSaveCheckpoint()) {
                if (saveStopRequested_)
                    break;
                continue;
            }
            tickOnce();
            if (cfg_.sim.metricsEvery != 0 &&
                now_ % cfg_.sim.metricsEvery == 0) {
                util.markSnapshot(now_);
                snapshots_.push_back({now_, metrics_.snapshot()});
            }
        }
        if (saveStopRequested_)
            break;
        decision =
            controller_->onCheckpoint(now_, outstandingOccupancy());
    } while (!decision.stop);

    const Cycle end = now_;
    util.stopMeasurement(end);
    for (auto &processor : processors_)
        processor->syncSkipped(end);

    stopReason_ = decision.reason;

    RunResult result;
    result.stopReason = decision.reason;
    result.warmupCycles = controller_->warmupCycles();
    const double mean = latency_.mean();
    result.relHalfWidth =
        mean > 0.0 ? latency_.halfWidth95() / mean : 0.0;
    result.snapshots = std::move(snapshots_);
    finishResult(result, end, end - controller_->warmupCycles());
    return result;
}

void
System::finishResult(RunResult &result, Cycle end,
                     Cycle measured_cycles)
{
    UtilizationTracker &util = network_->utilization();
    result.avgLatency = latency_.mean();
    result.latencyCI95 = latency_.halfWidth95();
    result.samples = latency_.sampleCount();
    result.latencyP50 = histogram_.p50();
    result.latencyP95 = histogram_.p95();
    result.latencyP99 = histogram_.p99();
    result.counters = counters_;
    result.cycles = end;
    result.networkUtilization = util.totalUtilization();
    if (cfg_.kind == NetworkKind::HierarchicalRing &&
        cfg_.ringSlotted) {
        auto &ring = static_cast<SlottedRingNetwork &>(*network_);
        for (int level = 0; level < ring.numLevels(); ++level)
            result.ringLevelUtilization.push_back(
                ring.levelUtilization(level));
    } else if (cfg_.kind == NetworkKind::HierarchicalRing) {
        auto &ring = static_cast<RingNetwork &>(*network_);
        for (int level = 0; level < ring.numLevels(); ++level)
            result.ringLevelUtilization.push_back(
                ring.levelUtilization(level));
    }
    result.throughputPerPm =
        static_cast<double>(result.samples) /
        (static_cast<double>(std::max<Cycle>(measured_cycles, 1)) *
         static_cast<double>(network_->numProcessors()));
    result.metrics = metrics_.snapshot();
}

namespace
{

/**
 * Config key with its " seed=<n>" field removed. Warm-start forking
 * (CheckpointOptions::forkSeed) compares keys modulo the seed — the
 * fork deliberately diverges there and nowhere else.
 */
std::string
stripSeedField(const std::string &key)
{
    const std::string tag = " seed=";
    const std::size_t at = key.find(tag);
    if (at == std::string::npos)
        return key;
    std::size_t end = key.find(' ', at + tag.size());
    if (end == std::string::npos)
        end = key.size();
    return key.substr(0, at) + key.substr(end);
}

} // namespace

void
System::saveCheckpoint(const std::string &path) const
{
    if (!network_->checkpointSupported()) {
        throw CheckpointError(
            "checkpoint: this network does not support checkpointing "
            "(slotted ring)");
    }

    // Payload layout (DESIGN.md section 13): simulation-core scalars,
    // measurement machinery, scheduler bookkeeping, workload
    // components, fault state, then the network. The order is frozen
    // by ckptSchemaVersion — extend only by bumping it.
    CkptWriter w;
    w.u64(now_);
    w.u64(lastProgress_);
    w.u64(lastActivity_);
    w.u64(skippedCycles_);
    w.u8(static_cast<std::uint8_t>(stopReason_));

    w.u64(counters_.missesGenerated);
    w.u64(counters_.remoteIssued);
    w.u64(counters_.remoteCompleted);
    w.u64(counters_.localIssued);
    w.u64(counters_.localCompleted);
    w.u64(counters_.blockedCycles);

    latency_.saveState(w);
    histogram_.saveState(w);
    network_->utilization().saveState(w);

    w.u32(static_cast<std::uint32_t>(procWake_.size()));
    for (const Cycle wake : procWake_)
        w.u64(wake);
    // activeMems_ in list order: delivery order assigned membership,
    // and replaying it exactly keeps the memory tick order — and so
    // every downstream packet id — identical after restore.
    // (memActive_ is its membership flag vector, derived on load.)
    w.u32(static_cast<std::uint32_t>(activeMems_.size()));
    for (const NodeId pm : activeMems_)
        w.i32(pm);

    w.u64(factory_->nextId());

    w.boolean(controller_ != nullptr);
    if (controller_)
        controller_->saveState(w);
    saveMetricSnapshots(w, snapshots_);

    for (const auto &processor : processors_)
        processor->saveState(w);
    for (const auto &memory : memories_)
        memory->saveState(w);

    w.boolean(faults_ != nullptr);
    if (faults_) {
        faults_->saveState(w);
        w.u64(retryCounters_.reissued);
        w.u64(retryCounters_.stale);
        w.u64(retryCounters_.abandoned);
    }

    network_->saveState(w);

    CheckpointHeader header;
    header.version = ckptSchemaVersion;
    header.configKey = configKey(cfg_);
    header.cycle = now_;
    writeCheckpointFile(path, header, w);
}

void
System::restoreCheckpoint(const std::string &path)
{
    if (!network_->checkpointSupported()) {
        throw CheckpointError(
            "checkpoint: this network does not support checkpointing "
            "(slotted ring)");
    }

    std::vector<std::uint8_t> payload;
    const CheckpointHeader header = openCheckpointFile(path, payload);

    const std::string own_key = configKey(cfg_);
    const bool fork = cfg_.ckpt.forkSeed != 0;
    const std::string saved_cmp =
        fork ? stripSeedField(header.configKey) : header.configKey;
    const std::string own_cmp =
        fork ? stripSeedField(own_key) : own_key;
    if (saved_cmp != own_cmp) {
        throw CheckpointError(
            "checkpoint: config mismatch\n  snapshot: " +
            header.configKey + "\n  run:      " + own_key);
    }

    CkptReader r(std::move(payload));

    now_ = r.u64();
    if (now_ != header.cycle) {
        throw CheckpointError(
            "checkpoint: header and payload disagree on the save "
            "cycle (corrupt file)");
    }
    lastProgress_ = r.u64();
    lastActivity_ = r.u64();
    skippedCycles_ = r.u64();
    stopReason_ = r.enumerant("stop reason", StopReason::Saturated);

    counters_.missesGenerated = r.u64();
    counters_.remoteIssued = r.u64();
    counters_.remoteCompleted = r.u64();
    counters_.localIssued = r.u64();
    counters_.localCompleted = r.u64();
    counters_.blockedCycles = r.u64();

    latency_.loadState(r);
    histogram_.loadState(r);
    network_->utilization().loadState(r);

    const std::uint32_t pms = r.u32();
    if (pms != procWake_.size()) {
        throw CheckpointError(
            "checkpoint: PM count mismatch (topology differs)");
    }
    for (Cycle &wake : procWake_)
        wake = r.u64();
    activeMems_.clear();
    std::fill(memActive_.begin(), memActive_.end(), 0);
    const std::uint32_t mems = r.u32();
    for (std::uint32_t i = 0; i < mems; ++i) {
        const NodeId pm = r.i32();
        if (pm < 0 ||
            static_cast<std::size_t>(pm) >= memActive_.size()) {
            throw CheckpointError(
                "checkpoint: active memory id out of range");
        }
        activeMems_.push_back(pm);
        memActive_[static_cast<std::size_t>(pm)] = 1;
    }

    factory_->setNextId(r.u64());

    if (r.boolean()) {
        if (!stopPolicy_.enabled()) {
            throw CheckpointError(
                "checkpoint: adaptive-run snapshot restored into a "
                "fixed-length config");
        }
        controller_ =
            std::make_unique<RunController>(stopPolicy_, latency_);
        controller_->loadState(r);
    }
    loadMetricSnapshots(r, snapshots_);

    for (auto &processor : processors_)
        processor->loadState(r);
    for (auto &memory : memories_)
        memory->loadState(r);

    const bool has_faults = r.boolean();
    if (has_faults != (faults_ != nullptr)) {
        throw CheckpointError(
            "checkpoint: fault-plane mismatch (snapshot and config "
            "disagree on an active fault plan)");
    }
    if (faults_) {
        faults_->loadState(r);
        retryCounters_.reissued = r.u64();
        retryCounters_.stale = r.u64();
        retryCounters_.abandoned = r.u64();
    }

    network_->loadState(r);
    if (!r.atEnd()) {
        throw CheckpointError(
            "checkpoint: trailing bytes after the payload (schema "
            "mismatch)");
    }

    restored_ = true;

    if (fork) {
        // Reseeding redraws each generator's next-miss cycle, so the
        // restored wake schedule (which reflects the donor's stream)
        // may sleep past the new draw. Pull every wake forward to the
        // earlier of the two: a too-early wake is a harmless no-op
        // tick, a too-late one trips the generator's stream
        // invariant.
        for (std::size_t i = 0; i < processors_.size(); ++i) {
            processors_[i]->reseed(cfg_.ckpt.forkSeed, now_);
            procWake_[i] = std::min(
                procWake_[i], processors_[i]->nextWake(now_));
        }
    }
}

bool
System::maybeSaveCheckpoint()
{
    const CheckpointOptions &ck = cfg_.ckpt;
    if (ck.savePath.empty())
        return false;
    const bool at_hit =
        ck.saveAt != 0 && now_ == ck.saveAt && !saveAtDone_;
    const bool every_hit = ck.saveEvery != 0 && now_ != 0 &&
                           now_ % ck.saveEvery == 0 &&
                           now_ != lastEverySave_;
    if (!at_hit && !every_hit)
        return false;
    saveCheckpoint(ck.savePath);
    if (at_hit)
        saveAtDone_ = true;
    if (every_hit)
        lastEverySave_ = now_;
    if (at_hit && ck.stopAfterSave)
        saveStopRequested_ = true;
    return true;
}

RunResult
runSystem(const SystemConfig &cfg)
{
    System system(cfg);
    return system.run();
}

} // namespace hrsim
