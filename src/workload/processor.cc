#include "workload/processor.hh"

#include <algorithm>
#include <string>

#include "ckpt/state_io.hh"
#include "common/log.hh"

namespace hrsim
{

Processor::Processor(NodeId pm, std::vector<NodeId> targets,
                     const WorkloadConfig &cfg, PacketFactory &factory,
                     Network &network, BatchMeans &latency,
                     WorkloadCounters &counters, std::uint64_t seed)
    : pm_(pm), targets_(std::move(targets)), cfg_(cfg),
      factory_(factory), network_(network), latency_(latency),
      counters_(counters),
      rng_(seed, static_cast<std::uint64_t>(pm))
{
    HRSIM_ASSERT(!targets_.empty());
    HRSIM_ASSERT(std::find(targets_.begin(), targets_.end(), pm_) !=
                 targets_.end());
    localDue_.reserve(
        static_cast<std::size_t>(std::max(cfg_.outstandingT, 1)));
    advanceNextMiss(0);
}

void
Processor::advanceNextMiss(Cycle from)
{
    if (cfg_.missRateC <= 0.0) {
        // Every draw would fail and nothing downstream depends on the
        // stream position, so skip the (infinite) scan outright.
        nextMissAt_ = neverWake;
        return;
    }
    Cycle c = from;
    while (!rng_.bernoulli(cfg_.missRateC))
        ++c;
    nextMissAt_ = c;
}

bool
Processor::tryIssue(const PendingMiss &miss, Cycle now)
{
    if (outstanding_ >= cfg_.outstandingT)
        return false;
    if (miss.target == pm_) {
        // Local access: no network involvement.
        ++outstanding_;
        localDue_.push_back(now + cfg_.memoryLatency);
        ++counters_.localIssued;
        return true;
    }
    const Packet pkt =
        factory_.makeRequest(pm_, miss.target, miss.isRead, now);
    if (!network_.canInject(pm_, pkt))
        return false;
    network_.inject(pm_, pkt);
    ++outstanding_;
    ++counters_.remoteIssued;
    if (retry_) {
        RemoteTxn txn;
        txn.target = miss.target;
        txn.isRead = miss.isRead;
        txn.issueCycle = now;
        txn.deadline = now + retry_->timeoutCycles;
        txn.ids.reserve(retry_->maxRetries + 1);
        txn.ids.push_back(pkt.id);
        txns_.push_back(std::move(txn));
    }
    return true;
}

void
Processor::setRetryPolicy(const RetryPolicy *policy,
                          RetryCounters *counters)
{
    HRSIM_ASSERT((policy == nullptr) == (counters == nullptr));
    retry_ = policy;
    retryCounters_ = counters;
    if (retry_) {
        txns_.reserve(
            static_cast<std::size_t>(std::max(cfg_.outstandingT, 1)));
    }
}

Cycle
Processor::nextDeadline() const
{
    Cycle deadline = neverWake;
    for (const RemoteTxn &txn : txns_)
        deadline = std::min(deadline, txn.deadline);
    return deadline;
}

void
Processor::processTimeouts(Cycle now)
{
    for (std::size_t i = 0; i < txns_.size();) {
        RemoteTxn &txn = txns_[i];
        if (txn.deadline > now) {
            ++i;
            continue;
        }
        if (txn.retries >= retry_->maxRetries) {
            // Give up: free the slot so the workload keeps running on
            // the surviving fabric. A response that still shows up is
            // counted stale in onResponse().
            HRSIM_ASSERT(outstanding_ > 0);
            --outstanding_;
            ++retryCounters_->abandoned;
            txns_[i] = std::move(txns_.back());
            txns_.pop_back();
            continue;
        }
        // Reissue under a fresh packet id but the original issue
        // cycle, so a latency sample from a late success spans the
        // whole outage. A full NIC queue just leaves the deadline in
        // the past: the retry re-runs every tick until it fits.
        const Packet pkt = factory_.makeRequest(
            pm_, txn.target, txn.isRead, txn.issueCycle);
        if (network_.canInject(pm_, pkt)) {
            network_.inject(pm_, pkt);
            ++txn.retries;
            txn.deadline = now + retry_->timeoutCycles;
            txn.ids.push_back(pkt.id);
            ++retryCounters_->reissued;
        }
        ++i;
    }
}

Cycle
Processor::nextWake(Cycle now) const
{
    Cycle wake;
    if (stalled_) {
        if (outstanding_ >= cfg_.outstandingT) {
            // Saturated: tryIssue fails on the outstanding check
            // alone until a completion frees a slot. Local
            // completions are timed; remote ones re-arm us via the
            // delivery path.
            wake = localDue_.empty() ? neverWake : localDue_.front();
        } else {
            // Blocked on a full NIC queue: retry every cycle.
            return now + 1;
        }
    } else {
        // Unblocked: nothing happens until the pre-drawn next miss or
        // the next local completion (whichever comes first). Skipped
        // cycles are pure no-ops — their failing miss draws are
        // already consumed.
        wake = nextMissAt_;
        if (!localDue_.empty() && localDue_.front() < wake)
            wake = localDue_.front();
    }
    if (retry_ && !txns_.empty()) {
        // The retry engine must run at the earliest deadline even
        // when the generator is asleep — an expired deadline (a
        // reissue still waiting out a full NIC queue) re-arms every
        // cycle.
        const Cycle deadline = nextDeadline();
        wake = std::min(wake, std::max(deadline, now + 1));
    }
    return wake;
}

void
Processor::syncSkipped(Cycle now)
{
    if (lastTick_ != neverWake && now > lastTick_ + 1) {
        // Stalled skips: every skipped cycle would have counted one
        // blocked cycle and retried an issue that provably fails
        // (nextWake() precondition), so bulk-credit the counter.
        // Unstalled skips are no-ops and credit nothing.
        if (stalled_)
            counters_.blockedCycles += now - lastTick_ - 1;
        lastTick_ = now - 1;
    }
}

void
Processor::tick(Cycle now)
{
    syncSkipped(now);
    lastTick_ = now;

    // Retire local accesses that completed by now.
    while (!localDue_.empty() && localDue_.front() <= now) {
        localDue_.pop_front();
        HRSIM_ASSERT(outstanding_ > 0);
        --outstanding_;
        ++counters_.localCompleted;
    }

    // Reissue/abandon before the stalled-issue retry below: an
    // abandonment can free the slot the stalled miss is waiting for.
    if (retry_ && !txns_.empty())
        processTimeouts(now);

    if (stalled_) {
        ++counters_.blockedCycles;
        if (tryIssue(stalledMiss_, now)) {
            stalled_ = false;
            // nextMissAt_ went stale while blocked (a per-cycle tick
            // draws nothing during a stall); resume the stream from
            // the next cycle, exactly where it would have resumed.
            advanceNextMiss(now + 1);
        }
        return; // blocked: no new miss is generated this cycle
    }

    if (cfg_.missRateC <= 0.0)
        return;
    if (now < nextMissAt_)
        return; // pre-drawn failure for this cycle, nothing to do
    HRSIM_ASSERT(now == nextMissAt_);

    ++counters_.missesGenerated;
    PendingMiss miss;
    miss.target = targets_[rng_.uniformInt(targets_.size())];
    miss.isRead = rng_.bernoulli(cfg_.readFraction);
    if (tryIssue(miss, now)) {
        advanceNextMiss(now + 1);
    } else {
        stalled_ = true;
        stalledMiss_ = miss;
    }
}

template <class Io, class Self>
void
Processor::layout(Io &io, Self &self)
{
    // Targets feed makeRequest and the network's routing tables, so
    // each must name a PM of the restoring system.
    const int num_pms = self.network_.numProcessors();
    const auto check_target = [num_pms](NodeId target,
                                        const char *what) {
        if (target < 0 || target >= num_pms) {
            throw CheckpointError(
                std::string("checkpoint: processor ") + what +
                " target " + std::to_string(target) + " outside [0, " +
                std::to_string(num_pms - 1) + "]");
        }
    };
    ckptRng(io, self.rng_);
    io.i32(self.outstanding_);
    if (self.outstanding_ < 0 ||
        self.outstanding_ > self.cfg_.outstandingT) {
        throw CheckpointError(
            "checkpoint: processor outstanding " +
            std::to_string(self.outstanding_) + " outside [0, " +
            std::to_string(self.cfg_.outstandingT) + "]");
    }
    io.boolean(self.stalled_);
    io.i32(self.stalledMiss_.target);
    io.boolean(self.stalledMiss_.isRead);
    // An unstalled generator keeps the default invalidNode target.
    if (self.stalled_)
        check_target(self.stalledMiss_.target, "stalled miss");
    io.u64(self.lastTick_);
    io.u64(self.nextMissAt_);
    io.seq(self.localDue_, "local due cycle", 8,
           [](auto &io_, auto &due) { io_.u64(due); });
    // target + isRead + retries + issue + deadline + id count
    io.seq(self.txns_, "remote transaction", 4 + 1 + 4 + 8 + 8 + 4,
           [&check_target](auto &io_, auto &txn) {
               io_.i32(txn.target);
               check_target(txn.target, "remote transaction");
               io_.boolean(txn.isRead);
               io_.u32(txn.retries);
               io_.u64(txn.issueCycle);
               io_.u64(txn.deadline);
               io_.seq(txn.ids, "transaction id", 8,
                       [](auto &io2, auto &id) { io2.u64(id); });
           });
}

void
Processor::saveState(CkptWriter &w) const
{
    layout(w, *this);
}

void
Processor::loadState(CkptReader &r)
{
    layout(r, *this);
}

void
Processor::reseed(std::uint64_t seed, Cycle now)
{
    rng_ = Rng(seed, static_cast<std::uint64_t>(pm_));
    // The old pre-drawn miss cycle came from the old stream; redraw
    // from the resume cycle. A stalled generator keeps retrying its
    // stalled miss and redraws on unblocking as usual.
    if (!stalled_)
        advanceNextMiss(now);
}

void
Processor::onResponse(const Packet &pkt, Cycle now)
{
    HRSIM_ASSERT(!isRequest(pkt.type));
    HRSIM_ASSERT(pkt.dst == pm_);
    if (retry_) {
        // Match against every id the transaction ever issued: after a
        // timeout both the original response and the reissue's answer
        // are in flight, and whichever lands first completes it. The
        // loser — or a response to an abandoned transaction — is
        // stale and must not touch the outstanding count.
        std::size_t match = txns_.size();
        for (std::size_t i = 0; i < txns_.size() && match == txns_.size();
             ++i) {
            for (const PacketId id : txns_[i].ids) {
                if (id == pkt.reqId) {
                    match = i;
                    break;
                }
            }
        }
        if (match == txns_.size()) {
            ++retryCounters_->stale;
            return;
        }
        txns_[match] = std::move(txns_.back());
        txns_.pop_back();
    }
    HRSIM_ASSERT(outstanding_ > 0);
    --outstanding_;
    ++counters_.remoteCompleted;
    HRSIM_ASSERT(now >= pkt.issueCycle);
    const double trip = static_cast<double>(now - pkt.issueCycle);
    latency_.add(now, trip);
    if (histogram_ && latency_.inMeasurement(now))
        histogram_->add(trip);
}

} // namespace hrsim
