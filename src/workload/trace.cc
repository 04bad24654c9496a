#include "workload/trace.hh"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

#include "ckpt/state_io.hh"
#include "common/log.hh"
#include "common/rng.hh"

namespace hrsim
{

Trace::Trace(std::vector<TraceRecord> records)
    : records_(std::move(records))
{
    std::stable_sort(records_.begin(), records_.end(),
                     [](const TraceRecord &a, const TraceRecord &b) {
                         return a.cycle < b.cycle;
                     });
}

Trace
Trace::load(std::istream &in)
{
    std::vector<TraceRecord> records;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const auto first = line.find_first_not_of(" \t");
        if (first == std::string::npos || line[first] == '#')
            continue;
        std::istringstream fields(line);
        TraceRecord rec;
        std::string kind;
        if (!(fields >> rec.cycle >> rec.pm >> rec.target >> kind)) {
            fatal("Trace: malformed line " + std::to_string(line_no) +
                  ": '" + line + "'");
        }
        if (kind == "R") {
            rec.isRead = true;
        } else if (kind == "W") {
            rec.isRead = false;
        } else {
            fatal("Trace: bad access kind '" + kind + "' on line " +
                  std::to_string(line_no));
        }
        if (rec.pm < 0 || rec.target < 0)
            fatal("Trace: negative node id on line " +
                  std::to_string(line_no));
        records.push_back(rec);
    }
    return Trace(std::move(records));
}

void
Trace::save(std::ostream &out) const
{
    out << "# hrsim trace: cycle pm target R|W\n";
    for (const TraceRecord &rec : records_) {
        out << rec.cycle << " " << rec.pm << " " << rec.target << " "
            << (rec.isRead ? 'R' : 'W') << "\n";
    }
}

Trace
Trace::synthesizeUniform(int num_processors, Cycle cycles,
                         double miss_rate, double read_fraction,
                         std::uint64_t seed)
{
    if (num_processors < 2)
        fatal("Trace::synthesizeUniform: need >= 2 processors");
    std::vector<TraceRecord> records;
    for (NodeId pm = 0; pm < num_processors; ++pm) {
        Rng rng(seed, static_cast<std::uint64_t>(pm));
        for (Cycle c = 0; c < cycles; ++c) {
            if (!rng.bernoulli(miss_rate))
                continue;
            TraceRecord rec;
            rec.cycle = c;
            rec.pm = pm;
            // Uniform remote target (exclude self).
            rec.target = static_cast<NodeId>(rng.uniformInt(
                static_cast<std::uint64_t>(num_processors - 1)));
            if (rec.target >= pm)
                ++rec.target;
            rec.isRead = rng.bernoulli(read_fraction);
            records.push_back(rec);
        }
    }
    return Trace(std::move(records));
}

std::vector<TraceRecord>
Trace::forPm(NodeId pm) const
{
    std::vector<TraceRecord> out;
    for (const TraceRecord &rec : records_) {
        if (rec.pm == pm)
            out.push_back(rec);
    }
    return out;
}

NodeId
Trace::maxNode() const
{
    NodeId max_node = -1;
    for (const TraceRecord &rec : records_) {
        max_node = std::max(max_node, rec.pm);
        max_node = std::max(max_node, rec.target);
    }
    return max_node;
}

// ------------------------------------------------------------------ //
// TraceProcessor

TraceProcessor::TraceProcessor(NodeId pm,
                               std::vector<TraceRecord> records,
                               int outstanding_limit,
                               std::uint32_t memory_latency,
                               PacketFactory &factory,
                               Network &network, BatchMeans &latency,
                               WorkloadCounters &counters)
    : pm_(pm), limit_(outstanding_limit),
      memoryLatency_(memory_latency), factory_(factory),
      network_(network), latency_(latency), counters_(counters)
{
    HRSIM_ASSERT(limit_ >= 1);
    queue_.reserve(records.size());
    for (const TraceRecord &rec : records) {
        HRSIM_ASSERT(rec.pm == pm_);
        queue_.push_back(rec);
    }
}

bool
TraceProcessor::blocked() const
{
    return !queue_.empty() && outstanding_ >= limit_;
}

Cycle
TraceProcessor::nextWake(Cycle now) const
{
    if (netBlocked_)
        return now + 1; // NIC back-pressure: retry every cycle
    Cycle wake = neverWake;
    if (!localDue_.empty())
        wake = localDue_.front();
    if (!queue_.empty() && outstanding_ < limit_) {
        const Cycle due = std::max(queue_.front().cycle, now + 1);
        wake = std::min(wake, due);
    }
    // Saturated (outstanding_ >= limit_): local completions are
    // timed; remote ones re-arm us via the delivery path.
    return wake;
}

void
TraceProcessor::syncSkipped(Cycle now)
{
    if (lastTick_ != neverWake && now > lastTick_ + 1) {
        // Every skipped cycle would have counted one blocked cycle
        // iff the replay ended its last tick saturated (the snapshot
        // — deliveries inside the window already forced a wake, so
        // the state cannot have changed while asleep).
        if (sleepBlocked_)
            counters_.blockedCycles += now - lastTick_ - 1;
        lastTick_ = now - 1;
    }
}

void
TraceProcessor::tick(Cycle now)
{
    syncSkipped(now);
    lastTick_ = now;
    netBlocked_ = false;

    while (!localDue_.empty() && localDue_.front() <= now) {
        localDue_.pop_front();
        HRSIM_ASSERT(outstanding_ > 0);
        --outstanding_;
        ++counters_.localCompleted;
    }

    // Issue every due reference the limit and the NIC allow.
    while (!queue_.empty() && queue_.front().cycle <= now &&
           outstanding_ < limit_) {
        const TraceRecord &rec = queue_.front();
        if (rec.target == pm_) {
            ++outstanding_;
            localDue_.push_back(now + memoryLatency_);
            ++counters_.missesGenerated;
            ++counters_.localIssued;
            queue_.pop_front();
            continue;
        }
        const Packet pkt =
            factory_.makeRequest(pm_, rec.target, rec.isRead, now);
        if (!network_.canInject(pm_, pkt)) {
            ++counters_.blockedCycles;
            netBlocked_ = true;
            break; // retry the same record next cycle
        }
        network_.inject(pm_, pkt);
        ++outstanding_;
        ++counters_.missesGenerated;
        ++counters_.remoteIssued;
        queue_.pop_front();
    }
    if (blocked())
        ++counters_.blockedCycles;
    sleepBlocked_ = blocked();
}

template <class Io, class Self>
void
TraceProcessor::layout(Io &io, Self &self, std::uint32_t &remaining)
{
    io.u32(remaining);
    if (remaining > self.queue_.size()) {
        throw CheckpointError(
            "checkpoint: trace replay cursor past the configured "
            "trace (trace file mismatch)");
    }
    io.i32(self.outstanding_);
    io.boolean(self.netBlocked_);
    io.boolean(self.sleepBlocked_);
    io.u64(self.lastTick_);
    io.seq(self.localDue_, "local due cycle", 8,
           [](auto &io_, auto &due) { io_.u64(due); });
}

void
TraceProcessor::saveState(CkptWriter &w) const
{
    auto remaining = static_cast<std::uint32_t>(queue_.size());
    layout(w, *this, remaining);
}

void
TraceProcessor::loadState(CkptReader &r)
{
    auto remaining = static_cast<std::uint32_t>(queue_.size());
    layout(r, *this, remaining);
    while (queue_.size() > remaining)
        queue_.pop_front();
}

void
TraceProcessor::onResponse(const Packet &pkt, Cycle now)
{
    HRSIM_ASSERT(!isRequest(pkt.type));
    HRSIM_ASSERT(pkt.dst == pm_);
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
