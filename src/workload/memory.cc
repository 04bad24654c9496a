#include "workload/memory.hh"

#include <algorithm>

#include "ckpt/state_io.hh"
#include "common/log.hh"

namespace hrsim
{

void
MemoryModule::onRequest(const Packet &pkt, Cycle now)
{
    HRSIM_ASSERT(isRequest(pkt.type));
    HRSIM_ASSERT(pkt.dst == pm_);
    Cycle ready;
    if (serialized_) {
        // Single-banked memory: one access at a time, FIFO.
        const Cycle start = std::max(now, busyUntil_);
        ready = start + latency_;
        busyUntil_ = ready;
    } else {
        ready = now + latency_;
    }
    pending_.push_back({ready, factory_.makeResponse(pkt)});
}

void
MemoryModule::tick(Cycle now)
{
    while (!pending_.empty() && pending_.front().ready <= now) {
        const Packet &resp = pending_.front().response;
        if (!network_.canInject(pm_, resp))
            break; // response queue full: retry next cycle, in order
        network_.inject(pm_, resp);
        pending_.pop_front();
    }
}

void
MemoryModule::saveState(CkptWriter &w) const
{
    w.u64(busyUntil_);
    saveFifo(w, pending_,
             [](CkptWriter &out, const PendingResponse &resp) {
                 out.u64(resp.ready);
                 savePacket(out, resp.response);
             });
}

void
MemoryModule::loadState(CkptReader &r)
{
    busyUntil_ = r.u64();
    pending_.clear();
    // ready cycle + packet (id, type, src, dst, size, issue, reqId)
    const std::uint32_t count =
        r.count("pending response", 8 + 8 + 1 + 4 + 4 + 4 + 8 + 8);
    pending_.reserve(std::max<std::size_t>(count, 1));
    for (std::uint32_t i = 0; i < count; ++i) {
        PendingResponse resp;
        resp.ready = r.u64();
        resp.response = loadPacket(r);
        pending_.push_back(resp);
    }
}

} // namespace hrsim
