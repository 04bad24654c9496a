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

template <class Io, class Self>
void
MemoryModule::layout(Io &io, Self &self)
{
    io.u64(self.busyUntil_);
    // ready cycle + packet (id, type, src, dst, size, issue, reqId)
    io.seq(self.pending_, "pending response",
           8 + 8 + 1 + 4 + 4 + 4 + 8 + 8, [](auto &io_, auto &resp) {
               io_.u64(resp.ready);
               ckptPacket(io_, resp.response);
           });
}

void
MemoryModule::saveState(CkptWriter &w) const
{
    layout(w, *this);
}

void
MemoryModule::loadState(CkptReader &r)
{
    layout(r, *this);
}

} // namespace hrsim
