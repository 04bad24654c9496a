#include "proto/packet_table.hh"

namespace hrsim
{

std::uint64_t
PacketTable::liveFlits() const
{
    std::uint64_t total = 0;
    for (const PacketRecord &rec : records_)
        total += rec.live;
    return total;
}

void
PacketTable::beginLoad(NodeId num_pms)
{
    loadPms_ = num_pms;
    records_.clear();
    free_.clear();
    loadIndex_.clear();
}

const char *
PacketTable::intern(Flit &flit, const PacketRecord &meta)
{
    const auto found = loadIndex_.find(meta.id);
    if (found == loadIndex_.end()) {
        const auto slot = static_cast<std::uint32_t>(records_.size());
        records_.push_back(meta);
        records_.back().live = 1;
        loadIndex_.emplace(meta.id, LoadEntry{slot, flit.dst,
                                              flit.sizeFlits,
                                              flit.type});
        flit.slot = slot;
        return nullptr;
    }
    const LoadEntry &entry = found->second;
    PacketRecord &rec = records_[entry.slot];
    if (meta.src != rec.src)
        return "src";
    if (meta.issueCycle != rec.issueCycle)
        return "issueCycle";
    if (meta.reqId != rec.reqId)
        return "reqId";
    if (flit.type != entry.type)
        return "type";
    if (flit.sizeFlits != entry.sizeFlits)
        return "sizeFlits";
    if (flit.dst != entry.dst)
        return "dst";
    ++rec.live;
    flit.slot = entry.slot;
    return nullptr;
}

std::uint32_t
PacketTable::slotOf(PacketId id) const
{
    const auto found = loadIndex_.find(id);
    return found == loadIndex_.end() ? noSlot : found->second.slot;
}

void
PacketTable::endLoad()
{
    loadIndex_ = {};
}

} // namespace hrsim
