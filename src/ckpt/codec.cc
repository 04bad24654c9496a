#include "ckpt/codec.hh"

#include <cstdio>
#include <fstream>

namespace hrsim
{

namespace
{

/** Eight bytes of magic: "hrsimck" + a format byte. */
constexpr char ckptMagic[8] = {'h', 'r', 's', 'i', 'm', 'c', 'k', '1'};

void
writeHeaderFields(CkptWriter &w, const CheckpointHeader &header)
{
    w.u32(header.version);
    w.str(header.configKey);
    w.u64(header.cycle);
}

CheckpointHeader
readHeaderFields(CkptReader &r)
{
    CheckpointHeader header;
    header.version = r.u32();
    header.configKey = r.str();
    header.cycle = r.u64();
    return header;
}

std::vector<std::uint8_t>
readWholeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw CheckpointError("checkpoint: cannot open file: " +
                              path);
    }
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    if (in.bad()) {
        throw CheckpointError("checkpoint: read error on file: " +
                              path);
    }
    return bytes;
}

CheckpointHeader
parseContainer(const std::string &path,
               std::vector<std::uint8_t> bytes,
               std::vector<std::uint8_t> *payload_out)
{
    if (bytes.size() < sizeof(ckptMagic) ||
        std::memcmp(bytes.data(), ckptMagic, sizeof(ckptMagic)) !=
            0) {
        throw CheckpointError(
            "checkpoint: not a hrsim checkpoint file: " + path);
    }
    bytes.erase(bytes.begin(), bytes.begin() + sizeof(ckptMagic));
    CkptReader r(std::move(bytes));

    CheckpointHeader header = readHeaderFields(r);
    if (header.version != ckptSchemaVersion) {
        throw CheckpointError(
            "checkpoint: schema version " +
            std::to_string(header.version) + " in " + path +
            " does not match this build's version " +
            std::to_string(ckptSchemaVersion));
    }

    const std::uint64_t payload_size = r.u64();
    if (payload_size > r.remaining()) {
        throw CheckpointError("checkpoint: truncated payload in " +
                              path);
    }
    std::vector<std::uint8_t> payload(payload_size);
    for (std::uint64_t i = 0; i < payload_size; ++i)
        payload[i] = r.u8();

    const std::uint64_t stored_hash = r.u64();
    const std::uint64_t hash =
        ckptFnv1a(payload.data(), payload.size());
    if (stored_hash != hash) {
        throw CheckpointError(
            "checkpoint: payload hash mismatch in " + path +
            " (file is corrupt or was not fully written)");
    }
    if (!r.atEnd()) {
        throw CheckpointError(
            "checkpoint: trailing bytes after payload in " + path);
    }
    if (payload_out != nullptr)
        *payload_out = std::move(payload);
    return header;
}

} // namespace

std::uint64_t
ckptFnv1a(const std::uint8_t *data, std::size_t size)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= data[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

void
writeCheckpointFile(const std::string &path,
                    const CheckpointHeader &header,
                    const CkptWriter &payload)
{
    CkptWriter container;
    writeHeaderFields(container, header);
    container.u64(payload.size());

    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            throw CheckpointError(
                "checkpoint: cannot open file for writing: " + tmp);
        }
        out.write(ckptMagic, sizeof(ckptMagic));
        out.write(reinterpret_cast<const char *>(
                      container.data().data()),
                  static_cast<std::streamsize>(container.size()));
        out.write(reinterpret_cast<const char *>(
                      payload.data().data()),
                  static_cast<std::streamsize>(payload.size()));
        CkptWriter trailer;
        trailer.u64(ckptFnv1a(payload.data().data(), payload.size()));
        out.write(reinterpret_cast<const char *>(
                      trailer.data().data()),
                  static_cast<std::streamsize>(trailer.size()));
        out.flush();
        if (!out) {
            std::remove(tmp.c_str());
            throw CheckpointError("checkpoint: write failed: " + tmp);
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw CheckpointError("checkpoint: cannot rename " + tmp +
                              " to " + path);
    }
}

CheckpointHeader
openCheckpointFile(const std::string &path,
                   std::vector<std::uint8_t> &payload)
{
    return parseContainer(path, readWholeFile(path), &payload);
}

CheckpointHeader
peekCheckpointHeader(const std::string &path)
{
    return parseContainer(path, readWholeFile(path), nullptr);
}

} // namespace hrsim
