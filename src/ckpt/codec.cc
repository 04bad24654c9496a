#include "ckpt/codec.hh"

#include <cstdio>
#include <fstream>

namespace hrsim
{

namespace
{

/** Bytes of magic at the start of every container. */
constexpr std::size_t magicSize = 8;

/** "hrsimck" + a format byte. */
constexpr char ckptMagic[magicSize] = {'h', 'r', 's', 'i',
                                       'm', 'c', 'k', '1'};

constexpr ContainerFormat checkpointFormat{ckptMagic, "checkpoint",
                                           "checkpoint", true};

/** The header fields of a container, on write and read alike. */
template <class Io, class Header>
void
ckptHeader(Io &io, Header &header, const ContainerFormat &format,
           const std::string &path)
{
    io.u32(header.version);
    if (header.version != ckptSchemaVersion) {
        throw CheckpointError(
            std::string(format.what) + ": schema version " +
            std::to_string(header.version) + " in " + path +
            " does not match this build's version " +
            std::to_string(ckptSchemaVersion));
    }
    io.str(header.configKey);
    if (format.hasCycle)
        io.u64(header.cycle);
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
writeContainerFile(const std::string &path, const ContainerFormat &format,
                   const CheckpointHeader &header,
                   const CkptWriter &payload)
{
    const std::string what = format.what;
    CkptWriter container;
    ckptHeader(container, header, format, path);
    container.u64(payload.size());

    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            throw CheckpointError(
                what + ": cannot open file for writing: " + tmp);
        }
        out.write(format.magic, magicSize);
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
            throw CheckpointError(what + ": write failed: " + tmp);
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw CheckpointError(what + ": cannot rename " + tmp + " to " +
                              path);
    }
}

bool
readContainerFile(const std::string &path, const ContainerFormat &format,
                  CheckpointHeader &header,
                  std::vector<std::uint8_t> *payload_out)
{
    const std::string what = format.what;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    if (in.bad())
        throw CheckpointError(what + ": read error on file: " + path);

    if (bytes.size() < magicSize ||
        std::memcmp(bytes.data(), format.magic, magicSize) !=
            0) {
        throw CheckpointError(what + ": not a hrsim " + format.noun +
                              " file: " + path);
    }
    bytes.erase(bytes.begin(), bytes.begin() + magicSize);
    CkptReader r(std::move(bytes));

    ckptHeader(r, header, format, path);
    const std::uint64_t payload_size = r.u64();
    if (payload_size > r.remaining())
        throw CheckpointError(what + ": truncated payload in " + path);
    std::vector<std::uint8_t> payload(payload_size);
    for (std::uint64_t i = 0; i < payload_size; ++i)
        payload[i] = r.u8();

    const std::uint64_t stored_hash = r.u64();
    if (stored_hash != ckptFnv1a(payload.data(), payload.size())) {
        throw CheckpointError(
            what + ": payload hash mismatch in " + path +
            " (file is corrupt or was not fully written)");
    }
    if (!r.atEnd()) {
        throw CheckpointError(what + ": trailing bytes after payload in " +
                              path);
    }
    if (payload_out != nullptr)
        *payload_out = std::move(payload);
    return true;
}

void
writeCheckpointFile(const std::string &path,
                    const CheckpointHeader &header,
                    const CkptWriter &payload)
{
    writeContainerFile(path, checkpointFormat, header, payload);
}

CheckpointHeader
openCheckpointFile(const std::string &path,
                   std::vector<std::uint8_t> &payload)
{
    CheckpointHeader header;
    if (!readContainerFile(path, checkpointFormat, header, &payload))
        throw CheckpointError("checkpoint: cannot open file: " + path);
    return header;
}

CheckpointHeader
peekCheckpointHeader(const std::string &path)
{
    CheckpointHeader header;
    if (!readContainerFile(path, checkpointFormat, header, nullptr))
        throw CheckpointError("checkpoint: cannot open file: " + path);
    return header;
}

} // namespace hrsim
