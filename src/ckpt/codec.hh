/**
 * @file
 * Checkpoint codec: explicit little-endian field encoding.
 *
 * Every checkpointable component serializes through exactly one pair
 * of classes, CkptWriter and CkptReader, so the on-disk byte layout
 * is defined in a single place and is independent of host endianness,
 * struct padding, and standard-library container internals. Fields
 * are written in a fixed documented order (DESIGN.md section 13);
 * there is no per-field tagging — the schema version in the file
 * header is the only format escape hatch.
 *
 * Each component names its fields once, in a layout function both
 * directions run (`template <class Io, class Self> static void
 * layout(Io &, Self &)`, with Self deduced const when saving). The
 * two classes therefore offer the same field methods: the writer
 * takes each field by value and encodes it, the reader takes it by
 * reference and decodes into it. The direction lives here and in no
 * component; a check a layout makes runs on save and load alike.
 * Beyond the scalars, both classes offer:
 *  - enumerant(v, field, last): one byte; the reader refuses a value
 *    above @a last.
 *  - sameU32 / sameFlag(v, what): a value the configuration fixes;
 *    the reader refuses any other.
 *  - seq(container, field, min_bytes, fn): u32 count, then fn(io,
 *    element) per element; the reader checks the count against the
 *    remaining payload first and rebuilds the container.
 *  - fifo(queue, fn): the same bytes for a StagedFifo's visible
 *    elements; the reader refuses more than the queue's capacity and
 *    re-packs the queue from empty.
 *  - state(obj, args...): a component with its own saveState() /
 *    loadState() pair, passing @a args to either.
 * Element functions take the element as `auto &`, so one lambda
 * serves both directions.
 *
 * Scalar encodings:
 *  - u8/u16/u32/u64: unsigned little-endian, the stated width.
 *  - i32/i64: two's complement cast through the unsigned encoding.
 *  - boolean: one byte, 0 or 1.
 *  - f64: IEEE-754 bit pattern via the u64 encoding (bit-exact
 *    round-trip, which plain decimal printing cannot guarantee).
 *  - string: u32 byte length + raw bytes (no terminator).
 *
 * The file container (writeCheckpointFile / openCheckpointFile) adds
 * a magic, a schema version, the producing run's config key, the
 * save cycle, and an FNV-1a hash over the payload, and refuses files
 * whose magic, version or hash is wrong. The sweep journal's result
 * files use the same container without the cycle (ContainerFormat).
 * Writes go through a temporary file plus rename so a crash mid-save
 * never leaves a truncated checkpoint at the target path.
 */

#ifndef HRSIM_CKPT_CODEC_HH
#define HRSIM_CKPT_CODEC_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace hrsim
{

/**
 * Recoverable checkpoint failure: unreadable file, bad magic or
 * hash, or a config-key mismatch. The CLI catches it
 * and reports the message; callers that must not die (sweep resume
 * probing) catch it and fall back to a fresh run.
 */
class CheckpointError : public std::runtime_error
{
  public:
    explicit CheckpointError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** FNV-1a 64-bit over a byte range (matches obs/manifest.hh). */
std::uint64_t ckptFnv1a(const std::uint8_t *data, std::size_t size);

class CkptWriter
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(v); }

    void u16(std::uint16_t v)
    {
        buf_.push_back(static_cast<std::uint8_t>(v));
        buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    }

    void u32(std::uint32_t v)
    {
        for (int shift = 0; shift < 32; shift += 8)
            buf_.push_back(static_cast<std::uint8_t>(v >> shift));
    }

    void u64(std::uint64_t v)
    {
        for (int shift = 0; shift < 64; shift += 8)
            buf_.push_back(static_cast<std::uint8_t>(v >> shift));
    }

    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }

    void f64(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    /** @name Layout methods (see the file comment). */
    /// @{
    template <class E>
    void
    enumerant(E v, const char *, E)
    {
        u8(static_cast<std::uint8_t>(v));
    }

    void sameU32(std::uint32_t v, const char *) { u32(v); }
    void sameFlag(bool v, const char *) { boolean(v); }

    template <class Seq, class Fn>
    void
    seq(const Seq &items, const char *, std::size_t, Fn fn)
    {
        u32(static_cast<std::uint32_t>(items.size()));
        for (std::size_t i = 0; i < items.size(); ++i)
            fn(*this, items.at(i));
    }

    template <class Fifo, class Fn>
    void
    fifo(const Fifo &queue, Fn fn)
    {
        seq(queue, nullptr, 0, fn);
    }

    template <class T, class... Args>
    void
    state(const T &obj, Args &&...args)
    {
        obj.saveState(*this, std::forward<Args>(args)...);
    }
    /// @}

    const std::vector<std::uint8_t> &data() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

  private:
    std::vector<std::uint8_t> buf_;
};

class CkptReader
{
  public:
    explicit CkptReader(std::vector<std::uint8_t> data)
        : buf_(std::move(data))
    {
    }

    std::uint8_t u8()
    {
        need(1);
        return buf_[pos_++];
    }

    std::uint16_t u16()
    {
        need(2);
        std::uint16_t v = 0;
        for (int shift = 0; shift < 16; shift += 8) {
            v = static_cast<std::uint16_t>(
                v | static_cast<std::uint16_t>(buf_[pos_++]) << shift);
        }
        return v;
    }

    std::uint32_t u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int shift = 0; shift < 32; shift += 8)
            v |= static_cast<std::uint32_t>(buf_[pos_++]) << shift;
        return v;
    }

    std::uint64_t u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int shift = 0; shift < 64; shift += 8)
            v |= static_cast<std::uint64_t>(buf_[pos_++]) << shift;
        return v;
    }

    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    bool boolean()
    {
        const std::uint8_t v = u8();
        if (v > 1)
            throw CheckpointError(
                "checkpoint: corrupt boolean field");
        return v != 0;
    }

    double f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string str()
    {
        const std::uint32_t size = u32();
        need(size);
        std::string s(reinterpret_cast<const char *>(&buf_[pos_]),
                      size);
        pos_ += size;
        return s;
    }

    /**
     * Element count of a sequence whose elements encode in at least
     * @a min_bytes each. A count the remaining payload cannot hold
     * fails here, naming @a field, before any caller sizes an
     * allocation by it.
     */
    std::uint32_t count(const char *field, std::size_t min_bytes)
    {
        const std::uint32_t n = u32();
        if (n > remaining() / min_bytes) {
            throw CheckpointError(
                std::string("checkpoint: ") + field + " count " +
                std::to_string(n) + " exceeds the remaining payload "
                "(corrupt file)");
        }
        return n;
    }

    /**
     * One-byte enumeration value in [0, @a last]; a byte above
     * @a last fails, naming @a field.
     */
    template <class E>
    E enumerant(const char *field, E last)
    {
        const std::uint8_t v = u8();
        if (v > static_cast<std::uint8_t>(last)) {
            throw CheckpointError(
                std::string("checkpoint: ") + field + " value " +
                std::to_string(v) + " out of range (corrupt file)");
        }
        return static_cast<E>(v);
    }

    bool atEnd() const { return pos_ == buf_.size(); }
    std::size_t remaining() const { return buf_.size() - pos_; }

    /** @name Layout methods (see the file comment). */
    /// @{
    void u8(std::uint8_t &v) { v = u8(); }
    void u16(std::uint16_t &v) { v = u16(); }
    void u32(std::uint32_t &v) { v = u32(); }
    void u64(std::uint64_t &v) { v = u64(); }
    void i32(std::int32_t &v) { v = i32(); }
    void i64(std::int64_t &v) { v = i64(); }
    void boolean(bool &v) { v = boolean(); }
    void f64(double &v) { v = f64(); }
    void str(std::string &v) { v = str(); }

    template <class E>
    void
    enumerant(E &v, const char *field, E last)
    {
        v = enumerant(field, last);
    }

    void
    sameU32(std::uint32_t v, const char *what)
    {
        if (u32() != v)
            throw CheckpointError(std::string("checkpoint: ") + what);
    }

    void
    sameFlag(bool v, const char *what)
    {
        if (boolean() != v)
            throw CheckpointError(std::string("checkpoint: ") + what);
    }

    template <class Seq, class Fn>
    void
    seq(Seq &items, const char *field, std::size_t min_bytes, Fn fn)
    {
        const std::uint32_t n = count(field, min_bytes);
        items.clear();
        items.reserve(std::max<std::size_t>(n, 1));
        for (std::uint32_t i = 0; i < n; ++i) {
            typename Seq::value_type elem{};
            fn(*this, elem);
            items.push_back(std::move(elem));
        }
    }

    template <class Fifo, class Fn>
    void
    fifo(Fifo &queue, Fn fn)
    {
        queue.clear();
        const std::uint32_t n = u32();
        if (n > queue.capacity()) {
            throw CheckpointError(
                "checkpoint: FIFO snapshot deeper than the restoring "
                "queue's capacity (config mismatch)");
        }
        for (std::uint32_t i = 0; i < n; ++i) {
            typename Fifo::value_type elem{};
            fn(*this, elem);
            queue.push(elem);
        }
        queue.commit();
    }

    template <class T, class... Args>
    void
    state(T &obj, Args &&...args)
    {
        obj.loadState(*this, std::forward<Args>(args)...);
    }
    /// @}

  private:
    void need(std::size_t bytes) const
    {
        if (buf_.size() - pos_ < bytes) {
            throw CheckpointError(
                "checkpoint: payload truncated (schema mismatch or "
                "corrupt file)");
        }
    }

    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;
};

/**
 * Everything the container header records about the producing run.
 * The config key is obs/manifest.hh's configKey(cfg) string.
 */
struct CheckpointHeader
{
    std::uint32_t version = 0;
    std::string configKey;
    std::uint64_t cycle = 0;
};

/**
 * Current on-disk schema version. Bump on any layout change.
 * Version 2 dropped the parallel-tick progress counters from the ring
 * and mesh payloads and merged each IRI's per-side wait/escape
 * counters into one pair. Version 3 dropped the three tick-plane
 * flags (columnar / fast path / active scheduling) from the header:
 * every run ticks on the one remaining plane.
 */
constexpr std::uint32_t ckptSchemaVersion = 3;

/**
 * One container file format: [magic][u32 schema version][string
 * config key][u64 save cycle, if @ref hasCycle][u64 payload size]
 * [payload][u64 FNV-1a of the payload]. Checkpoints and the sweep
 * journal's result files (ckpt/result_io.hh) differ only in these
 * fields.
 */
struct ContainerFormat
{
    const char *magic; //!< eight bytes
    const char *what;  //!< error prefix: "checkpoint", "sweep journal"
    const char *noun;  //!< as in "not a hrsim <noun> file"
    bool hasCycle;
};

/**
 * Atomically write @a header + @a payload to @a path in @a format
 * (temporary file + rename). Throws CheckpointError on I/O failure.
 */
void writeContainerFile(const std::string &path,
                        const ContainerFormat &format,
                        const CheckpointHeader &header,
                        const CkptWriter &payload);

/**
 * Read and validate a container in @a format: magic, schema version
 * and payload hash. Returns false when @a path cannot be opened;
 * otherwise fills @a header and, unless null, @a payload with the
 * verified payload bytes. Throws CheckpointError on anything else.
 */
bool readContainerFile(const std::string &path,
                       const ContainerFormat &format,
                       CheckpointHeader &header,
                       std::vector<std::uint8_t> *payload);

/** writeContainerFile() in the checkpoint format. */
void writeCheckpointFile(const std::string &path,
                         const CheckpointHeader &header,
                         const CkptWriter &payload);

/**
 * Read and validate a checkpoint container: magic, schema version,
 * and payload hash. Returns the header and fills @a payload with the
 * verified payload bytes. Header/config compatibility is the
 * caller's job (System::restoreCheckpoint), because only the caller
 * knows its own config key.
 */
CheckpointHeader
openCheckpointFile(const std::string &path,
                   std::vector<std::uint8_t> &payload);

/** Header-only probe (for error messages and tooling). */
CheckpointHeader peekCheckpointHeader(const std::string &path);

} // namespace hrsim

#endif // HRSIM_CKPT_CODEC_HH
