/**
 * @file
 * Flat little-endian byte-buffer writer/reader plus the two hashes —
 * the serialization substrate of the versioned binary formats: the
 * CRWTRACE file (trace/event_trace.cc: magic, u32 version, payload,
 * trailing u64 payloadHash64 of the payload), the flat-trace file
 * (trace/flat_trace_io.cc) and the RunMetrics records of the result
 * store (trace/run_metrics.cc, store/record_store.cc).
 *
 * fnv1a64 hashes short keys (cache keys, file headers, digests);
 * payloadHash64 hashes payloads, which run to megabytes.
 *
 * The Reader never throws or asserts on malformed input: a short or
 * truncated buffer flips ok to false and every subsequent read
 * returns a zero value, so callers validate once at the end.
 */

#ifndef CRW_COMMON_BYTEIO_H_
#define CRW_COMMON_BYTEIO_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace crw {

/** 64-bit FNV-1a over a byte range. */
inline std::uint64_t
fnv1a64(const std::uint8_t *data, std::size_t n,
        std::uint64_t seed = 0xcbf29ce484222325ull)
{
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Convenience overload for strings (canonical keys, digests). */
inline std::uint64_t
fnv1a64(const std::string &s, std::uint64_t seed = 0xcbf29ce484222325ull)
{
    return fnv1a64(reinterpret_cast<const std::uint8_t *>(s.data()),
                   s.size(), seed);
}

/** Append-only little-endian encoder. */
struct ByteWriter
{
    std::vector<std::uint8_t> bytes;

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    /** Doubles travel as their exact IEEE-754 bit pattern. */
    void
    f64(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof bits == sizeof v);
        __builtin_memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        bytes.insert(bytes.end(), s.begin(), s.end());
    }

    void
    blob(const std::vector<std::uint8_t> &b)
    {
        u64(b.size());
        bytes.insert(bytes.end(), b.begin(), b.end());
    }
};

/** Bounds-checked little-endian decoder (see file comment). */
struct ByteReader
{
    const std::uint8_t *p;
    const std::uint8_t *end;
    bool ok = true;

    bool
    need(std::size_t n)
    {
        if (static_cast<std::size_t>(end - p) < n) {
            ok = false;
            return false;
        }
        return true;
    }

    std::uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(*p++) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(*p++) << (8 * i);
        return v;
    }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v;
        __builtin_memcpy(&v, &bits, sizeof v);
        return v;
    }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        if (!need(n))
            return {};
        std::string s(reinterpret_cast<const char *>(p), n);
        p += n;
        return s;
    }
};

/** One contiguous run of bytes of a file image. */
struct ByteRange
{
    const void *data;
    std::size_t bytes;
};

/**
 * The payload hash of every file format that checksums a payload:
 * trace files (whose trailer is also each trace's identity, see
 * traceChecksum), flat-trace files and result-store records. FNV-1a
 * walks one byte per step; this mixes eight (the FNV idea at word
 * granularity, with an extra shift-xor so high bytes diffuse) and so
 * runs several times faster. The state starts from the total length,
 * so the streaming form is told it up front; then any split of the
 * bytes across update() calls gives the hash of their concatenation
 * (a word that straddles two calls is gathered first). The short
 * tail goes through FNV-1a seeded with the running state.
 * Deterministic across runs and platforms of equal endianness.
 */
class PayloadHasher
{
  public:
    explicit PayloadHasher(std::uint64_t total_bytes)
        : h_(0x9e3779b97f4a7c15ull ^ total_bytes)
    {}

    /** Fold the next @p n bytes in (@p data may be null when n is 0). */
    void update(const void *data, std::size_t n);

    /** Bytes that would complete the partial word fed last (0 when
     *  the bytes fed so far fill whole words). */
    std::size_t gap() const { return have_ == 0 ? 0 : 8 - have_; }

    /** update() of the 32 bytes at @p p when gap() is 0, inline for a
     *  caller that walks the same bytes for its own ends. */
    void
    update32(const std::uint8_t *p)
    {
        for (int i = 0; i < 4; ++i)
            h_ = mix(h_, p + 8 * i);
    }

    /** One step: fold the word at @p at into @p h. */
    static std::uint64_t
    mix(std::uint64_t h, const std::uint8_t *at)
    {
        std::uint64_t w;
        std::memcpy(&w, at, 8);
        h ^= w;
        h *= 0xff51afd7ed558ccdull;
        return h ^ (h >> 29);
    }

    /** The hash of everything fed so far; the hasher stays usable. */
    std::uint64_t
    finish() const
    {
        return fnv1a64(carry_, have_, h_);
    }

  private:
    std::uint64_t h_;
    std::uint8_t carry_[8] = {};
    std::size_t have_ = 0;
};

/** payloadHash64 of @p n bytes at @p data. */
std::uint64_t payloadHash64(const void *data, std::size_t n);

/** payloadHash64 of the concatenation of @p ranges, without making it. */
std::uint64_t payloadHash64(const std::vector<ByteRange> &ranges);

/**
 * Write the concatenation of @p ranges to @p path atomically: the
 * bytes go to a temp file of a unique name beside @p path, which is
 * then renamed over it, so a crashed writer never leaves a torn file
 * and concurrent writers of one path never share a temp file. A
 * failed write removes its temp file.
 */
bool writeFileAtomic(const std::vector<ByteRange> &ranges,
                     const std::string &path,
                     std::string *error = nullptr);

/** Closes a stdio file when its owner goes. */
struct FileCloser
{
    void operator()(std::FILE *fp) const { std::fclose(fp); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/**
 * Open @p path for binary reading and report its size in @p size,
 * taken from the open handle so a concurrent atomic replace cannot
 * pair one file's size with another file's bytes. Null (and *error)
 * if it cannot be opened.
 */
FilePtr openFileForRead(const std::string &path, std::uint64_t &size,
                        std::string *error = nullptr);

} // namespace crw

#endif // CRW_COMMON_BYTEIO_H_
