#include "trace/event_trace.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include <sys/mman.h>
#include <unistd.h>

#include "common/byteio.h"
#include "common/logging.h"
#include "win/simd.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace crw {
namespace {

// Tag byte: kind in the high nibble, small operand in the low nibble.
// Operand 0..14 is stored inline; 15 means an LEB128 varint follows.
constexpr std::uint8_t kInlineMax = 14;
constexpr std::uint8_t kSpill = 15;

constexpr char kMagic[8] = {'C', 'R', 'W', 'T', 'R', 'A', 'C', 'E'};

void
appendVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

/**
 * The payload of a trace file, the bytes between the version word and
 * the trailing checksum, as saveTraceFile() writes them and
 * traceChecksum() hashes them, so an in-memory trace and its file
 * agree on identity. Every field but the scripts is encoded into
 * `meta`; each script stays in its thread's vector and is only
 * referenced, at the meta offset where it belongs.
 */
class PayloadImage
{
  public:
    explicit PayloadImage(const EventTrace &trace)
    {
        meta_.str(trace.key);
        meta_.u64(trace.seed);
        meta_.u64(trace.corpusBytes);
        meta_.u64(trace.misspelled);
        meta_.u64(trace.wordsFromDelatex);
        meta_.u32(static_cast<std::uint32_t>(trace.streams.size()));
        for (const TraceStreamInfo &s : trace.streams) {
            meta_.str(s.name);
            meta_.u32(s.capacity);
            meta_.u32(s.writers);
        }
        meta_.u32(static_cast<std::uint32_t>(trace.threads.size()));
        for (const TraceThreadInfo &t : trace.threads) {
            meta_.str(t.name);
            meta_.u32(t.priority); // format v2
            meta_.u64(t.code.size());
            scripts_.push_back({meta_.bytes.size(), &t.code});
        }
    }

    /** The payload in file order: meta pieces with the scripts
     *  between them, none of them copied. */
    std::vector<ByteRange>
    ranges() const
    {
        std::vector<ByteRange> out;
        std::size_t from = 0;
        for (const auto &[at, code] : scripts_) {
            out.push_back({meta_.bytes.data() + from, at - from});
            out.push_back({code->data(), code->size()});
            from = at;
        }
        out.push_back(
            {meta_.bytes.data() + from, meta_.bytes.size() - from});
        return out;
    }

  private:
    ByteWriter meta_;
    std::vector<std::pair<std::size_t, const std::vector<std::uint8_t> *>>
        scripts_;
};

} // namespace

std::uint64_t
EventTrace::eventCount() const
{
    std::uint64_t n = 0;
    for (const TraceThreadInfo &t : threads) {
        TraceCursor cur(t.code);
        std::uint64_t operand;
        while (!cur.atEnd()) {
            cur.peek(operand);
            cur.advance();
            ++n;
        }
    }
    return n;
}

TraceOp
TraceCursor::peek(std::uint64_t &operand) const
{
    crw_assert(pc_ != end_);
    const std::uint8_t tag = *pc_;
    const TraceOp op = static_cast<TraceOp>(tag >> 4);
    const std::uint8_t low = tag & 0x0F;
    const std::uint8_t *p = pc_ + 1;
    if (low != kSpill) {
        operand = low;
    } else {
        std::uint64_t v = 0;
        int shift = 0;
        while (true) {
            crw_assert(p != end_);
            const std::uint8_t b = *p++;
            v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
            if (!(b & 0x80))
                break;
            shift += 7;
        }
        operand = v;
    }
    next_ = p;
    return op;
}

void
TraceCursor::advance()
{
    crw_assert(next_ != nullptr);
    pc_ = next_;
    next_ = nullptr;
}

TraceRecorder::TraceRecorder(std::string key, std::uint64_t seed,
                             std::uint64_t corpus_bytes)
{
    trace_.key = std::move(key);
    trace_.seed = seed;
    trace_.corpusBytes = corpus_bytes;
}

std::vector<std::uint8_t> &
TraceRecorder::code(ThreadId tid)
{
    crw_assert(tid >= 0 &&
               tid < static_cast<ThreadId>(trace_.threads.size()));
    return trace_.threads[static_cast<std::size_t>(tid)].code;
}

void
TraceRecorder::onThreadSpawn(ThreadId tid, const std::string &name,
                             std::uint8_t priority)
{
    if (tid != static_cast<ThreadId>(trace_.threads.size()))
        crw_fatal << "trace capture: thread ids must be dense spawn "
                     "order, got "
                  << tid;
    trace_.threads.push_back(TraceThreadInfo{name, priority, {}});
    pendingCharge_.push_back(0);
}

int
TraceRecorder::onStreamCreate(const std::string &name,
                              std::size_t capacity, int num_writers)
{
    TraceStreamInfo info;
    info.name = name;
    info.capacity = static_cast<std::uint32_t>(capacity);
    info.writers = static_cast<std::uint32_t>(num_writers);
    trace_.streams.push_back(std::move(info));
    return static_cast<int>(trace_.streams.size()) - 1;
}

void
TraceRecorder::emit(ThreadId tid, TraceOp op, std::uint64_t operand)
{
    std::vector<std::uint8_t> &out = code(tid);
    const std::uint8_t high = static_cast<std::uint8_t>(op) << 4;
    if (operand <= kInlineMax) {
        out.push_back(high | static_cast<std::uint8_t>(operand));
    } else {
        out.push_back(high | kSpill);
        appendVarint(out, operand);
    }
}

void
TraceRecorder::flushCharge(ThreadId tid)
{
    std::uint64_t &pending =
        pendingCharge_[static_cast<std::size_t>(tid)];
    if (pending != 0) {
        emit(tid, TraceOp::Charge, pending);
        pending = 0;
    }
}

void
TraceRecorder::recordSave(ThreadId tid)
{
    flushCharge(tid);
    emit(tid, TraceOp::Save, 0);
}

void
TraceRecorder::recordRestore(ThreadId tid)
{
    flushCharge(tid);
    emit(tid, TraceOp::Restore, 0);
}

void
TraceRecorder::recordCharge(ThreadId tid, Cycles cycles)
{
    // Coalesce with an immediately preceding charge: the engine's
    // clock and cycle counters cannot tell two back-to-back charges
    // from their sum.
    pendingCharge_[static_cast<std::size_t>(tid)] +=
        static_cast<std::uint64_t>(cycles);
}

void
TraceRecorder::recordPut(ThreadId tid, int stream_id)
{
    flushCharge(tid);
    emit(tid, TraceOp::Put, static_cast<std::uint64_t>(stream_id));
}

void
TraceRecorder::recordGet(ThreadId tid, int stream_id)
{
    flushCharge(tid);
    emit(tid, TraceOp::Get, static_cast<std::uint64_t>(stream_id));
}

void
TraceRecorder::recordClose(ThreadId tid, int stream_id)
{
    flushCharge(tid);
    emit(tid, TraceOp::Close, static_cast<std::uint64_t>(stream_id));
}

void
TraceRecorder::recordExit(ThreadId tid)
{
    flushCharge(tid);
    emit(tid, TraceOp::Exit, 0);
}

EventTrace
TraceRecorder::take(std::uint64_t misspelled,
                    std::uint64_t words_from_delatex)
{
    for (ThreadId tid = 0;
         tid < static_cast<ThreadId>(trace_.threads.size()); ++tid)
        flushCharge(tid);
    trace_.misspelled = misspelled;
    trace_.wordsFromDelatex = words_from_delatex;
    return std::move(trace_);
}

std::uint64_t
traceChecksum(const EventTrace &trace)
{
    return payloadHash64(PayloadImage(trace).ranges());
}

bool
saveTraceFile(const EventTrace &trace, const std::string &path,
              std::string *error)
{
    // Header, then the payload ranges (the scripts written from the
    // trace's own vectors), then the trailer that hashes them.
    const PayloadImage payload(trace);
    std::vector<ByteRange> file = payload.ranges();
    ByteWriter head;
    for (const char c : kMagic)
        head.bytes.push_back(static_cast<std::uint8_t>(c));
    head.u32(kTraceFormatVersion);
    ByteWriter trailer;
    trailer.u64(payloadHash64(file));
    file.insert(file.begin(), {head.bytes.data(), head.bytes.size()});
    file.push_back({trailer.bytes.data(), trailer.bytes.size()});
    return writeFileAtomic(file, path, error);
}

namespace {

bool
namesStream(unsigned high)
{
    return high >= static_cast<unsigned>(TraceOp::Put) &&
           high <= static_cast<unsigned>(TraceOp::Close);
}

/**
 * The reference rules for the one event at @p p (p < end), which
 * leave @p p past it: a known op, a spilled varint that terminates
 * inside the script without overflowing 64 bits, and a stream operand
 * in range where the op names a stream. False, with the broken rule
 * in @p why, on a violation.
 */
bool
checkEvent(const std::uint8_t *&p, const std::uint8_t *end,
           std::size_t num_streams, std::string &why)
{
    const std::uint8_t tag = *p++;
    const unsigned high = tag >> 4;
    if (high > static_cast<unsigned>(TraceOp::Exit)) {
        why = "unknown event op " + std::to_string(high);
        return false;
    }
    std::uint64_t operand = tag & 0x0F;
    if (operand == kSpill) {
        std::uint64_t v = 0;
        int shift = 0;
        while (true) {
            if (p == end) {
                why = "truncated varint";
                return false;
            }
            if (shift > 63) {
                why = "oversized varint";
                return false;
            }
            const std::uint8_t b = *p++;
            v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
            if (!(b & 0x80))
                break;
            shift += 7;
        }
        operand = v;
    }
    if (namesStream(high) && operand >= num_streams) {
        why = "stream id " + std::to_string(operand) + " out of range";
        return false;
    }
    return true;
}

/**
 * The plain-tag rule as two nibble tables: a tag passes every rule on
 * its own (a known op, no spill, an inline stream id in range), and so
 * is a whole valid event, exactly when hi[tag >> 4] & lo[tag & 15] is
 * zero. Each bit is one way to fail: bit 0 an op past Exit, bit 1 the
 * spill marker, bit 2 a stream op whose inline id is out of range.
 * `bad` is the same rule for all 256 tags.
 */
struct PlainTagRule
{
    alignas(16) std::uint8_t hi[16];
    alignas(16) std::uint8_t lo[16];
    std::uint8_t bad[256];

    explicit PlainTagRule(std::size_t num_streams)
    {
        for (unsigned n = 0; n < 16; ++n) {
            hi[n] = static_cast<std::uint8_t>(
                (n > static_cast<unsigned>(TraceOp::Exit) ? 1 : 0) | 2 |
                (namesStream(n) ? 4 : 0));
            lo[n] = static_cast<std::uint8_t>(
                1 | (n == kSpill ? 2 : 0) | (n >= num_streams ? 4 : 0));
        }
        for (unsigned tag = 0; tag < 256; ++tag)
            bad[tag] = hi[tag >> 4] & lo[tag & 0x0F];
    }
};

/** Bit i set for each tag p[i] of the 32 at @p p that is not plain:
 *  eight table lookups per step, and bits only for a step that holds
 *  one. */
std::uint32_t
blockMaskPortable(const std::uint8_t *p, const PlainTagRule &rule)
{
    const std::uint8_t *const bad = rule.bad;
    std::uint32_t mask = 0;
    for (unsigned i = 0; i < 32; i += 8, p += 8) {
        if (!(bad[p[0]] | bad[p[1]] | bad[p[2]] | bad[p[3]] | bad[p[4]] |
              bad[p[5]] | bad[p[6]] | bad[p[7]]))
            continue;
        for (unsigned j = 0; j < 8; ++j)
            mask |= static_cast<std::uint32_t>(bad[p[j]] != 0) << (i + j);
    }
    return mask;
}

/**
 * Hash and scan one script in a single walk over it (the loader's
 * scan; validateTraceCode's with no @p hash). Each step folds one
 * 32-byte block into the hash and checks every event that starts in
 * the 32-byte block at the same distance from the script start: the
 * tags @p block_mask flags as not plain go through the reference
 * rules (checkEvent), the rest are whole events and are skipped. The
 * hash's blocks start where its partial word ends, so they may sit up
 * to seven bytes past the scan's. A violation stops the scan but not
 * the hash: the whole script is always folded in.
 */
template <class BlockMask>
[[gnu::always_inline]] inline bool
scanLoop(const std::uint8_t *code, std::size_t size,
         std::size_t num_streams, const PlainTagRule &rule,
         bool skip_plain, PayloadHasher *hash, std::string *error,
         BlockMask block_mask)
{
    const std::uint8_t *const end = code + size;
    const std::size_t head = hash ? std::min(hash->gap(), size) : 0;
    if (hash)
        hash->update(code, head);
    const std::size_t blocks = (size - head) / 32;
    // A local copy keeps the hash state in a register across the
    // walk, out of reach of the stores the slow path makes.
    PayloadHasher h = hash ? *hash : PayloadHasher(0);

    const std::uint8_t *p = code; // the next event
    const std::uint8_t *event = p;
    std::string why;
    bool ok = true;
    for (std::size_t i = 0; i < blocks; ++i) {
        if (hash)
            h.update32(code + head + 32 * i);
        const std::uint8_t *const block = code + 32 * i;
        if (!ok || p >= block + 32)
            continue;
        const std::uint32_t mask = block_mask(block);
        while (p < block + 32) {
            const std::uint32_t rest =
                mask & (~0u << static_cast<unsigned>(p - block));
            if (rest == 0) {
                p = block + 32;
                break;
            }
            event = p = block + __builtin_ctz(rest);
            if (!checkEvent(p, end, num_streams, why)) {
                ok = false;
                break;
            }
        }
    }
    if (hash) {
        *hash = h;
        hash->update(code + head + 32 * blocks, size - head - 32 * blocks);
    }
    while (ok && p != end) {
        if (skip_plain && rule.bad[*p] == 0) {
            ++p;
            continue;
        }
        event = p;
        ok = checkEvent(p, end, num_streams, why);
    }
    if (!ok && error)
        *error = why + " at offset " + std::to_string(event - code);
    return ok;
}

#if defined(__x86_64__)

/** scanLoop with the block mask from two nibble-table shuffles over
 *  32 tags. target("avx2") keeps the binary portable; scanScript
 *  only calls it when the CPU probe says so (win/simd.h). */
__attribute__((target("avx2"))) bool
scanAvx2(const std::uint8_t *code, std::size_t size,
         std::size_t num_streams, const PlainTagRule &rule,
         PayloadHasher *hash, std::string *error)
{
    const __m256i hi = _mm256_broadcastsi128_si256(
        _mm_load_si128(reinterpret_cast<const __m128i *>(rule.hi)));
    const __m256i lo = _mm256_broadcastsi128_si256(
        _mm_load_si128(reinterpret_cast<const __m128i *>(rule.lo)));
    const __m256i nibble = _mm256_set1_epi8(0x0F);
    const __m256i zero = _mm256_setzero_si256();
    const auto block_mask =
        [&](const std::uint8_t *p) __attribute__((target("avx2"))) {
            const __m256i v =
                _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
            const __m256i bad = _mm256_and_si256(
                _mm256_shuffle_epi8(
                    hi, _mm256_and_si256(_mm256_srli_epi16(v, 4), nibble)),
                _mm256_shuffle_epi8(lo, _mm256_and_si256(v, nibble)));
            return ~static_cast<std::uint32_t>(
                _mm256_movemask_epi8(_mm256_cmpeq_epi8(bad, zero)));
        };
    return scanLoop(code, size, num_streams, rule, true, hash, error,
                    block_mask);
}

#endif

/**
 * The one scanner for event scripts (see validateTraceCode()), which
 * also folds the script into @p hash when one is given. The block
 * flavour follows effectiveSimdTier(): 32 tags per shuffle pair, or
 * per four table-lookup steps. The scalar tier flags every tag, so
 * every event goes through the reference rules: it is the oracle the
 * block flavours are pinned against.
 */
bool
scanScript(const std::uint8_t *code, std::size_t size,
           std::size_t num_streams, PayloadHasher *hash,
           std::string *error)
{
    const PlainTagRule rule(num_streams);
    switch (effectiveSimdTier()) {
      case SimdTier::Scalar:
        return scanLoop(code, size, num_streams, rule, false, hash, error,
                        [](const std::uint8_t *) { return ~0u; });
      case SimdTier::Avx2:
#if defined(__x86_64__)
        return scanAvx2(code, size, num_streams, rule, hash, error);
#else
        break;
#endif
      case SimdTier::Portable:
        break;
    }
    return scanLoop(code, size, num_streams, rule, true, hash, error,
                    [&rule](const std::uint8_t *p) {
                        return blockMaskPortable(p, rule);
                    });
}

/**
 * Fault in the whole pages of the fresh, untouched buffer of @p n
 * bytes at @p p in one call. A warm run loads ~10 MB of scripts into
 * fresh vectors, and taking their ~2500 pages one first-touch fault
 * at a time cost about as much as hashing and scanning them. Only a
 * hint: where MADV_POPULATE_WRITE is missing or refused, the pages
 * fault in as they are touched.
 */
void
prefault(const void *p, std::size_t n)
{
#if defined(MADV_POPULATE_WRITE)
    const std::uintptr_t page =
        static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
    const std::uintptr_t at = reinterpret_cast<std::uintptr_t>(p);
    const std::uintptr_t lo = (at + page - 1) & ~(page - 1);
    const std::uintptr_t hi = (at + n) & ~(page - 1);
    if (hi > lo)
        ::madvise(reinterpret_cast<void *>(lo), hi - lo,
                  MADV_POPULATE_WRITE);
#else
    (void)p;
    (void)n;
#endif
}

/**
 * Sequential reader over a trace file's payload, straight from the
 * file: every byte it consumes is folded into the running payload
 * hash, and no length is trusted beyond the payload bytes still
 * unread. Like ByteReader it never throws: a field that does not fit
 * flips ok to false and later reads return zero values.
 */
class PayloadReader
{
  public:
    PayloadReader(std::FILE *fp, std::uint64_t payload_size)
        : hash(payload_size),
          fp_(fp),
          left_(payload_size)
    {}

    bool ok = true;        ///< every field fit in the payload
    bool ioFailed = false; ///< the file ended before its stat size
    PayloadHasher hash;

    std::uint32_t
    u32()
    {
        std::uint8_t b[4] = {};
        take(b, 4);
        return ByteReader{b, b + 4}.u32();
    }

    std::uint64_t
    u64()
    {
        std::uint8_t b[8] = {};
        take(b, 8);
        return ByteReader{b, b + 8}.u64();
    }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        if (!fits(n))
            return {};
        std::string s(n, '\0');
        take(s.data(), n);
        return s;
    }

    /**
     * Read a length-prefixed event script into @p code, then hash and
     * scan it in one walk (scanScript) while it is hot. False, with
     * the reason in @p why, only for a script that breaks a rule; a
     * blob that does not fit flips ok instead.
     */
    bool
    script(std::vector<std::uint8_t> &code, std::size_t num_streams,
           std::string *why)
    {
        const std::uint64_t n = u64();
        if (!fits(n))
            return true;
        code.reserve(static_cast<std::size_t>(n));
        prefault(code.data(), code.capacity());
        code.resize(static_cast<std::size_t>(n));
        return !read(code.data(), code.size()) ||
               scanScript(code.data(), code.size(), num_streams, &hash,
                          why);
    }

    /** Fold the unread rest of the payload into the hash; leftover
     *  bytes after the last field make the payload malformed. */
    void
    finish()
    {
        if (left_ != 0)
            ok = false;
        std::uint8_t buf[4096] = {};
        while (left_ != 0 && !ioFailed) {
            const std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(left_, sizeof buf));
            if (read(buf, n))
                hash.update(buf, n);
        }
    }

  private:
    bool
    fits(std::uint64_t n)
    {
        if (ok && n <= left_)
            return true;
        ok = false;
        return false;
    }

    void
    take(void *dst, std::size_t n)
    {
        if (fits(n) && read(dst, n))
            hash.update(dst, n);
    }

    bool
    read(void *dst, std::size_t n)
    {
        if (ioFailed || std::fread(dst, 1, n, fp_) != n) {
            ioFailed = true;
            ok = false;
            return false;
        }
        left_ -= n;
        return true;
    }

    std::FILE *fp_;
    std::uint64_t left_;
};

} // namespace

bool
validateTraceCode(const std::vector<std::uint8_t> &code,
                  std::size_t num_streams, std::string *error)
{
    return scanScript(code.data(), code.size(), num_streams, nullptr,
                      error);
}

bool
loadTraceFile(const std::string &path, EventTrace &out,
              std::string *error)
{
    auto fail = [error](const std::string &why) {
        if (error)
            *error = why;
        return false;
    };

    std::uint64_t size = 0;
    std::string io_err;
    const FilePtr file = openFileForRead(path, size, &io_err);
    if (!file)
        return fail(io_err);
    std::FILE *const fp = file.get();

    // 8 magic + 4 version + 8 trailing checksum.
    std::uint8_t header[12] = {};
    if (size < 20 || std::fread(header, 1, 12, fp) != 12)
        return fail("truncated header");
    if (std::memcmp(header, kMagic, 8) != 0)
        return fail("bad magic (not a crw trace)");
    const std::uint32_t version =
        ByteReader{header + 8, header + 12}.u32();
    if (version != kTraceFormatVersion)
        return fail("unsupported trace version " +
                    std::to_string(version));

    // One pass over the payload: parse each field in file order,
    // hashing its bytes as they arrive, and check each thread's script
    // as it lands in its final vector. A malformed field or a bad
    // script only decides the message once the hash of the whole
    // payload has been held against the trailer: a damaged file must
    // read as `checksum mismatch`, whatever its damage parses as.
    PayloadReader r(fp, size - 20);
    EventTrace t;
    t.key = r.str();
    t.seed = r.u64();
    t.corpusBytes = r.u64();
    t.misspelled = r.u64();
    t.wordsFromDelatex = r.u64();
    const std::uint32_t num_streams = r.u32();
    for (std::uint32_t i = 0; r.ok && i < num_streams; ++i) {
        TraceStreamInfo s;
        s.name = r.str();
        s.capacity = r.u32();
        s.writers = r.u32();
        t.streams.push_back(std::move(s));
    }
    std::string bad_script;
    const std::uint32_t num_threads = r.u32();
    for (std::uint32_t i = 0; r.ok && i < num_threads; ++i) {
        TraceThreadInfo th;
        th.name = r.str();
        th.priority = static_cast<std::uint8_t>(r.u32());
        std::string why;
        // The checksum catches accidental corruption, but a trace
        // could still carry scripts the check-free TraceCursor must
        // never see (e.g. written by a buggy or adversarial
        // producer).
        if (!r.script(th.code, t.streams.size(), &why) &&
            bad_script.empty())
            bad_script = "invalid event script in thread " +
                         std::to_string(i) + " (" + th.name +
                         "): " + why;
        t.threads.push_back(std::move(th));
    }
    r.finish();

    std::uint8_t trailer[8] = {};
    if (r.ioFailed || std::fread(trailer, 1, 8, fp) != 8)
        return fail("truncated trace (file changed while loading)");
    const std::uint64_t checksum =
        ByteReader{trailer, trailer + 8}.u64();
    if (r.hash.finish() != checksum)
        return fail("checksum mismatch (corrupted trace)");
    if (!r.ok)
        return fail("malformed payload");
    if (!bad_script.empty())
        return fail(bad_script);
    t.fileChecksum = checksum;
    out = std::move(t);
    return true;
}

} // namespace crw
