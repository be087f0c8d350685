#include "trace/flat_trace_io.h"

#include <cstdio>
#include <cstring>

#include "common/aligned.h"
#include "common/byteio.h"
#include "store/arena.h"

namespace crw {

namespace {

constexpr char kFlatMagic[8] = {'C', 'R', 'W', 'F', 'L', 'A', 'T', '\0'};

/** The fixed header (file comment of flat_trace_io.h). */
struct FileHeader
{
    char magic[8];
    std::uint64_t checksum;
    std::uint32_t version;
    std::uint32_t threads;
    std::uint64_t traceChecksum;
    std::uint32_t events;
    std::uint32_t wideCount;
    std::uint32_t streams;
    std::uint8_t zero[20];
};
static_assert(sizeof(FileHeader) == kCacheAlign,
              "the span table starts on the first cache line after it");
/** The checksum covers every byte after its own field. */
constexpr std::size_t kHashedFrom = 16;

static_assert(sizeof(FlatTrace::Span) == 2 * sizeof(std::uint32_t) &&
                  sizeof(FlatTrace::WideOperand) ==
                      2 * sizeof(std::uint64_t),
              "spans and wide operands are stored as they lie in memory");

/** Zero padding up to the next array, up to one cache line. */
constexpr std::uint8_t kZeros[kCacheAlign] = {};

std::uint64_t
alignUp(std::uint64_t n)
{
    return (n + kCacheAlign - 1) / kCacheAlign * kCacheAlign;
}

/** Where each array lies in a file with @p h's counts. */
struct Layout
{
    std::uint64_t spansAt, spanBytes;
    std::uint64_t wordsAt, wordBytes;
    std::uint64_t wideAt, wideBytes;

    explicit Layout(const FileHeader &h)
        : spansAt(sizeof(FileHeader)),
          spanBytes(std::uint64_t{h.threads} * sizeof(FlatTrace::Span)),
          wordsAt(alignUp(spansAt + spanBytes)),
          wordBytes(std::uint64_t{h.events} * sizeof(std::uint32_t)),
          wideAt(alignUp(wordsAt + wordBytes)),
          wideBytes(std::uint64_t{h.wideCount} *
                    sizeof(FlatTrace::WideOperand))
    {}

    std::uint64_t fileBytes() const { return wideAt + wideBytes; }
};

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

bool
fail(std::string *error, const std::string &why)
{
    if (error)
        *error = "flat trace: " + why;
    return false;
}

bool
isStreamOp(TraceOp op)
{
    return op == TraceOp::Put || op == TraceOp::Get ||
           op == TraceOp::Close;
}

} // namespace

std::string
flatTraceFileName(std::uint64_t trace_checksum)
{
    std::string name = "c";
    name += hex16(trace_checksum);
    return name + ".flat";
}

bool
saveFlatTrace(const FlatTrace &flat, std::uint64_t trace_checksum,
              const std::string &path, std::string *error)
{
    FileHeader h = {};
    std::memcpy(h.magic, kFlatMagic, sizeof h.magic);
    h.version = kFlatTraceFormatVersion;
    h.threads = static_cast<std::uint32_t>(flat.threads.size());
    h.traceChecksum = trace_checksum;
    h.events = flat.events;
    h.wideCount = flat.wideCount;
    h.streams = flat.streamCount;
    const Layout at(h);

    // The image is the header, then each array where it already lies
    // in memory, with zero padding between them.
    std::vector<ByteRange> image = {
        {&h, sizeof h},
        {flat.threads.data(), at.spanBytes},
        {kZeros, at.wordsAt - at.spansAt - at.spanBytes},
        {flat.words, at.wordBytes},
        {kZeros, at.wideAt - at.wordsAt - at.wordBytes},
        {flat.wide, at.wideBytes},
    };
    // Hash the same ranges with the header cut at kHashedFrom.
    image[0] = {reinterpret_cast<const std::uint8_t *>(&h) + kHashedFrom,
                sizeof h - kHashedFrom};
    h.checksum = payloadHash64(image);
    image[0] = {&h, sizeof h};
    return writeFileAtomic(image, path, error);
}

bool
loadFlatTrace(const std::string &path, std::uint64_t trace_checksum,
              FlatTrace &out, std::string *error)
{
    store::Mapping mapping;
    if (!store::Mapping::openReadOnly(path, mapping, error))
        return false;
    const auto *base = static_cast<const std::uint8_t *>(mapping.data());
    const std::size_t size = mapping.size();

    FileHeader h = {};
    if (size < sizeof h)
        return fail(error, "file shorter than its header");
    std::memcpy(&h, base, sizeof h);
    if (std::memcmp(h.magic, kFlatMagic, sizeof h.magic) != 0)
        return fail(error, "bad magic");
    if (h.version != kFlatTraceFormatVersion)
        return fail(error, "format version " + std::to_string(h.version) +
                               " (expected " +
                               std::to_string(kFlatTraceFormatVersion) +
                               ")");
    if (h.traceChecksum != trace_checksum)
        return fail(error, "built from trace " + hex16(h.traceChecksum) +
                               ", not " + hex16(trace_checksum));
    const Layout at(h);
    if (at.fileBytes() != size)
        return fail(error, "file has " + std::to_string(size) +
                               " bytes, its counts give " +
                               std::to_string(at.fileBytes()));
    if (payloadHash64(base + kHashedFrom, size - kHashedFrom) !=
        h.checksum)
        return fail(error, "payload checksum mismatch");

    // Spans must tile [0, events) in thread order — the same shape
    // FlatTrace::build produces and the replay driver indexes by.
    std::vector<FlatTrace::Span> threads(h.threads);
    if (h.threads != 0) // an empty vector's data() may be null
        std::memcpy(threads.data(), base + at.spansAt, at.spanBytes);
    std::uint32_t expected_begin = 0;
    for (const FlatTrace::Span &s : threads) {
        if (s.begin != expected_begin || s.end < s.begin ||
            s.end > h.events)
            return fail(error, "span table malformed");
        expected_begin = s.end;
    }
    if (expected_begin != h.events)
        return fail(error, "spans do not cover the events");

    // The replay loop dispatches on the op bits and indexes the
    // stream table by the operand unchecked, and every escape must
    // resolve: the wide table names exactly the escaped words, in
    // order.
    const auto *words =
        reinterpret_cast<const std::uint32_t *>(base + at.wordsAt);
    const auto *wide =
        reinterpret_cast<const FlatTrace::WideOperand *>(base + at.wideAt);
    // The same pass counts the script tallies FlatTrace::build does.
    ScriptTallies tallies;
    std::uint32_t k = 0;
    for (const FlatTrace::Span &s : threads) {
        FlatTrace::ThreadTally tally;
        for (std::uint32_t i = s.begin; i < s.end; ++i) {
            const std::uint32_t op = words[i] & FlatTrace::kOpMask;
            if (op > static_cast<std::uint32_t>(TraceOp::Exit))
                return fail(error, "event " + std::to_string(i) +
                                       " has op bits " +
                                       std::to_string(op));
            std::uint64_t operand = words[i] >> FlatTrace::kOpBits;
            if (operand == FlatTrace::kWideOperand) {
                if (k == h.wideCount || wide[k].event != i)
                    return fail(error, "wide table malformed");
                operand = wide[k++].operand;
            }
            const TraceOp kind = FlatTrace::opOf(words[i]);
            if (isStreamOp(kind) && operand >= h.streams)
                return fail(error, "event " + std::to_string(i) +
                                       " names stream " +
                                       std::to_string(operand) + " of " +
                                       std::to_string(h.streams));
            tally.count(kind, operand);
        }
        tally.addTo(tallies);
    }
    if (k != h.wideCount)
        return fail(error, "wide table malformed");

    out.wordStorage.clear();
    out.wideStorage.clear();
    out.words = words;
    out.events = h.events;
    out.wide = wide;
    out.wideCount = h.wideCount;
    out.threads = std::move(threads);
    out.streamCount = h.streams;
    out.tallies = std::move(tallies);
    out.mapping = std::move(mapping);
    return true;
}

} // namespace crw
