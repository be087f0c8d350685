#include "trace/flat_trace_io.h"

#include <cstdio>
#include <cstring>

#include "store/arena.h"

namespace crw {

namespace {

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
        *error = why;
    return false;
}

} // namespace

std::string
flatTraceKey(std::uint64_t trace_checksum)
{
    return "flat|trace=" + hex16(trace_checksum) + "|v" +
           std::to_string(kFlatTraceFormatVersion);
}

std::string
flatTraceFileName(std::uint64_t trace_checksum)
{
    return "c" + hex16(trace_checksum) + ".flat";
}

bool
saveFlatTrace(const FlatTrace &flat, std::uint64_t trace_checksum,
              const std::string &path, std::string *error)
{
    store::ArenaBuilder builder(kFlatTraceFormatVersion,
                                flatTraceKey(trace_checksum));
    builder.addSegment("words", flat.words,
                       flat.events * sizeof(std::uint32_t));
    builder.addSegment("wide", flat.wide,
                       flat.wideCount * sizeof(FlatTrace::WideOperand));
    std::vector<std::uint32_t> spans;
    spans.reserve(flat.threads.size() * 2);
    for (const FlatTrace::Span &s : flat.threads) {
        spans.push_back(s.begin);
        spans.push_back(s.end);
    }
    builder.addSegment("spans", spans.data(),
                       spans.size() * sizeof(std::uint32_t));
    return builder.write(path, error);
}

bool
loadFlatTrace(const std::string &path, std::uint64_t trace_checksum,
              FlatTrace &out, std::string *error)
{
    store::ArenaView view;
    if (!store::ArenaView::attach(path, kFlatTraceFormatVersion,
                                  flatTraceKey(trace_checksum), view,
                                  error))
        return false;
    // The replay hot loop runs check-free over these bytes, so this
    // is the one place the payload hash is actually verified.
    if (!view.verifyPayload())
        return fail(error, "flat trace: payload checksum mismatch");

    std::uint64_t word_bytes = 0, wide_bytes = 0, span_bytes = 0;
    const void *words = view.segment("words", &word_bytes);
    const void *wide = view.segment("wide", &wide_bytes);
    const void *spans = view.segment("spans", &span_bytes);
    if (!words || !wide || !spans)
        return fail(error, "flat trace: missing segment");
    if (word_bytes % sizeof(std::uint32_t) != 0 ||
        word_bytes / sizeof(std::uint32_t) > UINT32_MAX ||
        wide_bytes % sizeof(FlatTrace::WideOperand) != 0 ||
        span_bytes % (2 * sizeof(std::uint32_t)) != 0)
        return fail(error, "flat trace: segment sizes disagree");

    const std::uint32_t events =
        static_cast<std::uint32_t>(word_bytes / sizeof(std::uint32_t));
    const std::size_t thread_count =
        span_bytes / (2 * sizeof(std::uint32_t));
    std::vector<FlatTrace::Span> threads(thread_count);
    if (span_bytes != 0) // an empty vector's data() may be null
        std::memcpy(threads.data(), spans, span_bytes);
    // Spans must tile [0, events) in thread order — the same shape
    // FlatTrace::build produces and the replay driver indexes by.
    std::uint32_t expected_begin = 0;
    for (const FlatTrace::Span &s : threads) {
        if (s.begin != expected_begin || s.end < s.begin ||
            s.end > events)
            return fail(error, "flat trace: span table malformed");
        expected_begin = s.end;
    }
    if (expected_begin != events)
        return fail(error, "flat trace: spans do not cover the arena");

    // Every escape must resolve: the wide table is strictly increasing,
    // in range, and names exactly the escaped words.
    const auto *word_at = static_cast<const std::uint32_t *>(words);
    const auto *wide_at = static_cast<const FlatTrace::WideOperand *>(wide);
    const std::size_t wide_count =
        wide_bytes / sizeof(FlatTrace::WideOperand);
    std::size_t escapes = 0;
    for (std::uint32_t i = 0; i < events; ++i)
        escapes += (word_at[i] >> FlatTrace::kOpBits) ==
                   FlatTrace::kWideOperand;
    for (std::size_t k = 0; k < wide_count; ++k) {
        const std::uint64_t event = wide_at[k].event;
        if (event >= events ||
            (k > 0 && event <= wide_at[k - 1].event) ||
            (word_at[event] >> FlatTrace::kOpBits) !=
                FlatTrace::kWideOperand)
            return fail(error, "flat trace: wide table malformed");
    }
    if (escapes != wide_count)
        return fail(error, "flat trace: wide table malformed");

    out.wordStorage.clear();
    out.wideStorage.clear();
    out.arena = std::move(view);
    out.words = static_cast<const std::uint32_t *>(
        out.arena.segment("words", &word_bytes));
    out.events = events;
    out.wide = static_cast<const FlatTrace::WideOperand *>(
        out.arena.segment("wide", &wide_bytes));
    out.wideCount = static_cast<std::uint32_t>(wide_count);
    out.threads = std::move(threads);
    return true;
}

} // namespace crw
