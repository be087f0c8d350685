#include "trace/flat_trace.h"

#include <algorithm>

#include "common/logging.h"

namespace crw {

static_assert(static_cast<std::uint32_t>(TraceOp::Exit) <=
                  FlatTrace::kOpMask,
              "every TraceOp must fit the op bits of an event word");

std::uint64_t
FlatTrace::wideOperand(std::uint32_t i) const
{
    const WideOperand *const end = wide + wideCount;
    const WideOperand *const it = std::lower_bound(
        wide, end, i, [](const WideOperand &w, std::uint32_t e) {
            return w.event < e;
        });
    crw_assert(it != end && it->event == i);
    return it->operand;
}

FlatTrace
FlatTrace::build(const EventTrace &trace)
{
    FlatTrace flat;
    // Every event takes at least one script byte, so the scripts'
    // byte length bounds the event count without a second decode
    // pass; pages of the reserve that are never written stay
    // unbacked.
    std::size_t script_bytes = 0;
    for (const TraceThreadInfo &t : trace.threads)
        script_bytes += t.code.size();
    flat.wordStorage.reserve(script_bytes);
    flat.threads.reserve(trace.threads.size());
    flat.streamCount = static_cast<std::uint32_t>(trace.streams.size());

    for (const TraceThreadInfo &t : trace.threads) {
        Span span;
        ThreadTally tally;
        span.begin = static_cast<std::uint32_t>(flat.wordStorage.size());
        TraceCursor cur(t.code);
        std::uint64_t operand;
        while (!cur.atEnd()) {
            const TraceOp op = cur.peek(operand);
            cur.advance();
            tally.count(op, operand);
            std::uint32_t field = kWideOperand;
            if (operand < kWideOperand)
                field = static_cast<std::uint32_t>(operand);
            else
                flat.wideStorage.push_back(
                    {flat.wordStorage.size(), operand});
            flat.wordStorage.push_back(field << kOpBits |
                                       static_cast<std::uint32_t>(op));
        }
        span.end = static_cast<std::uint32_t>(flat.wordStorage.size());
        flat.threads.push_back(span);
        tally.addTo(flat.tallies);
    }
    crw_assert(flat.wordStorage.size() <= UINT32_MAX);
    flat.words = flat.wordStorage.data();
    flat.events = static_cast<std::uint32_t>(flat.wordStorage.size());
    flat.wide = flat.wideStorage.data();
    flat.wideCount = static_cast<std::uint32_t>(flat.wideStorage.size());
    return flat;
}

} // namespace crw
