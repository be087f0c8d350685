/**
 * @file
 * FlatTrace predecoding (trace/flat_trace.h): the packed event words
 * the replay fast path walks must decode to exactly the op and
 * operand sequence TraceCursor yields from the varint-packed scripts,
 * span per span, escaped wide operands included — any divergence here
 * would silently desynchronize the fast loop from the oracle.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "trace/event_trace.h"
#include "trace/flat_trace.h"

namespace crw {
namespace {

/** Every op kind, both operand encodings, multiple threads. */
EventTrace
sampleTrace()
{
    TraceRecorder rec("m1-n1-d4000-v500", 1993, 3000);
    rec.onThreadSpawn(0, "T1:producer", 0);
    rec.onThreadSpawn(1, "T2:consumer", 0);
    const int s1 = rec.onStreamCreate("S1", 2, 1);

    rec.recordSave(0);
    rec.recordCharge(0, 7); // inline operand
    rec.recordPut(0, s1);
    rec.recordSave(0);
    rec.recordRestore(0);
    rec.recordCharge(0, 1000000); // varint spill
    rec.recordClose(0, s1);
    rec.recordExit(0);

    rec.recordGet(1, s1);
    rec.recordCharge(1, 15); // first varint value (>= 15)
    rec.recordExit(1);

    return rec.take(42, 567);
}

/** The flat image of @p trace decodes, span per span, to exactly the
 *  op and operand sequence TraceCursor yields. */
void
expectMatchesCursorWalk(const EventTrace &trace)
{
    const FlatTrace flat = FlatTrace::build(trace);

    ASSERT_EQ(flat.threads.size(), trace.threads.size());
    EXPECT_EQ(flat.eventCount(), trace.eventCount());

    std::uint32_t expected_begin = 0;
    for (std::size_t t = 0; t < trace.threads.size(); ++t) {
        const FlatTrace::Span span = flat.threads[t];
        // Spans tile the arena in thread order, no gaps or overlap.
        EXPECT_EQ(span.begin, expected_begin) << "thread " << t;
        ASSERT_LE(span.end, flat.eventCount()) << "thread " << t;
        expected_begin = span.end;

        TraceCursor cur(trace.threads[t].code);
        std::uint32_t pc = span.begin;
        std::uint64_t operand = 0;
        while (!cur.atEnd()) {
            ASSERT_LT(pc, span.end) << "thread " << t;
            const TraceOp op = cur.peek(operand);
            EXPECT_EQ(flat.op(pc), op)
                << "thread " << t << " event " << (pc - span.begin);
            EXPECT_EQ(flat.operand(pc), operand)
                << "thread " << t << " event " << (pc - span.begin);
            cur.advance();
            ++pc;
        }
        EXPECT_EQ(pc, span.end) << "thread " << t;
    }
    EXPECT_EQ(expected_begin, flat.eventCount());
}

TEST(FlatTrace, MatchesCursorWalkOpForOp)
{
    expectMatchesCursorWalk(sampleTrace());
}

TEST(FlatTrace, WideOperandsEscapeLosslessly)
{
    // Operands at and past the word's operand field: the escape value
    // itself and anything wider go to the side table, in event order;
    // the largest inline value stays in its word.
    TraceRecorder rec("m1-n1-d4000-v500", 1993, 3000);
    rec.onThreadSpawn(0, "T1:producer", 0);
    rec.onThreadSpawn(1, "T2:consumer", 0);
    const int s1 = rec.onStreamCreate("S1", 2, 1);
    rec.recordSave(0);                                // event 0
    rec.recordCharge(0, FlatTrace::kWideOperand - 1); // 1: inline
    rec.recordPut(0, s1);
    rec.recordCharge(0, FlatTrace::kWideOperand); // 3: escaped
    rec.recordSave(0);
    rec.recordCharge(0, UINT64_MAX); // 5: escaped
    rec.recordRestore(0);
    rec.recordRestore(0);
    rec.recordClose(0, s1);
    rec.recordExit(0);
    rec.recordGet(1, s1);
    rec.recordCharge(1, std::uint64_t{1} << 32); // 11: escaped
    rec.recordExit(1);
    const EventTrace trace = rec.take(0, 0);
    expectMatchesCursorWalk(trace);

    const FlatTrace flat = FlatTrace::build(trace);
    ASSERT_EQ(flat.wideCount, 3u);
    const std::uint64_t wide_events[] = {3, 5, 11};
    const std::uint64_t wide_values[] = {FlatTrace::kWideOperand,
                                         UINT64_MAX,
                                         std::uint64_t{1} << 32};
    for (std::uint32_t k = 0; k < flat.wideCount; ++k) {
        EXPECT_EQ(flat.wide[k].event, wide_events[k]) << k;
        EXPECT_EQ(flat.wide[k].operand, wide_values[k]) << k;
        EXPECT_EQ(flat.words[wide_events[k]] >> FlatTrace::kOpBits,
                  FlatTrace::kWideOperand)
            << k;
    }
    EXPECT_EQ(flat.words[1],
              (FlatTrace::kWideOperand - 1) << FlatTrace::kOpBits |
                  static_cast<std::uint32_t>(TraceOp::Charge));
}

TEST(FlatTrace, EmptyTraceBuildsEmptyArena)
{
    TraceRecorder rec("m1-n1-d4000-v500", 1993, 3000);
    const EventTrace trace = rec.take(0, 0);
    const FlatTrace flat = FlatTrace::build(trace);
    EXPECT_EQ(flat.eventCount(), 0u);
    EXPECT_TRUE(flat.threads.empty());
}

} // namespace
} // namespace crw
