/**
 * @file
 * FlatTrace: the predecoded image of an EventTrace, built once per
 * trace and shared by every replay point.
 *
 * EventTrace stores each thread's script as a compact tag/varint byte
 * stream — right for the disk cache, wrong for the replay hot loop,
 * which would re-decode every event at every (scheme, windows, policy)
 * point of a sweep. FlatTrace pays the decode exactly once: one packed
 * 32-bit word per event (the TraceOp in the low kOpBits bits, the
 * operand above it) plus a [begin, end) span per thread, so the replay
 * driver's cursor is a plain index into contiguous memory — no varint,
 * no peek/advance pair, no per-thread allocation, four bytes an event.
 *
 * The operand field holds every charge and stream id the captured
 * traces produce inline. An operand too wide for it is escaped: its
 * field reads kWideOperand and the value sits in the `wide` side
 * table, sorted by event index. The encoding is lossless for every
 * operand a script can carry, so no trace is refused or truncated.
 *
 * The flattening is a pure re-encoding: build() walks the exact
 * TraceCursor decode the legacy path uses, so a flat walk and a cursor
 * walk yield the same event sequence by construction
 * (tests/trace/test_flat_trace.cc pins this).
 *
 * Alongside the words, build() and an attach count the ScriptTallies
 * (win/engine.h) the single-engine replay view folds in at the end of
 * a run instead of counting per event.
 *
 * The arrays are exposed as pointer views because they have two
 * backings: build() decodes into storage this struct owns, while
 * trace/flat_trace_io.h attaches the same arrays straight out of an
 * mmap'd flat file — an attach pays neither the TraceCursor walk nor
 * a copy. Either way the replay hot loop sees the same raw word
 * pointer.
 */

#ifndef CRW_TRACE_FLAT_TRACE_H_
#define CRW_TRACE_FLAT_TRACE_H_

#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "store/arena.h"
#include "trace/event_trace.h"
#include "win/engine.h"

namespace crw {

struct FlatTrace
{
    /** One thread's [begin, end) range in the event words. */
    struct Span
    {
        std::uint32_t begin = 0;
        std::uint32_t end = 0;
    };

    /** An escaped operand: the full value of event @c event. */
    struct WideOperand
    {
        std::uint64_t event = 0;
        std::uint64_t operand = 0;
    };

    /** Low bits of an event word that hold its TraceOp. */
    static constexpr unsigned kOpBits = 3;
    static constexpr std::uint32_t kOpMask = (1u << kOpBits) - 1;
    /** Operand field value that sends the read to the wide table;
     *  every smaller operand is stored inline. */
    static constexpr std::uint32_t kWideOperand = UINT32_MAX >> kOpBits;

    /** Packed (operand << kOpBits | TraceOp) per event, in
     *  thread-script order. */
    const std::uint32_t *words = nullptr;
    /** Number of events behind @c words. */
    std::uint32_t events = 0;
    /** Escaped operands, strictly increasing in event. */
    const WideOperand *wide = nullptr;
    std::uint32_t wideCount = 0;
    /** Span of each thread, indexed by ThreadId (spawn order). */
    std::vector<Span> threads;
    /** Streams of the source trace: every Put/Get/Close operand is
     *  below this. */
    std::uint32_t streamCount = 0;
    /** Per-thread save/restore counts and the charge sum, counted by
     *  build() and by loadFlatTrace's validation pass; not stored in
     *  the file. */
    ScriptTallies tallies;

    std::size_t eventCount() const { return events; }

    static TraceOp
    opOf(std::uint32_t word)
    {
        return static_cast<TraceOp>(word & kOpMask);
    }

    TraceOp op(std::uint32_t i) const { return opOf(words[i]); }

    /** Charge cycles or stream id of event @p i (0 for Save/.../Exit). */
    std::uint64_t
    operand(std::uint32_t i) const
    {
        const std::uint32_t field = words[i] >> kOpBits;
        if (field != kWideOperand) [[likely]]
            return field;
        return wideOperand(i);
    }

    /** The escaped operand of event @p i (binary search; fatal when
     *  the table has no entry for it). */
    std::uint64_t wideOperand(std::uint32_t i) const;

    /** Decode every thread script of @p trace into one flat image. */
    static FlatTrace build(const EventTrace &trace);

    /**
     * One thread's share of the ScriptTallies, counted in locals as
     * build() and loadFlatTrace decode its events (a store through
     * the tallies' vectors per event would alias the word appends).
     */
    struct ThreadTally
    {
        std::uint64_t saves = 0;
        std::uint64_t restores = 0;
        Cycles charges = 0;

        void
        count(TraceOp op, std::uint64_t operand)
        {
            saves += op == TraceOp::Save;
            restores += op == TraceOp::Restore;
            charges += op == TraceOp::Charge ? operand : 0;
        }

        /** Append this thread's counts to @p t. */
        void
        addTo(ScriptTallies &t) const
        {
            t.saves.push_back(saves);
            t.restores.push_back(restores);
            t.charges += charges;
        }
    };

    // Moving transfers the backing (heap buffers or the mmap) without
    // invalidating the view pointers; copying would not, so it is
    // forbidden.
    FlatTrace() = default;
    FlatTrace(FlatTrace &&) = default;
    FlatTrace &operator=(FlatTrace &&) = default;
    FlatTrace(const FlatTrace &) = delete;
    FlatTrace &operator=(const FlatTrace &) = delete;

    // Backing storage — exactly one of {storage, mapping} is live.
    // Both backings start the word array on a kCacheAlign boundary
    // (AlignedVec in memory, the file's 64-byte offsets on disk), so
    // the replay walks stream whole lines whichever one is attached.
    AlignedVec<std::uint32_t> wordStorage;
    std::vector<WideOperand> wideStorage;
    store::Mapping mapping;
};

} // namespace crw

#endif // CRW_TRACE_FLAT_TRACE_H_
