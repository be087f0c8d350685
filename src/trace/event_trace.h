/**
 * @file
 * EventTrace: the capture-once / replay-many representation of one
 * application run (DESIGN.md §8).
 *
 * The paper's own emulator split (§4.1: "usual instructions are
 * executed at real speed, but instructions which concern windows are
 * trapped and emulated") implies the window-event stream of the
 * application is independent of the window configuration. We push that
 * one step further: the stream is captured *per thread* as the exact
 * sequence of engine-relevant actions — procedure entry/exit
 * (save/restore), compute charges, and bounded-stream operations —
 * and replayed against any (scheme, window count, policy) point.
 *
 * Why per-thread scripts instead of one global interleaving: the
 * interleaving (and therefore every block, wake and context switch) is
 * a *function* of the window configuration and the scheduling policy;
 * baking it in would pin the trace to the capture configuration. The
 * per-thread action sequences, by contrast, are configuration-
 * independent: threads communicate only through FIFO streams (a Kahn
 * network), so the data — and hence the actions — each thread produces
 * do not depend on the schedule. Blocks and wakes are re-derived at
 * replay by simulating the bounded buffers (replay_driver.h).
 *
 * Event kinds and their replay semantics:
 *
 *   Save     the thread executed a `save` (procedure entry)
 *   Restore  the thread executed a `restore` (procedure return)
 *   Charge   n cycles of ordinary computation
 *   Put      one byte enqueued to stream s (blocks while full)
 *   Get      one byte dequeued from stream s (blocks while empty;
 *            EOF — no byte, no block — once the stream is closed)
 *   Close    one writer of stream s is done
 *   Exit     the thread's body returned
 *
 * Encoding: one tag byte per event — kind in the high nibble, a small
 * operand (charge amount or stream id) in the low nibble, with a
 * varint spill for large operands. Adjacent charges are coalesced at
 * record time (the engine's clock and counters cannot distinguish
 * them). A full behavior trace is a few MB.
 */

#ifndef CRW_TRACE_EVENT_TRACE_H_
#define CRW_TRACE_EVENT_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "rt/trace_sink.h"

namespace crw {

/** Event kinds; values are the tag byte's high nibble. */
enum class TraceOp : std::uint8_t {
    Save = 0,
    Restore = 1,
    Charge = 2,
    Put = 3,
    Get = 4,
    Close = 5,
    Exit = 6,
};

/** One stream of the captured application. */
struct TraceStreamInfo
{
    std::string name;
    std::uint32_t capacity = 0;
    std::uint32_t writers = 0;

    bool
    operator==(const TraceStreamInfo &o) const
    {
        return name == o.name && capacity == o.capacity &&
               writers == o.writers;
    }
};

/** One thread: its name, static scheduling priority (0 = default;
 *  consulted only by SchedPolicy::Priority) and encoded event script,
 *  in spawn order. */
struct TraceThreadInfo
{
    std::string name;
    std::uint8_t priority = 0;
    std::vector<std::uint8_t> code;

    bool
    operator==(const TraceThreadInfo &o) const
    {
        return name == o.name && priority == o.priority &&
               code == o.code;
    }
};

/** A captured run, plus the identity fields forming its cache key. */
struct EventTrace
{
    /** Behavior key, e.g. "HC-fine-m1-n1" (see DESIGN.md §8). */
    std::string key;
    std::uint64_t seed = 0;
    std::uint64_t corpusBytes = 0;

    /** Schedule-independent outputs carried for RunMetrics. */
    std::uint64_t misspelled = 0;
    std::uint64_t wordsFromDelatex = 0;

    std::vector<TraceStreamInfo> streams;
    std::vector<TraceThreadInfo> threads;

    /**
     * The payload checksum loadTraceFile() verified against the file
     * trailer — traceChecksum() of the trace as loaded, without
     * re-encoding it; 0 for a trace not read from a file. Not part of
     * the trace's identity (operator== ignores it), and stale once a
     * loaded trace is modified.
     */
    std::uint64_t fileChecksum = 0;

    /** Total decoded events across all threads (for reporting). */
    std::uint64_t eventCount() const;

    bool
    operator==(const EventTrace &o) const
    {
        return key == o.key && seed == o.seed &&
               corpusBytes == o.corpusBytes &&
               misspelled == o.misspelled &&
               wordsFromDelatex == o.wordsFromDelatex &&
               streams == o.streams && threads == o.threads;
    }
};

/**
 * Decoder over one thread's event script. decodeNext() is branch-light
 * and allocation-free; the replay driver calls it tens of millions of
 * times per sweep.
 */
class TraceCursor
{
  public:
    explicit TraceCursor(const std::vector<std::uint8_t> &code)
        : pc_(code.data()),
          end_(code.data() + code.size())
    {}

    bool atEnd() const { return pc_ == end_; }

    /**
     * Peek the next event without consuming it. @p operand receives
     * the charge amount (Charge) or stream id (Put/Get/Close).
     */
    TraceOp peek(std::uint64_t &operand) const;

    /** Consume the event previously peeked. */
    void advance();

  private:
    const std::uint8_t *pc_;
    const std::uint8_t *end_;
    mutable const std::uint8_t *next_ = nullptr; // set by peek()
};

/**
 * The concrete TraceSink: records a live run into an EventTrace.
 * Install on the Runtime before constructing the application; call
 * take() after the run to obtain the trace.
 */
class TraceRecorder : public TraceSink
{
  public:
    TraceRecorder(std::string key, std::uint64_t seed,
                  std::uint64_t corpus_bytes);

    void onThreadSpawn(ThreadId tid, const std::string &name,
                       std::uint8_t priority) override;
    int onStreamCreate(const std::string &name, std::size_t capacity,
                       int num_writers) override;
    void recordSave(ThreadId tid) override;
    void recordRestore(ThreadId tid) override;
    void recordCharge(ThreadId tid, Cycles cycles) override;
    void recordPut(ThreadId tid, int stream_id) override;
    void recordGet(ThreadId tid, int stream_id) override;
    void recordClose(ThreadId tid, int stream_id) override;
    void recordExit(ThreadId tid) override;

    /** Finalize and move the trace out (the recorder is spent). */
    EventTrace take(std::uint64_t misspelled,
                    std::uint64_t words_from_delatex);

  private:
    void emit(ThreadId tid, TraceOp op, std::uint64_t operand);
    void flushCharge(ThreadId tid);
    std::vector<std::uint8_t> &code(ThreadId tid);

    EventTrace trace_;
    std::vector<std::uint64_t> pendingCharge_;
};

/**
 * Binary serialization with a versioned header and a payload checksum
 * so stale or corrupted cache files are rejected, never replayed.
 * Layout: magic "CRWTRACE", u32 version, payload, u64 FNV-1a checksum.
 *
 * Version history:
 *   1  original format
 *   2  TraceThreadInfo gained the per-thread priority byte (between
 *      the name and the code blob). v1 files are rejected and
 *      re-captured deterministically — re-capture emits identical
 *      scripts, so downstream results are unchanged.
 */
inline constexpr std::uint32_t kTraceFormatVersion = 2;

/**
 * FNV-1a of the trace's serialized payload — exactly the bytes
 * saveTraceFile() checksums, so an in-memory trace and its cache file
 * agree on identity. This is the trace-identity component of the
 * bench result-cache key (bench/result_cache.h): any change to the
 * captured behavior invalidates every point result derived from it.
 */
std::uint64_t traceChecksum(const EventTrace &trace);

/** Write @p trace to @p path (via a temp file + rename). */
bool saveTraceFile(const EventTrace &trace, const std::string &path,
                   std::string *error = nullptr);

/**
 * Structural validation of one thread's encoded event script: every
 * tag must carry a known op, every spilled varint must terminate
 * inside the blob without overflowing 64 bits, and every stream
 * operand must name one of the trace's @p num_streams streams.
 *
 * TraceCursor::peek() assumes (crw_assert) a well-formed script — it
 * runs tens of millions of times per sweep and must stay check-free —
 * so everything that enters a replay MUST pass through this gate
 * first. loadTraceFile() applies the same rules to every thread (one
 * scanner serves both); a trace built by TraceRecorder is well-formed
 * by construction.
 */
bool validateTraceCode(const std::vector<std::uint8_t> &code,
                       std::size_t num_streams,
                       std::string *error = nullptr);

/**
 * Read a trace back, in one streaming pass over the file (DESIGN.md
 * §8). Returns false (with a reason in @p error) on a bad magic,
 * unknown version, truncation, checksum mismatch, malformed payload,
 * or a thread event script that fails validateTraceCode() — reported
 * in that order, so a damaged file reads as a checksum mismatch
 * whatever its damage parses as. No length field is trusted beyond
 * the bytes left in the file. On success the verified trailer lands
 * in @p out.fileChecksum; on failure @p out is untouched.
 */
bool loadTraceFile(const std::string &path, EventTrace &out,
                   std::string *error = nullptr);

} // namespace crw

#endif // CRW_TRACE_EVENT_TRACE_H_
