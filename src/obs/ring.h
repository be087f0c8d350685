/**
 * @file
 * EventRing: a fixed-size binary event ring over one mmap-shared file
 * (DESIGN.md §13) — the always-on tier of the observability layer.
 *
 * The metrics registry and the Chrome-trace writer only exist when
 * --metrics-out/--trace-out are given; the ring is cheap enough (one
 * 24-byte slot write + one atomic store per event, events fire per
 * cache probe / replay point / pool job, never per simulated op) to
 * record unconditionally. A crashed or hung run leaves its last
 * kEventRingCapacity events on disk, and a concurrent process (the
 * future sweep daemon, `crw-bench cache`) can attach the file
 * read-only and snapshot them live.
 *
 * File layout:
 *
 *   off  0  magic[8]      "CRWERING"
 *   off  8  u32 version   kEventRingFormatVersion
 *   off 12  u32 capacity  slot count, power of two
 *   off 16  u64 head      total events ever published (atomic)
 *   off 24  reserved, zero
 *   off 64  capacity × RingEvent (24 bytes each)
 *
 * Publication is (1,N)-register style like the record store: the slot
 * bytes are fully written, then head advances with one release store.
 * Writers within the process serialize on a mutex (the "single
 * writer" of the protocol is the process holding the flock); readers
 * take a best-effort snapshot — copy, re-read head, drop any slot the
 * writer lapped during the copy.
 */

#ifndef CRW_OBS_RING_H_
#define CRW_OBS_RING_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "store/arena.h"

namespace crw {
namespace obs {

/** Bump when the header or slot layout changes shape. */
inline constexpr std::uint32_t kEventRingFormatVersion = 1;

/** Default slot count of the bench session ring (1.5 MiB of file). */
inline constexpr std::uint32_t kEventRingCapacity = 1u << 16;

/**
 * What happened. The codes are part of the on-disk format: append
 * new ones, never renumber (or bump kEventRingFormatVersion).
 */
enum class RingEventCode : std::uint32_t
{
    None = 0,
    ReplayPoint = 1,   ///< one point replayed live
    CacheHit = 2,      ///< result served from the store/legacy file
    CacheMiss = 3,     ///< result absent; a replay follows
    CacheStore = 4,    ///< fresh result persisted
    CacheCorrupt = 5,  ///< damaged entry detected, re-replayed
    FlatAttach = 6,    ///< flat trace attached from disk (warm start)
    FlatPredecode = 7, ///< flat trace built from the event trace
    FlatStore = 8,     ///< flat trace arenas written to disk
    PoolJobStart = 9,  ///< HostPool::run began (value = task count)
    PoolJobEnd = 10,   ///< HostPool::run drained
    ReplayBatch = 11,  ///< one lockstep batch replayed (arg = width)
    /**
     * A working-set batch diverged and fell back to per-point. No
     * longer emitted (batching follows a static rule that cannot
     * diverge); kept because the ring format is append-only.
     */
    ReplayBatchFallback = 12,
    /** SIMD follower path of a batch (arg = SimdTier code: 0 scalar
     *  oracle, 1 portable SoA, 2 AVX2; value = batch width). */
    ReplaySimd = 13,
};

/** Short stable name for drains and the Chrome-trace emitter. */
const char *ringEventName(RingEventCode code);

/** One ring slot. */
struct RingEvent
{
    std::int64_t t_us = 0;  ///< session-relative host microseconds
    std::uint32_t code = 0; ///< RingEventCode
    std::uint32_t arg = 0;  ///< code-specific (e.g. windows, jobs)
    std::uint64_t value = 0;
};

class EventRing
{
  public:
    EventRing() = default;
    EventRing(const EventRing &) = delete;
    EventRing &operator=(const EventRing &) = delete;

    /**
     * Open @p path, electing writer via flock (Mapping::openElected).
     * The winner sizes the file and formats the ring if the header
     * does not validate; a loser attaches read-only to the winner's
     * ring, whatever its capacity (snapshot works, publish is a
     * no-op). False when
     * neither works — callers typically retry with openAnonymous.
     */
    bool openFile(const std::string &path, std::uint32_t capacity,
                  std::string *error = nullptr);

    /** Private in-memory ring (tests; fallback when the path fails). */
    bool openAnonymous(std::uint32_t capacity);

    bool valid() const { return capacity_ != 0; }
    bool writable() const { return mapping_.writable(); }
    std::uint32_t capacity() const { return capacity_; }

    /**
     * Record one event. Thread-safe; a no-op (false) on a read-only
     * or unopened ring.
     */
    bool publish(const RingEvent &event);

    /** Total events ever published (monotonic; wraps never). */
    std::uint64_t published() const;

    /**
     * Best-effort snapshot of the resident events, oldest first.
     * Safe against a concurrent writer: slots the writer lapped
     * mid-copy are dropped, never returned torn.
     */
    std::vector<RingEvent> snapshot() const;

    void close();

  private:
    bool initialize(std::uint32_t capacity);
    bool validateHeader();

    store::Mapping mapping_;
    std::mutex publishMu_;
    std::uint32_t capacity_ = 0;
};

} // namespace obs
} // namespace crw

#endif // CRW_OBS_RING_H_
