#include "trace/synth.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "common/rng.h"
#include "rt/sched_core.h"

namespace crw {
namespace {

/** @p prefix, @p index in decimal, then @p suffix: a stream or thread
 *  name. Appended piecewise, since GCC 12 at -O3 warns (-Wrestrict)
 *  on a literal + temporary string concatenation. */
std::string
indexedName(const char *prefix, int index, const char *suffix = "")
{
    std::string name = prefix;
    name += std::to_string(index);
    name += suffix;
    return name;
}

std::uint8_t
priorityOf(const SynthSpec &spec, int tid)
{
    if (!spec.prioritized)
        return 0;
    return static_cast<std::uint8_t>((tid * 3 + 1) %
                                     SchedCore::kNumLevels);
}

Cycles
drawCharge(Rng &rng, const SynthSpec &spec)
{
    // meanCharge ± 50%, floor 1: a charge of 0 would be dropped by
    // the recorder's coalescing and desync the rng-to-event mapping.
    const std::int64_t mean =
        std::max<std::int64_t>(2, static_cast<std::int64_t>(
                                      spec.meanCharge));
    const std::int64_t half = mean / 2;
    return static_cast<Cycles>(
        rng.nextInRange(mean - half, mean + half));
}

/**
 * One work item: a balanced call walk to a depth drawn from the
 * spec's distribution — d saves with a charge inside each activation,
 * then d restores. This is the synthetic stand-in for the per-word
 * call trees the spell threads produce.
 */
void
emitWalk(TraceRecorder &rec, Rng &rng, const SynthSpec &spec,
         ThreadId tid)
{
    const int lo = std::max(1, spec.meanDepth - spec.depthJitter);
    const int hi = std::max(lo, spec.meanDepth + spec.depthJitter);
    const int depth = static_cast<int>(rng.nextInRange(lo, hi));
    for (int i = 0; i < depth; ++i) {
        rec.recordSave(tid);
        rec.recordCharge(tid, drawCharge(rng, spec));
    }
    for (int i = 0; i < depth; ++i)
        rec.recordRestore(tid);
}

/**
 * One thread's lock-contention segment: lockRounds × (acquire the
 * token, run a short critical-section activation, release, back off).
 * The token stream has capacity 1 and is never closed, so an acquire
 * on an empty stream parks the thread — with many contenders this is
 * a switch storm by construction.
 */
void
emitLockSegment(TraceRecorder &rec, Rng &rng, const SynthSpec &spec,
                ThreadId tid, int lock_stream)
{
    for (int r = 0; r < spec.lockRounds; ++r) {
        rec.recordGet(tid, lock_stream);
        rec.recordSave(tid);
        rec.recordCharge(tid, drawCharge(rng, spec));
        rec.recordRestore(tid);
        rec.recordPut(tid, lock_stream);
        rec.recordCharge(tid, drawCharge(rng, spec)); // backoff
    }
}

/** The shared lock stream, or -1 when the spec has no lock segments.
 *  Writers = every thread (each put returns the token); never closed,
 *  so a get on it always parks instead of seeing EOF. */
int
createLockStream(TraceRecorder &rec, const SynthSpec &spec,
                 int num_threads)
{
    if (spec.lockRounds <= 0)
        return -1;
    return rec.onStreamCreate("lock", 1, num_threads);
}

void
emitPipeline(TraceRecorder &rec, Rng &rng, const SynthSpec &spec)
{
    const int stages = std::max(2, spec.threads);
    const int cap = std::max(1, spec.streamCapacity);

    std::vector<int> link(static_cast<std::size_t>(stages - 1));
    for (int i = 0; i + 1 < stages; ++i)
        link[static_cast<std::size_t>(i)] = rec.onStreamCreate(
            indexedName("P", i), static_cast<std::size_t>(cap), 1);
    const int lock = createLockStream(rec, spec, stages);

    for (int i = 0; i < stages; ++i)
        rec.onThreadSpawn(i, indexedName("T", i, ":stage"),
                          priorityOf(spec, i));

    for (int i = 0; i < stages; ++i) {
        const ThreadId tid = i;
        if (i == 0 && lock >= 0)
            rec.recordPut(tid, lock); // seed the token
        for (int item = 0; item < spec.items; ++item) {
            if (i > 0)
                rec.recordGet(tid, link[static_cast<std::size_t>(i - 1)]);
            emitWalk(rec, rng, spec, tid);
            if (i + 1 < stages)
                rec.recordPut(tid, link[static_cast<std::size_t>(i)]);
        }
        if (i + 1 < stages)
            rec.recordClose(tid, link[static_cast<std::size_t>(i)]);
        if (lock >= 0)
            emitLockSegment(rec, rng, spec, tid, lock);
        rec.recordExit(tid);
    }
}

void
emitFanInOut(TraceRecorder &rec, Rng &rng, const SynthSpec &spec)
{
    const int workers = std::max(1, spec.threads);
    const int total = workers + 2; // source + workers + sink
    const int cap = std::max(1, spec.streamCapacity);

    std::vector<int> scatter(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w)
        scatter[static_cast<std::size_t>(w)] = rec.onStreamCreate(
            indexedName("F", w), static_cast<std::size_t>(cap), 1);
    const int gather = rec.onStreamCreate(
        "J", static_cast<std::size_t>(cap), workers);
    const int lock = createLockStream(rec, spec, total);

    rec.onThreadSpawn(0, "T0:source", priorityOf(spec, 0));
    for (int w = 0; w < workers; ++w)
        rec.onThreadSpawn(1 + w, indexedName("T", 1 + w, ":worker"),
                          priorityOf(spec, 1 + w));
    rec.onThreadSpawn(total - 1, indexedName("T", total - 1, ":sink"),
                      priorityOf(spec, total - 1));

    // Source: round-robin scatter, one shallow activation per item.
    {
        const ThreadId tid = 0;
        if (lock >= 0)
            rec.recordPut(tid, lock); // seed the token
        for (int item = 0; item < spec.items; ++item) {
            rec.recordSave(tid);
            rec.recordCharge(tid, drawCharge(rng, spec));
            rec.recordRestore(tid);
            rec.recordPut(tid,
                          scatter[static_cast<std::size_t>(item %
                                                           workers)]);
        }
        for (int w = 0; w < workers; ++w)
            rec.recordClose(tid, scatter[static_cast<std::size_t>(w)]);
        if (lock >= 0)
            emitLockSegment(rec, rng, spec, tid, lock);
        rec.recordExit(tid);
    }

    // Workers: the deep per-item call walks, gathered into one stream.
    for (int w = 0; w < workers; ++w) {
        const ThreadId tid = 1 + w;
        const int mine = spec.items / workers +
                         (w < spec.items % workers ? 1 : 0);
        for (int j = 0; j < mine; ++j) {
            rec.recordGet(tid, scatter[static_cast<std::size_t>(w)]);
            emitWalk(rec, rng, spec, tid);
            rec.recordPut(tid, gather);
        }
        rec.recordClose(tid, gather);
        if (lock >= 0)
            emitLockSegment(rec, rng, spec, tid, lock);
        rec.recordExit(tid);
    }

    // Sink: drain, one shallow activation per item.
    {
        const ThreadId tid = total - 1;
        for (int item = 0; item < spec.items; ++item) {
            rec.recordGet(tid, gather);
            rec.recordSave(tid);
            rec.recordCharge(tid, drawCharge(rng, spec));
            rec.recordRestore(tid);
        }
        if (lock >= 0)
            emitLockSegment(rec, rng, spec, tid, lock);
        rec.recordExit(tid);
    }
}

void
emitRing(TraceRecorder &rec, Rng &rng, const SynthSpec &spec)
{
    const int size = std::max(2, spec.threads);
    const int cap = std::max(1, spec.streamCapacity);

    std::vector<int> ring(static_cast<std::size_t>(size));
    for (int i = 0; i < size; ++i)
        ring[static_cast<std::size_t>(i)] = rec.onStreamCreate(
            indexedName("R", i), static_cast<std::size_t>(cap), 1);
    const int lock = createLockStream(rec, spec, size);

    for (int i = 0; i < size; ++i)
        rec.onThreadSpawn(i, indexedName("T", i, ":ring"),
                          priorityOf(spec, i));

    // Thread 0 primes at most `cap` tokens and strictly get-then-puts
    // afterwards, bounding the in-flight token count by every buffer's
    // capacity — the ring cannot deadlock (see synth.h).
    {
        const ThreadId tid = 0;
        const int upstream = ring[static_cast<std::size_t>(size - 1)];
        const int primed = std::min(cap, spec.items);
        if (lock >= 0)
            rec.recordPut(tid, lock); // seed the token
        for (int j = 0; j < primed; ++j) {
            emitWalk(rec, rng, spec, tid);
            rec.recordPut(tid, ring[0]);
        }
        for (int j = 0; j < spec.items - primed; ++j) {
            rec.recordGet(tid, upstream);
            emitWalk(rec, rng, spec, tid);
            rec.recordPut(tid, ring[0]);
        }
        for (int j = 0; j < primed; ++j) {
            rec.recordGet(tid, upstream);
            emitWalk(rec, rng, spec, tid);
        }
        rec.recordClose(tid, ring[0]);
        if (lock >= 0)
            emitLockSegment(rec, rng, spec, tid, lock);
        rec.recordExit(tid);
    }

    for (int i = 1; i < size; ++i) {
        const ThreadId tid = i;
        for (int j = 0; j < spec.items; ++j) {
            rec.recordGet(tid, ring[static_cast<std::size_t>(i - 1)]);
            emitWalk(rec, rng, spec, tid);
            rec.recordPut(tid, ring[static_cast<std::size_t>(i)]);
        }
        rec.recordClose(tid, ring[static_cast<std::size_t>(i)]);
        if (lock >= 0)
            emitLockSegment(rec, rng, spec, tid, lock);
        rec.recordExit(tid);
    }
}

} // namespace

const char *
synthTopologyName(SynthSpec::Topology topology)
{
    switch (topology) {
    case SynthSpec::Topology::Pipeline:
        return "pipeline";
    case SynthSpec::Topology::FanInOut:
        return "fanio";
    case SynthSpec::Topology::Ring:
        return "ring";
    }
    return "?";
}

std::string
synthTraceKey(const SynthSpec &spec)
{
    return std::string("synth-") + synthTopologyName(spec.topology) +
           "-t" + std::to_string(spec.threads) + "-i" +
           std::to_string(spec.items) + "-c" +
           std::to_string(spec.streamCapacity) + "-d" +
           std::to_string(spec.meanDepth) + "j" +
           std::to_string(spec.depthJitter) + "-ch" +
           std::to_string(spec.meanCharge) + "-l" +
           std::to_string(spec.lockRounds) + "-p" +
           (spec.prioritized ? "1" : "0") + "-g" +
           std::to_string(kSynthGenVersion);
}

EventTrace
generateSynthTrace(const SynthSpec &spec)
{
    crw_assert(spec.items > 0);
    TraceRecorder rec(synthTraceKey(spec), spec.seed, 0);
    // One generator for the whole trace, consumed in fixed
    // thread-by-thread emission order: the byte stream is a pure
    // function of the spec.
    Rng rng(spec.seed);
    switch (spec.topology) {
    case SynthSpec::Topology::Pipeline:
        emitPipeline(rec, rng, spec);
        break;
    case SynthSpec::Topology::FanInOut:
        emitFanInOut(rec, rng, spec);
        break;
    case SynthSpec::Topology::Ring:
        emitRing(rec, rng, spec);
        break;
    }
    return rec.take(0, 0);
}

const std::vector<SynthSpec> &
synthBehaviorMenu()
{
    static const std::vector<SynthSpec> kMenu = [] {
        std::vector<SynthSpec> menu;
        SynthSpec pipe;
        pipe.topology = SynthSpec::Topology::Pipeline;
        pipe.threads = 6;
        pipe.items = 400;
        pipe.streamCapacity = 1;
        pipe.meanDepth = 5;
        pipe.depthJitter = 3;
        pipe.meanCharge = 40;
        pipe.prioritized = true;
        pipe.seed = 11;
        menu.push_back(pipe);

        SynthSpec fan;
        fan.topology = SynthSpec::Topology::FanInOut;
        fan.threads = 4;
        fan.items = 480;
        fan.streamCapacity = 2;
        fan.meanDepth = 6;
        fan.depthJitter = 2;
        fan.meanCharge = 60;
        fan.prioritized = true;
        fan.seed = 22;
        menu.push_back(fan);

        SynthSpec ring;
        ring.topology = SynthSpec::Topology::Ring;
        ring.threads = 5;
        ring.items = 300;
        ring.streamCapacity = 2;
        ring.meanDepth = 4;
        ring.depthJitter = 2;
        ring.meanCharge = 30;
        ring.prioritized = true;
        ring.seed = 33;
        menu.push_back(ring);

        SynthSpec lock;
        lock.topology = SynthSpec::Topology::FanInOut;
        lock.threads = 6;
        lock.items = 240;
        lock.streamCapacity = 1;
        lock.meanDepth = 3;
        lock.depthJitter = 2;
        lock.meanCharge = 25;
        lock.lockRounds = 60;
        lock.prioritized = true;
        lock.seed = 44;
        menu.push_back(lock);

        // Compute-bound: deep buffers and heavy per-item work, so
        // threads run long between blocking events and RoundRobin's
        // quantum actually expires (everywhere else the capacity-1
        // streams preempt threads long before 4096 cycles).
        SynthSpec compute;
        compute.topology = SynthSpec::Topology::Pipeline;
        compute.threads = 4;
        compute.items = 160;
        compute.streamCapacity = 64;
        compute.meanDepth = 8;
        compute.depthJitter = 4;
        compute.meanCharge = 200;
        compute.prioritized = true;
        compute.seed = 55;
        menu.push_back(compute);
        return menu;
    }();
    return kMenu;
}

} // namespace crw
