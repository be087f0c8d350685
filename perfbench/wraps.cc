/**
 * @file
 * Link-time span wrappers of the traced driver (crw_perf_traced).
 *
 * The layers below executePlan — trace load, predecode/attach, store
 * probe/write, replay, the worker pool — are called from the
 * repository's own objects, so the benchmark cannot put spans around
 * them in its own code. Instead each public entry point listed here
 * is linked with `-Wl,--wrap=<symbol>` (CMakeLists.txt collects the
 * symbols from the `__wrap_` labels in this file): every call from
 * another object lands in the wrapper, which opens a span, calls the
 * real function through `__real_<symbol>` and records the outcome.
 * Nothing under src/ or bench/ changes, and the untraced driver links
 * none of this.
 *
 * The `__real_` declarations are weak. If a later revision renames a
 * function or changes its signature, the wrap simply never fires: the
 * build still links and the layer's counts read zero, which run.py's
 * workload-state cross-check then reports as a failed run rather than
 * a silent gap.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/result_cache.h"
#include "perfbench/spans.h"
#include "rt/sched_core.h"
#include "spell/capture.h"
#include "trace/event_trace.h"
#include "trace/flat_trace.h"
#include "trace/replay_batch.h"
#include "trace/replay_driver.h"
#include "trace/run_metrics.h"
#include "trace/synth.h"
#include "win/cost_model.h"

using crw::BatchedReplayDriver;
using crw::EngineConfig;
using crw::EventTrace;
using crw::FlatTrace;
using crw::ReplayDriver;
using crw::RunMetrics;
using crw::SchedPolicy;
using crw::bench::ParallelSweep;
using perfbench::Span;

// Declares the weak real entry point and the wrapper of one symbol.
// Keep each mangled name on one line: CMakeLists.txt greps them.
#define PERF_WRAP(ret, real, wrap, sym, ...)                          \
    __attribute__((weak)) ret real(__VA_ARGS__) __asm__("__real_" sym); \
    ret wrap(__VA_ARGS__) __asm__("__wrap_" sym)

PERF_WRAP(EventTrace, realCapture, wrapCapture,
          "_ZN3crw17captureSpellTraceERKNS_13SpellWorkloadERKNS_11SpellConfigE",
          const crw::SpellWorkload &, const crw::SpellConfig &);
PERF_WRAP(EventTrace, realGenerate, wrapGenerate,
          "_ZN3crw18generateSynthTraceERKNS_9SynthSpecE",
          const crw::SynthSpec &);
PERF_WRAP(bool, realLoadTrace, wrapLoadTrace,
          "_ZN3crw13loadTraceFileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERNS_10EventTraceEPS5_",
          const std::string &, EventTrace &, std::string *);
PERF_WRAP(bool, realSaveTrace, wrapSaveTrace,
          "_ZN3crw13saveTraceFileERKNS_10EventTraceERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPS8_",
          const EventTrace &, const std::string &, std::string *);
PERF_WRAP(std::uint64_t, realChecksum, wrapChecksum,
          "_ZN3crw13traceChecksumERKNS_10EventTraceE",
          const EventTrace &);
PERF_WRAP(FlatTrace, realBuild, wrapBuild,
          "_ZN3crw9FlatTrace5buildERKNS_10EventTraceE",
          const EventTrace &);
PERF_WRAP(bool, realAttach, wrapAttach,
          "_ZN3crw13loadFlatTraceERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEmRNS_9FlatTraceEPS5_",
          const std::string &, std::uint64_t, FlatTrace &,
          std::string *);
PERF_WRAP(bool, realFlatStore, wrapFlatStore,
          "_ZN3crw13saveFlatTraceERKNS_9FlatTraceEmRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPS8_",
          const FlatTrace &, std::uint64_t, const std::string &,
          std::string *);
PERF_WRAP(bool, realProbe, wrapProbe,
          "_ZN3crw5bench16loadCachedResultERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERNS_10RunMetricsE",
          const std::string &, RunMetrics &);
PERF_WRAP(bool, realStoreWrite, wrapStoreWrite,
          "_ZN3crw5bench17storeCachedResultERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_10RunMetricsE",
          const std::string &, const RunMetrics &);
PERF_WRAP(void, realReplayCtor, wrapReplayCtor,
          "_ZN3crw12ReplayDriverC1ERKNS_10EventTraceERKNS_12EngineConfigENS_11SchedPolicyEPKNS_9FlatTraceE",
          ReplayDriver *, const EventTrace &, const EngineConfig &,
          SchedPolicy, const FlatTrace *);
PERF_WRAP(void, realReplayRun, wrapReplayRun,
          "_ZN3crw12ReplayDriver3runEv", ReplayDriver *);
PERF_WRAP(void, realBatchCtor, wrapBatchCtor,
          "_ZN3crw19BatchedReplayDriverC1ERKNS_10EventTraceERKSt6vectorINS_12EngineConfigESaIS5_EENS_11SchedPolicyEPKNS_9FlatTraceE",
          BatchedReplayDriver *, const EventTrace &,
          const std::vector<EngineConfig> &, SchedPolicy,
          const FlatTrace *);
PERF_WRAP(bool, realBatchRun, wrapBatchRun,
          "_ZN3crw19BatchedReplayDriver3runEv", BatchedReplayDriver *);
PERF_WRAP(void, realPoolRun, wrapPoolRun,
          "_ZNK3crw5bench13ParallelSweep3runEmRKSt8functionIFvmEE",
          const ParallelSweep *, std::size_t,
          const std::function<void(std::size_t)> &);

namespace {

/** Bytes of one flat image: a TraceOp byte plus a u64 operand each. */
std::uint64_t
flatBytes(const FlatTrace &flat)
{
    return static_cast<std::uint64_t>(flat.events) * 9;
}

// Trace checksum -> behavior key, so flat-store spans (which only see
// the checksum) are labelled by behavior like every other span.
std::mutex g_keysMu;
std::map<std::uint64_t, std::string> g_keyByChecksum;

std::string
keyOfChecksum(std::uint64_t checksum)
{
    std::lock_guard<std::mutex> lock(g_keysMu);
    const auto it = g_keyByChecksum.find(checksum);
    return it == g_keyByChecksum.end() ? std::string("?") : it->second;
}

/** "<point key>|trace=..|v.." -> "<point key>" */
std::string
pointKeyOf(const std::string &cache_key)
{
    return cache_key.substr(0, cache_key.find("|trace="));
}

/** What a replay constructor saw, handed to the run() that follows it
 *  on the same thread (the executor constructs and runs back to back). */
struct PendingReplay
{
    const void *driver = nullptr;
    std::string label;
    std::uint64_t events = 0;
    std::uint64_t lanes = 0;
};

thread_local PendingReplay t_point;
thread_local PendingReplay t_batch;

std::uint64_t
eventsOf(const EventTrace &trace, const FlatTrace *flat)
{
    return flat ? flat->events : trace.eventCount();
}

PendingReplay
takePending(PendingReplay &pending, const void *driver)
{
    PendingReplay out;
    if (pending.driver == driver)
        out = std::move(pending);
    pending = PendingReplay{};
    return out;
}

} // namespace

EventTrace
wrapCapture(const crw::SpellWorkload &workload,
            const crw::SpellConfig &config)
{
    Span span("capture", crw::spellTraceKey(config));
    return realCapture(workload, config);
}

EventTrace
wrapGenerate(const crw::SynthSpec &spec)
{
    Span span("trace.generate", crw::synthTraceKey(spec));
    return realGenerate(spec);
}

bool
wrapLoadTrace(const std::string &path, EventTrace &out,
              std::string *error)
{
    Span span("trace.load", path.substr(path.find_last_of('/') + 1));
    const bool ok = realLoadTrace(path, out, error);
    span.count("ok", ok);
    return ok;
}

bool
wrapSaveTrace(const EventTrace &trace, const std::string &path,
              std::string *error)
{
    Span span("trace.save", trace.key);
    return realSaveTrace(trace, path, error);
}

std::uint64_t
wrapChecksum(const EventTrace &trace)
{
    const std::uint64_t sum = realChecksum(trace);
    std::lock_guard<std::mutex> lock(g_keysMu);
    g_keyByChecksum.emplace(sum, trace.key);
    return sum;
}

FlatTrace
wrapBuild(const EventTrace &trace)
{
    Span span("flat.predecode", trace.key);
    FlatTrace flat = realBuild(trace);
    span.count("bytes", flatBytes(flat));
    return flat;
}

bool
wrapAttach(const std::string &path, std::uint64_t checksum,
           FlatTrace &out, std::string *error)
{
    Span span("flat.attach", keyOfChecksum(checksum));
    const bool ok = realAttach(path, checksum, out, error);
    span.count("ok", ok);
    if (ok)
        span.count("bytes", flatBytes(out));
    return ok;
}

bool
wrapFlatStore(const FlatTrace &flat, std::uint64_t checksum,
              const std::string &path, std::string *error)
{
    Span span("flat.store", keyOfChecksum(checksum));
    const bool ok = realFlatStore(flat, checksum, path, error);
    span.count("ok", ok);
    span.count("bytes", flatBytes(flat));
    return ok;
}

bool
wrapProbe(const std::string &cache_key, RunMetrics &out)
{
    Span span("store.probe", pointKeyOf(cache_key));
    const bool hit = realProbe(cache_key, out);
    span.count("hit", hit);
    return hit;
}

bool
wrapStoreWrite(const std::string &cache_key, const RunMetrics &metrics)
{
    Span span("store.write", pointKeyOf(cache_key));
    const bool ok = realStoreWrite(cache_key, metrics);
    span.count("ok", ok);
    return ok;
}

void
wrapReplayCtor(ReplayDriver *self, const EventTrace &trace,
               const EngineConfig &engine, SchedPolicy policy,
               const FlatTrace *flat)
{
    realReplayCtor(self, trace, engine, policy, flat);
    t_point.driver = self;
    t_point.label = trace.key + "/" + crw::schemeName(engine.scheme) +
                    "/w" + std::to_string(engine.numWindows) + "/" +
                    crw::policyName(policy);
    t_point.events = eventsOf(trace, flat);
}

void
wrapReplayRun(ReplayDriver *self)
{
    const PendingReplay info = takePending(t_point, self);
    Span span("replay.point", info.label);
    realReplayRun(self);
    span.count("events", info.events);
}

void
wrapBatchCtor(BatchedReplayDriver *self, const EventTrace &trace,
              const std::vector<EngineConfig> &configs,
              SchedPolicy policy, const FlatTrace *flat)
{
    realBatchCtor(self, trace, configs, policy, flat);
    // pointBatchKey's coordinates: behavior, scheme, cost model,
    // policy (every lane shares them).
    const EngineConfig &c0 = configs.front();
    t_batch.driver = self;
    t_batch.label = trace.key + "|" + crw::schemeName(c0.scheme) +
                    "|cm=" + crw::costModelKey(c0.cost) + "|" +
                    crw::policyName(policy);
    t_batch.events = eventsOf(trace, flat);
    t_batch.lanes = configs.size();
}

bool
wrapBatchRun(BatchedReplayDriver *self)
{
    const PendingReplay info = takePending(t_batch, self);
    Span span("replay.batch", info.label);
    const bool ok = realBatchRun(self);
    span.count("lanes", info.lanes);
    span.count("events", info.events * info.lanes);
    span.count("diverged", !ok);
    span.count("simd", static_cast<std::uint64_t>(self->simdPath()));
    return ok;
}

void
wrapPoolRun(const ParallelSweep *self, std::size_t count,
            const std::function<void(std::size_t)> &task)
{
    Span span("pool.run", std::to_string(count) + " tasks");
    span.count("jobs", static_cast<std::uint64_t>(self->jobs()));
    const std::uint32_t parent = span.id();
    const std::function<void(std::size_t)> traced =
        [parent, &task](std::size_t i) {
            perfbench::AdoptParent adopt(parent);
            Span task_span("pool.task");
            task(i);
        };
    realPoolRun(self, count, traced);
}
