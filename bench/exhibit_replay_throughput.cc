/**
 * @file
 * Host-side throughput of the replay layer: events per second of the
 * default path — the flat loop over the devirtualized single-engine
 * view (DESIGN.md §12) — against the legacy cursor-walking
 * virtual-dispatch loop, on the high/fine behavior the figure sweeps
 * hammer hardest. The JSON keeps calling the default path "fast".
 *
 * One behavior trace is captured (or loaded from the disk cache) and
 * predecoded once; each scheme point then replays it repeatedly on
 * fresh drivers, legacy and fast interleaved, --reps samples per mode
 * with the fastest kept (the minimum is the standard estimator for
 * the noise-free run time on a shared machine). Every rep's
 * RunMetrics must be bit-identical across the two paths — that is the
 * oracle contract the differential suite enforces; here it doubles as
 * a sanity gate — so the only thing allowed to differ is wall time.
 *
 * Output: an aligned table (Mev/s legacy / Mev/s fast / speedup), a
 * CSV under bench_out/, and optionally a machine-readable JSON summary
 * (--json=PATH, --git-sha=SHA) for scripts/bench_perf.sh.
 *
 * Host-perf, not a paper result: registered so `crw-bench
 * replay-throughput` works, but excluded from `crw-bench all` and
 * from the experiment plan (wall time cannot be cached).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/executor.h"
#include "bench/exhibits.h"
#include "bench/harness.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/table.h"
#include "spell/app.h"
#include "trace/event_trace.h"
#include "trace/flat_trace.h"
#include "trace/replay_batch.h"
#include "trace/replay_driver.h"
#include "trace/run_metrics.h"
#include "win/engine.h"
#include "win/simd.h"

namespace crw {
namespace bench {
namespace {

struct ModeResult
{
    RunMetrics metrics;
    double wall_s = 0;
    double mevps = 0; // million replayed events per host second
};

ModeResult
timedReplay(const EventTrace &trace, const FlatTrace &flat,
            const EngineConfig &engine, ReplayPath path)
{
    ReplayDriver driver(trace, engine, SchedPolicy::Fifo, &flat);
    driver.setPath(path);
    const auto t0 = std::chrono::steady_clock::now();
    driver.run();
    const auto t1 = std::chrono::steady_clock::now();
    ModeResult res;
    res.metrics = driver.metrics();
    res.wall_s = std::chrono::duration<double>(t1 - t0).count();
    res.mevps = res.wall_s > 0
                    ? static_cast<double>(trace.eventCount()) /
                          res.wall_s / 1e6
                    : 0;
    crw_assert(driver.usedFastPath() == (path == ReplayPath::Auto));
    return res;
}

} // namespace

void
addReplayThroughputFlags(FlagSet &flags)
{
    flags.defineInt("rt-windows", 8,
                    "register windows per replay point");
    flags.defineInt("reps", 5,
                    "wall-time samples per mode (fastest wins)");
    flags.defineString("json", "",
                       "also write a JSON summary to this path");
    flags.defineString("git-sha", "unknown",
                       "recorded in the JSON summary");
}

int
runReplayThroughput(const FlagSet &flags)
{
    if (obsEnabled() && flags.getString("git-sha") != "unknown")
        manifestSet("git_rev", flags.getString("git-sha"));

    const int windows =
        static_cast<int>(flags.getInt("rt-windows"));
    const int reps =
        std::max(1, static_cast<int>(flags.getInt("reps")));

    const EventTrace &trace =
        cachedTrace(ConcurrencyLevel::High, GranularityLevel::Fine);
    const FlatTrace &flat = cachedFlatTrace(ConcurrencyLevel::High,
                                            GranularityLevel::Fine);
    const std::vector<SchemeKind> schemes = {
        SchemeKind::NS, SchemeKind::SNP, SchemeKind::SP};

    banner("Replay throughput: devirtualized flat fast path vs "
           "legacy virtual-dispatch loop");
    std::cout << "  behavior high/fine, " << trace.eventCount()
              << " events, w" << windows << ", fifo, best of "
              << reps << "\n\n";

    Table table({"scheme", "events", "Mev/s legacy", "Mev/s fast",
                 "speedup"});
    double total_events = 0, total_wall_legacy = 0,
           total_wall_fast = 0;
    bool ok = true;
    std::vector<std::string> json_rows;
    for (const SchemeKind scheme : schemes) {
        EngineConfig engine;
        engine.scheme = scheme;
        engine.numWindows = windows;
        ModeResult legacy, fast;
        for (int rep = 0; rep < reps; ++rep) {
            const ModeResult l =
                timedReplay(trace, flat, engine, ReplayPath::Legacy);
            const ModeResult f =
                timedReplay(trace, flat, engine, ReplayPath::Auto);
            if (!metricsBitIdentical(l.metrics, f.metrics)) {
                ok = false;
                std::cout << "  [FAIL] " << schemeName(scheme)
                          << ": fast-path metrics diverged from "
                             "the legacy oracle\n";
            }
            if (rep == 0 || l.wall_s < legacy.wall_s)
                legacy = l;
            if (rep == 0 || f.wall_s < fast.wall_s)
                fast = f;
        }
        const double speedup = legacy.wall_s > 0 && fast.wall_s > 0
                                   ? legacy.wall_s / fast.wall_s
                                   : 0;
        total_events += static_cast<double>(trace.eventCount());
        total_wall_legacy += legacy.wall_s;
        total_wall_fast += fast.wall_s;
        char legacy_mevps[32], fast_mevps[32], speedup_s[32];
        std::snprintf(legacy_mevps, sizeof legacy_mevps, "%.1f",
                      legacy.mevps);
        std::snprintf(fast_mevps, sizeof fast_mevps, "%.1f",
                      fast.mevps);
        std::snprintf(speedup_s, sizeof speedup_s, "%.2fx",
                      speedup);
        table.addRowOf(std::string(schemeName(scheme)),
                       trace.eventCount(),
                       std::string(legacy_mevps),
                       std::string(fast_mevps),
                       std::string(speedup_s));
        json_rows.push_back(
            std::string("    {\"scheme\": \"") + schemeName(scheme) +
            "\", \"events\": " + std::to_string(trace.eventCount()) +
            ", \"mevps_legacy\": " + std::string(legacy_mevps) +
            ", \"mevps_fast\": " + std::string(fast_mevps) +
            ", \"speedup\": " + std::to_string(speedup) + "}");
    }
    table.printText(std::cout);
    table.writeCsvFile(outputPath("replay_throughput.csv"));

    // Aggregate mode: the batched lockstep loop (DESIGN.md §14)
    // drives the whole default window sweep of each scheme — one
    // forward pass over the trace advancing all lanes — against the
    // per-point fast path replaying the same sweep one driver at a
    // time. Aggregate Mev/s counts lanes × events per wall second:
    // the number a cold figure sweep actually experiences. (Variant
    // lanes — PRW reclamation, FreeSearch allocation — batch just as
    // well but are deliberately left out of the measured batch: a
    // FreeSearch lane's per-op cost is higher, which *dilutes* the
    // ratio against the per-point baseline without changing the
    // absolute win, so the windows-only sweep is the cleaner number.)
    // Each scheme's sweep is timed three ways per rep: the per-point
    // fast path (one driver per lane), the batched loop with the
    // follower replay pinned to the PR 7 per-lane scalar oracle, and
    // the batched loop under the session's effective SIMD dispatch
    // (win/simd.h) — the sharing schemes have no SoA pass and replay
    // their followers per lane on every tier (DESIGN.md §16). scalar
    // vs simd on the NS sweep isolates the lane-SoA kernel win — same
    // recorded op stream, same batch shape — and is the simd_speedup
    // number scripts/bench_perf.sh gates at >= 1.25x; the aggregate
    // rows report the full three-scheme mix.
    const std::vector<int> &sweep = defaultWindowSweep();
    const SimdTier simd_tier = effectiveSimdTier();
    std::cout << "\n  lockstep batched: one trace walk drives the "
              << sweep.size() << "-window sweep per scheme; follower "
                 "pass scalar vs "
              << simdTierName(simd_tier) << "\n\n";
    Table btable({"scheme", "lanes", "Mev/s per-point",
                  "Mev/s scalar", "Mev/s simd", "batch x", "simd x"});
    double batch_wall_point = 0, batch_wall_batched = 0,
           batch_wall_simd = 0;
    double ns_wall_scalar = 0, ns_wall_simd = 0;
    double batch_events = 0;
    std::size_t max_lanes = 0;
    // The pass the gated (NS) simd leg actually dispatched — what the
    // JSON publishes as simd_path, so a $CRW_SIMD=scalar environment
    // honestly reports "scalar" and bench_perf.sh can skip its gate.
    SimdTier ns_simd_path = SimdTier::Scalar;
    for (const SchemeKind scheme : schemes) {
        std::vector<EngineConfig> configs;
        for (const int w : sweep) {
            EngineConfig c;
            c.scheme = scheme;
            c.numWindows = w;
            configs.push_back(c);
        }
        const std::size_t lanes = configs.size();
        max_lanes = std::max(max_lanes, lanes);
        double wall_point = 0, wall_batched = 0, wall_simd = 0;
        for (int rep = 0; rep < reps; ++rep) {
            std::vector<RunMetrics> point_metrics(lanes);
            const auto p0 = std::chrono::steady_clock::now();
            for (std::size_t l = 0; l < lanes; ++l) {
                ReplayDriver driver(trace, configs[l],
                                    SchedPolicy::Fifo, &flat);
                driver.run();
                point_metrics[l] = driver.metrics();
            }
            const auto p1 = std::chrono::steady_clock::now();
            setSimdTierOverride(SimdTier::Scalar);
            BatchedReplayDriver batched(trace, configs,
                                        SchedPolicy::Fifo, &flat);
            batched.run();
            const auto p2 = std::chrono::steady_clock::now();
            clearSimdTierOverride(); // auto dispatch, as sweeps run
            BatchedReplayDriver simd_batched(trace, configs,
                                             SchedPolicy::Fifo, &flat);
            simd_batched.run();
            const auto p3 = std::chrono::steady_clock::now();
            if (scheme == SchemeKind::NS)
                ns_simd_path = simd_batched.simdPath();
            for (std::size_t l = 0; l < lanes; ++l) {
                if (!metricsBitIdentical(point_metrics[l],
                                         batched.metrics(l))) {
                    ok = false;
                    std::cout << "  [FAIL] " << schemeName(scheme)
                              << " w" << configs[l].numWindows
                              << ": scalar batched lane metrics "
                                 "diverged from the per-point fast "
                                 "path\n";
                }
                if (!metricsBitIdentical(point_metrics[l],
                                         simd_batched.metrics(l))) {
                    ok = false;
                    std::cout << "  [FAIL] " << schemeName(scheme)
                              << " w" << configs[l].numWindows << " ("
                              << simdTierName(simd_tier)
                              << "): SIMD batched lane metrics "
                                 "diverged from the per-point fast "
                                 "path\n";
                }
            }
            const double wp =
                std::chrono::duration<double>(p1 - p0).count();
            const double wb =
                std::chrono::duration<double>(p2 - p1).count();
            const double ws =
                std::chrono::duration<double>(p3 - p2).count();
            if (rep == 0 || wp < wall_point)
                wall_point = wp;
            if (rep == 0 || wb < wall_batched)
                wall_batched = wb;
            if (rep == 0 || ws < wall_simd)
                wall_simd = ws;
        }
        batch_wall_point += wall_point;
        batch_wall_batched += wall_batched;
        batch_wall_simd += wall_simd;
        if (scheme == SchemeKind::NS) {
            ns_wall_scalar = wall_batched;
            ns_wall_simd = wall_simd;
        }
        const double lane_events =
            static_cast<double>(lanes) *
            static_cast<double>(trace.eventCount());
        batch_events += lane_events;
        char point_s[32], batched_s[32], simd_s[32], speedup_s[32],
            simdx_s[32];
        std::snprintf(point_s, sizeof point_s, "%.1f",
                      wall_point > 0
                          ? lane_events / wall_point / 1e6
                          : 0.0);
        std::snprintf(batched_s, sizeof batched_s, "%.1f",
                      wall_batched > 0
                          ? lane_events / wall_batched / 1e6
                          : 0.0);
        std::snprintf(simd_s, sizeof simd_s, "%.1f",
                      wall_simd > 0
                          ? lane_events / wall_simd / 1e6
                          : 0.0);
        std::snprintf(speedup_s, sizeof speedup_s, "%.2fx",
                      wall_batched > 0 ? wall_point / wall_batched
                                       : 0.0);
        std::snprintf(simdx_s, sizeof simdx_s, "%.2fx",
                      wall_simd > 0 ? wall_batched / wall_simd
                                    : 0.0);
        btable.addRowOf(std::string(schemeName(scheme)), lanes,
                        std::string(point_s), std::string(batched_s),
                        std::string(simd_s), std::string(speedup_s),
                        std::string(simdx_s));
    }
    btable.printText(std::cout);
    btable.writeCsvFile(outputPath("replay_throughput_batched.csv"));
    const double mevps_point_agg =
        batch_wall_point > 0
            ? batch_events / batch_wall_point / 1e6
            : 0;
    const double mevps_batched_agg =
        batch_wall_batched > 0
            ? batch_events / batch_wall_batched / 1e6
            : 0;
    const double mevps_simd_agg =
        batch_wall_simd > 0
            ? batch_events / batch_wall_simd / 1e6
            : 0;
    const double batch_speedup =
        batch_wall_batched > 0 ? batch_wall_point / batch_wall_batched
                               : 0;
    // The gated number: the SoA vector-kernel pass against the scalar
    // follower on the sweep it dispatches to (NS). The sharing
    // schemes' simd column reads ~1.00x by design — under auto their
    // lanes pin to the oracle (serial slot-map probes; DESIGN.md §16)
    // — and the full-mix throughput is published alongside.
    const double simd_speedup =
        ns_wall_simd > 0 ? ns_wall_scalar / ns_wall_simd : 0;
    std::cout << "\n  aggregate: " << static_cast<long>(batch_events)
              << " lane-events, " << mevps_batched_agg
              << " Mev/s scalar batched (batch width " << max_lanes
              << ") vs "
              << mevps_point_agg << " Mev/s per-point, "
              << batch_speedup << "x\n"
              << "  simd (" << simdTierName(ns_simd_path)
              << "): " << mevps_simd_agg
              << " Mev/s full mix; NS vector-kernel sweep "
              << simd_speedup << "x vs scalar follower\n";

    const double mevps =
        total_wall_fast > 0 ? total_events / total_wall_fast / 1e6
                            : 0;
    const double overall =
        total_wall_fast > 0 ? total_wall_legacy / total_wall_fast
                            : 0;
    std::cout << "\n  overall: "
              << static_cast<long>(total_events)
              << " replayed events, " << mevps << " Mev/s fast, "
              << overall << "x vs legacy\n";
    std::cout << "  [" << (ok ? "ok" : "FAIL")
              << "] fast and legacy paths bit-identical\n";

    const std::string json_path = flags.getString("json");
    if (!json_path.empty()) {
        std::ofstream os(json_path);
        os << "{\n"
           << "  \"bench\": \"replay_throughput\",\n"
           << "  \"git_sha\": \"" << flags.getString("git-sha")
           << "\",\n"
           << "  \"mevps\": " << mevps << ",\n"
           << "  \"speedup\": " << overall << ",\n"
           << "  \"wall_s\": " << total_wall_fast << ",\n"
           // New keys stay below "speedup": bench_perf.sh reads the
           // first "speedup" occurrence as the fast-vs-legacy number.
           << "  \"batch_width\": " << max_lanes << ",\n"
           << "  \"mevps_point_aggregate\": " << mevps_point_agg
           << ",\n"
           << "  \"mevps_batched_aggregate\": " << mevps_batched_agg
           << ",\n"
           << "  \"batched_speedup\": " << batch_speedup << ",\n"
           << "  \"simd_path\": \"" << simdTierName(ns_simd_path)
           << "\",\n"
           << "  \"mevps_simd_aggregate\": " << mevps_simd_agg
           << ",\n"
           << "  \"simd_speedup\": " << simd_speedup << ",\n"
           << "  \"points\": [\n";
        for (std::size_t i = 0; i < json_rows.size(); ++i)
            os << json_rows[i]
               << (i + 1 < json_rows.size() ? ",\n" : "\n");
        os << "  ]\n}\n";
        std::cout << "  json: " << json_path << "\n";
    }
    if (obsEnabled())
        manifestNote("windows", std::to_string(windows));
    return ok ? 0 : 1;
}

} // namespace bench
} // namespace crw
