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
 * fresh drivers, --reps samples per mode. The legs of one rep run
 * back to back, in an order that alternates from rep to rep, so each
 * rep is one paired sample: every speedup is the median over reps of
 * the per-rep wall ratio, which cancels the host's slow drift that a
 * ratio of two independent best-of walls picks up. Mev/s figures
 * keep the fastest sample (the minimum is the standard estimator for
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

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** @p num / @p den, 0 when either is not positive. */
double
ratio(double num, double den)
{
    return num > 0 && den > 0 ? num / den : 0;
}

/** Median of @p v (the mean of the middle two for an even count). */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

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
    const Clock::time_point t0 = Clock::now();
    driver.run();
    ModeResult res;
    res.wall_s = secondsSince(t0);
    res.metrics = driver.metrics();
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
                    "wall-time samples per mode (Mev/s: fastest; "
                    "speedups: median paired ratio)");
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
              << " events, w" << windows << ", fifo, " << reps
              << " paired reps\n\n";

    Table table({"scheme", "events", "Mev/s legacy", "Mev/s fast",
                 "speedup"});
    double total_events = 0, total_wall_fast = 0;
    // Per-rep walls summed over the schemes: the paired samples of the
    // overall fast-vs-legacy speedup.
    std::vector<double> rep_legacy(static_cast<std::size_t>(reps), 0),
        rep_fast(static_cast<std::size_t>(reps), 0);
    bool ok = true;
    std::vector<std::string> json_rows;
    for (const SchemeKind scheme : schemes) {
        EngineConfig engine;
        engine.scheme = scheme;
        engine.numWindows = windows;
        ModeResult legacy, fast;
        std::vector<double> ratios;
        for (int rep = 0; rep < reps; ++rep) {
            ModeResult l, f;
            if (rep % 2 == 0) {
                l = timedReplay(trace, flat, engine, ReplayPath::Legacy);
                f = timedReplay(trace, flat, engine, ReplayPath::Auto);
            } else {
                f = timedReplay(trace, flat, engine, ReplayPath::Auto);
                l = timedReplay(trace, flat, engine, ReplayPath::Legacy);
            }
            if (!metricsBitIdentical(l.metrics, f.metrics)) {
                ok = false;
                std::cout << "  [FAIL] " << schemeName(scheme)
                          << ": fast-path metrics diverged from "
                             "the legacy oracle\n";
            }
            ratios.push_back(ratio(l.wall_s, f.wall_s));
            rep_legacy[static_cast<std::size_t>(rep)] += l.wall_s;
            rep_fast[static_cast<std::size_t>(rep)] += f.wall_s;
            if (rep == 0 || l.wall_s < legacy.wall_s)
                legacy = l;
            if (rep == 0 || f.wall_s < fast.wall_s)
                fast = f;
        }
        const double speedup = median(ratios);
        total_events += static_cast<double>(trace.eventCount());
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
    // rows report the full three-scheme mix. The three legs of a rep
    // run in forward order on even reps and reversed on odd ones; the
    // speedups are medians of the per-rep ratios.
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
    double simd_speedup = 0;
    double batch_events = 0;
    std::size_t max_lanes = 0;
    std::vector<double> rep_point(static_cast<std::size_t>(reps), 0),
        rep_batched(static_cast<std::size_t>(reps), 0);
    // The pass the gated (NS) simd leg actually dispatched — what the
    // JSON publishes as simd_path, so bench_perf.sh gates only a run
    // whose timed leg took the AVX2 kernels.
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
        std::vector<double> batch_x, simd_x;
        for (int rep = 0; rep < reps; ++rep) {
            std::vector<RunMetrics> point_metrics(lanes),
                scalar_metrics(lanes), simd_metrics(lanes);
            double wp = 0, wb = 0, ws = 0;
            const auto pointLeg = [&] {
                const Clock::time_point t0 = Clock::now();
                for (std::size_t l = 0; l < lanes; ++l) {
                    ReplayDriver driver(trace, configs[l],
                                        SchedPolicy::Fifo, &flat);
                    driver.run();
                    point_metrics[l] = driver.metrics();
                }
                wp = secondsSince(t0);
            };
            // scalar: the follower pass pinned to the per-lane oracle;
            // otherwise the CPU's widest tier, as sweeps run.
            const auto batchedLeg = [&](bool scalar,
                                        std::vector<RunMetrics> &out,
                                        double &wall) {
                const Clock::time_point t0 = Clock::now();
                if (scalar)
                    setSimdTierOverride(SimdTier::Scalar);
                BatchedReplayDriver batched(trace, configs,
                                            SchedPolicy::Fifo, &flat);
                batched.run();
                wall = secondsSince(t0);
                clearSimdTierOverride();
                if (!scalar && scheme == SchemeKind::NS)
                    ns_simd_path = batched.simdPath();
                for (std::size_t l = 0; l < lanes; ++l)
                    out[l] = batched.metrics(l);
            };
            if (rep % 2 == 0) {
                pointLeg();
                batchedLeg(true, scalar_metrics, wb);
                batchedLeg(false, simd_metrics, ws);
            } else {
                batchedLeg(false, simd_metrics, ws);
                batchedLeg(true, scalar_metrics, wb);
                pointLeg();
            }
            for (std::size_t l = 0; l < lanes; ++l) {
                if (!metricsBitIdentical(point_metrics[l],
                                         scalar_metrics[l])) {
                    ok = false;
                    std::cout << "  [FAIL] " << schemeName(scheme)
                              << " w" << configs[l].numWindows
                              << ": scalar batched lane metrics "
                                 "diverged from the per-point fast "
                                 "path\n";
                }
                if (!metricsBitIdentical(point_metrics[l],
                                         simd_metrics[l])) {
                    ok = false;
                    std::cout << "  [FAIL] " << schemeName(scheme)
                              << " w" << configs[l].numWindows << " ("
                              << simdTierName(simd_tier)
                              << "): SIMD batched lane metrics "
                                 "diverged from the per-point fast "
                                 "path\n";
                }
            }
            batch_x.push_back(ratio(wp, wb));
            simd_x.push_back(ratio(wb, ws));
            rep_point[static_cast<std::size_t>(rep)] += wp;
            rep_batched[static_cast<std::size_t>(rep)] += wb;
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
        if (scheme == SchemeKind::NS)
            simd_speedup = median(simd_x);
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
                      median(batch_x));
        std::snprintf(simdx_s, sizeof simdx_s, "%.2fx",
                      median(simd_x));
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
    std::vector<double> rep_batch_x;
    for (int rep = 0; rep < reps; ++rep)
        rep_batch_x.push_back(
            ratio(rep_point[static_cast<std::size_t>(rep)],
                  rep_batched[static_cast<std::size_t>(rep)]));
    const double batch_speedup = median(rep_batch_x);
    // The gated number, simd_speedup: the SoA vector-kernel pass
    // against the scalar follower on the sweep it dispatches to (NS).
    // The sharing schemes' simd column reads ~1.00x by design — their
    // lanes always replay per lane (serial slot-map probes; DESIGN.md
    // §16) — and the full-mix throughput is published alongside.
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
    std::vector<double> rep_overall;
    for (int rep = 0; rep < reps; ++rep)
        rep_overall.push_back(
            ratio(rep_legacy[static_cast<std::size_t>(rep)],
                  rep_fast[static_cast<std::size_t>(rep)]));
    const double overall = median(rep_overall);
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
