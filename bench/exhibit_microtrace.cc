/**
 * @file
 * Synthetic microtraces: random call-depth walks driven straight into
 * the window engine, independent of the spell checker. They give a
 * second workload family for the paper's claims:
 *
 *  - the sharing schemes' execution time saturates once the total
 *    window activity fits the file (paper §6.3);
 *  - window activity per thread is the knob: deeper walks move every
 *    curve's saturation point right;
 *  - with one thread and no switches, all three schemes behave like
 *    the conventional single-thread algorithm (sanity: the relative
 *    overhead of traps stays small when depth locality is high, the
 *    regime in which Tamir & Sequin showed one-window transfers are
 *    best — the only transfer size all crw handlers use).
 *
 * The report reads one walk table (bench/microtrace.h): {NS, SNP, SP}
 * x defaultWindowSweep() x depth {4, 8}, 72 cells. The walks need no
 * EventTrace, so the exhibit has no plan contribution; instead each
 * cell is one walk| record in the result store (bench/result_cache.h).
 * A (depth, scheme) group with any cell the store cannot serve is
 * walked once, drawing each up/down decision inline, with all 12
 * window counts as lanes of one lockstep view (DESIGN.md §14); the
 * groups run on the sweep pool (--jobs) and the missed cells are
 * stored back. The sweep tables and all self-checks read cells from
 * that table, so each distinct walk runs at most once, and a warm run
 * replays none.
 */

#include "bench/microtrace.h"

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/executor.h"
#include "bench/exhibits.h"
#include "bench/harness.h"
#include "bench/result_cache.h"
#include "common/chart.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/table.h"
#include "obs/metrics.h"
#include "win/engine.h"
#include "win/engine_batch.h"
#include "win/schemes_impl.h"

namespace crw {
namespace bench {

EngineConfig
walkEngineConfig(SchemeKind scheme, int windows)
{
    EngineConfig cfg;
    cfg.numWindows = windows;
    cfg.scheme = scheme;
    return cfg;
}

std::vector<std::unique_ptr<WindowEngine>>
walkLockstep(const WalkSpec &spec, SchemeKind scheme,
             const std::vector<int> &windows)
{
    std::vector<std::unique_ptr<WindowEngine>> engines;
    for (const int w : windows) {
        engines.push_back(
            std::make_unique<WindowEngine>(walkEngineConfig(scheme, w)));
        for (ThreadId t = 0; t < spec.threads; ++t)
            engines.back()->addThread(t);
    }
    // Each decision is recorded as it is drawn, in global step order,
    // and counted into the walk's tallies, which the view folds into
    // every lane at finish(); the view replays the recorded ops
    // through every lane as its tape fills and at finish(). The walk
    // never asks the view for residency, so every scheme batches here.
    const auto threads = static_cast<std::size_t>(spec.threads);
    ScriptTallies tallies;
    tallies.saves.assign(threads, 0);
    tallies.restores.assign(threads, 0);
    detail::visitSchemeClass(scheme, [&](auto scheme_tag) {
        // The walk records one op per step, a switch per quantum and
        // the first switch.
        BatchedEngineView<typename decltype(scheme_tag)::type> view(
            engines, tallies,
            static_cast<std::size_t>(spec.quanta) *
                    (spec.stepsPerQuantum + 1) +
                1);
        Rng rng(spec.seed);
        std::vector<int> depth(threads, 1);
        ThreadId current = 0;
        view.contextSwitch(current);
        for (int q = 0; q < spec.quanta; ++q) {
            const auto cur = static_cast<std::size_t>(current);
            int &d = depth[cur];
            for (int s = 0; s < spec.stepsPerQuantum; ++s) {
                if (d <= 1 || (d < spec.maxDepth && rng.nextBool(0.5))) {
                    view.save();
                    ++tallies.saves[cur];
                    ++d;
                } else {
                    view.restore();
                    ++tallies.restores[cur];
                    --d;
                }
                tallies.charges += kWalkStepCharge;
            }
            current = static_cast<ThreadId>((current + 1) % spec.threads);
            view.contextSwitch(current);
        }
        view.finish();
    });
    return engines;
}

std::string
walkCacheKey(const WalkSpec &spec, const EngineConfig &cfg)
{
    return kWalkKeyPrefix + engineConfigKey(cfg) + "|d" +
           std::to_string(spec.maxDepth) + "|t" +
           std::to_string(spec.threads) + "|q" +
           std::to_string(spec.stepsPerQuantum) + "x" +
           std::to_string(spec.quanta) + "|c" +
           std::to_string(kWalkStepCharge) + "|s" +
           std::to_string(spec.seed) + "|v" +
           std::to_string(kWalkFormatVersion);
}

namespace {

/** Calls fn(spec, scheme, windows) for every cell, in cells() order. */
template <typename Fn>
void
forEachWalkCell(Fn &&fn)
{
    for (const int max_depth : kWalkDepths) {
        WalkSpec spec;
        spec.maxDepth = max_depth;
        for (const int w : defaultWindowSweep())
            for (const SchemeKind scheme : evaluatedSchemes())
                fn(spec, scheme, w);
    }
}

} // namespace

std::vector<std::string>
WalkTable::keys()
{
    std::vector<std::string> keys;
    forEachWalkCell([&](const WalkSpec &spec, SchemeKind scheme, int w) {
        keys.push_back(walkCacheKey(spec, walkEngineConfig(scheme, w)));
    });
    return keys;
}

WalkTable
WalkTable::run(int jobs)
{
    WalkTable table;
    forEachWalkCell([&](const WalkSpec &spec, SchemeKind scheme, int w) {
        table.cells_.push_back({scheme, w, spec.maxDepth, 0});
    });

    // Serve what the store holds; the rest are this run's misses. One
    // path: a (depth, scheme) group with any miss walks all of its
    // window counts, so a lone missing cell never needs a one-lane walk.
    const bool cache = resultCacheEnabled();
    const std::vector<std::string> keys = WalkTable::keys();
    std::vector<std::size_t> misses;
    std::vector<std::pair<int, SchemeKind>> walked;
    for (std::size_t i = 0; i < table.cells_.size(); ++i) {
        WalkCell &cell = table.cells_[i];
        if (cache && loadCachedCycles(keys[i], cell.cycles)) {
            ++table.cached_;
            continue;
        }
        misses.push_back(i);
        const std::pair group(cell.maxDepth, cell.scheme);
        if (std::find(walked.begin(), walked.end(), group) == walked.end())
            walked.push_back(group);
    }
    if (walked.empty())
        return table;

    const std::vector<int> &windows = defaultWindowSweep();
    table.steps_ = walked.size() * windows.size() *
                   static_cast<std::uint64_t>(kWalkQuanta) *
                   kWalkStepsPerQuantum;
    ParallelSweep(jobs).run(
        walked.size(),
        [&](std::size_t k) {
            const auto [max_depth, scheme] = walked[k];
            WalkSpec spec;
            spec.maxDepth = max_depth;
            const auto lanes = walkLockstep(spec, scheme, windows);
            // The group's cells come in window-sweep order.
            auto lane = lanes.begin();
            for (WalkCell &cell : table.cells_)
                if (cell.maxDepth == max_depth && cell.scheme == scheme)
                    cell.cycles = (*lane++)->now();
        },
        [&](std::size_t k) {
            return std::string("walk ") + schemeName(walked[k].second) +
                   "/d" + std::to_string(walked[k].first) + " x" +
                   std::to_string(windows.size());
        });

    if (cache)
        for (const std::size_t i : misses)
            storeCachedCycles(keys[i], table.cells_[i].cycles);
    return table;
}

Cycles
WalkTable::cycles(SchemeKind scheme, int windows, int max_depth) const
{
    for (const WalkCell &cell : cells_)
        if (cell.scheme == scheme && cell.windows == windows &&
            cell.maxDepth == max_depth)
            return cell.cycles;
    crw_panic << "walk table has no " << schemeName(scheme) << "/w"
              << windows << "/d" << max_depth << " cell";
    return 0;
}

int
runMicrotrace(const FlagSet &)
{
    banner("Microtraces: random call-depth walks (" +
           std::to_string(kWalkThreads) + " threads, " +
           std::to_string(kWalkStepsPerQuantum) + "-step quanta)");

    const WalkTable walks = WalkTable::run(sweepJobs());
    metrics().add("microtrace.walks", walks.cells().size());
    metrics().add("microtrace.steps", walks.steps());
    metrics().add("microtrace.cached", walks.cached());

    bool ok = true;
    auto check = [&ok](bool cond, const std::string &what) {
        std::cout << "  [" << (cond ? "ok" : "FAIL") << "] " << what
                  << '\n';
        ok = ok && cond;
    };

    for (const int max_depth : kWalkDepths) {
        Table table({"windows", "NS", "SNP", "SP"});
        AsciiChart chart("Microtrace: walk depth <= " +
                             std::to_string(max_depth),
                         "number of windows", "Mcycles");
        chart.setYFromZero(true);
        std::vector<ChartSeries> series;
        for (const SchemeKind scheme : evaluatedSchemes()) {
            series.emplace_back();
            series.back().name = schemeName(scheme);
        }

        for (const int w : defaultWindowSweep()) {
            std::vector<std::string> row{std::to_string(w)};
            for (std::size_t i = 0; i < series.size(); ++i) {
                const Cycles c = walks.cycles(evaluatedSchemes()[i], w,
                                              max_depth);
                row.push_back(formatDouble(c / 1e6, 3));
                series[i].xs.push_back(w);
                series[i].ys.push_back(static_cast<double>(c) / 1e6);
            }
            table.addRow(std::move(row));
        }
        for (auto &s : series)
            chart.addSeries(std::move(s));
        emitFigure("Microtrace sweep, max depth " +
                       std::to_string(max_depth),
                   "windows", "Mcycles", table, chart,
                   "microtrace_d" + std::to_string(max_depth) +
                       ".csv");

        // Saturation scales with total window activity (~threads x
        // depth): the deep walk needs more windows than the shallow
        // one before SP matches its asymptote.
        const Cycles sp_small = walks.cycles(SchemeKind::SP, 8, max_depth);
        const Cycles sp_large =
            walks.cycles(SchemeKind::SP, 32, max_depth);
        check(sp_large <= sp_small,
              "more windows never hurt SP (depth " +
                  std::to_string(max_depth) + ")");
        const Cycles ns_large =
            walks.cycles(SchemeKind::NS, 32, max_depth);
        check(sp_large < ns_large,
              "SP beats NS with ample windows (depth " +
                  std::to_string(max_depth) + ")");
    }

    // Depth scaling: the deeper walk saturates later.
    auto saturation = [&](int max_depth) {
        const Cycles best = walks.cycles(SchemeKind::SP, 32, max_depth);
        for (const int w : defaultWindowSweep())
            if (walks.cycles(SchemeKind::SP, w, max_depth) <=
                best + best / 33)
                return w;
        return 32;
    };
    const int sat4 = saturation(4);
    const int sat8 = saturation(8);
    check(sat8 >= sat4,
          "deeper walks saturate at more windows (activity knob): " +
              std::to_string(sat4) + " -> " + std::to_string(sat8));
    return ok ? 0 : 1;
}

} // namespace bench
} // namespace crw
