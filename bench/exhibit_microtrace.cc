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
 * A cell the store cannot serve is replayed: its depth's up/down
 * decisions are drawn once into a decision tape, and every missing
 * cell replays that tape through a virtual-dispatch WindowEngine on
 * the sweep pool (--jobs), then is stored back. The sweep tables and
 * all self-checks read cells from that table, so each distinct walk
 * runs at most once, and a warm run replays none.
 */

#include "bench/microtrace.h"

#include <iostream>
#include <string>
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

namespace crw {
namespace bench {

WalkTape
recordWalk(const WalkSpec &spec)
{
    WalkTape tape;
    tape.spec = spec;
    tape.up.reserve(static_cast<std::size_t>(spec.quanta) *
                    static_cast<std::size_t>(spec.stepsPerQuantum));
    Rng rng(spec.seed);
    std::vector<int> depth(static_cast<std::size_t>(spec.threads), 1);
    for (int q = 0; q < spec.quanta; ++q) {
        int &d = depth[static_cast<std::size_t>(q % spec.threads)];
        for (int s = 0; s < spec.stepsPerQuantum; ++s) {
            const bool up =
                d <= 1 || (d < spec.maxDepth && rng.nextBool(0.5));
            d += up ? 1 : -1;
            tape.up.push_back(up ? 1 : 0);
        }
    }
    return tape;
}

EngineConfig
walkEngineConfig(SchemeKind scheme, int windows)
{
    EngineConfig cfg;
    cfg.numWindows = windows;
    cfg.scheme = scheme;
    return cfg;
}

Cycles
replayWalk(const WalkTape &tape, SchemeKind scheme, int windows)
{
    WindowEngine engine(walkEngineConfig(scheme, windows));
    const WalkSpec &spec = tape.spec;
    for (ThreadId t = 0; t < spec.threads; ++t)
        engine.addThread(t);

    ThreadId current = 0;
    engine.contextSwitch(current);
    const std::uint8_t *step = tape.up.data();
    for (int q = 0; q < spec.quanta; ++q) {
        for (int s = 0; s < spec.stepsPerQuantum; ++s, ++step) {
            if (*step)
                engine.save();
            else
                engine.restore();
            engine.charge(kWalkStepCharge);
        }
        current = static_cast<ThreadId>((current + 1) % spec.threads);
        engine.contextSwitch(current);
    }
    return engine.now();
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
    std::vector<WalkSpec> specs;
    forEachWalkCell([&](const WalkSpec &spec, SchemeKind scheme, int w) {
        table.cells_.push_back({scheme, w, spec.maxDepth, 0});
        specs.push_back(spec);
    });

    // Serve what the store holds; the rest are this run's misses.
    const bool cache = resultCacheEnabled();
    const std::vector<std::string> keys = WalkTable::keys();
    std::vector<std::size_t> misses;
    for (std::size_t i = 0; i < table.cells_.size(); ++i) {
        if (cache && loadCachedCycles(keys[i], table.cells_[i].cycles))
            ++table.cached_;
        else
            misses.push_back(i);
    }
    if (misses.empty())
        return table;

    // One tape per depth with a miss, shared by that depth's cells.
    std::vector<WalkTape> tapes(std::size(kWalkDepths));
    const std::size_t per_depth = table.cells_.size() / tapes.size();
    for (const std::size_t i : misses) {
        WalkTape &tape = tapes[i / per_depth];
        if (tape.up.empty())
            tape = recordWalk(specs[i]);
        table.steps_ += tape.up.size();
    }

    ParallelSweep(jobs).run(
        misses.size(),
        [&](std::size_t k) {
            WalkCell &cell = table.cells_[misses[k]];
            cell.cycles = replayWalk(tapes[misses[k] / per_depth],
                                     cell.scheme, cell.windows);
        },
        [&](std::size_t k) {
            const WalkCell &cell = table.cells_[misses[k]];
            return std::string("walk ") + schemeName(cell.scheme) +
                   "/w" + std::to_string(cell.windows) + "/d" +
                   std::to_string(cell.maxDepth);
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
