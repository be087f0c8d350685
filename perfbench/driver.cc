/**
 * @file
 * The benchmark's driver: one `crw-bench all` pass, built from the
 * repository's public pipeline functions so each phase can be timed
 * from outside the program.
 *
 *   crw_perf [crw-bench flags] [--no-cache] --perf-seed N
 *            --perf-record FILE [--perf-spans FILE --perf-run-id N]
 *            <exhibit>...
 *
 * The exhibits (run.py passes the `all` set that `crw-bench list`
 * reports) contribute their points to one ExperimentPlan, exactly as
 * crw-bench does; the plan then gains a seeded synth extension (see
 * addSynthExtension). Every behavior's trace is made resident before
 * the sweep — that instant ends set-up — then executePlan runs the
 * sweep and each report prints. Stdout and bench_out/ are therefore
 * byte-identical to `crw-bench all` (run.py checks this every run).
 *
 * The per-sample record (--perf-record) carries what only the process
 * knows: when set-up ended, the plan sizes and each report's return
 * code. crw_perf_traced also records spans (--perf-spans): the phase
 * spans below plus the layer spans of wraps.cc.
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "bench/executor.h"
#include "bench/harness.h"
#include "bench/plan.h"
#include "bench/registry.h"
#include "common/flags.h"
#include "perfbench/spans.h"
#include "rt/sched_core.h"
#include "trace/synth.h"
#include "win/simd.h"

namespace {

using namespace crw;
using namespace crw::bench;

/**
 * The held-out extension: the five synthBehaviorMenu() specs reseeded
 * from the benchmark seed, swept over every scheme, the full window
 * sweep and every policy. A synth key omits the seed, so each spec
 * also runs one extra item — otherwise its key would alias the synth
 * exhibit's menu behavior in the executor's memos. The paper inputs
 * (corpus seed 1993, menu seeds 11-55) are untouched.
 */
void
addSynthExtension(ExperimentPlan &plan, std::uint64_t seed)
{
    const std::vector<SynthSpec> &menu = synthBehaviorMenu();
    for (std::size_t i = 0; i < menu.size(); ++i) {
        SynthSpec spec = menu[i];
        spec.items += 1;
        spec.seed = (seed + 1) * 1000 + i;
        for (const SchedPolicy policy : allSchedPolicies())
            plan.addSweep(BehaviorId::fromSynth(spec), policy,
                          evaluatedSchemes(), defaultWindowSweep());
    }
}

/** The plan's behaviors in first-use order, as executePlan meets them. */
std::vector<BehaviorId>
planBehaviors(const ExperimentPlan &plan)
{
    std::vector<BehaviorId> out;
    std::set<std::string> seen;
    for (const PlanPoint &p : plan.points())
        if (seen.insert(p.behavior.key()).second)
            out.push_back(p.behavior);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagSet flags;
    for (const Exhibit &ex : exhibitRegistry())
        if (ex.addFlags)
            ex.addFlags(flags);
    flags.defineBool("no-cache", false,
                     "bypass the on-disk stores (point results and "
                     "flat traces); replay every point");
    flags.defineInt("perf-seed", 1, "seed of the synth extension");
    flags.defineString("perf-record", "",
                       "write this sample's record (JSON) here");
    flags.defineString("perf-spans", "",
                       "record layer spans; write them here at exit");
    flags.defineInt("perf-run-id", 0, "run id stamped on every span");
    if (!benchInit(argc, argv, flags))
        return 0;
    const std::string spans_out = flags.getString("perf-spans");
    if (!spans_out.empty())
        perfbench::enableSpans(
            static_cast<std::uint64_t>(flags.getInt("perf-run-id")));

    std::vector<const Exhibit *> selected;
    for (const std::string &name : flags.positional()) {
        const Exhibit *ex = findExhibit(name);
        if (!ex) {
            std::cerr << "error: unknown exhibit \"" << name << "\"\n";
            return 2;
        }
        selected.push_back(ex);
    }
    if (selected.empty()) {
        std::cerr << "error: no exhibits given\n";
        return 2;
    }

    const bool no_cache = flags.getBool("no-cache");
    setResultCacheEnabled(!no_cache);
    setFlatCacheEnabled(!no_cache);

    ExperimentPlan plan;
    for (const Exhibit *ex : selected)
        if (ex->plan)
            ex->plan(plan);
    const std::size_t paper_points = plan.size();
    addSynthExtension(plan,
                      static_cast<std::uint64_t>(flags.getInt("perf-seed")));
    if (obsEnabled())
        manifestSet("plan_digest", plan.digest());

    const std::vector<BehaviorId> behaviors = planBehaviors(plan);
    {
        perfbench::Span span("setup");
        for (const BehaviorId &b : behaviors)
            cachedTrace(b);
    }
    const std::int64_t setup_end_ns = perfbench::monoNanos();

    {
        perfbench::Span span("execute");
        executePlan(plan);
    }

    int rc = 0;
    std::vector<int> report_rcs;
    for (const Exhibit *ex : selected) {
        perfbench::Span span("report", ex->name);
        report_rcs.push_back(ex->report(flags));
        rc = std::max(rc, report_rcs.back());
    }
    {
        perfbench::Span span("finish");
        benchFinish();
    }

    const std::string record_out = flags.getString("perf-record");
    if (!record_out.empty()) {
        const std::size_t spell = static_cast<std::size_t>(
            std::count_if(behaviors.begin(), behaviors.end(),
                          [](const BehaviorId &b) {
                              return b.kind == BehaviorId::Kind::Spell;
                          }));
        std::ofstream rec(record_out);
        rec << "{\"setup_end_ns\": " << setup_end_ns
            << ", \"plan_points\": " << plan.size()
            << ", \"paper_points\": " << paper_points
            << ", \"behaviors\": " << behaviors.size()
            << ", \"spell_behaviors\": " << spell
            << ", \"jobs\": " << sweepJobs() << ", \"simd_tier\": \""
            << simdTierName(effectiveSimdTier()) << "\", \"reports\": {";
        for (std::size_t i = 0; i < selected.size(); ++i)
            rec << (i ? ", " : "") << '"' << selected[i]->name
                << "\": " << report_rcs[i];
        rec << "}}\n";
        if (!rec.flush()) {
            std::cerr << "error: could not write " << record_out << '\n';
            return 2;
        }
    }
    if (!spans_out.empty() && !perfbench::writeSpans(spans_out)) {
        std::cerr << "error: could not write " << spans_out << '\n';
        return 2;
    }
    return rc;
}
