/**
 * @file
 * Exhibit registry and drivers (DESIGN.md §11).
 *
 * Every paper exhibit is one registry entry: a name, an optional
 * flag-definition hook, an optional plan contribution (the replay
 * points its report needs) and a report function. The `crw-bench`
 * driver selects exhibits by name ("all" = the ten paper exhibits),
 * merges their plans, executes the union once through the shared
 * sweep executor, and runs the reports in command-line order — so
 * `crw-bench fig11 fig12 fig13` replays each shared point once.
 */

#ifndef CRW_BENCH_REGISTRY_H_
#define CRW_BENCH_REGISTRY_H_

#include <string>
#include <vector>

namespace crw {

class FlagSet;

namespace bench {

class ExperimentPlan;

/** One paper exhibit behind `crw-bench <name>`. */
struct Exhibit
{
    const char *name;  ///< registry key, e.g. "fig11"
    const char *title; ///< one-liner for the usage listing
    /** Extra command-line flags, defined before parsing. May be null. */
    void (*addFlags)(FlagSet &flags);
    /** Replay points the report reads. Null for non-replay exhibits. */
    void (*plan)(ExperimentPlan &plan);
    /** Print tables/charts, write CSVs; 0 = every self-check passed. */
    int (*report)(const FlagSet &flags);
};

/** All exhibits, in the canonical "all" order; the one outside
 *  "all" (cache) comes last, selected by name only. */
const std::vector<Exhibit> &exhibitRegistry();

/** Registry lookup by name; null when unknown. */
const Exhibit *findExhibit(const std::string &name);

/** Entry point of the crw-bench driver (exhibits from positionals). */
int crwBenchMain(int argc, char **argv);

} // namespace bench
} // namespace crw

#endif // CRW_BENCH_REGISTRY_H_
