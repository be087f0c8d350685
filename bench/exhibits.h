/**
 * @file
 * Per-exhibit plan and report functions, one TU each
 * (bench/exhibit_<name>.cc), wired into the table in registry.cc.
 * Plans declare the replay points a report reads; reports must only
 * read points their plan declared (an undeclared read still works —
 * the executor falls back to on-demand execution — but forfeits the
 * sharing and warm-cache guarantees).
 */

#ifndef CRW_BENCH_EXHIBITS_H_
#define CRW_BENCH_EXHIBITS_H_

#include <cstdint>
#include <set>
#include <string>

namespace crw {

class FlagSet;

namespace bench {

class ExperimentPlan;

void planTable1(ExperimentPlan &plan);
int runTable1(const FlagSet &flags);

int runTable2(const FlagSet &flags);

void planFig11(ExperimentPlan &plan);
int runFig11(const FlagSet &flags);

void planFig12(ExperimentPlan &plan);
int runFig12(const FlagSet &flags);

void planFig13(ExperimentPlan &plan);
int runFig13(const FlagSet &flags);

void planFig14(ExperimentPlan &plan);
int runFig14(const FlagSet &flags);

void planFig15(ExperimentPlan &plan);
int runFig15(const FlagSet &flags);

void planAblation(ExperimentPlan &plan);
int runAblation(const FlagSet &flags);

int runMicrotrace(const FlagSet &flags);

void planSynth(ExperimentPlan &plan);
int runSynth(const FlagSet &flags);

void addCacheFlags(FlagSet &flags);
int runCache(const FlagSet &flags);

/**
 * `crw-bench cache --gc`'s rule for one result-store record: a walk
 * record is kept only if the current WalkTable would produce its key;
 * a point record only while its trace checksum is in
 * @p live_checksums.
 */
bool gcKeepsRecord(const std::string &key,
                   const std::set<std::uint64_t> &live_checksums);

} // namespace bench
} // namespace crw

#endif // CRW_BENCH_EXHIBITS_H_
