/**
 * @file
 * Cycle costs of window-management operations.
 *
 * The paper measured every cost on real hardware (a Fujitsu S-20 SPARC
 * on PIE64, cycles counted by a bus-monitoring logic analyzer). We keep
 * the same cost structure and ship two presets:
 *
 *  - paperTable2(): linear fits through the midpoints of the cycle
 *    bands the paper reports in Table 2 (context-switch cost as a
 *    function of windows saved/restored per scheme), plus window-trap
 *    costs consistent with SPARC trap-handler footprints.
 *  - fromMeasurement(): built from cycle counts measured by running the
 *    actual assembly handlers in crw's SPARC ISA simulator (see
 *    src/kernel), closing the loop between the two layers.
 */

#ifndef CRW_WIN_COST_MODEL_H_
#define CRW_WIN_COST_MODEL_H_

#include <string>
#include <vector>

#include "common/logging.h"
#include "common/types.h"

namespace crw {

/** Window-management scheme, per paper §4.5. */
enum class SchemeKind {
    NS,       ///< non-sharing: flush everything on a switch
    SNP,      ///< sharing, single global reserved window
    SP,       ///< sharing, private reserved window per thread
    Infinite, ///< oracle: unbounded windows, no traps
};

/** Short display name ("NS", "SNP", "SP", "INF"). */
const char *schemeName(SchemeKind kind);

/**
 * Context-switch cost parameters for one scheme:
 * cycles = base + perSave * saves + perRestore * restores.
 */
struct SwitchCostLine
{
    Cycles base = 0;
    Cycles perSave = 0;
    Cycles perRestore = 0;

    Cycles
    cost(int saves, int restores) const
    {
        return base + perSave * static_cast<Cycles>(saves) +
               perRestore * static_cast<Cycles>(restores);
    }
};

/** All cycle-cost knobs of the window engine. */
class CostModel
{
  public:
    /** Calibrated to the paper's Table 2 (see file comment). */
    static CostModel paperTable2();

    /** Context-switch cost for @p kind moving @p saves / @p restores. */
    Cycles switchCost(SchemeKind kind, int saves, int restores) const;

    /** Overflow trap; @p spills windows written to memory (0 or 1). */
    Cycles
    overflowTrapCost(int spills) const
    {
        return overflowBase + transferSave * static_cast<Cycles>(spills);
    }

    /**
     * Underflow trap in a sharing scheme: restore-in-place, including
     * the copy of live in registers into the out registers and the
     * emulation of the trapped restore's add function (paper §3.2/§4.3).
     */
    Cycles
    underflowSharingCost() const
    {
        return underflowSharingBase + transferRestore;
    }

    /** Conventional underflow trap (NS): restore one window below. */
    Cycles
    underflowConventionalCost() const
    {
        return underflowConventionalBase + transferRestore;
    }

    /** Trap-free save or restore instruction. */
    Cycles plainSaveRestore = 1;

    /** Memory traffic for one 16-register window save / restore. */
    Cycles transferSave = 19;
    Cycles transferRestore = 21;

    /** Trap entry/exit + handler bookkeeping, excluding the transfer. */
    Cycles overflowBase = 46;
    Cycles underflowSharingBase = 59;
    Cycles underflowConventionalBase = 49;

    SwitchCostLine ns;
    SwitchCostLine snp;
    SwitchCostLine sp;
};

/**
 * Flat per-(scheme, windows) cost tables for the replay lane step
 * (win/lane_step.h): every CostModel lookup a specialized event body
 * performs, precomputed into dense arrays indexed by windows moved.
 * One instance is built per replay point — the scheme kind and window
 * count are fixed for the whole run, so the trap-cost formulae and the
 * per-scheme switch-cost line collapse to loads.
 *
 * The table dimensions cover every outcome the schemes can produce
 * (an overflow spills at most 2 windows — SP's eager PRW reclaim; a
 * switch saves at most numWindows windows — NS's flush — and restores
 * at most 1) with headroom; lookups assert their bounds, so a scheme
 * change that widens an outcome fails loudly, not silently.
 */
class FlatCostTables
{
  public:
    FlatCostTables() = default;
    FlatCostTables(const CostModel &model, SchemeKind kind,
                   int num_windows);

    Cycles plainSaveRestore() const { return plain_; }

    /** == CostModel::overflowTrapCost(spills). */
    Cycles
    overflowCost(int spills) const
    {
        crw_assert(spills >= 0 &&
                   spills < static_cast<int>(overflow_.size()));
        return overflow_[static_cast<std::size_t>(spills)];
    }

    /** The scheme's underflow-trap cost (conventional for NS). */
    Cycles underflowCost() const { return underflow_; }

    /** == CostModel::switchCost(kind, saves, restores). */
    Cycles
    switchCost(int saves, int restores) const
    {
        crw_assert(saves >= 0 && saves < saveDim_);
        crw_assert(restores >= 0 && restores < kRestoreDim);
        return switch_[static_cast<std::size_t>(saves) * kRestoreDim +
                       static_cast<std::size_t>(restores)];
    }

  private:
    static constexpr int kRestoreDim = 4;

    Cycles plain_ = 0;
    Cycles underflow_ = 0;
    std::vector<Cycles> overflow_;
    std::vector<Cycles> switch_;
    int saveDim_ = 0;
};

/**
 * Canonical encoding of every cost knob, e.g.
 * "sr1,ts19,tr21,ob46,us59,uc49,ns75+36s+36r,snp115+51s+29r,sp95+45s+43r".
 * Two models with equal keys produce equal cycle counts for every
 * operation, so the string is a safe cache-key component (see
 * bench/result_cache.h). Any new knob must be added here.
 */
std::string costModelKey(const CostModel &model);

} // namespace crw

#endif // CRW_WIN_COST_MODEL_H_
