/**
 * @file
 * The microtrace exhibit's walk table (bench/exhibit_microtrace.cc):
 * random call-depth walks driven straight into the window engines.
 *
 * A walk's up/down decisions depend only on the RNG, the per-thread
 * depth and the fixed round-robin order — never on engine state — so
 * one walk drives every window count of a (depth, scheme) group in
 * lockstep through a BatchedEngineView (win/engine_batch.h): the walk
 * loop draws each decision and records it, and the view's lane passes
 * bring every lane along. The groups fan out on
 * the sweep pool; each writes its own cells, so the table is
 * identical at any worker count.
 *
 * Each cell's cycles persist in the result store (bench/result_cache.h)
 * under a walk| key naming everything that can change them, so a warm
 * run serves the table from the store and replays no walk.
 */

#ifndef CRW_BENCH_MICROTRACE_H_
#define CRW_BENCH_MICROTRACE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "win/engine.h"

namespace crw {
namespace bench {

/** The exhibit's walk: 4 threads round-robin in 200-step quanta for
 *  3000 quanta, every step charged 20 cycles, one Rng(99) shared by
 *  all threads in global step order. */
inline constexpr int kWalkThreads = 4;
inline constexpr int kWalkStepsPerQuantum = 200;
inline constexpr int kWalkQuanta = 3000;
inline constexpr Cycles kWalkStepCharge = 20;
inline constexpr std::uint64_t kWalkSeed = 99;

/** The walk depth bounds the exhibit sweeps. */
inline constexpr int kWalkDepths[] = {4, 8};

/** Bump when a walk's semantics or its stored record change. */
inline constexpr std::uint32_t kWalkFormatVersion = 1;

/** Every walk cell's result-store key starts with this family tag. */
inline constexpr char kWalkKeyPrefix[] = "walk|";

/** Shape of one walk; the defaults are the exhibit's. */
struct WalkSpec
{
    int maxDepth = 4; ///< a thread at this depth must return
    int threads = kWalkThreads;
    int stepsPerQuantum = kWalkStepsPerQuantum;
    int quanta = kWalkQuanta;
    std::uint64_t seed = kWalkSeed;
};

/** The engine a walk cell runs on: @p scheme with @p windows,
 *  every other field at its default. */
EngineConfig walkEngineConfig(SchemeKind scheme, int windows);

/**
 * Walk @p spec once under @p scheme with one lockstep lane per entry
 * of @p windows (at least two): a thread at depth 1 always calls, at
 * maxDepth always returns, otherwise calls with probability 1/2, and
 * every step is charged kWalkStepCharge. Returns each lane's engine
 * after the walk, in @p windows order.
 */
std::vector<std::unique_ptr<WindowEngine>>
walkLockstep(const WalkSpec &spec, SchemeKind scheme,
             const std::vector<int> &windows);

/** Result-store key of one walk cell (format in result_cache.h). */
std::string walkCacheKey(const WalkSpec &spec, const EngineConfig &cfg);

/** One walk-table cell: a (scheme, windows, depth) walk's cycles. */
struct WalkCell
{
    SchemeKind scheme;
    int windows;
    int maxDepth;
    Cycles cycles;
};

/**
 * The exhibit's walk table: {NS, SNP, SP} x defaultWindowSweep() x
 * kWalkDepths, every cell served from the result store or replayed
 * with its (depth, scheme) group's walkLockstep.
 */
class WalkTable
{
  public:
    /**
     * Probe the result store for every cell (unless the result cache
     * is off), replay every (depth, scheme) group with a miss — all
     * of its window counts, one walkLockstep per group — on
     * ParallelSweep(@p jobs), and store the missed cells back.
     */
    static WalkTable run(int jobs);

    /** Store keys of every cell, in cells() order. */
    static std::vector<std::string> keys();

    /** The cells, depth-major, then windows, then scheme. */
    const std::vector<WalkCell> &cells() const { return cells_; }

    /** Cycles of one cell; panics if the table has no such cell. */
    Cycles cycles(SchemeKind scheme, int windows, int max_depth) const;

    /** Walk steps replayed by this run, lanes x steps per walk (0
     *  when every cell hit). */
    std::uint64_t steps() const { return steps_; }

    /** Cells served from the result store. */
    std::size_t cached() const { return cached_; }

  private:
    std::vector<WalkCell> cells_;
    std::uint64_t steps_ = 0;
    std::size_t cached_ = 0;
};

} // namespace bench
} // namespace crw

#endif // CRW_BENCH_MICROTRACE_H_
