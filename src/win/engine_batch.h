/**
 * @file
 * BatchedEngineView: the lockstep sibling of FastEngineView
 * (engine_fast.h), driven by the same flat replay loop
 * (trace/replay_loop.h) whenever a schedule has more than one lane.
 * One view fronts K >= 2 WindowEngines that replay the same FlatTrace
 * under the same schedule, so one forward pass over the trace
 * advances all K engine states.
 *
 * Why this is sound: the replay state machine's control flow (dispatch
 * order, stream blocking, thread scripts) never reads engine state
 * except at one point — working-set queue placement consults
 * residency at wake time. The static batch rule
 * (trace/replay_batch.h, lockstepBatchable) admits a residency-reading
 * policy into a batch wider than one lane only under NS and INF, where
 * a woken thread is resident on no lane, so the view answers `false`
 * without asking an engine; every other policy ignores residency. So
 * every lane follows the identical schedule no matter how its window
 * count, PRW reclamation or allocation policy differ, and per-lane
 * state evolves exactly as K independent FastEngineView runs would.
 *
 * Execution is record, then replay:
 *
 *  - The control loop's save/restore/switch/exit calls touch no
 *    engine. Each keeps the shared call depths (the only engine state
 *    the loop reads) and the ScheduleTallies, and appends one record
 *    to the *op tape*. Each record is four bytes: save, restore and
 *    exit act on the current thread, so only a switch carries a
 *    thread id (its target), and every lane tracks the current thread
 *    itself.
 *  - Every lane replays the recorded tape when it fills and once more
 *    at finish(). The tape is reserved once, at most kTapeOps records,
 *    and never regrows: a full tape is drained through the lanes and
 *    reused, so its footprint is fixed however long the trace runs.
 *    Draining early is sound because no lane state is read before
 *    finish(), and each pass picks up exactly where the previous one
 *    stopped. Two pass shapes exist:
 *
 *      Per lane — one tight linear pass over the op array per lane,
 *      stepping its LaneStep (win/lane_step.h), the lane's window
 *      file cache-hot and the branch predictor seeing one lane's trap
 *      pattern at a time. The sharing schemes (SNP, SP) take it on
 *      every tier; NS and INF take it on the scalar tier. It is the
 *      bit-identity oracle.
 *
 *      Lane-SoA — NS and INF on the Portable/Avx2 tiers (DESIGN.md
 *      §16, win/simd.h): the lanes' hot state is transposed into the
 *      lane-major arrays of win/lane_soa.h and ONE walk over the
 *      stream applies each op to every lane at once. Runs of
 *      same-thread saves/restores collapse into single calls of the
 *      closed-form kernels (win/scheme.h RunFold math, 8-wide
 *      under AVX2); switches and exits stay scalar per lane against
 *      the transposed state, and take their tallies from each lane's
 *      step. The window files are only touched again at writeback,
 *      which materializes the SoA state through the WindowFile import
 *      primitives. Both shapes are bit-identical by construction —
 *      the SoA recurrences are the proven closed forms of the scalar
 *      bodies — and the replay net pins them against each other.
 *
 *    Both passes check the NS non-residency claim on every lane: after
 *    each NS switch, the thread switched away from holds no window.
 *    INF never makes a thread resident.
 *
 * finish() folds the run's ScriptTallies and the ScheduleTallies into
 * every lane (LaneStep::fold).
 */

#ifndef CRW_WIN_ENGINE_BATCH_H_
#define CRW_WIN_ENGINE_BATCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "common/logging.h"
#include "win/engine.h"
#include "win/lane_soa.h"
#include "win/lane_step.h"
#include "win/schemes_impl.h"
#include "win/simd.h"

namespace crw {

template <typename SchemeT>
class BatchedEngineView
{
  public:
    /**
     * @param engines K >= 2 engines sharing scheme kind; window counts
     *        and PRW/allocation variants may differ per lane. None may
     *        carry an observer or checkInvariants (oracle-only
     *        features), and all must be at the same point of the
     *        schedule (freshly constructed, same registered threads).
     * @param tallies What the replayed scripts fix (not owned; must
     *        outlive the view and be complete by finish()), one entry
     *        per registered thread.
     * @param max_ops Engine ops the caller expects to record (an
     *        upper bound when it knows one). The tape is reserved once
     *        at min(max_ops, kTapeOps) records; a longer run drains it
     *        through the lanes as it fills.
     */
    BatchedEngineView(
        const std::vector<std::unique_ptr<WindowEngine>> &engines,
        const ScriptTallies &tallies, std::size_t max_ops)
        : tapeCap_(std::clamp<std::size_t>(max_ops, 1, kTapeOps)),
          tier_(kHasSoaPass ? effectiveSimdTier() : SimdTier::Scalar),
          script_(tallies),
          sched_(tallies.saves.size())
    {
        crw_assert(engines.size() > 1);
        lanes_.reserve(engines.size());
        for (const std::unique_ptr<WindowEngine> &e : engines) {
            lanes_.emplace_back(*e);
            crw_assert(lanes_.back().current() == lanes_[0].current());
        }
        current_ = lanes_[0].current();
        for (std::size_t tid = 0; tid < sched_.switchesIn.size(); ++tid)
            depth_.push_back(
                lanes_[0].file().thread(static_cast<ThreadId>(tid)).depth);
        ops_.reserve(tapeCap_);
    }

    // The engine verbs record the op for the lanes and keep the shared
    // call depths by the rules every scheme body applies: a save
    // pushes a frame, a restore pops one, a switch into a fresh thread
    // pushes its root frame, an exit clears the stack.

    void
    save()
    {
        crw_assert(current_ != kNoThread);
        ++depth_[static_cast<std::size_t>(current_)];
        record(OpRec::Kind::Save);
    }

    void
    restore()
    {
        crw_assert(current_ != kNoThread);
        --depth_[static_cast<std::size_t>(current_)];
        record(OpRec::Kind::Restore);
    }

    /** Switch every lane to @p to; each lane re-derives its own costs
     *  when the tape drains. */
    void
    contextSwitch(ThreadId to)
    {
        const auto t = static_cast<std::size_t>(to);
        current_ = to;
        ++sched_.switchesIn[t];
        if (depth_[t] == 0)
            depth_[t] = 1;
        record(OpRec::Kind::Switch, to);
    }

    void
    threadExit()
    {
        crw_assert(current_ != kNoThread);
        ++sched_.exits;
        depth_[static_cast<std::size_t>(current_)] = 0;
        current_ = kNoThread;
        record(OpRec::Kind::Exit);
    }

    /**
     * Working-set wake support: residency of @p tid, the
     * queue-placement input the scheduler consumes. The static batch
     * rule (trace/replay_batch.h) admits a residency-reading policy
     * only under NS and INF, where a woken thread is resident on no
     * lane; each lane pass checks that claim as it replays.
     */
    bool
    resident(ThreadId tid) const
    {
        (void)tid;
        return false;
    }

    ThreadId current() const { return current_; }

    /**
     * Call depth of @p tid. Depth is pure call nesting — every scheme
     * pushes/pops exactly one frame per save/restore — so it is
     * identical across lanes and kept once, for all of them.
     */
    int
    depth(ThreadId tid) const
    {
        return depth_[static_cast<std::size_t>(tid)];
    }

    /**
     * Replay the rest of the recorded op stream through every lane,
     * then fold the tallies into the engines. Call exactly once, when
     * the control loop has drained. Returns the lane pass dispatched:
     * the SoA tier it ran, or Scalar when the per-lane pass handled
     * the lanes (scalar tier or a sharing scheme). What
     * replay.simd_path publishes.
     */
    SimdTier
    finish()
    {
        drainTape();
        for (const LaneStep<SchemeT> &lane : lanes_)
            lane.fold(script_, sched_);
        return tier_;
    }

    /** Most records the tape holds before it drains (256 KiB). */
    static constexpr std::size_t kTapeOps = std::size_t{1} << 16;

  private:
    /**
     * One recorded engine op, packed to four bytes so a lane pass
     * streams the fewest possible cache lines. Save, restore and exit
     * act on the current thread, which each pass tracks from the
     * switches, so only a switch names a thread.
     */
    struct OpRec
    {
        enum class Kind : std::uint8_t {
            Save,
            Restore,
            Switch,
            Exit,
        };
        Kind kind;
        std::uint8_t pad = 0;
        std::int16_t to = 0; ///< switch target; 0 for the other kinds
    };
    static_assert(sizeof(OpRec) == 4, "op stream packing");

    /** Append one op, called after the shared state took it; a full
     *  tape drains through the lanes. */
    void
    record(typename OpRec::Kind kind, ThreadId to = 0)
    {
        crw_assert(to >= 0 && to <= INT16_MAX);
        ops_.push_back({kind, 0, static_cast<std::int16_t>(to)});
        if (ops_.size() == tapeCap_)
            drainTape();
    }

    /**
     * Advance every lane over the recorded ops, then empty the tape.
     * The per-lane shape runs one lane per tape pass, so the branch
     * predictor sees a single lane's trap pattern per pass (pairing
     * lanes was measured slower — the per-op trap branches alias
     * across lanes and mispredict). The sharing schemes always
     * take it: their slot-map probes are serial per lane, and
     * interleaving lanes in one walk measured 0.97–0.98x against it
     * (DESIGN.md §16). Never inlined, so the flattened replay loop
     * (trace/replay_loop.h) keeps one copy of the lane passes instead
     * of one per record() site; flattened itself, so the scheme bodies
     * still inline into those passes.
     */
    __attribute__((noinline, flatten)) void
    drainTape()
    {
        if (tier_ == SimdTier::Scalar) {
            for (LaneStep<SchemeT> &lane : lanes_)
                replayLane(lane);
        } else if constexpr (kHasSoaPass) {
            replaySoa(tier_);
        }
        ops_.clear();
    }

    /**
     * The per-lane pass: one linear walk over the op stream stepping
     * @p lane, moved into a local so its state aliases nothing the
     * scheme bodies write. Per-lane event order matches a per-point
     * replay exactly, because the stream *is* the shared schedule
     * restricted to engine ops.
     */
    void
    replayLane(LaneStep<SchemeT> &lane)
    {
        LaneStep<SchemeT> step = std::move(lane);
        for (const OpRec &op : ops_) {
            switch (op.kind) {
              case OpRec::Kind::Save: step.save(); break;
              case OpRec::Kind::Restore: step.restore(); break;
              case OpRec::Kind::Switch: step.switchTo(op.to); break;
              case OpRec::Kind::Exit: step.exit(); break;
            }
        }
        step.flush();
        lane = std::move(step);
    }

    // Scheme shape traits: only the non-sharing schemes have an SoA
    // pass (the sharing schemes replay per lane).
    static constexpr bool kIsInf =
        std::is_same_v<SchemeT, detail::InfiniteScheme>;
    static constexpr bool kIsNs =
        std::is_same_v<SchemeT, detail::NsScheme>;
    static constexpr bool kHasSoaPass = kIsInf || kIsNs;

    /**
     * The lane-SoA pass (DESIGN.md §16), NS and INF only: transpose
     * the lanes' hot state into win/lane_soa.h arrays,
     * walk the op stream ONCE applying each op to every lane —
     * same-thread save/restore runs through the tier's vector kernels,
     * switches and exits scalar per lane against the transposed state
     * — then materialize the surviving state back into the engines.
     * Bit-identity with replayLane is by construction: every
     * recurrence here is the closed form of the corresponding scalar
     * scheme body (win/scheme.h RunFold derivations), and the
     * differential suite pins the two passes against each other.
     */
    void
    replaySoa(SimdTier tier)
    {
        static_assert(kHasSoaPass, "no SoA pass for sharing schemes");
        const LaneKernels &kern = laneKernels(tier);
        const std::size_t nl = lanes_.size();
        const int threads = static_cast<int>(depth_.size());

        LaneSoA soa;
        soa.init(nl, threads);

        // --- transpose --------------------------------------------
        // The control loop never touches a lane, so every file still
        // holds the tape's start state; so do lane 0's call depths,
        // which the lockstep contract makes lane-invariant.
        for (std::size_t j = 0; j < nl; ++j) {
            const WindowFile &f = lanes_[j].file();
            soa.numWin[j] = f.numWindows();
            soa.nsCap[j] = f.numWindows() - 1;
            const Cycles ovf1 = lanes_[j].costs().overflowCost(1);
            const Cycles unf = lanes_[j].costs().underflowCost();
            // The vector tally fold multiplies traps by cost in one
            // 32x32->64 lane product.
            crw_assert(ovf1 <= UINT32_MAX && unf <= UINT32_MAX);
            soa.ovfCost1[j] = ovf1;
            soa.unfCost[j] = unf;
            for (ThreadId tid = 0; tid < threads; ++tid) {
                const ThreadWindows &tw = f.thread(tid);
                soa.topOf(tid)[j] = tw.top;
                soa.resOf(tid)[j] = tw.resident;
            }
        }
        std::vector<int> depth(static_cast<std::size_t>(threads));
        for (ThreadId tid = 0; tid < threads; ++tid)
            depth[static_cast<std::size_t>(tid)] =
                lanes_[0].file().thread(tid).depth;

        // --- per-lane cyclic helpers ------------------------------
        auto belowAt = [&soa](std::size_t j, int w) {
            return w + 1 == soa.numWin[j] ? 0 : w + 1;
        };
        auto wrapAt = [&soa](std::size_t j, int x) {
            const int n = soa.numWin[j];
            x %= n;
            return x < 0 ? x + n : x;
        };

        // --- scalar scheme bodies against the SoA state -----------

        // WindowFile::dropAll (root-frame return and thread exit).
        auto dropAllAt = [&](std::size_t j, ThreadId tid) {
            soa.resOf(tid)[j] = 0;
            soa.topOf(tid)[j] = kNoWindow;
        };

        // doSwitchIn per scheme. Call depth is lane-invariant (the
        // dispatcher below maintains the shared depth array once per
        // op).
        auto switchAt = [&](std::size_t j, ThreadId from,
                            ThreadId to) {
            int saved = 0;
            int restored = 0;
            if constexpr (kIsNs) {
                if (from != kNoThread) {
                    std::int32_t *fres = soa.resOf(from);
                    saved = fres[j]; // flush the whole run
                    fres[j] = 0;
                    soa.topOf(from)[j] = kNoWindow;
                }
                soa.topOf(to)[j] = 0; // NS schedules into slot 0
                soa.resOf(to)[j] = 1;
                if (depth[static_cast<std::size_t>(to)] > 0)
                    restored = 1;
            } // INF: no window motion, ever
            lanes_[j].tallySwitch(saved, restored);
        };

        // --- the single walk --------------------------------------
        // Only a switch or an exit changes the current thread, so a
        // run of same-kind ops is a run on one thread.
        const std::size_t nops = ops_.size();
        std::size_t i = 0;
        ThreadId cur = lanes_[0].current();
        while (i < nops) {
            const OpRec &op = ops_[i];
            switch (op.kind) {
              case OpRec::Kind::Save: {
                std::size_t r = i + 1;
                while (r < nops && ops_[r].kind == OpRec::Kind::Save)
                    ++r;
                const int k = static_cast<int>(r - i);
                const ThreadId tid = cur;
                depth[static_cast<std::size_t>(tid)] += k;
                if constexpr (kIsNs)
                    kern.nsSaveRun(soa, tid, k);
                i = r;
                break;
              }
              case OpRec::Kind::Restore: {
                std::size_t r = i + 1;
                while (r < nops && ops_[r].kind == OpRec::Kind::Restore)
                    ++r;
                const int k = static_cast<int>(r - i);
                const ThreadId tid = cur;
                const int d = depth[static_cast<std::size_t>(tid)];
                crw_assert(k <= d);
                // The run's last restore is the root-frame return
                // exactly when it empties the call stack; it drops
                // all windows instead of trapping, so it is peeled
                // off the folded run (restoreRunFold precondition).
                const int k1 = k < d ? k : d - 1;
                if constexpr (kIsNs) {
                    if (k1 > 0)
                        kern.nsRestoreRun(soa, tid, k1);
                    if (k1 < k)
                        for (std::size_t j = 0; j < nl; ++j)
                            dropAllAt(j, tid);
                }
                depth[static_cast<std::size_t>(tid)] -= k;
                i = r;
                break;
              }
              case OpRec::Kind::Switch: {
                crw_assert(lanes_[0].file().hasThread(op.to));
                for (std::size_t j = 0; j < nl; ++j)
                    switchAt(j, cur, op.to);
                // The non-residency claim resident() answers with.
                if (kIsNs && cur != kNoThread)
                    for (std::size_t j = 0; j < nl; ++j)
                        crw_assert(soa.resOf(cur)[j] == 0);
                cur = op.to;
                if (depth[static_cast<std::size_t>(cur)] == 0)
                    depth[static_cast<std::size_t>(cur)] =
                        1; // root frame of a fresh thread
                ++i;
                break;
              }
              case OpRec::Kind::Exit: {
                if constexpr (kIsNs)
                    for (std::size_t j = 0; j < nl; ++j)
                        dropAllAt(j, cur);
                depth[static_cast<std::size_t>(cur)] = 0;
                cur = kNoThread;
                ++i;
                break;
              }
            }
        }

        // --- writeback --------------------------------------------
        for (std::size_t j = 0; j < nl; ++j) {
            lanes_[j].absorb(soa, j, cur);
            WindowFile &f = lanes_[j].file();
            if constexpr (kIsNs)
                f.resetSlotsForImport();
            for (ThreadId tid = 0; tid < threads; ++tid) {
                ThreadWindows tw;
                tw.depth = depth[static_cast<std::size_t>(tid)];
                if constexpr (kIsNs) {
                    tw.resident = soa.resOf(tid)[j];
                    if (tw.resident > 0) {
                        // NS keeps `top` unwrapped during the pass;
                        // the single wrap happens here. Its slots are
                        // the contiguous run below top (the invariant
                        // NS growth preserves).
                        tw.top = wrapAt(j, soa.topOf(tid)[j]);
                        int w = tw.top;
                        for (int c = 0; c < tw.resident; ++c) {
                            f.importSlot(w, WinState::Owned, tid);
                            w = belowAt(j, w);
                        }
                    }
                }
                f.importThread(tid, tw);
            }
        }
    }

    /** Records the tape holds before it drains. */
    std::size_t tapeCap_;
    /** The lane pass every drain dispatches. */
    SimdTier tier_;
    const ScriptTallies &script_;
    ScheduleTallies sched_;
    std::vector<LaneStep<SchemeT>> lanes_;
    ThreadId current_ = kNoThread;
    /** The engine op stream the lanes replay;
     *  64-byte aligned so the SoA pass's linear walk never splits a
     *  cache line (sixteen 4-byte records per line). */
    AlignedVec<OpRec> ops_;
    /** Call depth per tid, the same on every lane. */
    std::vector<int> depth_;
};

} // namespace crw

#endif // CRW_WIN_ENGINE_BATCH_H_
