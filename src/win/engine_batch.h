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
 *    engine. Each updates the shared tallies and the shared call
 *    depths (the only engine state the loop reads) and appends one
 *    record to the *op tape*. Charges never enter the tape; they are
 *    lane-invariant trace operands and accumulate in one shared
 *    counter. Each record is four bytes: save, restore and exit act
 *    on the current thread, so only a switch carries a thread id (its
 *    target), and every lane pass tracks the current thread itself.
 *  - Every lane replays the recorded tape when it fills and once more
 *    at finish(). The tape is reserved once, at most kTapeOps records,
 *    and never regrows: a full tape is drained through the lanes and
 *    reused, so its footprint is fixed however long the trace runs.
 *    Draining early is sound because no lane state is read before
 *    finish(), and each pass picks up exactly where the previous one
 *    stopped. Two pass shapes exist:
 *
 *      Per lane — one tight linear pass over the op array per lane,
 *      the lane's window file cache-hot and the branch predictor
 *      seeing one lane's trap pattern at a time. The sharing schemes
 *      (SNP, SP) take it on every tier; NS and INF take it on the
 *      scalar tier. It is the bit-identity oracle.
 *
 *      Lane-SoA — NS and INF on the Portable/Avx2 tiers (DESIGN.md
 *      §16, win/simd.h): the lanes' hot state is transposed into the
 *      lane-major arrays of win/lane_soa.h and ONE walk over the
 *      stream applies each op to every lane at once. Runs of
 *      same-thread saves/restores collapse into single calls of the
 *      closed-form kernels (win/scheme.h RunFold math, 8-wide
 *      under AVX2); switches and exits stay scalar per lane against
 *      the transposed state. The per-lane engines are only touched
 *      again at writeback, which materializes the SoA state through
 *      the WindowFile import primitives. Both shapes are bit-identical
 *      by construction — the SoA recurrences are the proven closed
 *      forms of the scalar bodies — and the differential suite pins
 *      them against each other.
 *
 *    Both passes check the NS non-residency claim on every lane: after
 *    each NS switch, the thread switched away from holds no window.
 *    INF never makes a thread resident.
 *
 * Everything the shared schedule makes lane-invariant is accumulated
 * once, in shared scalars, and folded into each lane at finish():
 * charge cycles, the save/restore/switch/exit event counts, the plain
 * save/restore cost (psr × event count — per-lane psr, shared count),
 * and the per-thread tallies. The per-op work that remains on each
 * lane is exactly the divergent residue: the scheme's window motion
 * and the trap/switch costs it implies. Under SNP and SP even the
 * window motion of a plain save or restore is only a LazyRun offset
 * (win/lazy_run.h), written to the lane's file before each switch,
 * exit and trap and at the end of each pass. Consequently a lane's
 * clock decomposes as
 *
 *   now(l) = charges + psr(l)·(saves+restores) + offset(l)
 *
 * with offset(l) accumulating only that lane's trap and switch costs —
 * all integer arithmetic, so the decomposition is exact and the
 * flushed state is bit-identical to a per-point replay's.
 *
 * Observer-carrying and checkInvariants engines are refused: batched
 * replay is for headless sweep points only, and both features belong
 * to the per-point oracle.
 */

#ifndef CRW_WIN_ENGINE_BATCH_H_
#define CRW_WIN_ENGINE_BATCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/aligned.h"
#include "common/logging.h"
#include "win/engine.h"
#include "win/lane_soa.h"
#include "win/lazy_run.h"
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
     * @param max_ops Engine ops the caller expects to record (an
     *        upper bound when it knows one). The tape is reserved once
     *        at min(max_ops, kTapeOps) records; a longer run drains it
     *        through the lanes as it fills.
     */
    BatchedEngineView(
        const std::vector<std::unique_ptr<WindowEngine>> &engines,
        std::size_t max_ops)
        : lanes_(engines.size()),
          tapeCap_(std::clamp<std::size_t>(max_ops, 1, kTapeOps)),
          tier_(kHasSoaPass ? effectiveSimdTier() : SimdTier::Scalar)
    {
        crw_assert(lanes_ > 1);
        e_.reserve(lanes_);
        s_.reserve(lanes_);
        t_.reserve(lanes_);
        hot_.reserve(lanes_);
        offset_.reserve(lanes_);
        psr_.reserve(lanes_);
        for (std::size_t l = 0; l < lanes_; ++l) {
            WindowEngine &e = *engines[l];
            crw_assert(e.kind_ == engines[0]->kind_);
            crw_assert(!e.checkInvariants_);
            crw_assert(!e.observer_);
            crw_assert(e.current_ == engines[0]->current_);
            crw_assert(e.threadCounters_.size() ==
                       engines[0]->threadCounters_.size());
            e_.push_back(&e);
            s_.push_back(static_cast<SchemeT *>(e.scheme_.get()));
            crw_assert(s_.back()->kind() == e.kind_);
            t_.emplace_back(e.cost_, e.kind_, e.file_.numWindows());
            hot_.push_back(e.hot_);
            offset_.push_back(e.now_);
            psr_.push_back(t_.back().plainSaveRestore());
        }
        current_ = engines[0]->current_;
        tapeFrom_ = current_;
        threadSaves_.resize(engines[0]->threadCounters_.size());
        threadRestores_.resize(threadSaves_.size());
        threadSwitchesIn_.resize(threadSaves_.size());
        for (std::size_t tid = 0; tid < threadSaves_.size(); ++tid)
            depth_.push_back(
                engines[0]->file_.thread(static_cast<ThreadId>(tid)).depth);
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
        const auto cur = static_cast<std::size_t>(current_);
        ++threadSaves_[cur];
        ++sharedSaves_;
        ++depth_[cur];
        record(OpRec::Kind::Save);
    }

    void
    restore()
    {
        crw_assert(current_ != kNoThread);
        const auto cur = static_cast<std::size_t>(current_);
        ++threadRestores_[cur];
        ++sharedRestores_;
        --depth_[cur];
        record(OpRec::Kind::Restore);
    }

    /** Switch every lane to @p to; each lane re-derives its own costs
     *  when the tape drains. */
    void
    contextSwitch(ThreadId to)
    {
        crw_assert(to != current_);
        const auto t = static_cast<std::size_t>(to);
        current_ = to;
        ++threadSwitchesIn_[t];
        ++sharedSwitches_;
        if (depth_[t] == 0)
            depth_[t] = 1;
        record(OpRec::Kind::Switch, to);
    }

    void
    threadExit()
    {
        crw_assert(current_ != kNoThread);
        ++sharedExits_;
        depth_[static_cast<std::size_t>(current_)] = 0;
        current_ = kNoThread;
        record(OpRec::Kind::Exit);
    }

    /** Charges are lane-invariant: one add advances every clock. */
    void charge(Cycles cycles) { charges_ += cycles; }

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
     * then flush the accumulated clocks/counters back into the
     * engines. Call exactly once, when the control loop has drained.
     * Returns the lane pass dispatched: the SoA tier it ran, or Scalar
     * when the per-lane pass handled the lanes (scalar tier or a
     * sharing scheme). What replay.simd_path publishes.
     */
    SimdTier
    finish()
    {
        drainTape();
        const std::uint64_t sr = sharedSaves_ + sharedRestores_;
        for (std::size_t l = 0; l < lanes_; ++l) {
            WindowEngine &e = *e_[l];
            WindowEngine::HotCounters &h = hot_[l];
            h.saves += sharedSaves_;
            h.restores += sharedRestores_;
            h.switches += sharedSwitches_;
            h.cyclesCallret += psr_[l] * sr;
            h.cyclesCompute += charges_;
            e.hot_ = h;
            e.now_ = charges_ + psr_[l] * sr + offset_[l];
            e.current_ = current_;
            e.stats_.counter("thread_exits") += sharedExits_;
            for (std::size_t tid = 0; tid < threadSaves_.size();
                 ++tid) {
                ThreadCounters &tc = e.threadCounters_[tid];
                tc.saves += threadSaves_[tid];
                tc.restores += threadRestores_[tid];
                tc.switchesIn += threadSwitchesIn_[tid];
            }
        }
        return tier_;
    }

    /** Most records the tape holds before it drains (256 KiB). */
    static constexpr std::size_t kTapeOps = std::size_t{1} << 16;

  private:
    /**
     * One recorded engine op, packed to four bytes so a lane pass
     * streams the fewest possible cache lines (charges never enter the
     * stream, and the lane-invariant counts live in shared scalars).
     * Save, restore and exit act on the current thread, which each
     * pass tracks from the switches, so only a switch names a thread.
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

    /** Append one op, called after the shared state took it (so
     *  current_ already names the thread current after it); a full
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
            for (std::size_t l = 0; l < lanes_; ++l)
                replayLane(l);
        } else if constexpr (kHasSoaPass) {
            replaySoa(tier_);
        }
        tapeFrom_ = current_;
        ops_.clear();
    }

    /**
     * A switch's tally residue on one lane, shared by both passes;
     * returns its cost. Each pass calls it in recorded op order, so
     * the switch-case histograms and the switch-cost Distribution's
     * sample sequence match a per-point replay.
     */
    static Cycles
    chargeSwitch(const FlatCostTables &t, WindowEngine &e,
                 WindowEngine::HotCounters &h, int saved, int restored)
    {
        h.switchSaved += static_cast<std::uint64_t>(saved);
        h.switchRestored += static_cast<std::uint64_t>(restored);
        if (saved < WindowEngine::kSmallSwitchCase &&
            restored < WindowEngine::kSmallSwitchCase)
            ++e.switchCasesSmall_[saved][restored];
        else
            ++e.switchCasesLarge_[{saved, restored}];
        const Cycles cycles = t.switchCost(saved, restored);
        h.cyclesSwitch += cycles;
        e.dSwitchCost_->sample(static_cast<double>(cycles));
        return cycles;
    }

    /**
     * The per-lane pass: one linear walk over the op stream applying
     * lane @p l's scheme bodies against local (alias-free) copies of
     * its hot state; under SNP and SP only traps reach a save or
     * restore body. Per-lane event order — and with it the
     * switch-cost Distribution's sample order and the switch-case
     * histograms — matches a per-point replay exactly, because the
     * stream *is* the shared schedule restricted to engine ops.
     */
    void
    replayLane(std::size_t l)
    {
        SchemeT *const s = s_[l];
        const FlatCostTables &t = t_[l];
        WindowEngine &e = *e_[l];
        WindowEngine::HotCounters h = hot_[l];
        Cycles offset = offset_[l];
        ThreadId cur = tapeFrom_;
        // SNP/SP: the current thread's plain saves and restores only
        // move the run's offset (win/lazy_run.h); it is written to
        // the lane's file before each trap (by the run), switch and
        // exit, and when the pass ends.
        LazyRun<SchemeT> run(e.file_);
        if constexpr (kLazy)
            run.begin(cur);
        for (const OpRec &op : ops_) {
            switch (op.kind) {
              case OpRec::Kind::Save: {
                OpOutcome out;
                if constexpr (kLazy)
                    out = run.save(*s);
                else
                    out = s->template doSave<false>(cur);
                if (out.trapped) {
                    ++h.ovfTraps;
                    h.ovfSpilled +=
                        static_cast<std::uint64_t>(out.windowsSaved);
                    const Cycles trap = t.overflowCost(out.windowsSaved);
                    h.cyclesTrap += trap;
                    offset += trap;
                }
                break;
              }
              case OpRec::Kind::Restore: {
                OpOutcome out;
                if constexpr (kLazy)
                    out = run.restore(*s);
                else
                    out = s->template doRestore<false>(cur);
                if (out.trapped) {
                    ++h.unfTraps;
                    h.unfRestored +=
                        static_cast<std::uint64_t>(out.windowsRestored);
                    const Cycles trap = t.underflowCost();
                    h.cyclesTrap += trap;
                    offset += trap;
                }
                break;
              }
              case OpRec::Kind::Switch: {
                crw_assert(e.file_.hasThread(op.to));
                if constexpr (kLazy)
                    run.materialize();
                const SwitchOutcome out =
                    s->template doSwitchIn<false>(cur, op.to);
                offset += chargeSwitch(t, e, h, out.windowsSaved,
                                       out.windowsRestored);
                // The non-residency claim resident() answers with.
                if constexpr (kIsNs)
                    crw_assert(cur == kNoThread ||
                               !e.file_.thread(cur).isResident());
                cur = op.to;
                if constexpr (kLazy)
                    run.begin(cur);
                break;
              }
              case OpRec::Kind::Exit:
                if constexpr (kLazy)
                    run.materialize();
                s->template doExit<false>(cur);
                cur = kNoThread;
                if constexpr (kLazy)
                    run.begin(cur);
                break;
            }
        }
        if constexpr (kLazy)
            run.materialize();
        hot_[l] = h;
        offset_[l] = offset;
    }

    // Scheme shape traits: only the non-sharing schemes have an SoA
    // pass (the sharing schemes replay per lane).
    static constexpr bool kIsInf =
        std::is_same_v<SchemeT, detail::InfiniteScheme>;
    static constexpr bool kIsNs =
        std::is_same_v<SchemeT, detail::NsScheme>;
    static constexpr bool kHasSoaPass = kIsInf || kIsNs;
    static constexpr bool kLazy = kHasLazyRun<SchemeT>;

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
        const std::size_t nl = lanes_;
        const int threads = static_cast<int>(threadSaves_.size());

        LaneSoA soa;
        soa.init(nl, threads);

        // --- transpose --------------------------------------------
        // The control loop never touches a lane, so every file still
        // holds the tape's start state; so do lane 0's call depths,
        // which the lockstep contract makes lane-invariant.
        for (std::size_t j = 0; j < nl; ++j) {
            const WindowFile &f = e_[j]->file_;
            soa.numWin[j] = f.numWindows();
            soa.nsCap[j] = f.numWindows() - 1;
            const Cycles ovf1 = t_[j].overflowCost(1);
            const Cycles unf = t_[j].underflowCost();
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
                e_[0]->file_.thread(tid).depth;

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
            soa.offset[j] +=
                chargeSwitch(t_[j], *e_[j], hot_[j], saved, restored);
        };

        // --- the single walk --------------------------------------
        // Only a switch or an exit changes the current thread, so a
        // run of same-kind ops is a run on one thread.
        const std::size_t nops = ops_.size();
        std::size_t i = 0;
        ThreadId cur = tapeFrom_;
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
                crw_assert(e_[0]->file_.hasThread(op.to));
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
            WindowEngine::HotCounters &h = hot_[j];
            h.ovfTraps += soa.ovfTraps[j];
            h.ovfSpilled += soa.ovfSpilled[j];
            h.unfTraps += soa.unfTraps[j];
            h.unfRestored += soa.unfRestored[j];
            h.cyclesTrap += soa.cyclesTrap[j];
            offset_[j] += soa.offset[j];
            WindowFile &f = e_[j]->file_;
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

    std::size_t lanes_;
    /** Records the tape holds before it drains. */
    std::size_t tapeCap_;
    /** The lane pass every drain dispatches. */
    SimdTier tier_;
    ThreadId current_ = kNoThread;
    /** Current thread at the tape's first record: where every
     *  lane pass over the tape starts. */
    ThreadId tapeFrom_ = kNoThread;
    /** Shared clock component: the sum of all charges so far. */
    Cycles charges_ = 0;
    // Shared event tallies — lane-invariant by the lockstep contract,
    // folded into every lane at finish().
    std::uint64_t sharedSaves_ = 0;
    std::uint64_t sharedRestores_ = 0;
    std::uint64_t sharedSwitches_ = 0;
    std::uint64_t sharedExits_ = 0;
    std::vector<WindowEngine *> e_;
    std::vector<SchemeT *> s_;
    std::vector<FlatCostTables> t_;
    // Dense per-lane hot state: the diverging counters, the per-lane
    // trap/switch clock contribution, and the hoisted plain
    // save/restore cost.
    std::vector<WindowEngine::HotCounters> hot_;
    std::vector<Cycles> offset_;
    std::vector<Cycles> psr_;
    /** The engine op stream the lanes replay;
     *  64-byte aligned so the SoA pass's linear walk never splits a
     *  cache line (sixteen 4-byte records per line). */
    AlignedVec<OpRec> ops_;
    // Shared per-tid tallies, identical for every lane (the event
    // sequence decides them); replicated into each engine at finish.
    std::vector<std::uint64_t> threadSaves_;
    std::vector<std::uint64_t> threadRestores_;
    std::vector<std::uint64_t> threadSwitchesIn_;
    /** Call depth per tid, the same on every lane. */
    std::vector<int> depth_;
};

} // namespace crw

#endif // CRW_WIN_ENGINE_BATCH_H_
