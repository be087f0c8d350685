/**
 * @file
 * Concrete scheme implementations, in a header so the replay lane
 * step (win/lane_step.h) can instantiate the engine event bodies
 * over the concrete (final) classes and inline the per-event handlers
 * — save/restore/switch fire tens of millions of times per sweep, and
 * the dispatch boundary was the hottest barrier in the replay profile.
 * The engine's own member functions keep calling through the virtual
 * Scheme interface: that path is the differential oracle the
 * specializations are tested against. makeScheme() (schemes.cc)
 * remains the only way to construct them; everything here is an
 * implementation detail.
 *
 * Every event body is a `doX<Checked>` member template; the virtual
 * Scheme overrides forward to the Checked = true instantiation, so
 * the oracle path evaluates every structural assertion exactly as
 * before. The replay lane step (win/lane_step.h, win/lazy_run.h)
 * instantiates Checked = false: the window-file primitives then skip
 * assertion *evaluation* — see the policy note in win/window_file.h —
 * which removed ~25% of replay wall time. The differential suites pin
 * the unchecked instantiations bit-identical to the checked oracle.
 */

#ifndef CRW_WIN_SCHEMES_IMPL_H_
#define CRW_WIN_SCHEMES_IMPL_H_

#include <type_traits>

#include "common/logging.h"
#include "win/scheme.h"

namespace crw {
namespace detail {


/**
 * Oracle with unbounded windows: never traps, never transfers. Used by
 * property tests as the ground truth for depth bookkeeping, and as the
 * "no window cost at all" baseline in ablation benches.
 *
 * It still keeps WindowFile depth counters so the trace module can
 * compute window-activity metrics on oracle runs.
 */
class InfiniteScheme final : public Scheme
{
  public:
    using Scheme::Scheme;

    SchemeKind kind() const override { return SchemeKind::Infinite; }

    OpOutcome onSave(ThreadId tid) override { return doSave<true>(tid); }
    OpOutcome
    onRestore(ThreadId tid) override
    {
        return doRestore<true>(tid);
    }
    SwitchOutcome
    onSwitchIn(ThreadId from, ThreadId to) override
    {
        return doSwitchIn<true>(from, to);
    }
    void onExit(ThreadId tid) override { doExit<true>(tid); }

    template <bool Checked>
    OpOutcome
    doSave(ThreadId tid)
    {
        file_.pushFrame<Checked>(tid);
        return {};
    }

    template <bool Checked>
    OpOutcome
    doRestore(ThreadId tid)
    {
        file_.popFrame<Checked>(tid);
        return {};
    }

    template <bool Checked>
    SwitchOutcome
    doSwitchIn(ThreadId from, ThreadId to)
    {
        (void)from;
        if (file_.thread<Checked>(to).depth == 0)
            file_.pushFrame<Checked>(to); // root frame of a fresh thread
        return {};
    }

    template <bool Checked>
    void
    doExit(ThreadId tid)
    {
        file_.thread<Checked>(tid).depth = 0;
    }
};

/**
 * NS: the conventional scheme. Only the current thread ever has
 * resident windows; every context switch flushes all of them and
 * restores the scheduled thread's stack-top window. Deeper frames
 * come back one at a time through conventional underflow traps (the
 * "hidden overhead" the paper notes in §6.2).
 */
class NsScheme final : public Scheme
{
  public:
    using Scheme::Scheme;

    SchemeKind kind() const override { return SchemeKind::NS; }

    OpOutcome onSave(ThreadId tid) override { return doSave<true>(tid); }
    OpOutcome
    onRestore(ThreadId tid) override
    {
        return doRestore<true>(tid);
    }
    SwitchOutcome
    onSwitchIn(ThreadId from, ThreadId to) override
    {
        return doSwitchIn<true>(from, to);
    }
    void onExit(ThreadId tid) override { doExit<true>(tid); }

    template <bool Checked>
    OpOutcome
    doSave(ThreadId tid)
    {
        OpOutcome out;
        ThreadWindows &tw = file_.thread<Checked>(tid);
        if constexpr (Checked)
            crw_assert(tw.isResident());
        file_.pushFrame<Checked>(tid);
        const WindowIndex nt = file_.space().above<Checked>(tw.top);
        // One window must stay dead above the stack-top for the out
        // registers' overlap, so at most N-1 windows are usable.
        if (tw.resident == file_.numWindows() - 1) {
            out.trapped = true;
            out.windowsSaved = 1;
            file_.spillBottom<Checked>(tid);
        }
        if constexpr (Checked)
            crw_assert(file_.isFree(nt));
        file_.claimAsTop<Checked>(tid, nt);
        return out;
    }

    template <bool Checked>
    OpOutcome
    doRestore(ThreadId tid)
    {
        OpOutcome out;
        ThreadWindows &tw = file_.thread<Checked>(tid);
        if constexpr (Checked)
            crw_assert(tw.isResident());
        file_.popFrame<Checked>(tid);
        if (tw.depth == 0) {
            // The root frame returned; the thread is about to exit.
            file_.dropAll(tid);
            return out;
        }
        if (tw.resident >= 2) {
            file_.releaseTop<Checked>(tid);
            return out;
        }
        // Conventional underflow: the caller's window is restored
        // *below* the current one, where it lived before being spilled.
        out.trapped = true;
        out.windowsRestored = 1;
        file_.refillBelow<Checked>(tid);
        return out;
    }

    template <bool Checked>
    SwitchOutcome
    doSwitchIn(ThreadId from, ThreadId to)
    {
        SwitchOutcome out;
        if (from != kNoThread) {
            ThreadWindows &ftw = file_.thread<Checked>(from);
            out.windowsSaved = ftw.resident;
            // Flush: every resident frame goes to the memory stack.
            file_.spillAllFrames<Checked>(from);
        }
        ThreadWindows &ttw = file_.thread<Checked>(to);
        if constexpr (Checked)
            crw_assert(!ttw.isResident());
        if (ttw.depth > 0) {
            file_.fillAsTop<Checked>(to, 0);
            out.windowsRestored = 1;
        } else {
            file_.pushFrame<Checked>(to);
            file_.claimAsTop<Checked>(to, 0);
        }
        return out;
    }

    template <bool Checked>
    void
    doExit(ThreadId tid)
    {
        file_.dropAll(tid);
        file_.thread<Checked>(tid).depth = 0;
    }
};

/**
 * Common machinery of the two sharing schemes.
 */
class SharingSchemeBase : public Scheme
{
  public:
    SharingSchemeBase(WindowFile &file, PrwReclaim reclaim,
                      AllocPolicy alloc)
        : Scheme(file),
          reclaim_(reclaim),
          alloc_(alloc)
    {}

  protected:
    /**
     * Make window @p w dead so it can be claimed. If it is owned, the
     * occupant is always a stack-bottom window or an orphaned PRW
     * (paper §3.1: overflow spillage is always from the stack-bottom);
     * spill it. Returns the number of windows transferred to memory.
     */
    template <bool Checked>
    int
    evict(WindowIndex w)
    {
        switch (file_.state<Checked>(w)) {
          case WinState::Free:
            return 0;
          case WinState::Owned: {
            const ThreadId victim = file_.owner<Checked>(w);
            if constexpr (Checked)
                crw_assert(file_.bottomOf(victim) == w);
            file_.spillBottom<Checked>(victim);
            ThreadWindows &vt = file_.thread<Checked>(victim);
            if (!vt.isResident() && vt.prw != kNoWindow &&
                reclaim_ != PrwReclaim::Lazy) {
                // The victim lost its whole run: write its PRW state
                // (outs, PCs) out with it and free the slot too.
                file_.clearPrw<Checked>(victim);
                return reclaim_ == PrwReclaim::Eager ? 2 : 1;
            }
            return 1;
          }
          case WinState::Prw: {
            // An orphaned PRW of a suspended thread: it preserves that
            // thread's stack-top out registers and PCs, so evicting it
            // writes them to the thread's TCB — one transfer. Growth
            // geometry guarantees a PRW is only reached after its
            // owner's whole run was spilled.
            const ThreadId victim = file_.owner<Checked>(w);
            if constexpr (Checked)
                crw_assert(!file_.thread(victim).isResident());
            file_.clearPrw<Checked>(victim);
            return 1;
          }
        }
        crw_unreachable("bad window state");
    }

    /**
     * Shared restore logic: plain release, restore-in-place underflow,
     * or root-frame return. The scheme-specific handling of a plain
     * (non-trapping) restore — the *common* case — is reached through
     * a CRTP cast rather than a virtual hook so it inlines into the
     * replay loops' devirtualized restore bodies.
     *
     * @return outcome, with `trapped` set on the underflow-trap path.
     */
    template <typename Derived, bool Checked>
    OpOutcome
    sharedRestore(ThreadId tid)
    {
        OpOutcome out;
        ThreadWindows &tw = file_.thread<Checked>(tid);
        if constexpr (Checked)
            crw_assert(tw.isResident());
        file_.popFrame<Checked>(tid);
        if (tw.depth == 0) {
            file_.dropAll(tid);
            return out;
        }
        if (tw.resident >= 2) {
            static_cast<Derived *>(this)
                ->template releaseTopHook<Checked>(tid);
            return out;
        }
        // Underflow trap, the paper's key idea: restore the caller's
        // frame into the same window (after copying live ins to outs).
        // No spillage of anybody's window can occur here.
        out.trapped = true;
        out.windowsRestored = 1;
        file_.refillInPlace<Checked>(tid);
        return out;
    }

    PrwReclaim reclaim_;
    AllocPolicy alloc_;

    /** Find a Free window, preferring slots near @p hint. */
    WindowIndex
    findFree(WindowIndex hint) const
    {
        const int n = file_.numWindows();
        const WindowIndex start = (hint == kNoWindow) ? 0 : hint;
        for (int k = 0; k < n; ++k) {
            const WindowIndex w = file_.space().wrap(start + k);
            if (file_.isFree(w))
                return w;
        }
        crw_unreachable("no free window available for allocation");
    }

    /** True if evict(w) is legal: free, orphan PRW, or a bottom. */
    bool
    evictable(WindowIndex w) const
    {
        switch (file_.state(w)) {
          case WinState::Free:
            return true;
          case WinState::Prw:
            return !file_.thread(file_.owner(w)).isResident();
          case WinState::Owned:
            return file_.bottomOf(file_.owner(w)) == w;
        }
        return false;
    }

    /**
     * Pick the slot for a scheduled thread's new stack-top window.
     * Simple: the hint (directly above the suspended thread), as
     * evaluated in the paper. FreeSearch (§4.2 improvement): prefer a
     * free slot with a free neighbour above, then any free slot whose
     * neighbour is evictable, then fall back to the hint.
     */
    WindowIndex
    allocSlot(WindowIndex hint) const
    {
        const WindowIndex fallback =
            (hint != kNoWindow) ? hint : findFree(0);
        if (alloc_ == AllocPolicy::Simple)
            return fallback;
        const int n = file_.numWindows();
        const WindowIndex start = (hint == kNoWindow) ? 0 : hint;
        WindowIndex second_choice = kNoWindow;
        for (int k = 0; k < n; ++k) {
            const WindowIndex w = file_.space().wrap(start + k);
            if (!file_.isFree(w))
                continue;
            const WindowIndex up = file_.space().above(w);
            if (file_.isFree(up))
                return w;
            if (second_choice == kNoWindow && evictable(up))
                second_choice = w;
        }
        return second_choice != kNoWindow ? second_choice : fallback;
    }
};

/**
 * SNP: sharing without private reserved windows. The single reserved
 * (dead) window always sits immediately above the *current* thread's
 * stack-top; the suspended thread's stack-top out registers are saved
 * to / restored from its TCB on every switch (folded into the base
 * switch cost, per Table 2).
 */
class SnpScheme final : public SharingSchemeBase
{
  public:
    SnpScheme(WindowFile &file, AllocPolicy alloc)
        : SharingSchemeBase(file, PrwReclaim::Lazy, alloc)
    {}

    SchemeKind kind() const override { return SchemeKind::SNP; }

    OpOutcome onSave(ThreadId tid) override { return doSave<true>(tid); }
    OpOutcome
    onRestore(ThreadId tid) override
    {
        return doRestore<true>(tid);
    }
    SwitchOutcome
    onSwitchIn(ThreadId from, ThreadId to) override
    {
        return doSwitchIn<true>(from, to);
    }
    void onExit(ThreadId tid) override { doExit<true>(tid); }

    template <bool Checked>
    OpOutcome
    doSave(ThreadId tid)
    {
        OpOutcome out;
        ThreadWindows &tw = file_.thread<Checked>(tid);
        if constexpr (Checked)
            crw_assert(tw.isResident());
        file_.pushFrame<Checked>(tid);
        const WindowIndex nt = file_.space().above<Checked>(tw.top);
        if constexpr (Checked) // the reserved window
            crw_assert(file_.isFree(nt));
        const WindowIndex w2 = file_.space().above<Checked>(nt);
        const int spilled = evict<Checked>(w2);
        if (spilled) {
            out.trapped = true;
            out.windowsSaved = spilled;
        }
        file_.claimAsTop<Checked>(tid, nt);
        return out;
    }

    template <bool Checked>
    OpOutcome
    doRestore(ThreadId tid)
    {
        return sharedRestore<SnpScheme, Checked>(tid);
    }

    template <bool Checked>
    SwitchOutcome
    doSwitchIn(ThreadId from, ThreadId to)
    {
        SwitchOutcome out;
        if (from != kNoThread && file_.thread<Checked>(from).isResident())
            allocHint_ = file_.space().above<Checked>(
                file_.thread<Checked>(from).top);

        ThreadWindows &ttw = file_.thread<Checked>(to);
        if (ttw.isResident()) {
            // Only re-reserve the window above the scheduled thread's
            // stack-top; no window of `to` itself moves.
            out.windowsSaved +=
                evict<Checked>(file_.space().above<Checked>(ttw.top));
            return out;
        }

        // "If the newly-scheduled thread has no windows, the window
        // above the suspended thread's is allocated" (§4.5) — that is
        // exactly the old reserved window, so it is free already.
        WindowIndex w = allocSlot(allocHint_);
        if (!file_.isFree<Checked>(w))
            w = findFree(allocHint_);
        if (ttw.depth > 0) {
            file_.fillAsTop<Checked>(to, w);
            out.windowsRestored += 1;
        } else {
            file_.pushFrame<Checked>(to);
            file_.claimAsTop<Checked>(to, w);
        }
        out.windowsSaved +=
            evict<Checked>(file_.space().above<Checked>(w));
        return out;
    }

    template <bool Checked>
    void
    doExit(ThreadId tid)
    {
        allocHint_ = file_.thread<Checked>(tid).top;
        file_.dropAll(tid);
        file_.thread<Checked>(tid).depth = 0;
    }

  private:
    friend class SharingSchemeBase; // sharedRestore's CRTP callback

    template <bool Checked>
    void
    releaseTopHook(ThreadId tid)
    {
        // The vacated window becomes the new reserved window above the
        // (lowered) stack-top; the old reserved window becomes plain
        // free. Both are just Free slots in this model.
        file_.releaseTop<Checked>(tid);
    }

    WindowIndex allocHint_ = kNoWindow;
};

/**
 * SP: sharing with a private reserved window per thread. While a
 * thread runs, its PRW is only a boundary marker; when it suspends,
 * the PRW physically preserves the stack-top out registers and the
 * PCs, which is why switching to a resident thread moves nothing at
 * all (Table 2's 93–98-cycle best case).
 */
class SpScheme final : public SharingSchemeBase
{
  public:
    SpScheme(WindowFile &file, PrwReclaim reclaim, AllocPolicy alloc)
        : SharingSchemeBase(file, reclaim, alloc)
    {}

    SchemeKind kind() const override { return SchemeKind::SP; }
    bool usesPrw() const override { return true; }

    OpOutcome onSave(ThreadId tid) override { return doSave<true>(tid); }
    OpOutcome
    onRestore(ThreadId tid) override
    {
        return doRestore<true>(tid);
    }
    SwitchOutcome
    onSwitchIn(ThreadId from, ThreadId to) override
    {
        return doSwitchIn<true>(from, to);
    }
    void onExit(ThreadId tid) override { doExit<true>(tid); }

    template <bool Checked>
    OpOutcome
    doSave(ThreadId tid)
    {
        OpOutcome out;
        ThreadWindows &tw = file_.thread<Checked>(tid);
        if constexpr (Checked) {
            crw_assert(tw.isResident());
            crw_assert(tw.prw != kNoWindow);
        }
        file_.pushFrame<Checked>(tid);
        // The stack-top advances into the PRW slot (whose ins already
        // alias the old top's outs); the PRW moves one window up.
        const WindowIndex nt = tw.prw;
        const WindowIndex p2 = file_.space().above<Checked>(nt);
        file_.clearPrw<Checked>(tid);
        const int spilled = evict<Checked>(p2);
        if (spilled) {
            out.trapped = true;
            out.windowsSaved = spilled;
        }
        file_.claimAsTop<Checked>(tid, nt);
        file_.setPrw<Checked>(tid, p2);
        return out;
    }

    template <bool Checked>
    OpOutcome
    doRestore(ThreadId tid)
    {
        return sharedRestore<SpScheme, Checked>(tid);
    }

    template <bool Checked>
    SwitchOutcome
    doSwitchIn(ThreadId from, ThreadId to)
    {
        SwitchOutcome out;
        if (from != kNoThread && file_.thread<Checked>(from).isResident())
            allocHint_ = file_.space().above<Checked>(
                file_.thread<Checked>(from).prw);

        ThreadWindows &ttw = file_.thread<Checked>(to);
        if (ttw.isResident()) {
            // Best case: everything — windows, outs, PCs — is already
            // in place. Nothing moves.
            if constexpr (Checked)
                crw_assert(ttw.prw != kNoWindow);
            return out;
        }

        // The scheduled thread has no windows: allocate a new stack-top
        // window and a new PRW "above the private reserved window of
        // the suspended thread" (§4.5). Either slot may require a
        // spill — the paper's two-saves worst case (Table 2's SP 2/1).
        if (ttw.prw != kNoWindow) {
            // Orphaned PRW from before this thread was fully spilled;
            // its preserved state is carried over to the new PRW
            // (register-to-register, no memory traffic).
            file_.clearPrw<Checked>(to);
        }
        const WindowIndex w = allocSlot(allocHint_);
        out.windowsSaved += evict<Checked>(w);
        out.windowsSaved +=
            evict<Checked>(file_.space().above<Checked>(w));
        if (ttw.depth > 0) {
            file_.fillAsTop<Checked>(to, w);
            out.windowsRestored += 1;
        } else {
            file_.pushFrame<Checked>(to);
            file_.claimAsTop<Checked>(to, w);
        }
        const WindowIndex p = file_.space().above<Checked>(w);
        if constexpr (Checked)
            crw_assert(file_.isFree(p));
        file_.setPrw<Checked>(to, p);
        return out;
    }

    template <bool Checked>
    void
    doExit(ThreadId tid)
    {
        allocHint_ = file_.thread<Checked>(tid).top;
        file_.dropAll(tid);
        file_.thread<Checked>(tid).depth = 0;
    }

  private:
    friend class SharingSchemeBase; // sharedRestore's CRTP callback

    template <bool Checked>
    void
    releaseTopHook(ThreadId tid)
    {
        // The vacated top slot already holds the new top's outs (they
        // were the callee's ins), so it becomes the PRW with no copy;
        // the old PRW becomes free (§4.1).
        file_.clearPrw<Checked>(tid);
        ThreadWindows &tw = file_.thread<Checked>(tid);
        const WindowIndex vacated = tw.top;
        file_.releaseTop<Checked>(tid);
        file_.setPrw<Checked>(tid, vacated);
    }

    WindowIndex allocHint_ = kNoWindow;
};

/**
 * The one SchemeKind -> concrete class switch: calls
 * fn(std::type_identity<SchemeT>{}) with @p kind's class, so a caller
 * instantiates its fast path per scheme without a switch of its own.
 */
template <typename Fn>
void
visitSchemeClass(SchemeKind kind, Fn &&fn)
{
    switch (kind) {
      case SchemeKind::NS:
        return fn(std::type_identity<NsScheme>{});
      case SchemeKind::SNP:
        return fn(std::type_identity<SnpScheme>{});
      case SchemeKind::SP:
        return fn(std::type_identity<SpScheme>{});
      case SchemeKind::Infinite:
        return fn(std::type_identity<InfiniteScheme>{});
    }
    crw_unreachable("bad scheme kind");
}

} // namespace detail
} // namespace crw

#endif // CRW_WIN_SCHEMES_IMPL_H_
