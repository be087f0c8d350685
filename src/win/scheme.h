/**
 * @file
 * Strategy interface for the three window-management schemes.
 *
 * Paper §4.5 defines the evaluated schemes:
 *
 *  NS  — non-sharing (conventional): all active windows of the
 *        suspended thread are flushed on a context switch.
 *  SNP — sharing without private reserved windows: threads' window
 *        runs coexist; one global reserved (dead) window sits above
 *        the current thread's stack-top.
 *  SP  — sharing with a private reserved window (PRW) per resident
 *        thread, located immediately above that thread's stack-top.
 *
 * Both sharing schemes use the paper's §3.2 underflow handling: the
 * caller's window is restored *in place* (into the window the callee
 * just vacated) after copying the live in registers to the outs, so an
 * underflow never spills anybody's window. Overflow spillage is always
 * from a stack-bottom window (or an orphaned PRW), which keeps every
 * thread's resident run a contiguous top-fragment of its real stack.
 */

#ifndef CRW_WIN_SCHEME_H_
#define CRW_WIN_SCHEME_H_

#include <memory>

#include "common/types.h"
#include "win/cost_model.h"
#include "win/window_file.h"

namespace crw {

/**
 * What happens to a thread's private reserved window (SP scheme) when
 * the last window of its run is spilled by somebody's growth. The
 * paper does not pin this down; the default (Eager) reproduces its
 * Figure 11 shapes, and `crw-bench ablation` compares all three.
 */
enum class PrwReclaim {
    /** The orphaned PRW keeps its slot until growth reaches it; its
     *  eviction is a separate transfer. */
    Lazy,
    /** The PRW state (outs, PCs) is written out together with the
     *  thread's last window, as one extra window transfer. */
    Eager,
    /** As Eager, but the 10 extra registers ride along with the last
     *  window's transfer at no additional charge (optimistic). */
    EagerFolded,
};

/**
 * How a sharing scheme places the stack-top window of a scheduled
 * thread that has no windows (paper §4.2). Simple is what the paper
 * evaluates ("we have only considered the simple allocation scheme");
 * FreeSearch is the improvement it suggests may be "worth the extra
 * cost" — used by `crw-bench ablation`.
 */
enum class AllocPolicy {
    /** Allocate directly above the suspended thread's windows (its
     *  reserved window / PRW), evicting whatever is in the way. */
    Simple,
    /** Prefer a free window (ideally with a free neighbour above) and
     *  fall back to Simple when none qualifies. */
    FreeSearch,
};

/** Canonical short name ("lazy" / "eager" / "eager-folded"). */
const char *prwReclaimName(PrwReclaim reclaim);

/** Canonical short name ("simple" / "free-search"). */
const char *allocPolicyName(AllocPolicy alloc);

/** What a save/restore instruction did, for cost/stat accounting. */
struct OpOutcome
{
    bool trapped = false;       ///< a window trap was taken
    int windowsSaved = 0;       ///< windows written to the memory stack
    int windowsRestored = 0;    ///< windows read back from memory
};

/** What a context switch moved. */
struct SwitchOutcome
{
    int windowsSaved = 0;
    int windowsRestored = 0;
};

/** Result of folding a run of identical save or restore ops. */
struct RunFold
{
    int newResident = 0; ///< resident count after the whole run
    int traps = 0;       ///< window traps taken inside the run
};

/**
 * Closed form of k consecutive NS saves by one resident thread
 * (no switch, exit, or wake checkpoint in between). Per op: resident
 * below the usable ceiling claims a fresh window; at the ceiling
 * (N - 1 — one window stays dead for the outs overlap) the op spills
 * the stack-bottom and re-claims, so resident saturates and every
 * further save is one overflow trap spilling exactly one window:
 *
 *   r' = min(r + k, N - 1),   traps = k - (r' - r)
 *
 * The stack-top always moves k steps in the save direction. This is
 * the scalar oracle of the SoA save-run kernels (win/engine_batch.h):
 * tests/win/test_lane_soa.cc pins every kernel flavor against k
 * iterated single-step folds, and the replay net
 * (tests/bench/test_replay_net.cc) pins the SoA pass against the
 * scheme bodies.
 */
inline RunFold
nsSaveRunFold(int resident, int usable_cap, int k)
{
    RunFold f;
    const int grown = resident + k;
    f.newResident = grown < usable_cap ? grown : usable_cap;
    f.traps = k - (f.newResident - resident);
    return f;
}

/**
 * Closed form of k consecutive restores by one resident thread whose
 * depth stays positive throughout (the run builder peels the final
 * root-frame restore off separately — it drops all windows and never
 * traps). Per op: resident >= 2 releases the top; at resident == 1
 * the op is an underflow trap restoring exactly one window — in place
 * for the sharing schemes, into the window below for NS — and
 * resident stays 1 either way:
 *
 *   r' = max(r - k, 1),   traps = k - (r - r')
 *
 * Identical for NS, SNP and SP: the schemes differ in *which slots*
 * the releases free (NS/SNP free the vacated top, SP walks its PRW
 * behind the top), not in the release/trap split. The stack-top
 * always moves k steps in the restore direction.
 */
inline RunFold
restoreRunFold(int resident, int k)
{
    RunFold f;
    const int shrunk = resident - k;
    f.newResident = shrunk > 1 ? shrunk : 1;
    f.traps = k - (resident - f.newResident);
    return f;
}

/**
 * One window-management policy operating on a shared WindowFile.
 *
 * The engine guarantees: onSave/onRestore are only invoked for the
 * current thread; onSwitchIn(from, to) is invoked with from == the
 * current thread (or kNoThread at simulation start) and to != from;
 * onExit only for the current thread.
 */
class Scheme
{
  public:
    explicit Scheme(WindowFile &file)
        : file_(file)
    {}
    virtual ~Scheme() = default;

    Scheme(const Scheme &) = delete;
    Scheme &operator=(const Scheme &) = delete;

    virtual SchemeKind kind() const = 0;

    /** Procedure call: a `save` executed by @p tid. */
    virtual OpOutcome onSave(ThreadId tid) = 0;

    /** Procedure return: a `restore` executed by @p tid. */
    virtual OpOutcome onRestore(ThreadId tid) = 0;

    /** Context switch; performs all window motion it implies. */
    virtual SwitchOutcome onSwitchIn(ThreadId from, ThreadId to) = 0;

    /** Current thread terminates; its windows die without traffic. */
    virtual void onExit(ThreadId tid) = 0;

    /** Whether PRW invariants apply (used by the invariant checker). */
    virtual bool usesPrw() const { return false; }

  protected:
    WindowFile &file_;
};

/** Factory for the scheme implementations in schemes.cc. */
std::unique_ptr<Scheme>
makeScheme(SchemeKind kind, WindowFile &file,
           PrwReclaim reclaim = PrwReclaim::Eager,
           AllocPolicy alloc = AllocPolicy::Simple);

} // namespace crw

#endif // CRW_WIN_SCHEME_H_
