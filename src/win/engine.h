/**
 * @file
 * WindowEngine: the event-level simulator of cyclic register windows
 * shared among threads.
 *
 * The runtime (src/rt) drives it with four events — save, restore,
 * context switch, thread exit — exactly the points where the paper's
 * modified SPARC trap handlers run. The engine delegates window motion
 * to the configured Scheme, charges cycles through the CostModel, and
 * maintains the statistics the evaluation section reports (trap
 * probabilities, per-switch transfer counts, cycle decomposition).
 */

#ifndef CRW_WIN_ENGINE_H_
#define CRW_WIN_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "win/cost_model.h"
#include "win/scheme.h"
#include "win/window_file.h"

namespace crw {

/** Construction parameters of a WindowEngine. */
struct EngineConfig
{
    int numWindows = 8;
    SchemeKind scheme = SchemeKind::SP;
    CostModel cost = CostModel::paperTable2();
    /** SP only: what happens to a fully-spilled thread's PRW. */
    PrwReclaim prwReclaim = PrwReclaim::Eager;
    /** Sharing schemes: placement of a windowless scheduled thread. */
    AllocPolicy allocPolicy = AllocPolicy::Simple;
    /** Run the full structural invariant check after every event. */
    bool checkInvariants = false;
};

/**
 * Canonical encoding of every EngineConfig field that affects the
 * simulated results, e.g. "SP|w8|prw=eager|alloc=simple|cm=<...>".
 * checkInvariants is deliberately excluded: it can only abort a run,
 * never change its numbers, so configs differing only in it are the
 * same point for caching purposes (see bench/result_cache.h).
 */
std::string engineConfigKey(const EngineConfig &config);

/**
 * Hook interface for trace/metric collectors. Callbacks fire after the
 * corresponding event has been applied (file state and depth already
 * updated, cycles charged).
 */
class EngineObserver
{
  public:
    virtual ~EngineObserver() = default;
    virtual void onSave(ThreadId tid, int depth) { (void)tid; (void)depth; }
    virtual void onRestore(ThreadId tid, int depth)
    {
        (void)tid;
        (void)depth;
    }
    /**
     * @param begin Simulated time when the switch started (the end of
     *        the suspended thread's run).
     * @param end Time when the scheduled thread starts running (begin
     *        plus the switch cost).
     */
    virtual void onSwitch(ThreadId from, ThreadId to, int to_depth,
                          Cycles begin, Cycles end)
    {
        (void)from;
        (void)to;
        (void)to_depth;
        (void)begin;
        (void)end;
    }
    virtual void onExit(ThreadId tid) { (void)tid; }

    // Timed variants for cycle-attribution collectors (crw::obs):
    // the same events, with the exact simulated-time span the engine
    // charged. Default no-ops so existing observers are unaffected.

    /** Save span: [begin, end] includes any overflow handling. */
    virtual void onSaveTimed(ThreadId tid, int depth, Cycles begin,
                             Cycles end)
    {
        (void)tid;
        (void)depth;
        (void)begin;
        (void)end;
    }
    /** Restore span: [begin, end] includes any underflow handling. */
    virtual void onRestoreTimed(ThreadId tid, int depth, Cycles begin,
                                Cycles end)
    {
        (void)tid;
        (void)depth;
        (void)begin;
        (void)end;
    }
    /**
     * Window trap handler span, nested inside the triggering
     * save/restore span (fires before the matching on*Timed hook).
     * @param overflow true for overflow, false for underflow.
     * @param windows_moved Windows spilled (overflow) or restored
     *        (underflow) by the handler.
     */
    virtual void onTrap(ThreadId tid, bool overflow, int windows_moved,
                        Cycles begin, Cycles end)
    {
        (void)tid;
        (void)overflow;
        (void)windows_moved;
        (void)begin;
        (void)end;
    }
};

/** Per-thread counters the benches report (paper Table 1). */
struct ThreadCounters
{
    std::uint64_t saves = 0;
    std::uint64_t restores = 0;
    std::uint64_t switchesIn = 0;
};

/**
 * What a run's thread scripts fix whatever the engine: every thread
 * runs its whole script, so its save and restore counts and the sum
 * of the charges are properties of the trace, not of the replay
 * point. FlatTrace counts them once; both replay views fold them into
 * every engine when the run ends (LaneStep::fold, win/lane_step.h)
 * instead of counting them per event.
 */
struct ScriptTallies
{
    std::vector<std::uint64_t> saves;    ///< per thread (ThreadId)
    std::vector<std::uint64_t> restores; ///< per thread (ThreadId)
    Cycles charges = 0;                  ///< sum of Charge operands
};

template <typename SchemeT>
class LaneStep;

/**
 * The window-management simulator.
 *
 * Cycle accounting: now() advances by compute charges plus every
 * window-management cost. The decomposition (compute / call-return /
 * trap / switch cycles) is exact and is exposed through stats().
 *
 * Dispatch: the member event functions go through the virtual Scheme
 * interface — this is the *oracle* path, the reference semantics every
 * specialization is differentially tested against. The replay views
 * step the engine through LaneStep (win/lane_step.h), the same event
 * bodies with the concrete scheme class resolved at compile time; it
 * accesses the engine's internals as the one friend below and must
 * stay bit-identical to the oracle (the replay net,
 * tests/bench/test_replay_net.cc, and tests/win/test_lazy_run.cc).
 */
class WindowEngine
{
  public:
    explicit WindowEngine(const EngineConfig &config);
    ~WindowEngine();

    WindowEngine(const WindowEngine &) = delete;
    WindowEngine &operator=(const WindowEngine &) = delete;

    /** Register a thread id before it can be switched to. */
    void addThread(ThreadId tid);

    /** The running thread executes a `save` (procedure entry). */
    void save();

    /** The running thread executes a `restore` (procedure return). */
    void restore();

    /**
     * Switch from the running thread (if any) to @p to. A fresh
     * thread's root frame is created here.
     */
    void contextSwitch(ThreadId to);

    /**
     * The running thread terminates. Its windows die without memory
     * traffic; the caller must contextSwitch() to another thread (or
     * stop the simulation) afterwards.
     */
    void threadExit();

    /** Charge @p cycles of ordinary computation (hot; kept inline). */
    void
    charge(Cycles cycles)
    {
        hot_.cyclesCompute += cycles;
        now_ += cycles;
    }

    ThreadId current() const { return current_; }
    Cycles now() const { return now_; }
    int numWindows() const { return file_.numWindows(); }
    SchemeKind scheme() const { return kind_; }

    /** True if @p tid has at least one window in the file. */
    bool
    isResident(ThreadId tid) const
    {
        // Inline: the replay wake path consults residency on every
        // working-set queue-placement decision.
        return file_.hasThread(tid) && file_.thread(tid).isResident();
    }

    /** Current total call depth of @p tid. */
    int depthOf(ThreadId tid) const { return file_.thread(tid).depth; }

    const WindowFile &file() const { return file_; }
    const CostModel &costModel() const { return cost_; }

    StatGroup &stats()
    {
        syncStats();
        return stats_;
    }
    const StatGroup &stats() const
    {
        syncStats();
        return stats_;
    }

    const ThreadCounters &threadCounters(ThreadId tid) const;

    /** Install a metrics observer (nullptr to remove). Not owned. */
    void setObserver(EngineObserver *observer) { observer_ = observer; }

    /** The installed observer (nullptr when none). */
    EngineObserver *observer() const { return observer_; }

    /** Whether postEventCheck() runs the full invariant check. */
    bool checkInvariants() const { return checkInvariants_; }

    /**
     * Histogram of context switches by (windows saved, windows
     * restored) — the shape of the paper's Table 2 usage. Materialized
     * from the flat hot-path table; zero cells are omitted.
     */
    std::map<std::pair<int, int>, std::uint64_t> switchCases() const;

    /** Count of switches that saved/restored exactly that many. */
    std::uint64_t switchCaseCount(int saved, int restored) const;

  private:
    template <typename SchemeT>
    friend class LaneStep;

    void postEventCheck();
    void syncStats() const;

    WindowFile file_;
    std::unique_ptr<Scheme> scheme_;
    /** == scheme_->kind(); cached for the hot static dispatch. */
    SchemeKind kind_;
    CostModel cost_;
    bool checkInvariants_;

    ThreadId current_ = kNoThread;
    Cycles now_ = 0;
    EngineObserver *observer_ = nullptr;

    /** Mutable: syncStats() publishes the hot counters on read. */
    mutable StatGroup stats_;
    std::vector<ThreadCounters> threadCounters_;
    /**
     * Which tids have been addThread()ed. Parallel to threadCounters_
     * (which resize() zero-fills for id gaps, so its size alone
     * cannot distinguish "never registered" from "registered").
     */
    std::vector<std::uint8_t> registered_;

    /**
     * Switch-case histogram, probed on *every* context switch. The
     * flat array covers every case a window file up to 32 windows can
     * produce (NS flushing a full-depth thread moves at most N - 1
     * windows), so the hot path is one flat-array increment; cases
     * beyond it (exotic window counts) fall into the overflow map.
     * Sizing the array past the sweep's largest window count matters:
     * at the old threshold of 8, every switch that flushed a deep
     * thread paid a std::map tree walk — measurably the hottest part
     * of a deep-window replay's switch body.
     */
    static constexpr int kSmallSwitchCase = 33;
    std::uint64_t switchCasesSmall_[kSmallSwitchCase]
                                   [kSmallSwitchCase] = {};
    std::map<std::pair<int, int>, std::uint64_t> switchCasesLarge_;

    /**
     * Hot-path counters, bumped on every simulated event. Kept in one
     * contiguous struct (one or two cache lines) rather than behind
     * StatGroup's per-name map nodes; syncStats() publishes them into
     * stats_ whenever the group is read.
     */
    struct HotCounters
    {
        std::uint64_t saves = 0;
        std::uint64_t restores = 0;
        std::uint64_t ovfTraps = 0;
        std::uint64_t unfTraps = 0;
        std::uint64_t ovfSpilled = 0;
        std::uint64_t unfRestored = 0;
        std::uint64_t cyclesTrap = 0;
        std::uint64_t cyclesCallret = 0;
        std::uint64_t cyclesCompute = 0;
        std::uint64_t cyclesSwitch = 0;
        std::uint64_t switches = 0;
        std::uint64_t switchSaved = 0;
        std::uint64_t switchRestored = 0;
    };
    HotCounters hot_;
    Distribution *dSwitchCost_;
};

} // namespace crw

#endif // CRW_WIN_ENGINE_H_
