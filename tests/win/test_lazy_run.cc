/**
 * @file
 * The lazy run (win/lazy_run.h): under SNP and SP both replay views
 * keep the running thread's plain saves and restores as an offset and
 * write it to the window file only before a switch, an exit or a
 * trap, at the end of each tape drain and at the end of the run. The
 * replay net compares end-of-run metrics only, so a materialization
 * slip that leaves the counts unchanged would pass it; this suite
 * compares the window state itself.
 *
 * Seeded scripts of saves, restores, switches and exits drive, for
 * every PRW reclamation × allocation policy and windows 4–8 and 24:
 *
 *  - a FastEngineView and the checked oracle (WindowEngine members
 *    with checkInvariants on), compared slot for slot and
 *    ThreadWindows for ThreadWindows after every switch;
 *  - a BatchedEngineView with one lane per window count and a short
 *    tape, compared lane by lane with its oracles after every drain.
 *
 * Each lazy file must also pass checkInvariants there, and both views
 * must end with every counter and the clock equal to the oracle's.
 * The scripts recurse deeper than the window count (own-bottom
 * eviction), return from the root frame inside a run, and, under
 * lazy PRW reclamation, leave orphaned PRWs; each suite checks that
 * its scripts reached those cases.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/win/engine_test_util.h"
#include "win/engine.h"
#include "win/engine_batch.h"
#include "win/engine_fast.h"
#include "win/schemes_impl.h"

namespace crw {
namespace {

struct Op
{
    enum class Kind : std::uint8_t { Save, Restore, Switch, Exit };
    Kind kind;
    ThreadId to = 0; ///< switch target
};

constexpr int kThreads = 4;
constexpr Cycles kCharge = 3; ///< charged after every op
const int kWindowCounts[] = {4, 5, 6, 7, 8, 24};

/**
 * A seeded script over kThreads threads for a file of @p windows:
 * each thread walks toward a target depth redrawn now and then from
 * [1, 2·windows + 4], so runs grow past the file; it switches away at
 * random, and sometimes exits — after unwinding to its root frame and
 * returning from it, or straight from its current depth. An exited
 * thread is fresh again the next time it is switched to.
 */
std::vector<Op>
makeScript(int windows, std::size_t length, std::uint64_t seed)
{
    using Kind = Op::Kind;
    Rng rng(seed);
    std::vector<int> depth(kThreads, 0);
    std::vector<int> target(kThreads, 1);
    std::vector<Op> out;
    ThreadId cur = kNoThread;
    const auto switchTo = [&](ThreadId to) {
        out.push_back({Kind::Switch, to});
        cur = to;
        int &d = depth[static_cast<std::size_t>(cur)];
        if (d == 0)
            d = 1; // root frame of a fresh thread
    };
    while (out.size() < length) {
        if (cur == kNoThread) {
            switchTo(static_cast<ThreadId>(rng.nextBelow(kThreads)));
            continue;
        }
        const auto c = static_cast<std::size_t>(cur);
        if (rng.nextBool(0.04)) {
            const auto hop = static_cast<ThreadId>(
                1 + rng.nextBelow(kThreads - 1));
            switchTo((cur + hop) % kThreads);
        } else if (rng.nextBool(0.004)) {
            if (rng.nextBool(0.6))
                for (; depth[c] > 0; --depth[c])
                    out.push_back({Kind::Restore});
            out.push_back({Kind::Exit});
            depth[c] = 0;
            cur = kNoThread;
        } else {
            if (rng.nextBool(0.03))
                target[c] = 1 + static_cast<int>(rng.nextBelow(
                                    static_cast<std::uint64_t>(
                                        2 * windows + 4)));
            const bool up = depth[c] < target[c] ? rng.nextBool(0.85)
                                                 : rng.nextBool(0.15);
            if (up || depth[c] <= 1) {
                out.push_back({Kind::Save});
                ++depth[c];
            } else {
                out.push_back({Kind::Restore});
                --depth[c];
            }
        }
    }
    return out;
}

/** What a script made the oracle go through, for the coverage
 *  checks. */
struct Coverage
{
    int deeperThanFile = 0; ///< ops at a depth past the window count
    int rootReturnsInRun = 0; ///< root-frame returns after a restore
    int orphanedPrws = 0;   ///< ops after which a PRW was orphaned
};

/** Every slot and ThreadWindows of @p got equals @p want's. */
testing::AssertionResult
sameFile(const WindowFile &got, const WindowFile &want)
{
    for (WindowIndex w = 0; w < want.numWindows(); ++w) {
        if (got.state(w) != want.state(w) ||
            got.owner(w) != want.owner(w))
            return testing::AssertionFailure()
                   << "slot " << w << ": state "
                   << static_cast<int>(got.state(w)) << " owner "
                   << got.owner(w) << ", oracle state "
                   << static_cast<int>(want.state(w)) << " owner "
                   << want.owner(w);
    }
    for (ThreadId tid = 0; tid < kThreads; ++tid) {
        const ThreadWindows &g = got.thread(tid);
        const ThreadWindows &o = want.thread(tid);
        if (g.top != o.top || g.resident != o.resident ||
            g.prw != o.prw || g.depth != o.depth)
            return testing::AssertionFailure()
                   << "thread " << tid << ": top " << g.top
                   << " resident " << g.resident << " prw " << g.prw
                   << " depth " << g.depth << ", oracle top " << o.top
                   << " resident " << o.resident << " prw " << o.prw
                   << " depth " << o.depth;
    }
    return testing::AssertionSuccess();
}

/** Clock, counters, switch cases and window state all equal. */
void
expectSameEngine(const WindowEngine &got, const WindowEngine &want,
                 const std::string &ctx)
{
    expectEnginesIdentical(got, want, {0, 1, 2, 3}, ctx);
    EXPECT_TRUE(sameFile(got.file(), want.file())) << ctx;
}

std::unique_ptr<WindowEngine>
makeEngine(SchemeKind scheme, int windows, PrwReclaim prw,
           AllocPolicy alloc, bool oracle)
{
    EngineConfig ec;
    ec.scheme = scheme;
    ec.numWindows = windows;
    ec.prwReclaim = prw;
    ec.allocPolicy = alloc;
    ec.checkInvariants = oracle;
    auto e = std::make_unique<WindowEngine>(ec);
    for (ThreadId tid = 0; tid < kThreads; ++tid)
        e->addThread(tid);
    return e;
}

/** Apply @p op to the oracle, charge it, and note what it covered. */
void
applyToOracle(WindowEngine &oracle, const Op &op, bool after_restore,
              Coverage &cov)
{
    switch (op.kind) {
      case Op::Kind::Save: oracle.save(); break;
      case Op::Kind::Restore: oracle.restore(); break;
      case Op::Kind::Switch: oracle.contextSwitch(op.to); break;
      case Op::Kind::Exit: oracle.threadExit(); break;
    }
    oracle.charge(kCharge);
    const ThreadId cur = oracle.current();
    if (cur != kNoThread) {
        const int depth = oracle.depthOf(cur);
        cov.deeperThanFile += depth > oracle.numWindows();
        cov.rootReturnsInRun +=
            op.kind == Op::Kind::Restore && depth == 0 && after_restore;
    }
    for (ThreadId tid = 0; tid < kThreads; ++tid) {
        const ThreadWindows &tw = oracle.file().thread(tid);
        if (!tw.isResident() && tw.prw != kNoWindow) {
            ++cov.orphanedPrws;
            break;
        }
    }
}

/** The script's tallies: what a view's finish() folds in. */
ScriptTallies
talliesOf(const std::vector<Op> &script)
{
    ScriptTallies t;
    t.saves.assign(kThreads, 0);
    t.restores.assign(kThreads, 0);
    ThreadId cur = kNoThread;
    for (const Op &op : script) {
        switch (op.kind) {
          case Op::Kind::Save:
            ++t.saves[static_cast<std::size_t>(cur)];
            break;
          case Op::Kind::Restore:
            ++t.restores[static_cast<std::size_t>(cur)];
            break;
          case Op::Kind::Switch: cur = op.to; break;
          case Op::Kind::Exit: cur = kNoThread; break;
        }
        t.charges += kCharge;
    }
    return t;
}

struct Variant
{
    SchemeKind scheme;
    PrwReclaim prw;
    AllocPolicy alloc;
};

/** SNP under both allocation policies (it has no PRW), SP under
 *  every reclamation × allocation policy. */
std::vector<Variant>
sharingVariants()
{
    std::vector<Variant> out;
    for (const AllocPolicy alloc :
         {AllocPolicy::Simple, AllocPolicy::FreeSearch}) {
        out.push_back({SchemeKind::SNP, PrwReclaim::Lazy, alloc});
        for (const PrwReclaim prw :
             {PrwReclaim::Lazy, PrwReclaim::Eager, PrwReclaim::EagerFolded})
            out.push_back({SchemeKind::SP, prw, alloc});
    }
    return out;
}

std::string
contextOf(const Variant &v, int windows)
{
    const std::string w =
        windows > 0 ? "/w" + std::to_string(windows) : "";
    return std::string(schemeName(v.scheme)) + w + "/prw=" +
           prwReclaimName(v.prw) + "/alloc=" + allocPolicyName(v.alloc);
}

constexpr std::size_t kScriptOps = 12000;

TEST(LazyRun, SingleEngineViewMatchesTheOracleAtEverySwitch)
{
    for (const Variant &v : sharingVariants()) {
        Coverage cov;
        for (const int windows : kWindowCounts) {
            const std::string ctx = contextOf(v, windows);
            const std::vector<Op> script =
                makeScript(windows, kScriptOps, 1000 + windows);
            const ScriptTallies tallies = talliesOf(script);
            auto oracle = makeEngine(v.scheme, windows, v.prw, v.alloc,
                                     true);
            auto lazy = makeEngine(v.scheme, windows, v.prw, v.alloc,
                                   false);
            detail::visitSchemeClass(v.scheme, [&](auto scheme_tag) {
                FastEngineView<typename decltype(scheme_tag)::type> view(
                    *lazy, tallies);
                bool after_restore = false;
                for (std::size_t i = 0; i < script.size(); ++i) {
                    const Op &op = script[i];
                    applyToOracle(*oracle, op, after_restore, cov);
                    after_restore = op.kind == Op::Kind::Restore;
                    switch (op.kind) {
                      case Op::Kind::Save: view.save(); break;
                      case Op::Kind::Restore: view.restore(); break;
                      case Op::Kind::Switch: view.contextSwitch(op.to); break;
                      case Op::Kind::Exit: view.threadExit(); break;
                    }
                    if (op.kind != Op::Kind::Switch)
                        continue;
                    ASSERT_TRUE(sameFile(lazy->file(), oracle->file()))
                        << ctx << " after op " << i;
                    lazy->file().checkInvariants(v.scheme ==
                                                 SchemeKind::SP);
                }
                view.finish();
            });
            expectSameEngine(*lazy, *oracle, ctx + " at the end");
        }
        const std::string ctx = contextOf(v, 0);
        EXPECT_GT(cov.deeperThanFile, 0) << ctx;
        EXPECT_GT(cov.rootReturnsInRun, 0) << ctx;
        if (v.scheme == SchemeKind::SP && v.prw == PrwReclaim::Lazy) {
            EXPECT_GT(cov.orphanedPrws, 0) << ctx;
        }
    }
}

TEST(LazyRun, LockstepLanesMatchTheirOraclesAfterEveryDrain)
{
    // One lane per window count; a tape of kTape records drains at
    // arbitrary points of a run, so each drain materializes a
    // mid-run offset.
    constexpr std::size_t kTape = 7;
    const std::vector<Op> script = makeScript(8, kScriptOps, 77);
    const ScriptTallies tallies = talliesOf(script);
    for (const Variant &v : sharingVariants()) {
        const std::string ctx = contextOf(v, 0);
        std::vector<std::unique_ptr<WindowEngine>> lanes;
        std::vector<std::unique_ptr<WindowEngine>> oracles;
        for (const int windows : kWindowCounts) {
            lanes.push_back(
                makeEngine(v.scheme, windows, v.prw, v.alloc, false));
            oracles.push_back(
                makeEngine(v.scheme, windows, v.prw, v.alloc, true));
        }
        Coverage cov;
        detail::visitSchemeClass(v.scheme, [&](auto scheme_tag) {
            BatchedEngineView<typename decltype(scheme_tag)::type> view(
                lanes, tallies, kTape);
            bool after_restore = false;
            for (std::size_t i = 0; i < script.size(); ++i) {
                const Op &op = script[i];
                for (const auto &oracle : oracles)
                    applyToOracle(*oracle, op, after_restore, cov);
                after_restore = op.kind == Op::Kind::Restore;
                switch (op.kind) {
                  case Op::Kind::Save: view.save(); break;
                  case Op::Kind::Restore: view.restore(); break;
                  case Op::Kind::Switch: view.contextSwitch(op.to); break;
                  case Op::Kind::Exit: view.threadExit(); break;
                }
                if ((i + 1) % kTape != 0)
                    continue;
                for (std::size_t l = 0; l < lanes.size(); ++l) {
                    ASSERT_TRUE(
                        sameFile(lanes[l]->file(), oracles[l]->file()))
                        << ctx << " lane w" << kWindowCounts[l]
                        << " after op " << i;
                    lanes[l]->file().checkInvariants(v.scheme ==
                                                     SchemeKind::SP);
                }
            }
            view.finish();
        });
        for (std::size_t l = 0; l < lanes.size(); ++l)
            expectSameEngine(*lanes[l], *oracles[l],
                             ctx + " lane w" +
                                 std::to_string(kWindowCounts[l]) +
                                 " at the end");
        EXPECT_GT(cov.deeperThanFile, 0) << ctx;
        EXPECT_GT(cov.rootReturnsInRun, 0) << ctx;
        if (v.scheme == SchemeKind::SP && v.prw == PrwReclaim::Lazy) {
            EXPECT_GT(cov.orphanedPrws, 0) << ctx;
        }
    }
}

} // namespace
} // namespace crw
