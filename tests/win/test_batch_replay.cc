/**
 * @file
 * What the replay net (tests/bench/test_replay_net.cc) does not
 * sweep: the driver's refusal of a batch the static rule forbids
 * (lockstepBatchable), the follower pass it reports, Priority's
 * reduction to FIFO on an all-zero-priority trace, and the lockstep
 * view's four-byte op tape (DESIGN.md §14), which must carry thread
 * ids across the whole int16 range and drain through the followers
 * whenever it fills, without changing a lane.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "tests/win/engine_test_util.h"
#include "tests/win/replay_test_util.h"
#include "tests/win/simd_test_util.h"
#include "trace/replay_batch.h"
#include "trace/run_metrics.h"
#include "win/engine_batch.h"
#include "win/simd.h"

namespace crw {
namespace {

/** The oracle's metrics at one point of @p trace. */
RunMetrics
replayOnce(const EventTrace &trace, const Variant &v)
{
    return legacyOracle(trace, configOf(v), v.policy).metrics;
}

/**
 * The static rule at the driver: a sharing scheme under a policy that
 * reads residency may not batch wider than one lane — its wakes would
 * depend on each lane's window count — so the constructor refuses the
 * batch, naming it. The same point alone is a legal width-1 batch.
 */
TEST(BatchReplay, DriverRefusesWideSharingBatchUnderResidencyPolicies)
{
    for (const SchemeKind scheme : {SchemeKind::SNP, SchemeKind::SP}) {
        for (const SchedPolicy policy :
             {SchedPolicy::WorkingSet, SchedPolicy::WorkingSetAged}) {
            EXPECT_FALSE(lockstepBatchable(scheme, policy));
            const Variant v4{scheme, 4, policy};
            Variant v8 = v4;
            v8.windows = 8;
            try {
                BatchedReplayDriver batch(smallSpellTrace(),
                                          {configOf(v4), configOf(v8)},
                                          policy, &smallSpellFlat());
                ADD_FAILURE() << "accepted a two-lane "
                              << schemeName(scheme) << "/"
                              << policyName(policy) << " batch";
            } catch (const FatalError &e) {
                const std::string what = e.what();
                EXPECT_NE(what.find("batch of 2"), std::string::npos)
                    << what;
                EXPECT_NE(what.find(policyName(policy)),
                          std::string::npos)
                    << what;
            }

            BatchedReplayDriver solo(smallSpellTrace(), {configOf(v4)},
                                     policy, &smallSpellFlat());
            EXPECT_TRUE(solo.run());
            EXPECT_TRUE(metricsBitIdentical(
                legacyOracle(smallSpellTrace(), configOf(v4), policy)
                    .metrics,
                solo.metrics(0)))
                << schemeName(scheme) << "/" << policyName(policy);
        }
    }
}

/**
 * The published follower pass must be the one actually dispatched
 * (replay.simd_path feeds off BatchedReplayDriver::simdPath): NS takes
 * the SoA pass at the effective tier (the scalar tier is the per-lane
 * pass), and the sharing schemes report Scalar on every tier — they
 * have no SoA pass.
 */
TEST(BatchReplay, DriverReportsDispatchedSimdPath)
{
    const auto runBatch = [](SchemeKind scheme) {
        const Variant v{scheme, 8, SchedPolicy::Fifo};
        const std::vector<EngineConfig> configs(3, configOf(v));
        BatchedReplayDriver batch(smallSpellTrace(), configs, v.policy,
                                  &smallSpellFlat());
        EXPECT_TRUE(batch.run()) << schemeName(scheme);
        return batch.simdPath();
    };
    EXPECT_EQ(runBatch(SchemeKind::NS), effectiveSimdTier());
    for (const SimdTier tier : hostTiers()) {
        const ScopedTier pin(tier);
        EXPECT_EQ(runBatch(SchemeKind::NS), tier);
        EXPECT_EQ(runBatch(SchemeKind::SNP), SimdTier::Scalar)
            << simdTierName(tier);
        EXPECT_EQ(runBatch(SchemeKind::SP), SimdTier::Scalar)
            << simdTierName(tier);
    }
}

/**
 * Priority's reduction contract: on an all-zero-priority trace (every
 * spell capture) PRI is FIFO exactly — same level, same ring, same
 * order — so legacy result-cache semantics carry over unchanged. On a
 * trace with real priorities it must actually reorder the schedule.
 */
TEST(BatchReplay, PriorityReducesToFifoWithoutPrioritiesOnly)
{
    const Variant fifo{SchemeKind::SP, 8, SchedPolicy::Fifo};
    Variant pri = fifo;
    pri.policy = SchedPolicy::Priority;

    // RunMetrics names its own policy, so normalize that identity
    // field: what must (or must not) coincide is the schedule-derived
    // remainder.
    RunMetrics priSpell = replayOnce(smallSpellTrace(), pri);
    priSpell.policy = SchedPolicy::Fifo;
    EXPECT_TRUE(
        metricsBitIdentical(replayOnce(smallSpellTrace(), fifo), priSpell));

    static const EventTrace synth =
        generateSynthTrace(prioritizedSynthSpec());
    RunMetrics priSynth = replayOnce(synth, pri);
    priSynth.policy = SchedPolicy::Fifo;
    EXPECT_FALSE(metricsBitIdentical(replayOnce(synth, fifo), priSynth));
}

/** One engine op of a generated lockstep script. */
struct ScriptOp
{
    enum class Kind { Save, Restore, Switch, Exit };
    Kind kind;
    ThreadId to = 0; ///< switch target
};

/**
 * A random engine-op script over @p tids: nested calls and returns,
 * switches among the live threads, and exits — some after unwinding
 * to the root frame's return, some from any depth.
 */
std::vector<ScriptOp>
randomScript(const std::vector<ThreadId> &tids, std::size_t length,
             std::uint64_t seed)
{
    using Kind = ScriptOp::Kind;
    Rng rng(seed);
    std::vector<int> depth(tids.size(), 0);
    std::vector<bool> live(tids.size(), true);
    std::size_t alive = tids.size();
    std::vector<ScriptOp> out;
    std::size_t cur = tids.size(); // none
    while (out.size() < length) {
        if (cur == tids.size() || (alive > 1 && rng.nextBool(0.05))) {
            std::size_t next = rng.nextBelow(tids.size());
            while (!live[next] || next == cur)
                next = (next + 1) % tids.size();
            out.push_back({Kind::Switch, tids[next]});
            cur = next;
            if (depth[cur] == 0)
                depth[cur] = 1; // root frame of a fresh thread
        } else if (alive > 1 && rng.nextBool(0.002)) {
            if (rng.nextBool(0.5)) {
                for (; depth[cur] > 0; --depth[cur])
                    out.push_back({Kind::Restore});
            }
            out.push_back({Kind::Exit});
            live[cur] = false;
            --alive;
            cur = tids.size();
        } else if (depth[cur] <= 1 ||
                   (depth[cur] < 14 && rng.nextBool(0.5))) {
            out.push_back({Kind::Save});
            ++depth[cur];
        } else {
            out.push_back({Kind::Restore});
            --depth[cur];
        }
    }
    return out;
}

/**
 * Drive @p script through a lockstep view whose tape is sized from
 * @p max_ops, one lane per window count, and op for op through a
 * plain WindowEngine per lane (the virtual-dispatch oracle): at every
 * host tier, every lane, lane 0 included, must still equal a fresh
 * engine just before the tape first fills, and must end identical to
 * its oracle.
 */
void
expectViewMatchesEngines(SchemeKind scheme,
                         const std::vector<ThreadId> &tids,
                         const std::vector<ScriptOp> &script,
                         std::size_t max_ops)
{
    using Kind = ScriptOp::Kind;
    const std::vector<int> windows{4, 7, 16};
    for (const SimdTier tier : hostTiers()) {
        const ScopedTier pin(tier);
        std::vector<std::unique_ptr<WindowEngine>> lanes;
        std::vector<std::unique_ptr<WindowEngine>> oracles;
        std::vector<std::unique_ptr<WindowEngine>> fresh;
        for (const int w : windows) {
            EngineConfig ec;
            ec.scheme = scheme;
            ec.numWindows = w;
            lanes.push_back(std::make_unique<WindowEngine>(ec));
            oracles.push_back(std::make_unique<WindowEngine>(ec));
            fresh.push_back(std::make_unique<WindowEngine>(ec));
            for (const ThreadId tid : tids) {
                lanes.back()->addThread(tid);
                oracles.back()->addThread(tid);
                fresh.back()->addThread(tid);
            }
        }
        const std::string ctx = std::string(schemeName(scheme)) + "/" +
                                simdTierName(tier) + " max_ops " +
                                std::to_string(max_ops);
        detail::visitSchemeClass(scheme, [&](auto scheme_tag) {
            using View =
                BatchedEngineView<typename decltype(scheme_tag)::type>;
            // The script's tallies, counted as the ops are applied;
            // the view reads them at finish().
            const ThreadId top_tid =
                *std::max_element(tids.begin(), tids.end());
            ScriptTallies tallies;
            tallies.saves.assign(static_cast<std::size_t>(top_tid) + 1, 0);
            tallies.restores = tallies.saves;
            View view(lanes, tallies, max_ops);
            // The record that fills the tape is the first to drain.
            const std::size_t undrained =
                std::min(max_ops, View::kTapeOps) - 1;
            ASSERT_LT(undrained, script.size()) << ctx;
            for (std::size_t i = 0; i < script.size(); ++i) {
                if (i == undrained)
                    for (std::size_t l = 0; l < lanes.size(); ++l)
                        expectEnginesIdentical(
                            *lanes[l], *fresh[l], tids,
                            ctx + " lane " + std::to_string(l) +
                                " before the first drain");
                const ScriptOp &op = script[i];
                for (const auto &oracle : oracles) {
                    switch (op.kind) {
                      case Kind::Save: oracle->save(); break;
                      case Kind::Restore: oracle->restore(); break;
                      case Kind::Switch: oracle->contextSwitch(op.to); break;
                      case Kind::Exit: oracle->threadExit(); break;
                    }
                }
                const auto cur = static_cast<std::size_t>(view.current());
                switch (op.kind) {
                  case Kind::Save:
                    view.save();
                    ++tallies.saves[cur];
                    break;
                  case Kind::Restore:
                    view.restore();
                    ++tallies.restores[cur];
                    break;
                  case Kind::Switch: view.contextSwitch(op.to); break;
                  case Kind::Exit: view.threadExit(); break;
                }
                tallies.charges += 3;
                for (const auto &oracle : oracles)
                    oracle->charge(3);
            }
            view.finish();
        });
        for (std::size_t l = 0; l < lanes.size(); ++l)
            expectEnginesIdentical(*lanes[l], *oracles[l], tids,
                                   ctx + " lane " + std::to_string(l));
    }
}

const SchemeKind kAllSchemes[] = {SchemeKind::NS, SchemeKind::SNP,
                                  SchemeKind::SP, SchemeKind::Infinite};

TEST(OpTape, ThreadIdsAtTheEdgesOfTheInt16Range)
{
    // Switch targets 0 and INT16_MAX bracket the tape's thread-id
    // field; the ids between them are never registered.
    const std::vector<ThreadId> tids{0, 1, INT16_MAX - 1, INT16_MAX};
    const std::vector<ScriptOp> script = randomScript(tids, 4000, 11);
    for (const SchemeKind scheme : kAllSchemes)
        expectViewMatchesEngines(scheme, tids, script, script.size());
}

TEST(OpTape, FullTapeDrainsThroughTheFollowers)
{
    // Longer than the largest tape, replayed with a five-record tape
    // (thousands of drains, runs split across them) and with a tape
    // sized from the exact op count (capped at kTapeOps).
    const std::vector<ThreadId> tids{0, 1, 2, 3};
    const std::size_t length =
        2 * BatchedEngineView<detail::NsScheme>::kTapeOps + 37;
    const std::vector<ScriptOp> script = randomScript(tids, length, 5);
    for (const SchemeKind scheme : kAllSchemes)
        for (const std::size_t max_ops : {std::size_t{5}, length})
            expectViewMatchesEngines(scheme, tids, script, max_ops);
}

} // namespace
} // namespace crw
