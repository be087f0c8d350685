/**
 * @file
 * The lane-SoA kernel layer (win/lane_soa.h, DESIGN.md §16) and its
 * dispatch plumbing (win/simd.h):
 *
 *  - every kernel flavor (portable, AVX2 where the host has it)
 *    computes bit-identical results, and each matches k iterated
 *    single-step applications of the win/scheme.h closed forms — the
 *    fold-vs-iterate property that makes a run kernel call legal;
 *  - the test/bench override pins the effective tier and clamps
 *    requests above the CPU's widest tier.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "win/lane_soa.h"
#include "win/scheme.h"
#include "win/simd.h"

namespace crw {
namespace {

/** Deterministic xorshift so every flavor sees identical states. */
std::uint64_t
nextRand(std::uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

/** A LaneSoA over random-but-valid per-lane window configs. */
LaneSoA
randomSoa(std::size_t lanes, int threads, std::uint64_t seed)
{
    LaneSoA soa;
    soa.init(lanes, threads);
    std::uint64_t s = seed;
    for (std::size_t l = 0; l < lanes; ++l) {
        const int win = 4 + static_cast<int>(nextRand(s) % 29);
        soa.numWin[l] = win;
        soa.nsCap[l] = win - 1;
        soa.ovfCost1[l] = 100 + nextRand(s) % 900;
        soa.unfCost[l] = 100 + nextRand(s) % 900;
        soa.ovfTraps[l] = nextRand(s) % 50;
        soa.ovfSpilled[l] = soa.ovfTraps[l];
        soa.unfTraps[l] = nextRand(s) % 50;
        soa.unfRestored[l] = soa.unfTraps[l];
        soa.cyclesTrap[l] = nextRand(s) % 100000;
    }
    for (int t = 0; t < threads; ++t) {
        std::int32_t *res = soa.resOf(static_cast<ThreadId>(t));
        std::int32_t *top = soa.topOf(static_cast<ThreadId>(t));
        for (std::size_t l = 0; l < lanes; ++l) {
            res[l] = 1 + static_cast<std::int32_t>(
                             nextRand(s) %
                             static_cast<std::uint64_t>(soa.nsCap[l]));
            top[l] = static_cast<std::int32_t>(nextRand(s) % 1000) -
                     500; // NS tops run unwrapped mid-pass
        }
    }
    return soa;
}

/** Snapshot of everything a run kernel may write. */
struct Shadow
{
    std::vector<std::int32_t> res, top;
    std::vector<std::uint64_t> ovfTraps, ovfSpilled, unfTraps,
        unfRestored, cyclesTrap;

    static Shadow
    of(LaneSoA &soa, ThreadId tid)
    {
        Shadow sh;
        const std::int32_t *res = soa.resOf(tid);
        const std::int32_t *top = soa.topOf(tid);
        for (std::size_t l = 0; l < soa.pad; ++l) {
            sh.res.push_back(res[l]);
            sh.top.push_back(top[l]);
            sh.ovfTraps.push_back(soa.ovfTraps[l]);
            sh.ovfSpilled.push_back(soa.ovfSpilled[l]);
            sh.unfTraps.push_back(soa.unfTraps[l]);
            sh.unfRestored.push_back(soa.unfRestored[l]);
            sh.cyclesTrap.push_back(soa.cyclesTrap[l]);
        }
        return sh;
    }

    /** k iterated single-step saves/restores per the closed forms. */
    void
    stepReference(const LaneSoA &soa, bool save, int k)
    {
        for (std::size_t l = 0; l < soa.pad; ++l) {
            for (int i = 0; i < k; ++i) {
                if (save) {
                    const RunFold f =
                        nsSaveRunFold(res[l], soa.nsCap[l], 1);
                    res[l] = f.newResident;
                    top[l] -= 1;
                    ovfTraps[l] += f.traps;
                    ovfSpilled[l] += f.traps;
                    cyclesTrap[l] +=
                        static_cast<std::uint64_t>(f.traps) *
                        soa.ovfCost1[l];
                } else {
                    const RunFold f = restoreRunFold(res[l], 1);
                    res[l] = f.newResident;
                    top[l] += 1;
                    unfTraps[l] += f.traps;
                    unfRestored[l] += f.traps;
                    cyclesTrap[l] +=
                        static_cast<std::uint64_t>(f.traps) *
                        soa.unfCost[l];
                }
            }
        }
    }

    void
    expectMatches(LaneSoA &soa, ThreadId tid, const char *what) const
    {
        const std::int32_t *r = soa.resOf(tid);
        const std::int32_t *t = soa.topOf(tid);
        for (std::size_t l = 0; l < soa.pad; ++l) {
            EXPECT_EQ(res[l], r[l]) << what << " res lane " << l;
            EXPECT_EQ(top[l], t[l]) << what << " top lane " << l;
            EXPECT_EQ(ovfTraps[l], soa.ovfTraps[l])
                << what << " ovfTraps lane " << l;
            EXPECT_EQ(ovfSpilled[l], soa.ovfSpilled[l])
                << what << " ovfSpilled lane " << l;
            EXPECT_EQ(unfTraps[l], soa.unfTraps[l])
                << what << " unfTraps lane " << l;
            EXPECT_EQ(unfRestored[l], soa.unfRestored[l])
                << what << " unfRestored lane " << l;
            EXPECT_EQ(cyclesTrap[l], soa.cyclesTrap[l])
                << what << " cyclesTrap lane " << l;
        }
    }
};

std::vector<SimdTier>
vectorTiers()
{
    std::vector<SimdTier> tiers{SimdTier::Portable};
    if (cpuMaxSimdTier() == SimdTier::Avx2)
        tiers.push_back(SimdTier::Avx2);
    return tiers;
}

TEST(LaneSoaKernels, RunFoldMatchesIteratedStepsEveryFlavor)
{
    // Widths straddle the vector stride: partial AVX2 chunks and
    // multi-chunk batches.
    for (const std::size_t lanes : {1u, 2u, 3u, 7u, 8u, 16u, 31u}) {
        for (const int k : {1, 2, 3, 9, 40}) {
            for (const SimdTier tier : vectorTiers()) {
                const LaneKernels &kern = laneKernels(tier);
                for (const bool save : {true, false}) {
                    LaneSoA soa = randomSoa(
                        lanes, 3,
                        0x9e3779b97f4a7c15ull + lanes * 131 + k);
                    const ThreadId tid = 1;
                    Shadow ref = Shadow::of(soa, tid);
                    ref.stepReference(soa, save, k);
                    if (save)
                        kern.nsSaveRun(soa, tid, k);
                    else
                        kern.nsRestoreRun(soa, tid, k);
                    ref.expectMatches(soa, tid,
                                      simdTierName(tier));
                }
            }
        }
    }
}

TEST(LaneSoaKernels, FlavorsAgreeBitForBit)
{
    // Portable vs every vector flavor on the same initial state: the
    // SoA pass must be tier-invariant by construction.
    for (const std::size_t lanes : {5u, 12u, 24u}) {
        for (const SimdTier tier : vectorTiers()) {
            LaneSoA a = randomSoa(lanes, 2, 42 + lanes);
            LaneSoA b = randomSoa(lanes, 2, 42 + lanes);
            const ThreadId tid = 0;
            laneKernels(tier).nsSaveRun(a, tid, 7);
            laneKernels(tier).nsRestoreRun(a, tid, 11);
            detail_soa::kPortableKernels.nsSaveRun(b, tid, 7);
            detail_soa::kPortableKernels.nsRestoreRun(b, tid, 11);
            const Shadow sa = Shadow::of(a, tid);
            sa.expectMatches(b, tid, simdTierName(tier));
        }
    }
}

TEST(SimdDispatch, OverridePinsClampsAndMarksExplicit)
{
    // Without an override, production dispatch is the CPU's widest
    // tier; the portable SoA kernels run everywhere.
    EXPECT_EQ(effectiveSimdTier(), cpuMaxSimdTier());
    EXPECT_GE(cpuMaxSimdTier(), SimdTier::Portable);

    setSimdTierOverride(SimdTier::Scalar);
    EXPECT_EQ(effectiveSimdTier(), SimdTier::Scalar);

    // Requests above the host clamp to its widest tier.
    setSimdTierOverride(SimdTier::Avx2);
    EXPECT_EQ(effectiveSimdTier(), cpuMaxSimdTier());

    clearSimdTierOverride();
    EXPECT_EQ(effectiveSimdTier(), cpuMaxSimdTier());
}

TEST(SimdDispatch, TierNamesAreCanonical)
{
    EXPECT_STREQ(simdTierName(SimdTier::Scalar), "scalar");
    EXPECT_STREQ(simdTierName(SimdTier::Portable), "portable");
    EXPECT_STREQ(simdTierName(SimdTier::Avx2), "avx2");
}

} // namespace
} // namespace crw
