/**
 * @file
 * Shared helpers for tests that pin the SIMD dispatch tier
 * (win/simd.h) in-process: the follower replay and the trace-script
 * scanner.
 */

#ifndef CRW_TESTS_WIN_SIMD_TEST_UTIL_H_
#define CRW_TESTS_WIN_SIMD_TEST_UTIL_H_

#include <vector>

#include "win/simd.h"

namespace crw {

/** Scoped dispatch-tier pin. */
class ScopedTier
{
  public:
    explicit ScopedTier(SimdTier tier) { setSimdTierOverride(tier); }
    ~ScopedTier() { clearSimdTierOverride(); }
};

/** The scalar oracle plus every wider tier the host can run. */
inline std::vector<SimdTier>
hostTiers()
{
    std::vector<SimdTier> tiers{SimdTier::Scalar, SimdTier::Portable};
    if (cpuMaxSimdTier() == SimdTier::Avx2)
        tiers.push_back(SimdTier::Avx2);
    return tiers;
}

} // namespace crw

#endif // CRW_TESTS_WIN_SIMD_TEST_UTIL_H_
