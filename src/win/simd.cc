#include "win/simd.h"

#include <atomic>

namespace crw {
namespace {

/** -1 = no override; else the pinned tier. */
std::atomic<int> g_override{-1};

SimdTier
probeCpuMax()
{
#if defined(__x86_64__) || defined(_M_X64)
    // AVX2 is probed at runtime so one binary dispatches correctly on
    // every x86-64 host.
    if (__builtin_cpu_supports("avx2"))
        return SimdTier::Avx2;
#endif
    return SimdTier::Portable;
}

} // namespace

const char *
simdTierName(SimdTier tier)
{
    switch (tier) {
      case SimdTier::Scalar:
        return "scalar";
      case SimdTier::Portable:
        return "portable";
      case SimdTier::Avx2:
        return "avx2";
    }
    return "?";
}

SimdTier
cpuMaxSimdTier()
{
    static const SimdTier max = probeCpuMax();
    return max;
}

SimdTier
effectiveSimdTier()
{
    const int ov = g_override.load(std::memory_order_relaxed);
    return ov >= 0 ? static_cast<SimdTier>(ov) : cpuMaxSimdTier();
}

void
setSimdTierOverride(SimdTier tier)
{
    if (tier > cpuMaxSimdTier())
        tier = cpuMaxSimdTier();
    g_override.store(static_cast<int>(tier),
                     std::memory_order_relaxed);
}

void
clearSimdTierOverride()
{
    g_override.store(-1, std::memory_order_relaxed);
}

} // namespace crw
