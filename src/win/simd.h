/**
 * @file
 * SIMD dispatch tier for the batched follower replay (DESIGN.md §16).
 *
 * The lane-SoA follower pass (win/engine_batch.h) has two kernel
 * flavors for its vectorizable window math: an AVX2 path (8 lanes per
 * step) and a portable plain-loop flavor the compiler is free to
 * autovectorize. Below both sits the `Scalar` tier, which bypasses
 * the SoA pass entirely and runs the per-lane follower replay — that
 * path is the bit-identity oracle every SoA flavor is differentially
 * pinned against. The tier only steers NS and INF batches: the sharing
 * schemes (SNP, SP) have no SoA pass and replay their followers per
 * lane on every tier.
 *
 * The same tier picks the block flavour of the trace-script scanner
 * (trace/event_trace.cc, DESIGN.md §8): 32 tags per step, 8 per step,
 * or, at `Scalar`, none skipped, every tag through the reference
 * rules.
 *
 * Production runs always take the widest tier the CPU supports: AVX2
 * where the runtime probe finds it, the portable kernels on every
 * other host (x86 without AVX2, non-x86 builds). Only tests pin a
 * tier, in-process.
 */

#ifndef CRW_WIN_SIMD_H_
#define CRW_WIN_SIMD_H_

namespace crw {

/** Follower-replay dispatch tier, in increasing width order. */
enum class SimdTier : int {
    Scalar = 0,   ///< per-lane follower replay (the oracle path)
    Portable = 1, ///< lane-SoA pass, plain-loop kernels
    Avx2 = 2,     ///< lane-SoA pass, 8-lane (256-bit) kernels
};

/** Canonical lower-case name ("scalar" / "portable" / "avx2"). */
const char *simdTierName(SimdTier tier);

/**
 * The effective dispatch tier: the test override if one is set,
 * else cpuMaxSimdTier(). This is what BatchedEngineView::finish()
 * dispatches on and what the executor publishes as replay.simd_path.
 */
SimdTier effectiveSimdTier();

/** Widest tier the running CPU supports (probed once, cached). */
SimdTier cpuMaxSimdTier();

/**
 * Pin the effective tier for this process (tests pin each flavor
 * against the oracle). Requests above cpuMaxSimdTier() clamp to it.
 */
void setSimdTierOverride(SimdTier tier);

/** Drop the override; effectiveSimdTier() is the CPU's tier again. */
void clearSimdTierOverride();

} // namespace crw

#endif // CRW_WIN_SIMD_H_
