/**
 * @file
 * LaneSoA: transposed per-lane state for the batched follower replay,
 * plus the SIMD kernels that advance it (DESIGN.md §16).
 *
 * The batched lockstep view (win/engine_batch.h) records one engine-op
 * stream and replays it through every lane. The per-lane pass
 * runs one lane per stream walk — K full walks, with each lane's
 * state scattered across its own WindowEngine. For NS and INF this
 * layer flips the loop order: the hot per-lane state (resident counts,
 * stack-top cursors, trap tallies) is transposed into
 * lane-major arrays padded to the widest vector (8 × i32), and one
 * walk over the stream applies each op to all lanes at once. The
 * sharing schemes (SNP, SP) have no SoA pass: their slot-map eviction
 * probes are serial per lane, and the translation measured no faster
 * than the per-lane pass.
 *
 * What vectorizes is the run math, not the op dispatch: consecutive
 * saves (or restores) by one thread fold into closed forms over the
 * resident count (win/scheme.h nsSaveRunFold / restoreRunFold), so a
 * call-depth excursion of length k becomes ONE kernel call of
 * branch-free min/max lane arithmetic instead of k trap-branch
 * iterations per lane. Context switches and exits stay scalar per
 * lane, but they run against the same compact SoA state, so the whole
 * pass touches one small working set once per stream.
 *
 * Two kernel flavors sit behind laneKernels(tier): AVX2 (8 lanes per
 * step) and a portable plain loop, which runs on every host without
 * AVX2. Both compute the identical integer recurrences, so results are
 * bit-identical across tiers by construction; the scalar *tier*
 * (win/simd.h) bypasses this file entirely and runs the per-lane pass,
 * the differential oracle.
 */

#ifndef CRW_WIN_LANE_SOA_H_
#define CRW_WIN_LANE_SOA_H_

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/aligned.h"
#include "common/types.h"
#include "win/simd.h"

namespace crw {

/**
 * The transposed follower-lane state. Per-lane arrays are padded to a
 * multiple of kSoaLaneStep and 64-byte aligned (common/aligned.h), so
 * every kernel step is one aligned full-width load. Thread-indexed
 * state is lane-major per thread: thread t's lane vector starts at
 * index t * pad — one contiguous, aligned chunk per (thread, array).
 *
 * Padding lanes are initialized benign (resident 0, cap 1, costs 0);
 * kernels run arithmetic over them but their tallies are never read
 * back.
 */
struct LaneSoA
{
    /** i32 lanes per full-width vector step (AVX2). */
    static constexpr std::size_t kSoaLaneStep = 8;

    std::size_t pad = 0; ///< lanes rounded up to kSoaLaneStep
    int threads = 0;

    // Per-lane invariants, [pad].
    AlignedVec<std::int32_t> numWin; ///< window count
    AlignedVec<std::int32_t> nsCap;  ///< NS usable ceiling (N - 1)
    AlignedVec<std::uint64_t> ovfCost1; ///< overflowCost(1)
    AlignedVec<std::uint64_t> unfCost;  ///< underflowCost()

    // Per-lane accumulators, [pad]; folded into each lane's step at
    // writeback (LaneStep::absorb).
    AlignedVec<std::uint64_t> ovfTraps, ovfSpilled;
    AlignedVec<std::uint64_t> unfTraps, unfRestored;
    AlignedVec<std::uint64_t> cyclesTrap;

    // Per (thread, lane) cursors, [threads * pad], lane-major per
    // thread. NS keeps `top` unwrapped (the run kernels add/subtract
    // k without a lane-wise modulo; writeback wraps once).
    AlignedVec<std::int32_t> top, res;

    void
    init(std::size_t nlanes, int nthreads)
    {
        pad = (nlanes + kSoaLaneStep - 1) / kSoaLaneStep *
              kSoaLaneStep;
        threads = nthreads;
        numWin.resize(pad);
        nsCap.resize(pad);
        ovfCost1.resize(pad);
        unfCost.resize(pad);
        ovfTraps.resize(pad);
        ovfSpilled.resize(pad);
        unfTraps.resize(pad);
        unfRestored.resize(pad);
        cyclesTrap.resize(pad);
        const std::size_t per_thread =
            static_cast<std::size_t>(nthreads) * pad;
        top.resize(per_thread);
        res.resize(per_thread);
        for (std::size_t l = nlanes; l < pad; ++l)
            nsCap[l] = 1; // benign saturation for padding lanes
    }

    std::int32_t *
    topOf(ThreadId tid)
    {
        return top.data() + static_cast<std::size_t>(tid) * pad;
    }
    std::int32_t *
    resOf(ThreadId tid)
    {
        return res.data() + static_cast<std::size_t>(tid) * pad;
    }
};

/**
 * The tier-selected kernel set. One indirect call per *run* (not per
 * op), resolved once per finish() — dispatch cost is noise against
 * the folded work.
 */
struct LaneKernels
{
    /** k consecutive NS saves by @p tid across all lanes. */
    void (*nsSaveRun)(LaneSoA &s, ThreadId tid, int k);
    /** k consecutive NS restores (depth > 0 throughout). */
    void (*nsRestoreRun)(LaneSoA &s, ThreadId tid, int k);
};

namespace detail_soa {

// ---------------------------------------------------------------
// Portable flavor: plain loops over the padded arrays. The integer
// recurrences are the closed forms of win/scheme.h verbatim; the
// AVX2 flavor below computes exactly these expressions.
// ---------------------------------------------------------------

inline void
nsSaveRunPortable(LaneSoA &s, ThreadId tid, int k)
{
    std::int32_t *res = s.resOf(tid);
    std::int32_t *top = s.topOf(tid);
    for (std::size_t l = 0; l < s.pad; ++l) {
        const std::int32_t r = res[l];
        const std::int32_t grown = r + k;
        const std::int32_t cap = s.nsCap[l];
        const std::int32_t r2 = grown < cap ? grown : cap;
        const std::uint64_t traps =
            static_cast<std::uint64_t>(k - (r2 - r));
        res[l] = r2;
        top[l] -= k;
        s.ovfTraps[l] += traps;
        s.ovfSpilled[l] += traps;
        s.cyclesTrap[l] += traps * s.ovfCost1[l];
    }
}

inline void
nsRestoreRunPortable(LaneSoA &s, ThreadId tid, int k)
{
    std::int32_t *res = s.resOf(tid);
    std::int32_t *top = s.topOf(tid);
    for (std::size_t l = 0; l < s.pad; ++l) {
        const std::int32_t r = res[l];
        const std::int32_t shrunk = r - k;
        const std::int32_t r2 = shrunk > 1 ? shrunk : 1;
        const std::uint64_t traps =
            static_cast<std::uint64_t>(k - (r - r2));
        res[l] = r2;
        top[l] += k;
        s.unfTraps[l] += traps;
        s.unfRestored[l] += traps;
        s.cyclesTrap[l] += traps * s.unfCost[l];
    }
}

inline constexpr LaneKernels kPortableKernels = {
    &nsSaveRunPortable,
    &nsRestoreRunPortable,
};

#if defined(__x86_64__)

// ---------------------------------------------------------------
// AVX2 flavor: 8 × i32 per step, native min/max, cvtepu32 widening.
// target("avx2") keeps the binary portable — laneKernels() only
// hands these out when the CPU probe says so (win/simd.h).
// ---------------------------------------------------------------

__attribute__((target("avx2"))) inline void
foldTrapHalfAvx2(__m256i traps64, std::uint64_t *count_a,
                 std::uint64_t *count_b, const std::uint64_t *cost,
                 std::uint64_t *cycles)
{
    __m256i *ca = reinterpret_cast<__m256i *>(count_a);
    __m256i *cb = reinterpret_cast<__m256i *>(count_b);
    _mm256_store_si256(
        ca, _mm256_add_epi64(_mm256_load_si256(ca), traps64));
    _mm256_store_si256(
        cb, _mm256_add_epi64(_mm256_load_si256(cb), traps64));
    const __m256i c64 = _mm256_mul_epu32(
        traps64,
        _mm256_load_si256(reinterpret_cast<const __m256i *>(cost)));
    __m256i *cy = reinterpret_cast<__m256i *>(cycles);
    _mm256_store_si256(
        cy, _mm256_add_epi64(_mm256_load_si256(cy), c64));
}

template <bool Save>
__attribute__((target("avx2"))) inline void
runFoldAvx2(LaneSoA &s, ThreadId tid, int k)
{
    std::int32_t *res = s.resOf(tid);
    std::int32_t *top = s.topOf(tid);
    const __m256i kv = _mm256_set1_epi32(k);
    const __m256i one = _mm256_set1_epi32(1);
    for (std::size_t l = 0; l < s.pad; l += 8) {
        const __m256i r = _mm256_load_si256(
            reinterpret_cast<const __m256i *>(res + l));
        __m256i r2, traps;
        if constexpr (Save) {
            const __m256i cap = _mm256_load_si256(
                reinterpret_cast<const __m256i *>(s.nsCap.data() +
                                                  l));
            r2 = _mm256_min_epi32(_mm256_add_epi32(r, kv), cap);
            traps = _mm256_sub_epi32(kv, _mm256_sub_epi32(r2, r));
        } else {
            r2 = _mm256_max_epi32(_mm256_sub_epi32(r, kv), one);
            traps = _mm256_sub_epi32(kv, _mm256_sub_epi32(r, r2));
        }
        _mm256_store_si256(reinterpret_cast<__m256i *>(res + l),
                           r2);
        {
            __m256i *tp = reinterpret_cast<__m256i *>(top + l);
            const __m256i t = _mm256_load_si256(tp);
            _mm256_store_si256(tp, Save ? _mm256_sub_epi32(t, kv)
                                        : _mm256_add_epi32(t, kv));
        }
        const __m256i t_lo = _mm256_cvtepu32_epi64(
            _mm256_castsi256_si128(traps));
        const __m256i t_hi = _mm256_cvtepu32_epi64(
            _mm256_extracti128_si256(traps, 1));
        std::uint64_t *count_a =
            (Save ? s.ovfTraps : s.unfTraps).data() + l;
        std::uint64_t *count_b =
            (Save ? s.ovfSpilled : s.unfRestored).data() + l;
        const std::uint64_t *cost =
            (Save ? s.ovfCost1 : s.unfCost).data() + l;
        foldTrapHalfAvx2(t_lo, count_a, count_b, cost,
                         s.cyclesTrap.data() + l);
        foldTrapHalfAvx2(t_hi, count_a + 4, count_b + 4, cost + 4,
                         s.cyclesTrap.data() + l + 4);
    }
}

__attribute__((target("avx2"))) inline void
nsSaveRunAvx2(LaneSoA &s, ThreadId tid, int k)
{
    runFoldAvx2<true>(s, tid, k);
}

__attribute__((target("avx2"))) inline void
nsRestoreRunAvx2(LaneSoA &s, ThreadId tid, int k)
{
    runFoldAvx2<false>(s, tid, k);
}

inline constexpr LaneKernels kAvx2Kernels = {
    &nsSaveRunAvx2,
    &nsRestoreRunAvx2,
};

#endif // __x86_64__

} // namespace detail_soa

/**
 * Kernel set for @p tier. SimdTier::Scalar callers never reach the
 * SoA pass (engine_batch.h dispatches them to the per-lane oracle),
 * so the request here is only ever Portable or Avx2; a non-x86 build
 * never resolves to Avx2 (win/simd.h).
 */
inline const LaneKernels &
laneKernels(SimdTier tier)
{
#if defined(__x86_64__)
    if (tier == SimdTier::Avx2)
        return detail_soa::kAvx2Kernels;
#else
    (void)tier;
#endif
    return detail_soa::kPortableKernels;
}

} // namespace crw

#endif // CRW_WIN_LANE_SOA_H_
