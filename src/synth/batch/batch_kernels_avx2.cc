/**
 * AVX2 instantiations of the batched kernel bodies: 4-wide __m256d
 * registers cover the 4-lane table in one register and the 8-lane
 * batch in two; the 2-lane table runs on 2-wide __m128d registers.
 * Compiled with -mavx2 -ffp-contract=off (see
 * src/synth/CMakeLists.txt); the QUEST_BATCH_COMPILE_AVX2 macro is
 * only defined when those flags are in effect, so a build without
 * them (QUEST_SIMD=OFF, non-x86) gets the nullptr stubs instead of
 * unbuildable intrinsics, and its narrow tables stay scalar-lane.
 *
 * Separate mul/add/sub intrinsics, never _mm256_fmadd_pd: each lane
 * must round exactly like the scalar-lane table's uncontracted
 * arithmetic.
 */

#include "synth/batch/batch_kernels_tables.hh"

#if defined(QUEST_BATCH_COMPILE_AVX2)

#include <immintrin.h>

#include "synth/batch/batch_kernels_impl.hh"

namespace quest::kern::batch {

namespace {

struct VAvx2
{
    using Reg = __m256d;
    static constexpr size_t width = 4;
    static Reg load(const double *p) { return _mm256_loadu_pd(p); }
    static void store(double *p, Reg x) { _mm256_storeu_pd(p, x); }
    static Reg set1(double x) { return _mm256_set1_pd(x); }
    static Reg zero() { return _mm256_setzero_pd(); }
    static Reg add(Reg a, Reg b) { return _mm256_add_pd(a, b); }
    static Reg sub(Reg a, Reg b) { return _mm256_sub_pd(a, b); }
    static Reg mul(Reg a, Reg b) { return _mm256_mul_pd(a, b); }
};

struct V128
{
    using Reg = __m128d;
    static constexpr size_t width = 2;
    static Reg load(const double *p) { return _mm_loadu_pd(p); }
    static void store(double *p, Reg x) { _mm_storeu_pd(p, x); }
    static Reg set1(double x) { return _mm_set1_pd(x); }
    static Reg zero() { return _mm_setzero_pd(); }
    static Reg add(Reg a, Reg b) { return _mm_add_pd(a, b); }
    static Reg sub(Reg a, Reg b) { return _mm_sub_pd(a, b); }
    static Reg mul(Reg a, Reg b) { return _mm_mul_pd(a, b); }
};

} // namespace

template <size_t L>
const BatchKernelSet *
avx2BatchKernelsFor(size_t dim)
{
    if constexpr (L == 2)
        return &impl::tableForDim<V128, L>(dim);
    else
        return &impl::tableForDim<VAvx2, L>(dim);
}

} // namespace quest::kern::batch

#else // !QUEST_BATCH_COMPILE_AVX2

namespace quest::kern::batch {

template <size_t L>
const BatchKernelSet *
avx2BatchKernelsFor(size_t)
{
    return nullptr;
}

} // namespace quest::kern::batch

#endif

namespace quest::kern::batch {

template const BatchKernelSet *avx2BatchKernelsFor<2>(size_t dim);
template const BatchKernelSet *avx2BatchKernelsFor<4>(size_t dim);
template const BatchKernelSet *avx2BatchKernelsFor<kLanes>(size_t dim);

} // namespace quest::kern::batch
