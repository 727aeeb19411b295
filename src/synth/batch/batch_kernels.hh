/**
 * @file
 * The instantiation kernels: the lane-batched complex matrix
 * primitives behind the Hilbert-Schmidt cost (batched_hs_cost.hh).
 *
 * Within one evaluation a block matrix is at most 16x16 and the
 * complex arithmetic serializes on the real/imaginary shuffle, so
 * the kernels vectorize ACROSS candidates instead: a batch of L
 * parameter vectors for the same ansatz structure, laid out
 * structure-of-arrays with split real/imaginary planes so element e
 * of lane l lives at [e * L + l]. Every floating-point operation of
 * the loop body becomes one vector operation across lanes, with the
 * same per-lane order and associativity, so each lane's result does
 * not depend on L or on the ISA.
 *
 * Four lane counts exist, L = 1, 2, 4 and kLanes: the
 * multistart driver (batch_instantiate.hh) runs every tick on the
 * narrowest one that holds its live candidates. Each (ISA, lane
 * count) pair is one instantiation of the same loop bodies behind
 * one function-pointer table:
 *   - the portable scalar-lane loop, at every lane count (the only
 *     tables in a QUEST_SIMD=OFF build);
 *   - the AVX2 unit: 2 lanes on __m128d, 4 lanes on one __m256d,
 *     kLanes on two;
 *   - AVX-512: kLanes on one __m512d.
 * Dispatch picks, per lane count, the widest ISA that has a table for
 * it and that the build, the host and the QUEST_SIMD environment
 * override (util/cpu.hh) allow; L = 1 is always the scalar-lane
 * loop. Bit-identity across tables additionally requires that no
 * multiply-add be contracted into an FMA, so the kernel translation
 * units are compiled with -ffp-contract=off and use separate
 * mul/add/sub intrinsics.
 *
 * Dims 2/4/8/16 get fully specialized variants via constant
 * propagation and wider dims fall back to generic runtime-dimension
 * loops; dispatch happens once per cost object, never per
 * evaluation.
 */

#ifndef QUEST_SYNTH_BATCH_BATCH_KERNELS_HH
#define QUEST_SYNTH_BATCH_BATCH_KERNELS_HH

#include <cstddef>

namespace quest::kern::batch {

/**
 * The widest table: the most multistarts one tick evaluates, fixed
 * for every ISA. Eight doubles is one AVX-512 vector, two AVX2
 * vectors, or an 8-iteration scalar loop. Each lane's arithmetic is
 * the same at every lane count and on every ISA, so no result
 * depends on which table a tick ran on.
 */
inline constexpr size_t kLanes = 8;

/** Which kernel implementation the dispatcher selected. */
enum class SimdIsa
{
    Scalar,
    Avx2,
    Avx512,
};

/** Human-readable ISA name ("scalar" / "avx2" / "avx512"). */
const char *simdIsaName(SimdIsa isa);

/**
 * One (dimension, lane count) kernel dispatch table.
 *
 * Conventions: every matrix argument is flat row-major dim x dim
 * with each element expanded to L doubles (the table's lane count),
 * split into separate real/imaginary planes (mRe/mIm); @p gRe /
 * @p gIm hold a row-major 2x2 gate {g00, g01, g10, g11} per lane in
 * the same SoA layout (4 * L doubles each). @p bit is the
 * basis-index bit of the target wire (bit = 1 << (n - 1 - q)) and
 * @p bc / @p bt are the CX control and target bits. The leading
 * @p dim argument is the runtime dimension — specialized tables
 * ignore it in favor of their compile-time constant.
 */
struct BatchKernelSet
{
    /** m <- embed(g, wire) * m, per lane (row mixing). */
    void (*leftU3)(size_t dim, double *mRe, double *mIm,
                   const double *gRe, const double *gIm, size_t bit);

    /**
     * dst <- embed(g, wire) * src, per lane: the in-place kernel
     * fused with the slice copy of the forward prefix walk. Same
     * arithmetic, bit-identical values; src and dst must not alias.
     */
    void (*leftU3Out)(size_t dim, double *dstRe, double *dstIm,
                      const double *srcRe, const double *srcIm,
                      const double *gRe, const double *gIm, size_t bit);

    /** m <- embed(CX, control, target) * m, per lane (row swaps). */
    void (*leftCx)(size_t dim, double *mRe, double *mIm, size_t bc,
                   size_t bt);

    /** dst <- embed(CX, ...) * src, per lane (a row gather); src and
     *  dst must not alias. */
    void (*leftCxOut)(size_t dim, double *dstRe, double *dstIm,
                      const double *srcRe, const double *srcIm, size_t bc,
                      size_t bt);

    /**
     * Per-lane trace contraction of W = P * B down to the wire's
     * 2x2: with bt the TRANSPOSE of B (so B's columns are bt's
     * contiguous rows), w2[a * 2 + c] = sum over rest of
     * <P row (rest | a*bit), bt row (rest | c*bit)>, which satisfies
     * Tr(P * B * embed(d, wire)) = sum_{a,c} w2[a*2+c] * d(c, a).
     * Writes the four w2 entries as SoA (4 * L doubles per plane).
     */
    void (*reduceTraceT)(size_t dim, const double *pRe, const double *pIm,
                         const double *btRe, const double *btIm, size_t bit,
                         double *w2Re, double *w2Im);

    /**
     * Per-lane Tr(target^dagger U): @p tcRe / @p tcIm hold
     * conj(target) as plain (non-lane-expanded) dim*dim scalars
     * broadcast across lanes; writes L accumulators per plane.
     */
    void (*traceTarget)(size_t dim, const double *tcRe, const double *tcIm,
                        const double *uRe, const double *uIm, double *trRe,
                        double *trIm);
};

/**
 * The L-lane kernel table for a dim x dim block (L = 1, 2, 4 or
 * kLanes), on the ISA activeSimdIsaFor<L>() names. Call once at
 * cost-object construction and reuse the reference.
 */
template <size_t L>
const BatchKernelSet &batchKernelsFor(size_t dim);

/**
 * The L-lane table for a specific ISA, or nullptr when that ISA has
 * no L-lane table (AVX-512 has only kLanes, AVX2 has no 1-lane), was
 * compiled out, or the host CPU lacks it. Test hook: the parity suite
 * runs every available table against the 1-lane table.
 */
template <size_t L = kLanes>
const BatchKernelSet *batchKernelsForIsa(SimdIsa isa, size_t dim);

/**
 * The ISA the process-wide dispatch resolved to: the widest the
 * build and the host support, capped by the QUEST_SIMD override.
 * Cached after the first call.
 */
SimdIsa activeSimdIsa();

/**
 * The ISA behind batchKernelsFor<L>: the widest one, no wider than
 * activeSimdIsa(), that has an L-lane table on this build and host.
 */
template <size_t L>
SimdIsa activeSimdIsaFor();

} // namespace quest::kern::batch

#endif // QUEST_SYNTH_BATCH_BATCH_KERNELS_HH
