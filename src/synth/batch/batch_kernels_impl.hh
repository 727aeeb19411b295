/**
 * @file
 * The instantiation kernels' loop bodies, written once and templated
 * on a vector-ops policy V and a lane count L. Each ISA translation
 * unit instantiates them with its own policy (scalar double,
 * __m256d, __m512d); the scalar-lane unit also instantiates L = 1,
 * the single-candidate layout. The loop structure — and therefore
 * the per-lane operation order — exists exactly once, so every
 * (V, L) instantiation computes bit-identical per-lane values.
 *
 * A policy V provides:
 *     using Reg = ...;                   // one vector register
 *     static constexpr size_t width;     // lanes per register
 *     static Reg  load(const double *);  // unaligned
 *     static void store(double *, Reg);
 *     static Reg  set1(double);
 *     static Reg  zero();
 *     static Reg  add(Reg, Reg);
 *     static Reg  sub(Reg, Reg);
 *     static Reg  mul(Reg, Reg);
 *
 * Complex arithmetic is spelled with separate mul/add/sub, never
 * fused (the including TU must be compiled with -ffp-contract=off).
 * The operation order is pinned by golden bit patterns in
 * tests/synth_kernels_test.cc: reordering any expression here
 * changes rounding and fails that test.
 */

#ifndef QUEST_SYNTH_BATCH_BATCH_KERNELS_IMPL_HH
#define QUEST_SYNTH_BATCH_BATCH_KERNELS_IMPL_HH

#include "synth/batch/batch_kernels.hh"

namespace quest::kern::batch::impl {

/** Loop bodies for one (policy, lane count, compile-time dim)
 *  triple; D == 0 means runtime dimension. */
template <class V, size_t L, size_t D>
struct Bodies
{
    using Reg = typename V::Reg;
    static constexpr size_t W = V::width;
    static_assert(L % W == 0, "lane count must be a register multiple");

    static void
    leftU3(size_t dimArg, double *mRe, double *mIm, const double *gRe,
           const double *gIm, size_t bit)
    {
        const size_t dim = D ? D : dimArg;
        const size_t lo = bit - 1;
        for (size_t v = 0; v < L; v += W) {
            const Reg g00r = V::load(gRe + 0 * L + v);
            const Reg g00i = V::load(gIm + 0 * L + v);
            const Reg g01r = V::load(gRe + 1 * L + v);
            const Reg g01i = V::load(gIm + 1 * L + v);
            const Reg g10r = V::load(gRe + 2 * L + v);
            const Reg g10i = V::load(gIm + 2 * L + v);
            const Reg g11r = V::load(gRe + 3 * L + v);
            const Reg g11i = V::load(gIm + 3 * L + v);
            for (size_t h = 0; h < dim / 2; ++h) {
                const size_t r0 = ((h & ~lo) << 1) | (h & lo);
                double *row0Re = mRe + r0 * dim * L;
                double *row0Im = mIm + r0 * dim * L;
                double *row1Re = mRe + (r0 | bit) * dim * L;
                double *row1Im = mIm + (r0 | bit) * dim * L;
                for (size_t c = 0; c < dim; ++c) {
                    const size_t off = c * L + v;
                    const Reg ar = V::load(row0Re + off);
                    const Reg ai = V::load(row0Im + off);
                    const Reg br = V::load(row1Re + off);
                    const Reg bi = V::load(row1Im + off);
                    // row0 = cmul(g00, a) + cmul(g01, b)
                    V::store(
                        row0Re + off,
                        V::add(V::sub(V::mul(g00r, ar), V::mul(g00i, ai)),
                               V::sub(V::mul(g01r, br), V::mul(g01i, bi))));
                    V::store(
                        row0Im + off,
                        V::add(V::add(V::mul(g00r, ai), V::mul(g00i, ar)),
                               V::add(V::mul(g01r, bi), V::mul(g01i, br))));
                    // row1 = cmul(g10, a) + cmul(g11, b)
                    V::store(
                        row1Re + off,
                        V::add(V::sub(V::mul(g10r, ar), V::mul(g10i, ai)),
                               V::sub(V::mul(g11r, br), V::mul(g11i, bi))));
                    V::store(
                        row1Im + off,
                        V::add(V::add(V::mul(g10r, ai), V::mul(g10i, ar)),
                               V::add(V::mul(g11r, bi), V::mul(g11i, br))));
                }
            }
        }
    }

    static void
    leftU3Out(size_t dimArg, double *dstRe, double *dstIm,
              const double *srcRe, const double *srcIm, const double *gRe,
              const double *gIm, size_t bit)
    {
        // Fused copy + leftU3 for the forward prefix walk: every row
        // belongs to exactly one (r0, r0|bit) pair, so writing the
        // mixed rows straight into the next slice covers the whole
        // matrix with the in-place kernel's arithmetic (same operand
        // order, same adds/subs — bit-identical values) and skips the
        // separate slice copy.
        const size_t dim = D ? D : dimArg;
        const size_t lo = bit - 1;
        for (size_t v = 0; v < L; v += W) {
            const Reg g00r = V::load(gRe + 0 * L + v);
            const Reg g00i = V::load(gIm + 0 * L + v);
            const Reg g01r = V::load(gRe + 1 * L + v);
            const Reg g01i = V::load(gIm + 1 * L + v);
            const Reg g10r = V::load(gRe + 2 * L + v);
            const Reg g10i = V::load(gIm + 2 * L + v);
            const Reg g11r = V::load(gRe + 3 * L + v);
            const Reg g11i = V::load(gIm + 3 * L + v);
            for (size_t h = 0; h < dim / 2; ++h) {
                const size_t r0 = ((h & ~lo) << 1) | (h & lo);
                const double *s0Re = srcRe + r0 * dim * L;
                const double *s0Im = srcIm + r0 * dim * L;
                const double *s1Re = srcRe + (r0 | bit) * dim * L;
                const double *s1Im = srcIm + (r0 | bit) * dim * L;
                double *d0Re = dstRe + r0 * dim * L;
                double *d0Im = dstIm + r0 * dim * L;
                double *d1Re = dstRe + (r0 | bit) * dim * L;
                double *d1Im = dstIm + (r0 | bit) * dim * L;
                for (size_t c = 0; c < dim; ++c) {
                    const size_t off = c * L + v;
                    const Reg ar = V::load(s0Re + off);
                    const Reg ai = V::load(s0Im + off);
                    const Reg br = V::load(s1Re + off);
                    const Reg bi = V::load(s1Im + off);
                    // row0 = cmul(g00, a) + cmul(g01, b)
                    V::store(
                        d0Re + off,
                        V::add(V::sub(V::mul(g00r, ar), V::mul(g00i, ai)),
                               V::sub(V::mul(g01r, br), V::mul(g01i, bi))));
                    V::store(
                        d0Im + off,
                        V::add(V::add(V::mul(g00r, ai), V::mul(g00i, ar)),
                               V::add(V::mul(g01r, bi), V::mul(g01i, br))));
                    // row1 = cmul(g10, a) + cmul(g11, b)
                    V::store(
                        d1Re + off,
                        V::add(V::sub(V::mul(g10r, ar), V::mul(g10i, ai)),
                               V::sub(V::mul(g11r, br), V::mul(g11i, bi))));
                    V::store(
                        d1Im + off,
                        V::add(V::add(V::mul(g10r, ai), V::mul(g10i, ar)),
                               V::add(V::mul(g11r, bi), V::mul(g11i, br))));
                }
            }
        }
    }

    static void
    leftCx(size_t dimArg, double *mRe, double *mIm, size_t bc, size_t bt)
    {
        const size_t dim = D ? D : dimArg;
        for (size_t r = 0; r < dim; ++r) {
            if ((r & bc) && !(r & bt)) {
                double *row0Re = mRe + r * dim * L;
                double *row0Im = mIm + r * dim * L;
                double *row1Re = mRe + (r | bt) * dim * L;
                double *row1Im = mIm + (r | bt) * dim * L;
                for (size_t c = 0; c < dim; ++c) {
                    for (size_t v = 0; v < L; v += W) {
                        const size_t off = c * L + v;
                        const Reg tr = V::load(row0Re + off);
                        const Reg ti = V::load(row0Im + off);
                        V::store(row0Re + off, V::load(row1Re + off));
                        V::store(row0Im + off, V::load(row1Im + off));
                        V::store(row1Re + off, tr);
                        V::store(row1Im + off, ti);
                    }
                }
            }
        }
    }

    static void
    reduceTraceT(size_t dimArg, const double *pRe, const double *pIm,
                 const double *btRe, const double *btIm, size_t bit,
                 double *w2Re, double *w2Im)
    {
        const size_t dim = D ? D : dimArg;
        const size_t lo = bit - 1;
        for (size_t v = 0; v < L; v += W) {
            Reg w00r = V::zero(), w00i = V::zero();
            Reg w01r = V::zero(), w01i = V::zero();
            Reg w10r = V::zero(), w10i = V::zero();
            Reg w11r = V::zero(), w11i = V::zero();
            for (size_t h = 0; h < dim / 2; ++h) {
                const size_t r0 = ((h & ~lo) << 1) | (h & lo);
                const double *p0Re = pRe + r0 * dim * L;
                const double *p0Im = pIm + r0 * dim * L;
                const double *p1Re = pRe + (r0 | bit) * dim * L;
                const double *p1Im = pIm + (r0 | bit) * dim * L;
                const double *b0Re = btRe + r0 * dim * L;
                const double *b0Im = btIm + r0 * dim * L;
                const double *b1Re = btRe + (r0 | bit) * dim * L;
                const double *b1Im = btIm + (r0 | bit) * dim * L;
                for (size_t c = 0; c < dim; ++c) {
                    const size_t off = c * L + v;
                    const Reg par = V::load(p0Re + off);
                    const Reg pai = V::load(p0Im + off);
                    const Reg pbr = V::load(p1Re + off);
                    const Reg pbi = V::load(p1Im + off);
                    const Reg bar = V::load(b0Re + off);
                    const Reg bai = V::load(b0Im + off);
                    const Reg bbr = V::load(b1Re + off);
                    const Reg bbi = V::load(b1Im + off);
                    // w00 += cmul(pa, ba)
                    w00r = V::add(w00r,
                                  V::sub(V::mul(par, bar), V::mul(pai, bai)));
                    w00i = V::add(w00i,
                                  V::add(V::mul(par, bai), V::mul(pai, bar)));
                    // w01 += cmul(pa, bb)
                    w01r = V::add(w01r,
                                  V::sub(V::mul(par, bbr), V::mul(pai, bbi)));
                    w01i = V::add(w01i,
                                  V::add(V::mul(par, bbi), V::mul(pai, bbr)));
                    // w10 += cmul(pb, ba)
                    w10r = V::add(w10r,
                                  V::sub(V::mul(pbr, bar), V::mul(pbi, bai)));
                    w10i = V::add(w10i,
                                  V::add(V::mul(pbr, bai), V::mul(pbi, bar)));
                    // w11 += cmul(pb, bb)
                    w11r = V::add(w11r,
                                  V::sub(V::mul(pbr, bbr), V::mul(pbi, bbi)));
                    w11i = V::add(w11i,
                                  V::add(V::mul(pbr, bbi), V::mul(pbi, bbr)));
                }
            }
            V::store(w2Re + 0 * L + v, w00r);
            V::store(w2Im + 0 * L + v, w00i);
            V::store(w2Re + 1 * L + v, w01r);
            V::store(w2Im + 1 * L + v, w01i);
            V::store(w2Re + 2 * L + v, w10r);
            V::store(w2Im + 2 * L + v, w10i);
            V::store(w2Re + 3 * L + v, w11r);
            V::store(w2Im + 3 * L + v, w11i);
        }
    }

    static void
    traceTarget(size_t dimArg, const double *tcRe, const double *tcIm,
                const double *uRe, const double *uIm, double *trRe,
                double *trIm)
    {
        const size_t dim = D ? D : dimArg;
        const size_t dd = dim * dim;
        for (size_t v = 0; v < L; v += W) {
            Reg accr = V::zero(), acci = V::zero();
            for (size_t e = 0; e < dd; ++e) {
                const Reg tcr = V::set1(tcRe[e]);
                const Reg tci = V::set1(tcIm[e]);
                const Reg ur = V::load(uRe + e * L + v);
                const Reg ui = V::load(uIm + e * L + v);
                // tr += cmul(tc, u)
                accr = V::add(accr, V::sub(V::mul(tcr, ur), V::mul(tci, ui)));
                acci = V::add(acci, V::add(V::mul(tcr, ui), V::mul(tci, ur)));
            }
            V::store(trRe + v, accr);
            V::store(trIm + v, acci);
        }
    }
};

template <class V, size_t L, size_t D>
constexpr BatchKernelSet
makeSet()
{
    using B = Bodies<V, L, D>;
    return {&B::leftU3, &B::leftU3Out, &B::leftCx, &B::reduceTraceT,
            &B::traceTarget};
}

/** The per-dim dispatch for one (policy, lane count): specialized
 *  tables for dims 2/4/8/16, the generic-loop table beyond. */
template <class V, size_t L>
const BatchKernelSet &
tableForDim(size_t dim)
{
    static constexpr BatchKernelSet kGeneric = makeSet<V, L, 0>();
    static constexpr BatchKernelSet kD2 = makeSet<V, L, 2>();
    static constexpr BatchKernelSet kD4 = makeSet<V, L, 4>();
    static constexpr BatchKernelSet kD8 = makeSet<V, L, 8>();
    static constexpr BatchKernelSet kD16 = makeSet<V, L, 16>();
    switch (dim) {
      case 2:
        return kD2;
      case 4:
        return kD4;
      case 8:
        return kD8;
      case 16:
        return kD16;
      default:
        return kGeneric;
    }
}

} // namespace quest::kern::batch::impl

#endif // QUEST_SYNTH_BATCH_BATCH_KERNELS_IMPL_HH
