#include "synth/batch/batched_hs_cost.hh"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>

#include "obs/metrics.hh"
#include "util/logging.hh"
#include "util/names.hh"

namespace quest::synth {

namespace {

/** Complex multiply without the NaN-fixup branch of operator*: the
 *  same mul/sub/add sequence the kernel bodies spell out. */
inline Complex
cmul(const Complex &a, const Complex &b)
{
    return Complex(a.real() * b.real() - a.imag() * b.imag(),
                   a.real() * b.imag() + a.imag() * b.real());
}

/** Compile the ansatz op sequence into wire bits and parameter
 *  bases. */
CompiledPlan
compilePlan(const Ansatz &ansatz)
{
    CompiledPlan plan;
    const auto &ops = ansatz.operations();
    plan.ops.reserve(ops.size());
    int p = 0;
    for (const AnsatzOp &op : ops) {
        OpPlan e;
        e.isCx = op.isCx;
        e.bit = ansatz.wireBit(op.a);
        e.bit2 = op.isCx ? ansatz.wireBit(op.b) : 0;
        e.base = op.isCx ? -1 : p;
        if (!op.isCx) {
            p += 3;
            ++plan.u3Count;
        }
        plan.ops.push_back(e);
    }
    plan.nParams = p;
    return plan;
}

/** Evaluate calls that reused the workspace without allocating. */
obs::Counter &
workspaceReuseCounter()
{
    static auto &c = obs::MetricsRegistry::global().counter(
        names::kMetricSynthWorkspaceReuses);
    return c;
}

/**
 * One sweep over W lanes of a run of ops, in a sweep arena: the
 * forward prefix walk from the arena's slice 0, and the transposed
 * backward walk from its backward accumulator. Slice i is the input
 * of the run's i-th U3: a CX permutes the current slice's rows in
 * place (nothing reads its input again), so a run of u U3s fills
 * u + 1 slices. The batch sweep and a
 * sibling lane's final layer (W = 1) are both this code, so each
 * lane's arithmetic is the same whichever sweep ran an op.
 */
template <size_t W>
struct Sweep
{
    const kern::batch::BatchKernelSet &k;
    size_t dim;
    SweepArena &a;
    const std::array<const std::vector<double> *, W> &xs;

    /**
     * Forward, all lanes at once: a CX swaps rows of the current
     * slice, the i-th U3 writes slice i+1 = embed(g) * slice i. U3
     * entries and all three derivatives come from one scalar
     * u3WithDerivatives per (op, lane), fanned into the SoA gate
     * cache (slot i for the i-th U3) for the backward walk; idle
     * lanes take the cached all-zero gate.
     */
    void
    forward(std::span<const OpPlan> ops, const Complex idleG[4],
            const Complex idleDg[3][4]) const
    {
        const size_t ddW = dim * dim * W;
        size_t ui = 0;
        for (const OpPlan &op : ops) {
            double *curRe = a.preRe + ui * ddW;
            double *curIm = a.preIm + ui * ddW;
            if (op.isCx) {
                k.leftCx(dim, curRe, curIm, op.bit, op.bit2);
                continue;
            }
            const size_t slot = ui * 16;
            Complex buf[4];
            Complex dbuf[3][4];
            for (size_t l = 0; l < W; ++l) {
                const std::vector<double> *x = xs[l];
                const Complex(*dg)[4] = idleDg;
                const Complex *g = idleG;
                if (x) {
                    const size_t b = static_cast<size_t>(op.base);
                    u3WithDerivatives((*x)[b], (*x)[b + 1], (*x)[b + 2],
                                      buf, dbuf);
                    g = buf;
                    dg = dbuf;
                }
                for (size_t e = 0; e < 4; ++e) {
                    a.gRe[(slot + e) * W + l] = g[e].real();
                    a.gIm[(slot + e) * W + l] = g[e].imag();
                }
                for (size_t w = 0; w < 3; ++w) {
                    for (size_t e = 0; e < 4; ++e) {
                        const size_t at = (slot + 4 + w * 4 + e) * W + l;
                        a.gRe[at] = dg[w][e].real();
                        a.gIm[at] = dg[w][e].imag();
                    }
                }
            }
            k.leftU3Out(dim, curRe + ddW, curIm + ddW, curRe, curIm,
                        a.gRe + slot * W, a.gIm + slot * W, op.bit);
            ++ui;
        }
    }

    /**
     * Backward, transposed, over the same run in reverse: bt = B^T
     * with B = target^dagger * (every op after op j), so B's strided
     * columns become bt's contiguous rows and every update is a
     * row-mixing kernel. Appending op j on B's right
     * (B <- B * embed(g)) is bt <- embed(g)^T * bt, i.e. leftU3 with
     * the transposed gate; a CX is its own transpose. Each U3 first
     * contributes its three gradient entries per live lane via the
     * trace contraction against its input slice, scaled by @p trc =
     * conj(Tr(target^dagger U)).
     */
    void
    backward(std::span<const OpPlan> ops, const std::array<Complex, W> &trc,
             const std::array<std::vector<double> *, W> &grads,
             double dimSquared) const
    {
        const size_t ddW = dim * dim * W;
        size_t ui = 0;
        for (const OpPlan &op : ops)
            ui += op.isCx ? 0 : 1;
        for (size_t j = ops.size(); j-- > 0;) {
            const OpPlan &op = ops[j];
            if (op.isCx) {
                k.leftCx(dim, a.bwdRe, a.bwdIm, op.bit, op.bit2);
                continue;
            }
            const size_t slot = --ui * 16;
            k.reduceTraceT(dim, a.preRe + ui * ddW, a.preIm + ui * ddW,
                           a.bwdRe, a.bwdIm, op.bit, a.wRe, a.wIm);
            for (int which = 0; which < 3; ++which) {
                const size_t d =
                    (slot + 4 + static_cast<size_t>(which) * 4) * W;
                for (size_t l = 0; l < W; ++l) {
                    if (!xs[l])
                        continue;
                    // Per-lane complexes:
                    // Tr(W * embed(d)) = sum_ac w2[a][c] d(c, a).
                    const Complex w0(a.wRe[0 * W + l], a.wIm[0 * W + l]);
                    const Complex w1(a.wRe[1 * W + l], a.wIm[1 * W + l]);
                    const Complex w2(a.wRe[2 * W + l], a.wIm[2 * W + l]);
                    const Complex w3(a.wRe[3 * W + l], a.wIm[3 * W + l]);
                    const Complex d0(a.gRe[d + 0 * W + l],
                                     a.gIm[d + 0 * W + l]);
                    const Complex d1(a.gRe[d + 1 * W + l],
                                     a.gIm[d + 1 * W + l]);
                    const Complex d2(a.gRe[d + 2 * W + l],
                                     a.gIm[d + 2 * W + l]);
                    const Complex d3(a.gRe[d + 3 * W + l],
                                     a.gIm[d + 3 * W + l]);
                    const Complex dtr = cmul(w0, d0) + cmul(w1, d2) +
                                        cmul(w2, d1) + cmul(w3, d3);
                    (*grads[l])[op.base + which] =
                        -2.0 * cmul(trc[l], dtr).real() / dimSquared;
                }
            }
            // gT = {g00, g10, g01, g11}: swap the off-diagonal entry
            // vectors into the transposed-gate scratch.
            static constexpr size_t kTranspose[4] = {0, 2, 1, 3};
            for (size_t e = 0; e < 4; ++e) {
                const double *sr = a.gRe + (slot + kTranspose[e]) * W;
                const double *si = a.gIm + (slot + kTranspose[e]) * W;
                std::copy(sr, sr + W, a.tgRe + e * W);
                std::copy(si, si + W, a.tgIm + e * W);
            }
            k.leftU3(dim, a.bwdRe, a.bwdIm, a.tgRe, a.tgIm, op.bit);
        }
    }
};

} // namespace

bool
SweepArena::fit(size_t dim, size_t lanes, size_t u3Count)
{
    const size_t L = lanes;
    const size_t ddL = dim * dim * L;
    bool grew = false;
    auto fitOne = [&grew](std::vector<double> &v, double *&base, size_t n) {
        // +7 doubles of slack so the aligned base still has room.
        if (v.size() < n + 7) {
            v.resize(n + 7);
            grew = true;
        }
        auto addr = reinterpret_cast<uintptr_t>(v.data());
        base = v.data() + ((-addr & 63) / sizeof(double));
    };
    fitOne(prefixRe, preRe, (u3Count + 1) * ddL);
    fitOne(prefixIm, preIm, (u3Count + 1) * ddL);
    fitOne(backwardRe, bwdRe, ddL);
    fitOne(backwardIm, bwdIm, ddL);
    fitOne(u3Re, gRe, u3Count * 16 * L);
    fitOne(u3Im, gIm, u3Count * 16 * L);
    fitOne(gtRe, tgRe, 4 * L);
    fitOne(gtIm, tgIm, 4 * L);
    fitOne(w2Re, wRe, 4 * L);
    fitOne(w2Im, wIm, 4 * L);
    fitOne(trRe, tRe, L);
    fitOne(trIm, tIm, L);
    return grew;
}

bool
BatchedHsWorkspace::ensure(size_t dim, size_t lanes, size_t u3Count,
                           bool siblings)
{
    bool grew = batch.fit(dim, lanes, u3Count);
    // A final layer is CX + two U3s (Ansatz::addLayer).
    if (siblings)
        grew |= lane.fit(dim, 1, 2);
    if (grew)
        ++allocations;
    else
        ++reuses;
    return grew;
}

template <size_t L>
BatchedHsCost<L>::BatchedHsCost(const Matrix &target, const Ansatz &ansatz,
                                BatchedHsWorkspace &arena)
    : BatchedHsCost(target, std::vector<const Ansatz *>{&ansatz}, arena)
{
}

template <size_t L>
BatchedHsCost<L>::BatchedHsCost(const Matrix &target,
                                const std::vector<const Ansatz *> &siblings,
                                BatchedHsWorkspace &arena)
    : ws(arena)
{
    QUEST_ASSERT(!siblings.empty(), "cost needs an ansatz");
    const Ansatz &first = *siblings.front();
    QUEST_ASSERT(target.isSquare(), "target must be square");
    QUEST_ASSERT(target.rows() == (size_t{1} << first.numQubits()),
                 "target dimension does not match ansatz width");
    dim = target.rows();
    const double n = static_cast<double>(dim);
    dimSquared = n * n;
    kernels = &kern::batch::batchKernelsFor<L>(dim);
    laneKernels = &kern::batch::batchKernelsFor<1>(dim);
    for (const Ansatz *a : siblings) {
        QUEST_ASSERT(siblings.size() == 1 || a->isSiblingOf(first),
                     "sibling ansätze must differ only in their final "
                     "layer");
        plans.push_back(compilePlan(*a));
    }
    // Siblings share all but their final CX/U3/U3.
    const bool several = siblings.size() > 1;
    shared = plans[0].ops.size() - (several ? 3 : 0);
    sharedU3 = plans[0].u3Count - (several ? 2 : 0);

    tcRe.resize(dim * dim);
    tcIm.resize(dim * dim);
    const Complex *t = target.data().data();
    for (size_t i = 0; i < dim * dim; ++i) {
        const Complex c = std::conj(t[i]);
        tcRe[i] = c.real();
        tcIm[i] = c.imag();
    }

    // Idle lanes evaluate with all-zero parameters; cache that gate
    // once so the per-op lane loop skips the trig for them.
    u3WithDerivatives(0.0, 0.0, 0.0, idleG, idleDg);

    // Warm the arena now so every evaluateBatch() is allocation-free.
    ws.ensure(dim, L, plans[0].u3Count, several);
}

template <size_t L>
void
BatchedHsCost<L>::finalLayer(size_t l, uint32_t s,
                             const std::vector<double> &x,
                             std::vector<double> &grad)
{
    const size_t dd = dim * dim;
    const CompiledPlan &plan = plans[s];
    const std::span<const OpPlan> ops(plan.ops.data() + shared,
                                      plan.ops.size() - shared);
    SweepArena &batch = ws.batch;
    SweepArena &one = ws.lane;

    // Gather the lane's shared-prefix product into the 1-lane sweep.
    const double *srcRe = batch.preRe + sharedU3 * dd * L;
    const double *srcIm = batch.preIm + sharedU3 * dd * L;
    for (size_t e = 0; e < dd; ++e) {
        one.preRe[e] = srcRe[e * L + l];
        one.preIm[e] = srcIm[e * L + l];
    }
    const std::array<const std::vector<double> *, 1> xs{&x};
    const Sweep<1> sweep{*laneKernels, dim, one, xs};
    sweep.forward(ops, idleG, idleDg);
    const size_t u3s = plan.u3Count - sharedU3;
    laneKernels->traceTarget(dim, tcRe.data(), tcIm.data(),
                             one.preRe + u3s * dd, one.preIm + u3s * dd,
                             one.tRe, one.tIm);
    std::copy(tcRe.begin(), tcRe.end(), one.bwdRe);
    std::copy(tcIm.begin(), tcIm.end(), one.bwdIm);
    const Complex tr(one.tRe[0], one.tIm[0]);
    sweep.backward(ops, {std::conj(tr)}, {&grad}, dimSquared);

    // Scatter its trace and backward accumulator back into the lane.
    batch.tRe[l] = one.tRe[0];
    batch.tIm[l] = one.tIm[0];
    for (size_t e = 0; e < dd; ++e) {
        batch.bwdRe[e * L + l] = one.bwdRe[e];
        batch.bwdIm[e * L + l] = one.bwdIm[e];
    }
}

template <size_t L>
void
BatchedHsCost<L>::evaluateBatch(
    const std::array<const std::vector<double> *, L> &xs,
    const Siblings &sibling, std::array<double, L> &f,
    const std::array<std::vector<double> *, L> &grads)
{
    // One sibling across the live lanes sweeps lane-uniform end to
    // end; several stop the uniform sweep before the final layer.
    bool mixed = false;
    std::optional<uint32_t> uniform;
    for (size_t l = 0; l < L; ++l) {
        if (!xs[l])
            continue;
        QUEST_ASSERT(sibling[l] < plans.size(), "sibling index out of range");
        mixed |= uniform && *uniform != sibling[l];
        if (!uniform)
            uniform = sibling[l];
        QUEST_ASSERT(static_cast<int>(xs[l]->size()) == paramCount(),
                     "parameter count mismatch");
        QUEST_ASSERT(grads[l] != nullptr,
                     "live lane requires a gradient output");
        grads[l]->resize(static_cast<size_t>(paramCount()));
    }
    const CompiledPlan &plan = plans[uniform.value_or(0)];
    const size_t count = plan.ops.size();
    const std::span<const OpPlan> head(plan.ops.data(),
                                       mixed ? shared : count);
    const size_t dd = dim * dim;
    const size_t ddL = dd * L;

    if (!ws.ensure(dim, L, plan.u3Count, shared < count))
        workspaceReuseCounter().increment();
    SweepArena &a = ws.batch;
    const Sweep<L> sweep{*kernels, dim, a, xs};

    // Prefix slice 0 is the identity in every lane.
    std::fill(a.preRe, a.preRe + ddL, 0.0);
    std::fill(a.preIm, a.preIm + ddL, 0.0);
    for (size_t i = 0; i < dim; ++i) {
        double *cell = a.preRe + (i * dim + i) * L;
        std::fill(cell, cell + L, 1.0);
    }
    sweep.forward(head, idleG, idleDg);

    // The backward walk starts from bt = (target^dagger)^T =
    // conj(target) in every lane; a mixed tick first runs each live
    // lane's final layer, which leaves that lane's trace and its bt
    // past the final layer.
    for (size_t e = 0; e < dd; ++e) {
        std::fill(a.bwdRe + e * L, a.bwdRe + e * L + L, tcRe[e]);
        std::fill(a.bwdIm + e * L, a.bwdIm + e * L + L, tcIm[e]);
    }
    if (mixed) {
        for (size_t l = 0; l < L; ++l) {
            if (xs[l])
                finalLayer(l, sibling[l], *xs[l], *grads[l]);
        }
    } else {
        kernels->traceTarget(dim, tcRe.data(), tcIm.data(),
                             a.preRe + plan.u3Count * ddL,
                             a.preIm + plan.u3Count * ddL, a.tRe, a.tIm);
    }
    std::array<Complex, L> trc;
    for (size_t l = 0; l < L; ++l)
        trc[l] = std::conj(Complex(a.tRe[l], a.tIm[l]));
    sweep.backward(head, trc, grads, dimSquared);

    for (size_t l = 0; l < L; ++l) {
        if (!xs[l])
            continue;
        const Complex tr(a.tRe[l], a.tIm[l]);
        f[l] = 1.0 - std::norm(tr) / dimSquared;
    }
}

template class BatchedHsCost<1>;
template class BatchedHsCost<2>;
template class BatchedHsCost<4>;
template class BatchedHsCost<kern::batch::kLanes>;

} // namespace quest::synth
