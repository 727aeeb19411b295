/**
 * @file
 * Property tests for the instantiation hot path. Every kernel's
 * 1-lane instantiation (synth/batch/batch_kernels.hh) is checked
 * against the naive dense embedUnitary reference across all
 * supported dimensions and wires; golden IEEE bit patterns pin the
 * kernels' operation order on every table; every ISA's 2-, 4- and
 * 8-lane tables and costs must match the 1-lane ones bit for bit,
 * lane by lane; the fused U3+derivative
 * evaluation is checked against the reference factories, and the
 * cost's gradient against finite differences and the dense
 * reference (dense_ansatz.hh); sibling costs must match each child's
 * 1-lane cost lane by lane. A global operator-new probe asserts the
 * zero-allocation contract of evaluation and of L-BFGS steps after
 * warm-up.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "dense_ansatz.hh"
#include "linalg/decompose.hh"
#include "linalg/embed.hh"
#include "linalg/matrix.hh"
#include "synth/ansatz.hh"
#include "synth/batch/batch_kernels.hh"
#include "synth/batch/batched_hs_cost.hh"
#include "synth/lbfgs.hh"
#include "util/rng.hh"

// ---------------------------------------------------------------------
// Global allocation probe: counts every operator-new in this test
// binary. Assertions snapshot the counter around a measured region;
// the replacement itself never allocates.
namespace {
std::atomic<uint64_t> g_allocation_count{0};

/**
 * Every replacement delete releases through here. Kept out of line so
 * the compiler never sees std::free applied directly to a pointer
 * that an inlined operator new returned, which GCC reports as a
 * mismatched new/delete pair.
 */
[[gnu::noinline]] void
releaseBlock(void *p) noexcept
{
    std::free(p);
}
} // namespace

void *
operator new(std::size_t n)
{
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void
operator delete(void *p) noexcept
{
    releaseBlock(p);
}

void
operator delete[](void *p) noexcept
{
    releaseBlock(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    releaseBlock(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    releaseBlock(p);
}
// ---------------------------------------------------------------------

namespace quest {
namespace {

constexpr double pi = std::numbers::pi;
constexpr size_t kL = kern::batch::kLanes;

using HsCost = synth::BatchedHsCost<1>;

Matrix
randomMatrix(size_t dim, Rng &rng)
{
    // Deliberately non-unitary entries: the kernels must be exact
    // linear-algebra primitives, not just unitary-preserving maps.
    Matrix m(dim, dim);
    for (Complex &v : m.data())
        v = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    return m;
}

Matrix
cxMatrix()
{
    // Control = most significant qubit, matching embedUnitary's
    // qubit-list convention.
    return Matrix{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}, {0, 0, 1, 0}};
}

/** A few entangling layers on top of the initial U3 layer. */
Ansatz
testAnsatz(int n)
{
    Ansatz a = Ansatz::initialLayer(n);
    for (int q = 0; q + 1 < n; ++q)
        a.addLayer(q, q + 1);
    if (n >= 2)
        a.addLayer(n - 1, 0);
    return a;
}

/** The objective alone (the gradient is computed and dropped). */
double
costAt(HsCost &cost, const std::vector<double> &x)
{
    std::vector<double> grad;
    return cost.evaluate(x, grad);
}

/**
 * Lane-expanded split-plane storage: element e of lane l at
 * [e * lanes + l]. With one lane it is simply a dense matrix's
 * real and imaginary parts.
 */
struct Planes
{
    std::vector<double> re, im;
};

/** Scatter @p ms (one row-major array per lane) into SoA planes. */
Planes
pack(const std::vector<const Complex *> &ms, size_t elems)
{
    const size_t lanes = ms.size();
    Planes p{std::vector<double>(elems * lanes),
             std::vector<double>(elems * lanes)};
    for (size_t l = 0; l < lanes; ++l) {
        for (size_t e = 0; e < elems; ++e) {
            p.re[e * lanes + l] = ms[l][e].real();
            p.im[e * lanes + l] = ms[l][e].imag();
        }
    }
    return p;
}

/** Element e of lane l. */
Complex
at(const Planes &p, size_t lanes, size_t e, size_t l)
{
    return Complex(p.re[e * lanes + l], p.im[e * lanes + l]);
}

/** One dense matrix as 1-lane planes, and back. */
Planes
split(const Matrix &m)
{
    return pack({m.data().data()}, m.rows() * m.cols());
}

Matrix
join(const Planes &p, size_t dim)
{
    Matrix m(dim, dim);
    for (size_t e = 0; e < dim * dim; ++e)
        m.data()[e] = at(p, 1, e, 0);
    return m;
}

/** The 1-lane table for a dim x dim block. */
const kern::batch::BatchKernelSet &
oneLane(size_t dim)
{
    return kern::batch::batchKernelsFor<1>(dim);
}

TEST(Kernels, LeftU3MatchesEmbedReference)
{
    Rng rng(11);
    for (int n = 1; n <= 5; ++n) {
        const size_t dim = size_t{1} << n;
        const auto &k = oneLane(dim);
        for (int q = 0; q < n; ++q) {
            Matrix g2 = randomMatrix(2, rng);
            Matrix m = randomMatrix(dim, rng);
            Matrix expect = embedUnitary(g2, {q}, n) * m;
            Planes mp = split(m);
            const Planes gp = split(g2);
            k.leftU3(dim, mp.re.data(), mp.im.data(), gp.re.data(),
                     gp.im.data(), size_t{1} << (n - 1 - q));
            EXPECT_LT(join(mp, dim).maxAbsDiff(expect), 1e-12)
                << "n=" << n << " q=" << q;
        }
    }
}

TEST(Kernels, LeftCxMatchesEmbedReference)
{
    Rng rng(13);
    for (int n = 2; n <= 5; ++n) {
        const size_t dim = size_t{1} << n;
        const auto &k = oneLane(dim);
        for (int c = 0; c < n; ++c) {
            for (int t = 0; t < n; ++t) {
                if (c == t)
                    continue;
                Matrix m = randomMatrix(dim, rng);
                Matrix expect = embedUnitary(cxMatrix(), {c, t}, n) * m;
                Planes mp = split(m);
                k.leftCx(dim, mp.re.data(), mp.im.data(),
                         size_t{1} << (n - 1 - c),
                         size_t{1} << (n - 1 - t));
                EXPECT_LT(join(mp, dim).maxAbsDiff(expect), 1e-12)
                    << "n=" << n << " c=" << c << " t=" << t;
            }
        }
    }
}

TEST(Kernels, ReduceTraceTMatchesDenseTrace)
{
    Rng rng(15);
    for (int n = 1; n <= 5; ++n) {
        const size_t dim = size_t{1} << n;
        const auto &k = oneLane(dim);
        for (int q = 0; q < n; ++q) {
            Matrix p = randomMatrix(dim, rng);
            Matrix b = randomMatrix(dim, rng);
            const Planes pp = split(p);
            const Planes bt = split(b.transpose());
            Planes w2{std::vector<double>(4), std::vector<double>(4)};
            k.reduceTraceT(dim, pp.re.data(), pp.im.data(), bt.re.data(),
                           bt.im.data(), size_t{1} << (n - 1 - q),
                           w2.re.data(), w2.im.data());
            // Tr(P * B * embed(d)) = sum_{a,c} w2[a*2+c] * d(c, a)
            // for ANY 2x2 d, so the contraction must match the dense
            // trace for a random one.
            Matrix d = randomMatrix(2, rng);
            const Complex expect =
                (p * b * embedUnitary(d, {q}, n)).trace();
            const Complex got =
                at(w2, 1, 0, 0) * d(0, 0) + at(w2, 1, 1, 0) * d(1, 0) +
                at(w2, 1, 2, 0) * d(0, 1) + at(w2, 1, 3, 0) * d(1, 1);
            EXPECT_LT(std::abs(got - expect), 1e-10)
                << "n=" << n << " q=" << q;
        }
    }
}

TEST(Kernels, U3EntriesAndDerivativesMatchReference)
{
    Rng rng(16);
    for (int trial = 0; trial < 25; ++trial) {
        const double th = rng.uniform(-2.0 * pi, 2.0 * pi);
        const double ph = rng.uniform(-2.0 * pi, 2.0 * pi);
        const double la = rng.uniform(-2.0 * pi, 2.0 * pi);

        Complex g[4];
        Complex dg[3][4];
        u3WithDerivatives(th, ph, la, g, dg);

        const Matrix ref = makeU3(th, ph, la);
        for (int i = 0; i < 4; ++i)
            EXPECT_LT(std::abs(g[i] - ref.data()[i]), 1e-14);
        for (int which = 0; which < 3; ++which) {
            const Matrix dref = u3Derivative(th, ph, la, which);
            for (int i = 0; i < 4; ++i)
                EXPECT_LT(std::abs(dg[which][i] - dref.data()[i]), 1e-14)
                    << "which=" << which << " i=" << i;
        }
    }
}

// ---------------------------------------------------------------------
// Golden bits. The kernels' results depend on their exact operation
// order (rounding), and every ISA and lane count must keep that
// order. These digests were recorded from the kernels as they stood
// when the 1-lane and 8-lane tables became one source; any
// reordering of arithmetic in the kernel bodies changes them. Inputs
// come from a self-contained splitmix64 stream and literal gate
// entries, so no libm value is involved.

namespace golden {

struct SplitMix
{
    uint64_t s;

    uint64_t
    next()
    {
        uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [-1, 1), exactly (53-bit grid, exact subtract). */
    double
    unit()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-52 - 1.0;
    }
};

/** A dim x dim matrix drawn real-then-imaginary per element. */
std::vector<Complex>
input(size_t dim, SplitMix &mix)
{
    std::vector<Complex> m(dim * dim);
    for (Complex &v : m) {
        const double re = mix.unit();
        v = Complex(re, mix.unit());
    }
    return m;
}

constexpr double kGateRe[4][4] = {
    {0.8775825618903728, -0.2590347676436004, 0.3930348940620004,
     0.7038051540226106},
    {-0.4161468365471424, 0.6536436208636119, -0.7568024953079282,
     0.1411200080598672},
    {0.5403023058681398, -0.8414709848078965, 0.9092974268256817,
     -0.9899924966004454},
    {0.2836621854632262, 0.9589242746631385, -0.2794154981989259,
     0.6569865987187891}};
constexpr double kGateIm[4][4] = {
    {0.0, -0.4034226801113349, 0.2738679455224082, -0.5262569087014935},
    {0.7457052121767203, -0.1455000338086135, 0.4121184852417566,
     -0.9111302618846769},
    {-0.3623577544766736, 0.9601702866503660, -0.0044256979880508,
     0.8366556385360561},
    {-0.6536436208636119, 0.2879033166650653, 0.9880316240928618,
     -0.7539022543433046}};

/** FNV-1a over 64-bit IEEE patterns. */
struct Digest
{
    uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(Complex c)
    {
        for (double x : {c.real(), c.imag()}) {
            h ^= std::bit_cast<uint64_t>(x);
            h *= 0x100000001b3ULL;
        }
    }
};

/** One dim's digests: every case over logical lanes 0..kL-1. */
struct Row
{
    size_t dim;
    uint64_t leftU3, leftCx, reduceTraceT, traceTarget;
};

// Logical lane l of dim D draws M then N from SplitMix{(D << 8) | l}.
//   leftU3:       M <- embed(G_{(l+s)%4}) * M for the s-th wire bit,
//                 every bit ascending; digest M.
//   leftCx:       M <- CX(bc, bt) * M for every ordered bit pair
//                 (bc outer, bt inner, both ascending); digest M.
//   reduceTraceT: (P = M, bt = N) at every bit ascending; digest w2.
//   traceTarget:  Tr(T^dagger M) with T lane 0's N; digest the trace.
constexpr Row kGolden[] = {
    {2, 0x30cb05cd62e00364ULL, 0xd401fbd823f6b531ULL, 0xed077b40bd32911fULL,
     0xb7f5d5c6209cea04ULL},
    {4, 0xf77a069433ba3d23ULL, 0x64326941272bf967ULL, 0x22c21e4ddc1afdc2ULL,
     0x8dc24f79ab6afb4bULL},
    {8, 0x5ef3c5c627d71410ULL, 0xb41b9af6648f260bULL, 0xf09fa08fdefaa12cULL,
     0xba9ede31f9d87a93ULL},
    {16, 0xc50f84b7c7142fb4ULL, 0x7645bbf3a4515f69ULL,
     0x4fb5fb8becf6cff5ULL, 0x4251fbb20db8a8b4ULL},
    {32, 0xb9cbf630d9e32111ULL, 0xc7a5bfec132251f9ULL,
     0x94c34c3011befc17ULL, 0x15b95baf6d20fa8fULL},
};

/** Run the golden cases through a @p lanes-lane table, kL logical
 *  lanes in groups of @p lanes, and digest them in lane order. */
Row
digests(const kern::batch::BatchKernelSet &k, size_t lanes, size_t dim)
{
    const size_t dd = dim * dim;
    std::vector<std::vector<Complex>> ms, ns;
    for (size_t l = 0; l < kL; ++l) {
        SplitMix mix{(dim << 8) | l};
        ms.push_back(input(dim, mix));
        ns.push_back(input(dim, mix));
    }
    const std::vector<Complex> &target = ns[0];
    std::vector<double> tcRe(dd), tcIm(dd);
    for (size_t e = 0; e < dd; ++e) {
        tcRe[e] = std::conj(target[e]).real();
        tcIm[e] = std::conj(target[e]).imag();
    }

    Digest u3, cx, rt, tt;
    for (size_t l0 = 0; l0 < kL; l0 += lanes) {
        std::vector<const Complex *> mPtrs, nPtrs;
        for (size_t j = 0; j < lanes; ++j) {
            mPtrs.push_back(ms[l0 + j].data());
            nPtrs.push_back(ns[l0 + j].data());
        }

        Planes m = pack(mPtrs, dd);
        size_t s = 0;
        for (size_t bit = 1; bit < dim; bit <<= 1, ++s) {
            Planes g{std::vector<double>(4 * lanes),
                     std::vector<double>(4 * lanes)};
            for (size_t j = 0; j < lanes; ++j) {
                const size_t gi = (l0 + j + s) % 4;
                for (size_t e = 0; e < 4; ++e) {
                    g.re[e * lanes + j] = kGateRe[gi][e];
                    g.im[e * lanes + j] = kGateIm[gi][e];
                }
            }
            k.leftU3(dim, m.re.data(), m.im.data(), g.re.data(),
                     g.im.data(), bit);
        }
        for (size_t j = 0; j < lanes; ++j)
            for (size_t e = 0; e < dd; ++e)
                u3.add(at(m, lanes, e, j));

        m = pack(mPtrs, dd);
        for (size_t bc = 1; bc < dim; bc <<= 1)
            for (size_t bt = 1; bt < dim; bt <<= 1)
                if (bc != bt)
                    k.leftCx(dim, m.re.data(), m.im.data(), bc, bt);
        for (size_t j = 0; j < lanes; ++j)
            for (size_t e = 0; e < dd; ++e)
                cx.add(at(m, lanes, e, j));

        m = pack(mPtrs, dd);
        const Planes n = pack(nPtrs, dd);
        std::vector<Planes> w2s;
        for (size_t bit = 1; bit < dim; bit <<= 1) {
            Planes w2{std::vector<double>(4 * lanes),
                      std::vector<double>(4 * lanes)};
            k.reduceTraceT(dim, m.re.data(), m.im.data(), n.re.data(),
                           n.im.data(), bit, w2.re.data(), w2.im.data());
            w2s.push_back(w2);
        }
        for (size_t j = 0; j < lanes; ++j)
            for (const Planes &w2 : w2s)
                for (size_t e = 0; e < 4; ++e)
                    rt.add(at(w2, lanes, e, j));

        Planes tr{std::vector<double>(lanes), std::vector<double>(lanes)};
        k.traceTarget(dim, tcRe.data(), tcIm.data(), m.re.data(),
                      m.im.data(), tr.re.data(), tr.im.data());
        for (size_t j = 0; j < lanes; ++j)
            tt.add(at(tr, lanes, 0, j));
    }
    return {dim, u3.h, cx.h, rt.h, tt.h};
}

} // namespace golden

constexpr kern::batch::SimdIsa kAllIsas[] = {
    kern::batch::SimdIsa::Scalar, kern::batch::SimdIsa::Avx2,
    kern::batch::SimdIsa::Avx512};

/** The ISAs whose 8-lane tables exist on this build+host. */
std::vector<kern::batch::SimdIsa>
availableIsas()
{
    std::vector<kern::batch::SimdIsa> isas;
    for (auto isa : kAllIsas) {
        if (kern::batch::batchKernelsForIsa(isa, 2))
            isas.push_back(isa);
    }
    return isas;
}

/** One multi-lane kernel table of this build+host. */
struct WideTable
{
    std::string name;  //!< "<isa> <lanes>-lane"
    size_t lanes;
    const kern::batch::BatchKernelSet *kernels;
};

/** Every 2-, 4- and 8-lane table of this build+host for a dim x dim
 *  block. */
std::vector<WideTable>
wideTables(size_t dim)
{
    std::vector<WideTable> tables;
    auto add = [&](kern::batch::SimdIsa isa, size_t lanes,
                   const kern::batch::BatchKernelSet *k) {
        if (k)
            tables.push_back({std::string(kern::batch::simdIsaName(isa)) +
                                  " " + std::to_string(lanes) + "-lane",
                              lanes, k});
    };
    for (auto isa : kAllIsas) {
        add(isa, 2, kern::batch::batchKernelsForIsa<2>(isa, dim));
        add(isa, 4, kern::batch::batchKernelsForIsa<4>(isa, dim));
        add(isa, kL, kern::batch::batchKernelsForIsa<kL>(isa, dim));
    }
    return tables;
}

TEST(Kernels, NarrowTablesDispatchToTheAvx2Unit)
{
    using kern::batch::SimdIsa;
    const SimdIsa active = kern::batch::activeSimdIsa();
    EXPECT_EQ(kern::batch::activeSimdIsaFor<1>(), SimdIsa::Scalar);
    EXPECT_EQ(kern::batch::activeSimdIsaFor<kL>(), active);
    const bool avx2 =
        active != SimdIsa::Scalar &&
        kern::batch::batchKernelsForIsa<4>(SimdIsa::Avx2, 2) != nullptr;
    const SimdIsa narrow = avx2 ? SimdIsa::Avx2 : SimdIsa::Scalar;
    EXPECT_EQ(kern::batch::activeSimdIsaFor<2>(), narrow);
    EXPECT_EQ(kern::batch::activeSimdIsaFor<4>(), narrow);
    for (size_t dim = 2; dim <= 32; dim <<= 1) {
        EXPECT_EQ(&kern::batch::batchKernelsFor<1>(dim),
                  kern::batch::batchKernelsForIsa<1>(SimdIsa::Scalar, dim));
        EXPECT_EQ(&kern::batch::batchKernelsFor<2>(dim),
                  kern::batch::batchKernelsForIsa<2>(narrow, dim));
        EXPECT_EQ(&kern::batch::batchKernelsFor<4>(dim),
                  kern::batch::batchKernelsForIsa<4>(narrow, dim));
        EXPECT_EQ(&kern::batch::batchKernelsFor<kL>(dim),
                  kern::batch::batchKernelsForIsa<kL>(active, dim));
    }
}

TEST(Kernels, GoldenBitsPinTheOperationOrder)
{
    for (const golden::Row &want : golden::kGolden) {
        std::vector<std::pair<std::string, golden::Row>> runs;
        runs.emplace_back("1-lane",
                          golden::digests(oneLane(want.dim), 1, want.dim));
        for (const WideTable &t : wideTables(want.dim)) {
            runs.emplace_back(
                t.name, golden::digests(*t.kernels, t.lanes, want.dim));
        }
        for (const auto &[table, got] : runs) {
            EXPECT_EQ(got.leftU3, want.leftU3)
                << table << " dim=" << want.dim;
            EXPECT_EQ(got.leftCx, want.leftCx)
                << table << " dim=" << want.dim;
            EXPECT_EQ(got.reduceTraceT, want.reduceTraceT)
                << table << " dim=" << want.dim;
            EXPECT_EQ(got.traceTarget, want.traceTarget)
                << table << " dim=" << want.dim;
        }
    }
}

TEST(HsCostWorkspace, GradientMatchesFiniteDifference)
{
    for (int n = 2; n <= 4; ++n) {
        Rng rng(100 + static_cast<uint64_t>(n));
        Ansatz a = testAnsatz(n);
        std::vector<double> truth(a.paramCount());
        for (double &v : truth)
            v = rng.uniform(-pi, pi);
        const Matrix target = denseUnitary(a, truth);

        std::vector<double> x(a.paramCount());
        for (double &v : x)
            v = rng.uniform(-pi, pi);
        synth::BatchedHsWorkspace arena;
        HsCost cost(target, a, arena);
        std::vector<double> grad;
        cost.evaluate(x, grad);
        ASSERT_EQ(grad.size(), x.size());

        const double h = 1e-6;
        for (size_t i = 0; i < x.size(); ++i) {
            std::vector<double> xp = x, xm = x;
            xp[i] += h;
            xm[i] -= h;
            const double fd =
                (costAt(cost, xp) - costAt(cost, xm)) / (2.0 * h);
            EXPECT_NEAR(grad[i], fd, 1e-5) << "n=" << n << " i=" << i;
        }
    }
}

TEST(HsCostWorkspace, MatchesDenseReferencePath)
{
    Rng rng(200);
    Ansatz a = testAnsatz(3);
    std::vector<double> truth(a.paramCount());
    for (double &v : truth)
        v = rng.uniform(-pi, pi);
    const Matrix target = denseUnitary(a, truth);

    std::vector<double> x(a.paramCount());
    for (double &v : x)
        v = rng.uniform(-pi, pi);
    synth::BatchedHsWorkspace arena;
    HsCost cost(target, a, arena);
    std::vector<double> grad;
    const double f = cost.evaluate(x, grad);

    // Dense reference: the embed-and-multiply unitary and gradient
    // plus the textbook f = 1 - |Tr(T^dagger A)|^2 / N^2 and its
    // chain rule.
    Matrix u;
    std::vector<Matrix> grads;
    denseUnitaryAndGradient(a, x, u, grads);
    const double n2 = static_cast<double>(target.rows()) *
                      static_cast<double>(target.rows());
    const Complex tr = (target.adjoint() * u).trace();
    EXPECT_NEAR(f, 1.0 - std::norm(tr) / n2, 1e-12);
    ASSERT_EQ(grads.size(), grad.size());
    for (size_t i = 0; i < grad.size(); ++i) {
        const Complex dtr = (target.adjoint() * grads[i]).trace();
        const double ref = -2.0 * (std::conj(tr) * dtr).real() / n2;
        EXPECT_NEAR(grad[i], ref, 1e-10) << "param " << i;
    }
}

TEST(HsCostWorkspace, EvaluateIsAllocationFreeAfterWarmup)
{
    Rng rng(300);
    Ansatz a = testAnsatz(3);
    std::vector<double> truth(a.paramCount());
    for (double &v : truth)
        v = rng.uniform(-pi, pi);
    const Matrix target = denseUnitary(a, truth);

    synth::BatchedHsWorkspace arena;
    HsCost cost(target, a, arena);
    std::vector<double> x(a.paramCount());
    for (double &v : x)
        v = rng.uniform(-pi, pi);
    std::vector<double> grad;
    // Warm-up: sizes the gradient vector and touches every lazily
    // initialized static (metric counters) once.
    cost.evaluate(x, grad);

    const uint64_t ws_allocs = arena.allocations;
    const uint64_t ws_reuses = arena.reuses;
    double sink = 0.0;
    const uint64_t before =
        g_allocation_count.load(std::memory_order_relaxed);
    for (int i = 0; i < 100; ++i) {
        x[static_cast<size_t>(i) % x.size()] = std::sin(0.7 * i);
        sink += cost.evaluate(x, grad);
    }
    const uint64_t after =
        g_allocation_count.load(std::memory_order_relaxed);

    EXPECT_EQ(after - before, 0u)
        << "evaluate() allocated in steady state (sink=" << sink << ")";
    EXPECT_EQ(arena.allocations, ws_allocs)
        << "workspace grew after construction";
    EXPECT_EQ(arena.reuses, ws_reuses + 100);
}

// ---------------------------------------------------------------------
// The multi-lane tables and costs: every kernel (8 lanes below; every
// width in the golden test above) and the full cost at 2, 4 and 8
// lanes must be BIT-identical per lane to the 1-lane instantiation,
// on every ISA the build and the host provide. All comparisons below are
// EXPECT_EQ on doubles — exact, not approximate.

/** kL random dim x dim matrices, one per lane. */
std::vector<Matrix>
laneMatrices(size_t dim, Rng &rng)
{
    std::vector<Matrix> ms;
    for (size_t l = 0; l < kL; ++l)
        ms.push_back(randomMatrix(dim, rng));
    return ms;
}

Planes
packLanes(const std::vector<Matrix> &ms)
{
    std::vector<const Complex *> ptrs;
    for (const Matrix &m : ms)
        ptrs.push_back(m.data().data());
    return pack(ptrs, ms[0].rows() * ms[0].cols());
}

/** Require lane l of @p got to equal the 1-lane planes @p want. */
void
expectLaneEquals(const Planes &got, size_t l, const Planes &want,
                 const std::string &where)
{
    for (size_t e = 0; e < want.re.size(); ++e) {
        EXPECT_EQ(got.re[e * kL + l], want.re[e]) << where << " e=" << e;
        EXPECT_EQ(got.im[e * kL + l], want.im[e]) << where << " e=" << e;
    }
}

TEST(BatchKernels, LeftU3MatchesScalarBitExact)
{
    Rng rng(401);
    for (auto isa : availableIsas()) {
        for (size_t dim : {size_t{2}, size_t{4}, size_t{8}, size_t{16},
                           size_t{32}}) {
            const auto *bk = kern::batch::batchKernelsForIsa(isa, dim);
            ASSERT_NE(bk, nullptr);
            for (size_t bit = 1; bit < dim; bit <<= 1) {
                const std::vector<Matrix> ms = laneMatrices(dim, rng);
                std::vector<Matrix> gs;
                for (size_t l = 0; l < kL; ++l)
                    gs.push_back(randomMatrix(2, rng));
                Planes m = packLanes(ms);
                const Planes g = packLanes(gs);
                // The fused out-of-place variant must write exactly
                // what the in-place kernel computes.
                Planes o{std::vector<double>(m.re.size()),
                         std::vector<double>(m.im.size())};
                bk->leftU3Out(dim, o.re.data(), o.im.data(), m.re.data(),
                              m.im.data(), g.re.data(), g.im.data(), bit);
                bk->leftU3(dim, m.re.data(), m.im.data(), g.re.data(),
                           g.im.data(), bit);
                EXPECT_EQ(o.re, m.re);
                EXPECT_EQ(o.im, m.im);
                for (size_t l = 0; l < kL; ++l) {
                    Planes ref = split(ms[l]);
                    const Planes gl = split(gs[l]);
                    oneLane(dim).leftU3(dim, ref.re.data(), ref.im.data(),
                                        gl.re.data(), gl.im.data(), bit);
                    expectLaneEquals(
                        m, l, ref,
                        std::string(kern::batch::simdIsaName(isa)) +
                            " dim=" + std::to_string(dim) +
                            " lane=" + std::to_string(l));
                }
            }
        }
    }
}

TEST(BatchKernels, LeftCxMatchesScalarBitExact)
{
    Rng rng(402);
    for (auto isa : availableIsas()) {
        for (size_t dim : {size_t{4}, size_t{8}, size_t{16}, size_t{32}}) {
            const auto *bk = kern::batch::batchKernelsForIsa(isa, dim);
            ASSERT_NE(bk, nullptr);
            for (size_t bc = 1; bc < dim; bc <<= 1) {
                for (size_t bt = 1; bt < dim; bt <<= 1) {
                    if (bc == bt)
                        continue;
                    const std::vector<Matrix> ms = laneMatrices(dim, rng);
                    Planes m = packLanes(ms);
                    bk->leftCx(dim, m.re.data(), m.im.data(), bc, bt);
                    for (size_t l = 0; l < kL; ++l) {
                        Planes ref = split(ms[l]);
                        oneLane(dim).leftCx(dim, ref.re.data(),
                                            ref.im.data(), bc, bt);
                        expectLaneEquals(
                            m, l, ref,
                            std::string(kern::batch::simdIsaName(isa)) +
                                " dim=" + std::to_string(dim) +
                                " lane=" + std::to_string(l));
                    }
                }
            }
        }
    }
}

TEST(BatchKernels, ReduceTraceTMatchesScalarBitExact)
{
    Rng rng(403);
    for (auto isa : availableIsas()) {
        for (size_t dim : {size_t{2}, size_t{4}, size_t{8}, size_t{16},
                           size_t{32}}) {
            const auto *bk = kern::batch::batchKernelsForIsa(isa, dim);
            ASSERT_NE(bk, nullptr);
            for (size_t bit = 1; bit < dim; bit <<= 1) {
                const std::vector<Matrix> ps = laneMatrices(dim, rng);
                const std::vector<Matrix> bs = laneMatrices(dim, rng);
                const Planes p = packLanes(ps);
                const Planes b = packLanes(bs);
                Planes w2{std::vector<double>(4 * kL),
                          std::vector<double>(4 * kL)};
                bk->reduceTraceT(dim, p.re.data(), p.im.data(), b.re.data(),
                                 b.im.data(), bit, w2.re.data(),
                                 w2.im.data());
                for (size_t l = 0; l < kL; ++l) {
                    const Planes pl = split(ps[l]);
                    const Planes bl = split(bs[l]);
                    Planes ref{std::vector<double>(4),
                               std::vector<double>(4)};
                    oneLane(dim).reduceTraceT(
                        dim, pl.re.data(), pl.im.data(), bl.re.data(),
                        bl.im.data(), bit, ref.re.data(), ref.im.data());
                    expectLaneEquals(
                        w2, l, ref,
                        std::string(kern::batch::simdIsaName(isa)) +
                            " dim=" + std::to_string(dim) +
                            " lane=" + std::to_string(l));
                }
            }
        }
    }
}

TEST(BatchKernels, TraceTargetMatchesScalarBitExact)
{
    Rng rng(404);
    for (auto isa : availableIsas()) {
        for (size_t dim : {size_t{2}, size_t{4}, size_t{8}, size_t{16},
                           size_t{32}}) {
            const auto *bk = kern::batch::batchKernelsForIsa(isa, dim);
            ASSERT_NE(bk, nullptr);
            const size_t dd = dim * dim;
            const Matrix tgt = randomMatrix(dim, rng);
            std::vector<double> tcRe(dd), tcIm(dd);
            for (size_t e = 0; e < dd; ++e) {
                tcRe[e] = std::conj(tgt.data()[e]).real();
                tcIm[e] = std::conj(tgt.data()[e]).imag();
            }
            const std::vector<Matrix> us = laneMatrices(dim, rng);
            const Planes u = packLanes(us);
            Planes tr{std::vector<double>(kL), std::vector<double>(kL)};
            bk->traceTarget(dim, tcRe.data(), tcIm.data(), u.re.data(),
                            u.im.data(), tr.re.data(), tr.im.data());
            for (size_t l = 0; l < kL; ++l) {
                const Planes ul = split(us[l]);
                Planes ref{std::vector<double>(1), std::vector<double>(1)};
                oneLane(dim).traceTarget(dim, tcRe.data(), tcIm.data(),
                                         ul.re.data(), ul.im.data(),
                                         ref.re.data(), ref.im.data());
                expectLaneEquals(
                    tr, l, ref,
                    std::string(kern::batch::simdIsaName(isa)) +
                        " dim=" + std::to_string(dim) +
                        " lane=" + std::to_string(l));
            }
        }
    }
}

/**
 * Evaluate every live-lane count 1..W through one W-lane cost on
 * kernel table @p k and require each live lane's value and gradient
 * to equal the 1-lane cost's bit for bit. Reusing the cost across
 * live counts also checks that no stale lane leaks into the next
 * evaluation.
 */
template <size_t W>
void
expectCostMatchesOneLane(const kern::batch::BatchKernelSet &k,
                         const Ansatz &a, const Matrix &target, Rng &rng,
                         const std::string &where)
{
    synth::BatchedHsWorkspace arena;
    synth::BatchedHsCost<W> cost(target, a, arena);
    cost.useKernels(k);
    synth::BatchedHsWorkspace refArena;
    HsCost ref(target, a, refArena);
    for (size_t live = 1; live <= W; ++live) {
        std::array<std::vector<double>, W> xsStore;
        std::array<const std::vector<double> *, W> xs{};
        std::array<std::vector<double>, W> gradStore;
        std::array<std::vector<double> *, W> grads{};
        for (size_t l = 0; l < live; ++l) {
            xsStore[l].resize(static_cast<size_t>(a.paramCount()));
            for (double &v : xsStore[l])
                v = rng.uniform(-pi, pi);
            xs[l] = &xsStore[l];
            grads[l] = &gradStore[l];
        }
        std::array<double, W> f{};
        cost.evaluateBatch(xs, f, grads);

        for (size_t l = 0; l < live; ++l) {
            std::vector<double> refGrad;
            const double refF = ref.evaluate(xsStore[l], refGrad);
            EXPECT_EQ(f[l], refF)
                << where << " live=" << live << " lane=" << l;
            ASSERT_EQ(gradStore[l].size(), refGrad.size());
            for (size_t i = 0; i < refGrad.size(); ++i) {
                EXPECT_EQ(gradStore[l][i], refGrad[i])
                    << where << " live=" << live << " lane=" << l
                    << " param=" << i;
            }
        }
    }
}

TEST(BatchedHsCostSuite, EvaluateMatchesScalarBitExactAllLaneCounts)
{
    // Dims 2..32: the specialized kernels and the generic-dim ones.
    for (int n = 1; n <= 5; ++n) {
        Rng rng(500 + static_cast<uint64_t>(n));
        Ansatz a = testAnsatz(n);
        std::vector<double> truth(a.paramCount());
        for (double &v : truth)
            v = rng.uniform(-pi, pi);
        const Matrix target = denseUnitary(a, truth);

        for (const WideTable &t : wideTables(target.rows())) {
            const std::string where = t.name + " n=" + std::to_string(n);
            switch (t.lanes) {
              case 2:
                expectCostMatchesOneLane<2>(*t.kernels, a, target, rng,
                                            where);
                break;
              case 4:
                expectCostMatchesOneLane<4>(*t.kernels, a, target, rng,
                                            where);
                break;
              default:
                expectCostMatchesOneLane<kL>(*t.kernels, a, target, rng,
                                             where);
                break;
            }
        }
    }
}

/**
 * Up to four siblings of testAnsatz(n): the same prefix plus one
 * final layer each, on different ordered wire pairs.
 */
std::vector<Ansatz>
siblingsOf(int n)
{
    std::vector<std::pair<int, int>> pairs;
    for (int a = 0; a < n && pairs.size() < 4; ++a)
        pairs.emplace_back(a, (a + 1) % n);
    if (n > 2 && pairs.size() < 4)
        pairs.emplace_back(0, 2);
    std::vector<Ansatz> kids;
    for (auto [a, b] : pairs) {
        kids.push_back(testAnsatz(n));
        kids.back().addLayer(a, b);
    }
    return kids;
}

/**
 * Evaluate every live-lane count 1..W through one W-lane sibling
 * cost (kernel table @p k, or the dispatched one when null), with the
 * live lanes spread over the siblings — mixed ticks that run each
 * lane's final layer on its own — and once with every lane on the
 * last sibling (a lane-uniform tick of a sibling other than the
 * first). Each live lane's value and gradient must equal its
 * sibling's own 1-lane cost bit for bit.
 */
template <size_t W>
void
expectSiblingsMatchEachChild(const kern::batch::BatchKernelSet *k,
                             const std::vector<Ansatz> &kids,
                             const Matrix &target, Rng &rng,
                             const std::string &where)
{
    std::vector<const Ansatz *> ptrs;
    synth::BatchedHsWorkspace refArena;
    std::vector<std::unique_ptr<HsCost>> refs;
    for (const Ansatz &kid : kids) {
        ptrs.push_back(&kid);
        refs.push_back(std::make_unique<HsCost>(target, kid, refArena));
    }
    synth::BatchedHsWorkspace arena;
    synth::BatchedHsCost<W> cost(target, ptrs, arena);
    if (k)
        cost.useKernels(*k);
    const size_t nKids = kids.size();
    for (size_t live = 1; live <= W + 1; ++live) {
        const bool uniform = live == W + 1;
        const size_t lanes = uniform ? W : live;
        std::array<std::vector<double>, W> xsStore;
        std::array<const std::vector<double> *, W> xs{};
        std::array<std::vector<double>, W> gradStore;
        std::array<std::vector<double> *, W> grads{};
        typename synth::BatchedHsCost<W>::Siblings sibling{};
        for (size_t l = 0; l < lanes; ++l) {
            xsStore[l].resize(static_cast<size_t>(cost.paramCount()));
            for (double &v : xsStore[l])
                v = rng.uniform(-pi, pi);
            xs[l] = &xsStore[l];
            grads[l] = &gradStore[l];
            sibling[l] = static_cast<uint32_t>(
                uniform ? nKids - 1 : (l + live) % nKids);
        }
        std::array<double, W> f{};
        cost.evaluateBatch(xs, sibling, f, grads);

        for (size_t l = 0; l < lanes; ++l) {
            const std::string at = where + " live=" + std::to_string(live) +
                                   " lane=" + std::to_string(l) +
                                   " sibling=" + std::to_string(sibling[l]);
            std::vector<double> refGrad;
            const double refF =
                refs[sibling[l]]->evaluate(xsStore[l], refGrad);
            EXPECT_EQ(f[l], refF) << at;
            ASSERT_EQ(gradStore[l].size(), refGrad.size()) << at;
            for (size_t i = 0; i < refGrad.size(); ++i)
                EXPECT_EQ(gradStore[l][i], refGrad[i]) << at << " param=" << i;
        }
    }
}

TEST(BatchedHsCostSuite, SiblingLanesMatchEachChildBitExact)
{
    // Dims 4..32: the specialized kernels and the generic-dim ones,
    // on every table and width, the 1-lane sibling cost included.
    for (int n = 2; n <= 5; ++n) {
        Rng rng(650 + static_cast<uint64_t>(n));
        const std::vector<Ansatz> kids = siblingsOf(n);
        std::vector<double> truth(kids[0].paramCount());
        for (double &v : truth)
            v = rng.uniform(-pi, pi);
        const Matrix target = denseUnitary(kids[0], truth);
        const std::string where = "n=" + std::to_string(n);

        expectSiblingsMatchEachChild<1>(nullptr, kids, target, rng,
                                        "1-lane " + where);
        for (const WideTable &t : wideTables(target.rows())) {
            const std::string at = t.name + " " + where;
            switch (t.lanes) {
              case 2:
                expectSiblingsMatchEachChild<2>(t.kernels, kids, target,
                                                rng, at);
                break;
              case 4:
                expectSiblingsMatchEachChild<4>(t.kernels, kids, target,
                                                rng, at);
                break;
              default:
                expectSiblingsMatchEachChild<kL>(t.kernels, kids, target,
                                                 rng, at);
                break;
            }
        }
    }
}

TEST(BatchedHsCostSuite, WidthsShareOneArena)
{
    // The driver's costs of every width share one arena sized by the
    // widest: narrower costs built over it never grow it, and
    // evaluation through it stays allocation-free.
    Rng rng(660);
    const std::vector<Ansatz> kids = siblingsOf(3);
    std::vector<const Ansatz *> ptrs;
    for (const Ansatz &kid : kids)
        ptrs.push_back(&kid);
    const Matrix target = denseUnitary(
        kids[0], std::vector<double>(kids[0].paramCount(), 0.3));
    synth::BatchedHsWorkspace arena;
    synth::BatchedHsCost<kL> wide(target, ptrs, arena);
    EXPECT_EQ(arena.allocations, 1u);
    synth::BatchedHsCost<2> narrow(target, ptrs, arena);
    synth::BatchedHsCost<1> one(target, ptrs, arena);

    std::array<std::vector<double>, 2> xsStore;
    std::array<const std::vector<double> *, 2> xs{};
    std::array<std::vector<double>, 2> gradStore;
    std::array<std::vector<double> *, 2> grads{};
    for (size_t l = 0; l < 2; ++l) {
        xsStore[l].resize(static_cast<size_t>(narrow.paramCount()));
        for (double &v : xsStore[l])
            v = rng.uniform(-pi, pi);
        xs[l] = &xsStore[l];
        grads[l] = &gradStore[l];
    }
    std::array<double, 2> f{};
    narrow.evaluateBatch(xs, {0, 1}, f, grads);  // sizes the gradients
    const uint64_t before =
        g_allocation_count.load(std::memory_order_relaxed);
    for (int i = 0; i < 10; ++i) {
        narrow.evaluateBatch(xs, {0, 1}, f, grads);
        one.evaluate(xsStore[0], gradStore[0]);
    }
    EXPECT_EQ(g_allocation_count.load(std::memory_order_relaxed), before);
    EXPECT_EQ(arena.allocations, 1u);
}

TEST(BatchedHsCostSuite, GradientMatchesFiniteDifference)
{
    for (int n = 2; n <= 3; ++n) {
        Rng rng(600 + static_cast<uint64_t>(n));
        Ansatz a = testAnsatz(n);
        std::vector<double> truth(a.paramCount());
        for (double &v : truth)
            v = rng.uniform(-pi, pi);
        const Matrix target = denseUnitary(a, truth);

        std::vector<double> x(a.paramCount());
        for (double &v : x)
            v = rng.uniform(-pi, pi);

        synth::BatchedHsWorkspace arena;
        synth::BatchedHsCost<kL> cost(target, a, arena);
        std::array<const std::vector<double> *, kL> xs{};
        std::array<std::vector<double>, kL> gradStore;
        std::array<std::vector<double> *, kL> grads{};
        std::array<double, kL> f{};
        xs[0] = &x;
        grads[0] = &gradStore[0];
        cost.evaluateBatch(xs, f, grads);
        const std::vector<double> grad = gradStore[0];

        // Central differences batched two-at-a-time: lane 0 = x+h,
        // lane 1 = x-h.
        const double h = 1e-6;
        for (size_t i = 0; i < x.size(); ++i) {
            std::vector<double> xp = x, xm = x;
            xp[i] += h;
            xm[i] -= h;
            std::array<const std::vector<double> *, kL> fdxs{};
            std::array<std::vector<double> *, kL> fdgrads{};
            fdxs[0] = &xp;
            fdxs[1] = &xm;
            fdgrads[0] = &gradStore[0];
            fdgrads[1] = &gradStore[1];
            std::array<double, kL> fdf{};
            cost.evaluateBatch(fdxs, fdf, fdgrads);
            const double fd = (fdf[0] - fdf[1]) / (2.0 * h);
            EXPECT_NEAR(grad[i], fd, 1e-5) << "n=" << n << " i=" << i;
        }
    }
}

TEST(BatchedHsCostSuite, EvaluateBatchIsAllocationFreeAfterWarmup)
{
    Rng rng(700);
    Ansatz a = testAnsatz(3);
    std::vector<double> truth(a.paramCount());
    for (double &v : truth)
        v = rng.uniform(-pi, pi);
    const Matrix target = denseUnitary(a, truth);

    synth::BatchedHsWorkspace arena;
    synth::BatchedHsCost<kL> cost(target, a, arena);
    std::array<std::vector<double>, kL> xsStore;
    std::array<const std::vector<double> *, kL> xs{};
    std::array<std::vector<double>, kL> gradStore;
    std::array<std::vector<double> *, kL> grads{};
    for (size_t l = 0; l < kL; ++l) {
        xsStore[l].resize(static_cast<size_t>(a.paramCount()));
        for (double &v : xsStore[l])
            v = rng.uniform(-pi, pi);
        xs[l] = &xsStore[l];
        grads[l] = &gradStore[l];
    }
    std::array<double, kL> f{};
    // Warm-up sizes the gradient vectors and touches the counter
    // statics once.
    cost.evaluateBatch(xs, f, grads);

    const uint64_t ws_allocs = arena.allocations;
    double sink = 0.0;
    const uint64_t before =
        g_allocation_count.load(std::memory_order_relaxed);
    for (int i = 0; i < 50; ++i) {
        xsStore[static_cast<size_t>(i) % kL][0] = std::sin(0.7 * i);
        cost.evaluateBatch(xs, f, grads);
        sink += f[0];
    }
    const uint64_t after =
        g_allocation_count.load(std::memory_order_relaxed);

    EXPECT_EQ(after - before, 0u)
        << "evaluateBatch() allocated in steady state (sink=" << sink
        << ")";
    EXPECT_EQ(arena.allocations, ws_allocs)
        << "SoA workspace grew after construction";
    EXPECT_EQ(arena.allocations, 1u);
}

TEST(LbfgsMachine, AcceptedStepsAreAllocationFreeAfterWarmup)
{
    // The 50-dimensional extended Rosenbrock function from its
    // classic start, both tolerances off: the run goes to its
    // 200-iteration cap, accepting curvature pairs all the way. Once
    // the history ring is full an accepted step reuses the evicted
    // pair's buffers, so nothing in the query/consume loop allocates.
    constexpr size_t n = 50;
    auto rosenbrock = [](const std::vector<double> &x,
                         std::vector<double> &g) {
        double v = 0.0;
        std::fill(g.begin(), g.end(), 0.0);
        for (size_t i = 0; i + 1 < x.size(); ++i) {
            const double a = x[i + 1] - x[i] * x[i];
            const double b = 1.0 - x[i];
            v += 100.0 * a * a + b * b;
            g[i] += -400.0 * a * x[i] - 2.0 * b;
            g[i + 1] += 200.0 * a;
        }
        return v;
    };
    std::vector<double> x0(n);
    for (size_t i = 0; i < n; ++i)
        x0[i] = i % 2 ? 1.0 : -1.2;
    LbfgsOptions opts;
    opts.maxIterations = 200;
    opts.gradTolerance = 0.0;
    opts.valueTolerance = 0.0;
    LbfgsMachine machine(std::move(x0), opts);
    std::vector<double> grad(n);
    auto step = [&] {
        const double f = rosenbrock(machine.queryPoint(), grad);
        machine.consume(f, grad);
    };

    // Warm-up: enough accepted steps to fill the history ring.
    while (!machine.done() && machine.evaluations() < 40)
        step();
    const uint64_t before =
        g_allocation_count.load(std::memory_order_relaxed);
    while (!machine.done())
        step();
    const uint64_t after =
        g_allocation_count.load(std::memory_order_relaxed);

    const LbfgsResult r = machine.takeResult();
    EXPECT_EQ(r.iterations, opts.maxIterations) << "run ended early";
    EXPECT_EQ(after - before, 0u)
        << "L-BFGS allocated in steady state (value=" << r.value << ")";
}

TEST(HsCostWorkspace, ConstructorWarmsTheArena)
{
    Rng rng(301);
    Ansatz a = testAnsatz(2);
    std::vector<double> truth(a.paramCount());
    for (double &v : truth)
        v = rng.uniform(-pi, pi);
    const Matrix target = denseUnitary(a, truth);

    synth::BatchedHsWorkspace arena;
    HsCost cost(target, a, arena);
    // The constructor's single ensure() is the only growth; every
    // evaluate() afterwards is a pure reuse.
    EXPECT_EQ(arena.allocations, 1u);
    EXPECT_EQ(arena.reuses, 0u);
    std::vector<double> x(a.paramCount(), 0.25);
    costAt(cost, x);
    EXPECT_EQ(arena.allocations, 1u);
    EXPECT_EQ(arena.reuses, 1u);
}

} // namespace
} // namespace quest
