/**
 * @file
 * Ansatz, cost-function and gradient tests. The dense reference
 * (dense_ansatz.hh) is checked against the circuit and finite
 * differences; the cost's analytic gradient (its 1-lane
 * instantiation) against finite differences and the dense
 * reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "dense_ansatz.hh"
#include "linalg/decompose.hh"
#include "linalg/distance.hh"
#include "sim/unitary_builder.hh"
#include "synth/ansatz.hh"
#include "synth/batch/batched_hs_cost.hh"
#include "util/rng.hh"

namespace quest {
namespace {

constexpr double pi = std::numbers::pi;

using HsCost = synth::BatchedHsCost<1>;

/** The objective alone (the gradient is computed and dropped). */
double
costAt(HsCost &cost, const std::vector<double> &x)
{
    std::vector<double> grad;
    return cost.evaluate(x, grad);
}

std::vector<double>
randomParams(int count, Rng &rng)
{
    std::vector<double> x(count);
    for (double &v : x)
        v = rng.uniform(-pi, pi);
    return x;
}

Ansatz
testAnsatz(int n, int layers, Rng &rng)
{
    Ansatz a = Ansatz::initialLayer(n);
    for (int l = 0; l < layers; ++l) {
        int p = static_cast<int>(rng.uniformInt(n));
        int q = (p + 1 + static_cast<int>(rng.uniformInt(n - 1))) % n;
        a.addLayer(p, q);
    }
    return a;
}

TEST(Ansatz, InitialLayerCounts)
{
    Ansatz a = Ansatz::initialLayer(3);
    EXPECT_EQ(a.paramCount(), 9);
    EXPECT_EQ(a.cnotCount(), 0);
}

TEST(Ansatz, AddLayerCounts)
{
    Ansatz a = Ansatz::initialLayer(2);
    a.addLayer(0, 1);
    EXPECT_EQ(a.paramCount(), 12);  // 2 + 2 U3s
    EXPECT_EQ(a.cnotCount(), 1);
}

TEST(Ansatz, InstantiateMatchesUnitary)
{
    Rng rng(3);
    Ansatz a = testAnsatz(3, 4, rng);
    auto params = randomParams(a.paramCount(), rng);
    Matrix direct = denseUnitary(a, params);
    Matrix via_circuit = circuitUnitary(a.instantiate(params));
    EXPECT_TRUE(direct.approxEqual(via_circuit, 1e-10));
}

TEST(Ansatz, UnitaryIsUnitary)
{
    Rng rng(5);
    Ansatz a = testAnsatz(4, 5, rng);
    auto params = randomParams(a.paramCount(), rng);
    EXPECT_TRUE(denseUnitary(a, params).isUnitary(1e-9));
}

TEST(Ansatz, GradientMatchesFiniteDifference)
{
    Rng rng(7);
    Ansatz a = testAnsatz(3, 3, rng);
    auto params = randomParams(a.paramCount(), rng);

    Matrix u;
    std::vector<Matrix> grads;
    denseUnitaryAndGradient(a, params, u, grads);
    EXPECT_TRUE(u.approxEqual(denseUnitary(a, params), 1e-12));

    const double h = 1e-6;
    for (int p = 0; p < a.paramCount(); ++p) {
        auto plus = params, minus = params;
        plus[p] += h;
        minus[p] -= h;
        Matrix fd = (denseUnitary(a, plus) - denseUnitary(a, minus)) *
                    Complex(1.0 / (2.0 * h), 0.0);
        EXPECT_LT(fd.maxAbsDiff(grads[p]), 1e-7) << "param " << p;
    }
}

TEST(U3Derivative, MatchesFiniteDifference)
{
    const double t = 0.7, p = -0.4, l = 1.2, h = 1e-7;
    for (int which = 0; which < 3; ++which) {
        double dt = which == 0 ? h : 0.0;
        double dp = which == 1 ? h : 0.0;
        double dl = which == 2 ? h : 0.0;
        Matrix fd = (makeU3(t + dt, p + dp, l + dl) -
                     makeU3(t - dt, p - dp, l - dl)) *
                    Complex(1.0 / (2.0 * h), 0.0);
        EXPECT_LT(fd.maxAbsDiff(u3Derivative(t, p, l, which)), 1e-6);
    }
}

TEST(HsCost, ZeroAtExactTarget)
{
    Rng rng(9);
    Ansatz a = testAnsatz(2, 2, rng);
    auto params = randomParams(a.paramCount(), rng);
    Matrix target = denseUnitary(a, params);
    synth::BatchedHsWorkspace arena;
    HsCost cost(target, a, arena);
    const double f = costAt(cost, params);
    EXPECT_NEAR(f, 0.0, 1e-10);
    EXPECT_NEAR(std::sqrt(std::max(0.0, f)), 0.0, 1e-5);
}

TEST(HsCost, GlobalPhaseInvariant)
{
    Rng rng(11);
    Ansatz a = testAnsatz(2, 2, rng);
    auto params = randomParams(a.paramCount(), rng);
    Matrix target = denseUnitary(a, params) * std::polar(1.0, 0.9);
    synth::BatchedHsWorkspace arena;
    HsCost cost(target, a, arena);
    EXPECT_NEAR(costAt(cost, params), 0.0, 1e-10);
}

TEST(HsCost, GradientMatchesFiniteDifference)
{
    Rng rng(13);
    for (int n = 2; n <= 4; ++n) {
        Ansatz a = testAnsatz(n, 3, rng);
        auto params = randomParams(a.paramCount(), rng);
        Matrix target = denseUnitary(a, randomParams(a.paramCount(), rng));
        synth::BatchedHsWorkspace arena;
        HsCost cost(target, a, arena);

        std::vector<double> grad;
        double f = cost.evaluate(params, grad);
        EXPECT_GE(f, -1e-12);
        EXPECT_LE(f, 1.0 + 1e-12);

        const double h = 1e-6;
        for (int p = 0; p < a.paramCount(); ++p) {
            auto plus = params, minus = params;
            plus[p] += h;
            minus[p] -= h;
            double fd = (costAt(cost, plus) - costAt(cost, minus)) /
                        (2.0 * h);
            EXPECT_NEAR(grad[p], fd, 1e-6)
                << "n=" << n << " param " << p;
        }
    }
}

TEST(HsCost, FastPathMatchesReferenceGradient)
{
    // The fast trace-reduction gradient must equal the slow
    // full-matrix reference: grad_p = -2 Re(conj(T) Tr(U+ dA/dp))/N^2.
    Rng rng(15);
    Ansatz a = testAnsatz(3, 4, rng);
    auto params = randomParams(a.paramCount(), rng);
    Matrix target = denseUnitary(a, randomParams(a.paramCount(), rng));
    synth::BatchedHsWorkspace arena;
    HsCost cost(target, a, arena);

    std::vector<double> fast;
    cost.evaluate(params, fast);

    Matrix u;
    std::vector<Matrix> grads;
    denseUnitaryAndGradient(a, params, u, grads);
    Complex tr = hsInnerProduct(target, u);
    const double n2 = static_cast<double>(target.rows()) *
                      static_cast<double>(target.rows());
    for (int p = 0; p < a.paramCount(); ++p) {
        Complex dtr = hsInnerProduct(target, grads[p]);
        double reference = -2.0 * (std::conj(tr) * dtr).real() / n2;
        EXPECT_NEAR(fast[p], reference, 1e-10) << "param " << p;
    }
}

TEST(HsCost, DistanceMatchesHsDistance)
{
    Rng rng(17);
    Ansatz a = testAnsatz(2, 2, rng);
    auto params = randomParams(a.paramCount(), rng);
    Matrix target = denseUnitary(a, randomParams(a.paramCount(), rng));
    synth::BatchedHsWorkspace arena;
    HsCost cost(target, a, arena);
    EXPECT_NEAR(std::sqrt(std::max(0.0, costAt(cost, params))),
                hsDistance(target, denseUnitary(a, params)), 1e-10);
}

TEST(Ansatz, RejectsBadWires)
{
    Ansatz a(2);
    EXPECT_DEATH(a.addU3(2), "range");
    EXPECT_DEATH(a.addCx(0, 0), "wires");
}

TEST(Ansatz, ParamCountMismatchPanics)
{
    Ansatz a = Ansatz::initialLayer(2);
    EXPECT_DEATH(a.instantiate({0.0}), "mismatch");
}

} // namespace
} // namespace quest
