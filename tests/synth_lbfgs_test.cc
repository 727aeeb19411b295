/**
 * @file
 * L-BFGS minimizer tests on standard optimization problems.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "obs/metrics.hh"
#include "synth/ansatz.hh"
#include "synth/instantiater.hh"
#include "synth/lbfgs.hh"
#include "util/names.hh"
#include "util/rng.hh"

namespace quest {
namespace {

TEST(Lbfgs, QuadraticBowl)
{
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        double v = 0.0;
        if (g)
            g->resize(x.size());
        for (size_t i = 0; i < x.size(); ++i) {
            v += (x[i] - 1.0) * (x[i] - 1.0);
            if (g)
                (*g)[i] = 2.0 * (x[i] - 1.0);
        }
        return v;
    };
    LbfgsResult r = lbfgsMinimize(f, {5.0, -3.0, 0.0});
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.value, 0.0, 1e-10);
    for (double xi : r.x)
        EXPECT_NEAR(xi, 1.0, 1e-5);
}

TEST(Lbfgs, IllConditionedQuadratic)
{
    // f = x0^2 + 1000 x1^2.
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        if (g)
            *g = {2.0 * x[0], 2000.0 * x[1]};
        return x[0] * x[0] + 1000.0 * x[1] * x[1];
    };
    LbfgsResult r = lbfgsMinimize(f, {3.0, 1.0});
    EXPECT_NEAR(r.value, 0.0, 1e-8);
}

TEST(Lbfgs, Rosenbrock2d)
{
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        double a = 1.0 - x[0];
        double b = x[1] - x[0] * x[0];
        if (g) {
            *g = {-2.0 * a - 400.0 * x[0] * b, 200.0 * b};
        }
        return a * a + 100.0 * b * b;
    };
    LbfgsOptions opts;
    opts.maxIterations = 2000;
    LbfgsResult r = lbfgsMinimize(f, {-1.2, 1.0}, opts);
    EXPECT_NEAR(r.x[0], 1.0, 1e-4);
    EXPECT_NEAR(r.x[1], 1.0, 1e-4);
}

TEST(Lbfgs, TrigLandscape)
{
    // Smooth periodic objective with a known minimum of -2.
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        if (g)
            *g = {std::sin(x[0]), std::sin(x[1])};
        return -std::cos(x[0]) - std::cos(x[1]);
    };
    LbfgsResult r = lbfgsMinimize(f, {0.3, -0.4});
    EXPECT_NEAR(r.value, -2.0, 1e-8);
}

TEST(Lbfgs, AlreadyAtMinimum)
{
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        if (g)
            *g = {2.0 * x[0]};
        return x[0] * x[0];
    };
    LbfgsResult r = lbfgsMinimize(f, {0.0});
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.value, 0.0, 1e-12);
}

TEST(Lbfgs, EmptyParameterVector)
{
    GradObjective f = [](const std::vector<double> &,
                         std::vector<double> *) { return 7.0; };
    LbfgsResult r = lbfgsMinimize(f, {});
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.value, 7.0);
}

TEST(Lbfgs, RespectsIterationCap)
{
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        double a = 1.0 - x[0];
        double b = x[1] - x[0] * x[0];
        if (g)
            *g = {-2.0 * a - 400.0 * x[0] * b, 200.0 * b};
        return a * a + 100.0 * b * b;
    };
    LbfgsOptions opts;
    opts.maxIterations = 3;
    LbfgsResult r = lbfgsMinimize(f, {-1.2, 1.0}, opts);
    EXPECT_LE(r.iterations, 3);
}

TEST(Lbfgs, CapHitsCountRunsEndedByTheIterationCap)
{
    auto &reg = obs::MetricsRegistry::global();
    auto &calls = reg.counter(names::kMetricLbfgsCalls);
    auto &capHits = reg.counter(names::kMetricLbfgsCapHits);

    // An unreachable goal and a cap of 5: every start runs into the
    // cap, so every L-BFGS run is a cap hit.
    Ansatz a = Ansatz::initialLayer(2);
    a.addLayer(0, 1);
    Rng trng(3);
    Matrix target(4, 4);
    for (Complex &v : target.data())
        v = Complex(trng.uniform(-1.0, 1.0), trng.uniform(-1.0, 1.0));
    InstantiaterOptions opts;
    opts.multistarts = 6;
    opts.lbfgs.maxIterations = 5;
    opts.goal = -1.0;
    Rng rng(11);
    uint64_t calls0 = calls.value(), hits0 = capHits.value();
    instantiate(target, a, rng, opts);
    EXPECT_EQ(calls.value() - calls0, 6u);
    EXPECT_EQ(capHits.value() - hits0, calls.value() - calls0);

    // A run that converges first is no cap hit.
    GradObjective bowl = [](const std::vector<double> &x,
                            std::vector<double> *g) {
        if (g)
            *g = {2.0 * (x[0] - 1.0)};
        return (x[0] - 1.0) * (x[0] - 1.0);
    };
    calls0 = calls.value();
    hits0 = capHits.value();
    EXPECT_TRUE(lbfgsMinimize(bowl, {4.0}).converged);
    EXPECT_EQ(calls.value() - calls0, 1u);
    EXPECT_EQ(capHits.value(), hits0);
}

TEST(Lbfgs, MonotoneNonIncreasing)
{
    // The line search enforces sufficient decrease, so the final
    // value can never exceed the starting value.
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        double v = 0.0;
        if (g)
            g->resize(x.size());
        for (size_t i = 0; i < x.size(); ++i) {
            v += std::pow(x[i], 4) - 3.0 * x[i] * x[i] + x[i];
            if (g)
                (*g)[i] = 4.0 * std::pow(x[i], 3) - 6.0 * x[i] + 1.0;
        }
        return v;
    };
    std::vector<double> x0 = {2.0, -2.0, 0.5};
    std::vector<double> dummy;
    double f0 = f(x0, &dummy);
    LbfgsResult r = lbfgsMinimize(f, x0);
    EXPECT_LE(r.value, f0);
}

// ---------------------------------------------------------------------
// LbfgsMachine (synth/lbfgs.hh) is the one L-BFGS: lbfgsMinimize
// drives it with a callable objective and the multistart lane driver
// steps many machines in lockstep. Each case pins, bit for bit, the
// outcome the loop-owning minimizer produced before it became a
// state machine: final value, iteration count, flags, evaluation
// count and final point. Any change to the arithmetic or the control
// flow shows up here.

/** A recorded run: IEEE bit patterns of value and final point. */
struct Recorded
{
    uint64_t value;
    int iterations;
    bool converged;
    int evaluations;
    std::vector<uint64_t> x;
};

/** Drive a machine to completion with a serial objective and require
 *  the recorded outcome bit for bit. */
void
expectMachineMatchesMinimize(const GradObjective &objective,
                             std::vector<double> x0,
                             const Recorded &want,
                             const LbfgsOptions &options = {})
{
    LbfgsMachine machine(std::move(x0), options);
    std::vector<double> grad;
    while (!machine.done()) {
        const double f = objective(machine.queryPoint(), &grad);
        machine.consume(f, grad);
    }
    const int evaluations = machine.evaluations();
    const LbfgsResult r = machine.takeResult();

    EXPECT_EQ(std::bit_cast<uint64_t>(r.value), want.value) << r.value;
    EXPECT_EQ(r.iterations, want.iterations);
    EXPECT_EQ(r.converged, want.converged);
    EXPECT_EQ(r.stopped, resilience::StopReason::None);
    EXPECT_EQ(evaluations, want.evaluations);
    ASSERT_EQ(r.x.size(), want.x.size());
    for (size_t i = 0; i < r.x.size(); ++i)
        EXPECT_EQ(std::bit_cast<uint64_t>(r.x[i]), want.x[i])
            << "i=" << i << " x=" << r.x[i];
}

TEST(LbfgsMachine, MatchesMinimizeOnQuadraticBowl)
{
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        double v = 0.0;
        if (g)
            g->resize(x.size());
        for (size_t i = 0; i < x.size(); ++i) {
            v += (x[i] - 1.0) * (x[i] - 1.0);
            if (g)
                (*g)[i] = 2.0 * (x[i] - 1.0);
        }
        return v;
    };
    expectMachineMatchesMinimize(
        f, {5.0, -3.0, 0.0},
        {0x0000000000000000, 2, true, 3,
         {0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}});
}

TEST(LbfgsMachine, MatchesMinimizeOnIllConditionedQuadratic)
{
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        if (g)
            *g = {2.0 * x[0], 2000.0 * x[1]};
        return x[0] * x[0] + 1000.0 * x[1] * x[1];
    };
    expectMachineMatchesMinimize(
        f, {3.0, 1.0},
        {0x3a72c61a2cba8cc3, 5, true, 10,
         {0xbd31411352c72000, 0xbcaa79bf1ca00000}});
}

TEST(LbfgsMachine, MatchesMinimizeOnRosenbrock)
{
    // Long run: many line-search rejections and curvature updates —
    // exercises every branch of the machine.
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        double a = 1.0 - x[0];
        double b = x[1] - x[0] * x[0];
        if (g)
            *g = {-2.0 * a - 400.0 * x[0] * b, 200.0 * b};
        return a * a + 100.0 * b * b;
    };
    LbfgsOptions opts;
    opts.maxIterations = 2000;
    expectMachineMatchesMinimize(
        f, {-1.2, 1.0},
        {0x3be193e320ea8800, 44, true, 55,
         {0x3fefffffffee6097, 0x3fefffffffdb2ada}},
        opts);
}

TEST(LbfgsMachine, MatchesMinimizeOnTrigLandscape)
{
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        if (g)
            *g = {std::sin(x[0]), std::sin(x[1])};
        return -std::cos(x[0]) - std::cos(x[1]);
    };
    expectMachineMatchesMinimize(
        f, {0.3, -0.4},
        {0xc000000000000000, 4, true, 5,
         {0x3ddd5865f776a800, 0x3db7f1fd3ee0d000}});
}

TEST(LbfgsMachine, MatchesMinimizeAtTheMinimum)
{
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        if (g)
            *g = {2.0 * x[0]};
        return x[0] * x[0];
    };
    expectMachineMatchesMinimize(f, {0.0},
                                 {0x0000000000000000, 1, true, 1,
                                  {0x0000000000000000}});
}

TEST(LbfgsMachine, MatchesMinimizeOnEmptyParameterVector)
{
    GradObjective f = [](const std::vector<double> &,
                         std::vector<double> *) { return 7.0; };
    expectMachineMatchesMinimize(f, {},
                                 {0x401c000000000000, 0, true, 1, {}});
}

TEST(LbfgsMachine, MatchesMinimizeUnderIterationCap)
{
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        double a = 1.0 - x[0];
        double b = x[1] - x[0] * x[0];
        if (g)
            *g = {-2.0 * a - 400.0 * x[0] * b, 200.0 * b};
        return a * a + 100.0 * b * b;
    };
    const std::pair<int, Recorded> caps[] = {
        {0, {0x4038333333333332, 0, false, 1,
             {0xbff3333333333333, 0x3ff0000000000000}}},
        {1, {0x40286cde49af35d4, 1, false, 6,
             {0xbfed15aec4ca7072, 0x3ff1e6ad50007b56}}},
        {3, {0x401075cc8e640201, 3, false, 8,
             {0xbff074d4f1874ccc, 0x3ff0e84eea605062}}},
    };
    for (const auto &[cap, want] : caps) {
        LbfgsOptions opts;
        opts.maxIterations = cap;
        expectMachineMatchesMinimize(f, {-1.2, 1.0}, want, opts);
    }
}

TEST(LbfgsMachine, MatchesMinimizeOnNonFiniteObjective)
{
    // A diverged start reports value = inf without touching the
    // point.
    GradObjective f = [](const std::vector<double> &x,
                         std::vector<double> *g) {
        if (g)
            g->assign(x.size(), 0.0);
        return std::numeric_limits<double>::quiet_NaN();
    };
    expectMachineMatchesMinimize(f, {1.0, 2.0},
                                 {0x7ff0000000000000, 0, false, 1,
                                  {0x3ff0000000000000, 0x4000000000000000}});
}

} // namespace
} // namespace quest
