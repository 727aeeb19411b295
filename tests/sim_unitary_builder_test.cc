/**
 * @file
 * Cross-checks buildUnitary against the statevector simulator: column
 * j of the circuit unitary must equal the state obtained by applying
 * the circuit to basis state |j>. Then checks productTraces, the
 * block-product certify, against the buildUnitary oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numbers>
#include <numeric>

#include "algos/algorithms.hh"
#include "ir/circuit.hh"
#include "linalg/distance.hh"
#include "sim/statevector.hh"
#include "sim/unitary_builder.hh"
#include "util/rng.hh"

namespace quest {
namespace {

constexpr double pi = std::numbers::pi;

/** The circuit applied to basis state |j>. */
std::vector<Complex>
applyToBasis(const Circuit &circuit, size_t j)
{
    StateVector sv(circuit.numQubits());
    auto &amps = sv.amplitudes();
    std::fill(amps.begin(), amps.end(), Complex(0.0, 0.0));
    amps[j] = Complex(1.0, 0.0);
    sv.applyCircuit(circuit);
    return sv.amplitudes();
}

/** Column-by-column comparison against the simulator. */
void
expectMatchesSimulator(const Circuit &circuit)
{
    Matrix u = buildUnitary(circuit);
    const size_t dim = size_t{1} << circuit.numQubits();
    ASSERT_EQ(u.rows(), dim);
    ASSERT_EQ(u.cols(), dim);
    for (size_t j = 0; j < dim; ++j) {
        std::vector<Complex> column = applyToBasis(circuit, j);
        for (size_t r = 0; r < dim; ++r) {
            EXPECT_NEAR(std::abs(u(r, j) - column[r]), 0.0, 1e-12)
                << "column " << j << " row " << r;
        }
    }
}

TEST(UnitaryBuilder, SingleQubitGates)
{
    Circuit c(1);
    c.append(Gate::h(0));
    c.append(Gate::t(0));
    c.append(Gate::u3(0, 0.3, -1.2, 2.5));
    c.append(Gate::sx(0));
    expectMatchesSimulator(c);
}

TEST(UnitaryBuilder, TwoQubitGates)
{
    Circuit c(2);
    c.append(Gate::h(0));
    c.append(Gate::cx(0, 1));
    c.append(Gate::rzz(0, 1, 0.7));
    c.append(Gate::swap(0, 1));
    c.append(Gate::cp(1, 0, pi / 3));
    expectMatchesSimulator(c);
}

TEST(UnitaryBuilder, ThreeQubitGates)
{
    Circuit c(3);
    c.append(Gate::h(1));
    c.append(Gate::ccx(0, 1, 2));
    c.append(Gate::cx(2, 0));
    c.append(Gate::ry(1, 0.4));
    c.append(Gate::ccx(2, 0, 1));
    expectMatchesSimulator(c);
}

TEST(UnitaryBuilder, CxDirectionMatters)
{
    Circuit up(2), down(2);
    up.append(Gate::cx(0, 1));
    down.append(Gate::cx(1, 0));
    expectMatchesSimulator(up);
    expectMatchesSimulator(down);

    Matrix mu = buildUnitary(up);
    Matrix md = buildUnitary(down);
    double diff = 0.0;
    for (size_t r = 0; r < 4; ++r)
        for (size_t cidx = 0; cidx < 4; ++cidx)
            diff += std::abs(mu(r, cidx) - md(r, cidx));
    EXPECT_GT(diff, 1.0);
}

TEST(UnitaryBuilder, GateOrderMatters)
{
    Circuit hc(2), ch(2);
    hc.append(Gate::h(0));
    hc.append(Gate::cx(0, 1));
    ch.append(Gate::cx(0, 1));
    ch.append(Gate::h(0));
    expectMatchesSimulator(hc);
    expectMatchesSimulator(ch);

    Matrix a = buildUnitary(hc);
    Matrix b = buildUnitary(ch);
    double diff = 0.0;
    for (size_t r = 0; r < 4; ++r)
        for (size_t cidx = 0; cidx < 4; ++cidx)
            diff += std::abs(a(r, cidx) - b(r, cidx));
    EXPECT_GT(diff, 1.0);
}

TEST(UnitaryBuilder, WirePermutationRemapsTheUnitary)
{
    // The same block embedded on permuted wires must agree with the
    // simulator on the full register.
    Circuit block(2);
    block.append(Gate::h(0));
    block.append(Gate::cx(0, 1));
    block.append(Gate::rz(1, 0.9));

    Circuit embedded(3);
    embedded.appendCircuit(block, {2, 0});
    expectMatchesSimulator(embedded);

    // And a permutation is not a no-op: wires (2,0) differ from (0,2).
    Circuit direct(3);
    direct.appendCircuit(block, {0, 2});
    Matrix a = buildUnitary(embedded);
    Matrix b = buildUnitary(direct);
    double diff = 0.0;
    for (size_t r = 0; r < a.rows(); ++r)
        for (size_t cidx = 0; cidx < a.cols(); ++cidx)
            diff += std::abs(a(r, cidx) - b(r, cidx));
    EXPECT_GT(diff, 1.0);
}

TEST(UnitaryBuilder, AgreesWithCircuitUnitary)
{
    Circuit c = algos::tfim(3, 2);
    Matrix fast = buildUnitary(c);
    Matrix slow = circuitUnitary(c);
    ASSERT_EQ(fast.rows(), slow.rows());
    for (size_t r = 0; r < fast.rows(); ++r)
        for (size_t j = 0; j < fast.cols(); ++j)
            EXPECT_NEAR(std::abs(fast(r, j) - slow(r, j)), 0.0, 1e-11);
}

TEST(UnitaryBuilder, TrotterCircuitMatchesSimulator)
{
    expectMatchesSimulator(algos::heisenberg(3, 1));
    expectMatchesSimulator(algos::qft(3));
}

TEST(UnitaryBuilder, BarrierAndMeasureAreIgnored)
{
    Circuit with(2), without(2);
    with.append(Gate::h(0));
    with.append(Gate::barrier({0, 1}));
    with.append(Gate::cx(0, 1));
    with.append(Gate::measure(0));
    without.append(Gate::h(0));
    without.append(Gate::cx(0, 1));

    Matrix a = buildUnitary(with);
    Matrix b = buildUnitary(without);
    for (size_t r = 0; r < a.rows(); ++r)
        for (size_t j = 0; j < a.cols(); ++j)
            EXPECT_NEAR(std::abs(a(r, j) - b(r, j)), 0.0, 1e-14);
}

TEST(UnitaryBuilder, RejectsOversizedCircuits)
{
    EXPECT_DEATH(buildUnitary(Circuit(15)), "14");
}

// Widths 1-10 span dims 2-1024: below, at and above the tile width.
static_assert(kTraceTileWidth > 2 && kTraceTileWidth < 1024);

/** A random circuit of @p gates u3/cx gates on @p width wires. */
Circuit
randomCircuit(int width, int gates, Rng &rng)
{
    Circuit c(width);
    for (int i = 0; i < gates; ++i) {
        if (width > 1 && rng.uniform() < 0.4) {
            const int a = static_cast<int>(rng.uniformInt(width));
            const int b = (a + 1 + static_cast<int>(rng.uniformInt(
                                       width - 1))) % width;
            c.append(Gate::cx(a, b));
        } else {
            c.append(Gate::u3(static_cast<int>(rng.uniformInt(width)),
                              rng.uniform(-pi, pi), rng.uniform(-pi, pi),
                              rng.uniform(-pi, pi)));
        }
    }
    return c;
}

/**
 * Blocks of an n-qubit circuit, each with three random candidate
 * circuits; candidate 0 of every block is the "original". With five
 * or more wires the first two blocks are a 3- and a 4-qubit block on
 * non-contiguous wires; the rest take 1-4 random wires in random
 * order.
 */
struct BlockFixture
{
    int n;
    std::vector<std::vector<int>> wires;         //!< [block]
    std::vector<std::vector<Circuit>> circuits;  //!< [block][cand]
    std::vector<std::vector<Matrix>> unitaries;  //!< [block][cand]

    BlockFixture(int n, Rng &rng) : n(n)
    {
        if (n >= 5) {
            wires.push_back({n - 1, 0, 2});
            wires.push_back({0, 2, 3, n - 1});
        }
        std::vector<int> all(n);
        std::iota(all.begin(), all.end(), 0);
        for (int b = 0; b < 6; ++b) {
            const int k = 1 + static_cast<int>(
                                  rng.uniformInt(std::min(n, 4)));
            for (int i = n - 1; i > 0; --i)
                std::swap(all[i], all[rng.uniformInt(i + 1)]);
            wires.emplace_back(all.begin(), all.begin() + k);
        }
        for (const std::vector<int> &w : wires) {
            const int k = static_cast<int>(w.size());
            circuits.emplace_back();
            unitaries.emplace_back();
            for (int cand = 0; cand < 3; ++cand) {
                circuits.back().push_back(randomCircuit(k, 2 + 2 * k, rng));
                unitaries.back().push_back(
                    buildUnitary(circuits.back().back()));
            }
        }
    }

    /** The full circuit choosing candidate choice[b] in block b. */
    Circuit
    assemble(const std::vector<int> &choice) const
    {
        Circuit c(n);
        for (size_t b = 0; b < wires.size(); ++b)
            c.appendCircuit(circuits[b][choice[b]], wires[b]);
        return c;
    }

    /** The same operator as a product of the block unitaries. */
    FactorProduct
    product(const std::vector<int> &choice) const
    {
        FactorProduct p;
        for (size_t b = 0; b < wires.size(); ++b)
            p.push_back({&unitaries[b][choice[b]], &wires[b]});
        return p;
    }
};

/** Random choices; sample 0 is the all-original choice. */
std::vector<std::vector<int>>
randomChoices(const BlockFixture &f, int samples, Rng &rng)
{
    std::vector<std::vector<int>> choices(
        samples, std::vector<int>(f.wires.size(), 0));
    for (int s = 1; s < samples; ++s)
        for (int &c : choices[s])
            c = static_cast<int>(rng.uniformInt(3));
    return choices;
}

TEST(ProductTraces, MatchTheBuildUnitaryOracle)
{
    Rng rng(2024);
    ThreadPool pool(3);
    for (int n = 1; n <= 10; ++n) {
        const BlockFixture f(n, rng);
        const auto choices = randomChoices(f, 5, rng);
        std::vector<FactorProduct> products;
        for (const auto &choice : choices)
            products.push_back(f.product(choice));
        const std::vector<int> original(f.wires.size(), 0);
        const std::vector<Complex> traces =
            productTraces(n, f.product(original), products, pool);
        ASSERT_EQ(traces.size(), choices.size());

        const Matrix original_u = buildUnitary(f.assemble(original));
        const size_t dim = size_t{1} << n;
        for (size_t s = 0; s < choices.size(); ++s) {
            const Matrix sample_u = buildUnitary(f.assemble(choices[s]));
            // The normalized trace for every sample; the distance too
            // except for the all-original sample, where the sqrt near
            // zero amplifies rounding beyond any fixed tolerance.
            const Complex oracle = hsInnerProduct(original_u, sample_u);
            EXPECT_LE(std::abs(traces[s] - oracle) /
                          static_cast<double>(dim),
                      1e-12)
                << "n " << n << " sample " << s;
            if (choices[s] == original)
                continue;
            EXPECT_NEAR(hsDistanceFromTrace(traces[s], dim),
                        hsDistance(original_u, sample_u), 1e-12)
                << "n " << n << " sample " << s;
        }
    }
}

TEST(ProductTraces, BitIdenticalAcrossThreadCounts)
{
    Rng rng(7);
    const BlockFixture f(9, rng);  // 512 columns: many tiles
    const auto choices = randomChoices(f, 6, rng);
    std::vector<FactorProduct> products;
    for (const auto &choice : choices)
        products.push_back(f.product(choice));
    const FactorProduct reference =
        f.product(std::vector<int>(f.wires.size(), 0));

    ThreadPool serial(0);
    ThreadPool parallel(3);
    const std::vector<Complex> a =
        productTraces(9, reference, products, serial);
    const std::vector<Complex> b =
        productTraces(9, reference, products, parallel);
    ASSERT_EQ(a.size(), b.size());
    for (size_t s = 0; s < a.size(); ++s) {
        EXPECT_EQ(a[s].real(), b[s].real()) << "sample " << s;
        EXPECT_EQ(a[s].imag(), b[s].imag()) << "sample " << s;
    }
}

TEST(ProductTraces, FiredBudgetMeasuresNoProduct)
{
    Rng rng(3);
    const BlockFixture f(7, rng);
    const FactorProduct reference =
        f.product(std::vector<int>(f.wires.size(), 0));
    resilience::CancelToken token;
    token.cancel();
    ThreadPool pool(1);
    EXPECT_TRUE(productTraces(7, reference, {reference, reference}, pool,
                              resilience::Budget({}, &token))
                    .empty());
}

} // namespace
} // namespace quest
