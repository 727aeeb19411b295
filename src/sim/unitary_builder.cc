#include "sim/unitary_builder.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "util/logging.hh"
#include "util/names.hh"

namespace quest {

namespace {

/**
 * Columns [col0, col0 + width) of a 2^n x 2^n operator, as split
 * real and imaginary planes (row-major, row length width).
 */
struct Tile
{
    size_t dim;
    size_t width;
    std::vector<double> re;
    std::vector<double> im;

    Tile(size_t dim, size_t width)
        : dim(dim), width(width), re(dim * width), im(dim * width)
    {
    }

    /** Load columns [col0, col0 + width) of the identity. */
    void
    setIdentity(size_t col0)
    {
        std::fill(re.begin(), re.end(), 0.0);
        std::fill(im.begin(), im.end(), 0.0);
        for (size_t j = 0; j < width; ++j)
            re[(col0 + j) * width + j] = 1.0;
    }
};

/**
 * Left-multiply the tile by a k-qubit factor: mixes the row groups
 * that differ only in the factor's wire bits. Rows are contiguous, so
 * each group streams through @p scratch. Zero entries are skipped
 * (exact, and most of a permutation gate). The arithmetic per element
 * is std::complex's, in the same order, so the bits match a complex
 * row-mixing of the same factors.
 */
void
mixRows(Tile &tile, const OperatorFactor &factor, int n_qubits,
        std::vector<double> &scratch)
{
    const Matrix &g = *factor.unitary;
    const std::vector<int> &wires = *factor.wires;
    const size_t k = wires.size();
    const size_t sub_dim = size_t{1} << k;
    QUEST_ASSERT(g.rows() == sub_dim && g.cols() == sub_dim,
                 "factor on ", k, " wires is ", g.rows(), "x", g.cols());
    const size_t width = tile.width;

    std::vector<size_t> offsets(sub_dim);
    size_t mask = 0;
    {
        std::vector<size_t> bit(k);
        for (size_t i = 0; i < k; ++i) {
            bit[i] = size_t{1} << (n_qubits - 1 - wires[i]);
            mask |= bit[i];
        }
        for (size_t sub = 0; sub < sub_dim; ++sub) {
            size_t off = 0;
            for (size_t i = 0; i < k; ++i)
                if ((sub >> (k - 1 - i)) & 1u)
                    off |= bit[i];
            offsets[sub] = off;
        }
    }

    scratch.resize(2 * sub_dim * width);
    double *const old_re = scratch.data();
    double *const old_im = scratch.data() + sub_dim * width;
    for (size_t base = 0; base < tile.dim; ++base) {
        if (base & mask)
            continue;
        // Gather the sub_dim rows.
        for (size_t s = 0; s < sub_dim; ++s) {
            const size_t at = (base | offsets[s]) * width;
            std::copy_n(&tile.re[at], width, old_re + s * width);
            std::copy_n(&tile.im[at], width, old_im + s * width);
        }
        // Recombine: new row r = sum_c g(r, c) * old row c.
        for (size_t r = 0; r < sub_dim; ++r) {
            const size_t at = (base | offsets[r]) * width;
            double *const dst_re = &tile.re[at];
            double *const dst_im = &tile.im[at];
            std::fill_n(dst_re, width, 0.0);
            std::fill_n(dst_im, width, 0.0);
            for (size_t c = 0; c < sub_dim; ++c) {
                const double gr = g(r, c).real();
                const double gi = g(r, c).imag();
                if (gr == 0.0 && gi == 0.0)
                    continue;
                const double *const src_re = old_re + c * width;
                const double *const src_im = old_im + c * width;
                for (size_t j = 0; j < width; ++j) {
                    dst_re[j] += gr * src_re[j] - gi * src_im[j];
                    dst_im[j] += gr * src_im[j] + gi * src_re[j];
                }
            }
        }
    }
}

/** Left-multiply the tile by every factor, first to last. */
void
applyProduct(Tile &tile, const FactorProduct &product, int n_qubits,
             std::vector<double> &scratch)
{
    for (const OperatorFactor &factor : product)
        mixRows(tile, factor, n_qubits, scratch);
}

/** This tile's share of Tr(A^dagger B): sum of conj(a) * b over its
 *  entries, in row-major order. */
Complex
tileInner(const Tile &a, const Tile &b)
{
    double sum_re = 0.0;
    double sum_im = 0.0;
    for (size_t i = 0; i < a.re.size(); ++i) {
        sum_re += a.re[i] * b.re[i] + a.im[i] * b.im[i];
        sum_im += a.re[i] * b.im[i] - a.im[i] * b.re[i];
    }
    return {sum_re, sum_im};
}

/** Full-circuit operators evaluated. Counted so large-circuit
 *  (BlockBound) runs can prove they never evaluated one (the counter
 *  must stay flat). */
obs::Counter &
unitaryBuilds()
{
    static auto &builds = obs::MetricsRegistry::global().counter(
        names::kMetricSimUnitaryBuilds);
    return builds;
}

} // namespace

Matrix
buildUnitary(const Circuit &circuit)
{
    const int n = circuit.numQubits();
    QUEST_ASSERT(n <= 14, "buildUnitary limited to 14 qubits");
    unitaryBuilds().increment();

    std::vector<Matrix> gate_matrices;
    gate_matrices.reserve(circuit.size());
    FactorProduct factors;
    factors.reserve(circuit.size());
    for (const Gate &g : circuit) {
        if (g.type == GateType::Barrier || g.type == GateType::Measure)
            continue;
        gate_matrices.push_back(gateMatrix(g));
        factors.push_back({&gate_matrices.back(), &g.qubits});
    }

    const size_t dim = size_t{1} << n;
    Matrix u(dim, dim);
    Tile tile(dim, std::min(kTraceTileWidth, dim));
    std::vector<double> scratch;
    for (size_t col0 = 0; col0 < dim; col0 += tile.width) {
        tile.setIdentity(col0);
        applyProduct(tile, factors, n, scratch);
        for (size_t r = 0; r < dim; ++r)
            for (size_t j = 0; j < tile.width; ++j)
                u(r, col0 + j) = Complex(tile.re[r * tile.width + j],
                                         tile.im[r * tile.width + j]);
    }
    return u;
}

std::vector<Complex>
productTraces(int n_qubits, const FactorProduct &reference,
              const std::vector<FactorProduct> &products, ThreadPool &pool,
              const resilience::Budget &budget)
{
    const size_t dim = size_t{1} << n_qubits;
    const size_t width = std::min(kTraceTileWidth, dim);
    const size_t tiles = dim / width;
    const size_t count = products.size();

    // partial[t * count + s]: tile t's share of product s's trace;
    // done[t]: how many products tile t finished (each slot has one
    // writer, read only after parallelFor has joined).
    std::vector<Complex> partial(tiles * count);
    std::vector<size_t> done(tiles, 0);
    pool.parallelFor(tiles, [&](size_t t) {
        if (budget.exhausted())
            return;
        Tile ref(dim, width);
        Tile cand(dim, width);
        std::vector<double> scratch;
        ref.setIdentity(t * width);
        applyProduct(ref, reference, n_qubits, scratch);
        for (size_t s = 0; s < count; ++s) {
            if (budget.exhausted())
                return;
            cand.setIdentity(t * width);
            applyProduct(cand, products[s], n_qubits, scratch);
            partial[t * count + s] = tileInner(ref, cand);
            done[t] = s + 1;
        }
    }, budget.cancel);

    const size_t complete = *std::min_element(done.begin(), done.end());
    std::vector<Complex> traces(complete);
    for (size_t t = 0; t < tiles; ++t)
        for (size_t s = 0; s < complete; ++s)
            traces[s] += partial[t * count + s];
    unitaryBuilds().add(1 + complete);
    return traces;
}

} // namespace quest
