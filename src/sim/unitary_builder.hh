/**
 * @file
 * Full-circuit operators evaluated over column tiles.
 *
 * One row-mixing kernel applies a k-qubit operator in place to the
 * rows of a 2^n x w column tile of a full-circuit operator, held as
 * split real/imaginary planes, in O(2^k 2^n w). Two entry points
 * share it:
 *
 *  - buildUnitary: the dense unitary of a circuit, gate by gate
 *    (each gate is a 1-3 qubit factor). The test oracle, and the
 *    Fig. 7 bound validation on mid-size circuits.
 *  - productTraces: Tr(R^dagger P_s) for a reference operator R and
 *    candidate operators P_s, each given as a product of block
 *    unitaries. This is Full mode's certify: every sample is a
 *    product of the per-block unitaries STEP 2 already built, so no
 *    2^n x 2^n matrix is ever formed.
 */

#ifndef QUEST_SIM_UNITARY_BUILDER_HH
#define QUEST_SIM_UNITARY_BUILDER_HH

#include <cstddef>
#include <vector>

#include "ir/circuit.hh"
#include "linalg/matrix.hh"
#include "resilience/budget.hh"
#include "resilience/thread_pool.hh"

namespace quest {

/**
 * Columns per tile. A fixed constant, never derived from the thread
 * count: the tile partition fixes the summation order of every
 * trace, so results are bit-identical for any pool size. Operators
 * narrower than a tile use one tile of their full width. Chosen by
 * measurement (bench/micro_kernels `certify_block_nN` rows).
 */
inline constexpr size_t kTraceTileWidth = 32;

/**
 * One factor of an operator product: a 2^k x 2^k unitary acting on
 * circuit wires (*wires)[0..k). Local wire i is circuit wire
 * (*wires)[i], local wire 0 being the most significant bit as
 * everywhere in QUEST. Neither pointer is owned.
 */
struct OperatorFactor
{
    const Matrix *unitary = nullptr;
    const std::vector<int> *wires = nullptr;
};

/** An operator as the product of its factors, applied first to
 *  last (the first factor acts first on the input state). */
using FactorProduct = std::vector<OperatorFactor>;

/**
 * Compute the unitary of a circuit (measurements ignored). Panics
 * above 14 qubits — the dense matrix would not fit in memory.
 */
Matrix buildUnitary(const Circuit &circuit);

/**
 * Tr(R^dagger P_s) for each product P_s in @p products, where R is
 * @p reference; all act on @p n_qubits wires. The HS process
 * distance is hsDistanceFromTrace(trace, 2^n).
 *
 * Both operators are applied factor by factor to fixed-width column
 * tiles of the identity (kTraceTileWidth). Tiles run in parallel on
 * @p pool; each writes one partial trace per product, and the
 * partials are summed in tile order, so the bits do not depend on
 * the thread count. The working set is two tiles per running thread,
 * O(threads * 2^n * kTraceTileWidth).
 *
 * @p budget is polled before each product of each tile. The result
 * holds the traces of the products every tile finished, which is a
 * prefix of @p products: shorter than @p products only when the
 * budget fired.
 */
std::vector<Complex> productTraces(int n_qubits,
                                   const FactorProduct &reference,
                                   const std::vector<FactorProduct> &products,
                                   ThreadPool &pool,
                                   const resilience::Budget &budget = {});

} // namespace quest

#endif // QUEST_SIM_UNITARY_BUILDER_HH
