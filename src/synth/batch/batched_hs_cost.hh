/**
 * @file
 * Hilbert-Schmidt synthesis cost with analytic gradient, evaluated
 * for L parameter vectors of the SAME ansatz against the SAME target
 * in one pass.
 *
 * The objective is f(theta) = 1 - |Tr(U^dagger A(theta))|^2 / N^2,
 * whose square root is the paper's HS process distance; the
 * gradient is computed analytically from the ansatz parameter
 * derivatives. This is the innermost loop of numerical
 * instantiation: L-BFGS evaluates it at every point it visits.
 *
 * Matrices are laid out structure-of-arrays across the L lanes
 * (batch_kernels.hh). Trigonometry stays scalar: u3WithDerivatives
 * runs once per (op, lane) and is fanned into the SoA gate cache, so
 * every lane sees the same libm values whatever L is. One cost is
 * instantiated per table lane count: 1, 2, 4 and kLanes. All run the
 * same kernel bodies and this file's one loop structure, so a
 * candidate's value and gradient are bit-identical in any of them;
 * the multistart driver (batch_instantiate.cc) relies on that when it
 * runs each tick on the narrowest cost that holds its live
 * candidates.
 */

#ifndef QUEST_SYNTH_BATCH_BATCHED_HS_COST_HH
#define QUEST_SYNTH_BATCH_BATCHED_HS_COST_HH

#include <array>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hh"
#include "synth/ansatz.hh"
#include "synth/batch/batch_kernels.hh"

namespace quest::synth {

/** One op of the precompiled execution plan: wire bits and the
 *  parameter base are structural, so they are resolved once at
 *  cost-object construction. */
struct OpPlan
{
    bool isCx;
    size_t bit;   //!< U3 wire bit, or CX control bit
    size_t bit2;  //!< CX target bit (unused for U3)
    int base;     //!< first parameter index (-1 for CX)
};

/** The full plan for an ansatz, plus the derived counts. */
struct CompiledPlan
{
    std::vector<OpPlan> ops;
    size_t u3Count = 0;
    int nParams = 0;
};

/**
 * Flat SoA scratch arena reused across evaluateBatch() calls. All
 * buffers are plain std::vector<double> (no aligned new: the
 * allocation-probe tests override only the plain operators) with
 * split real/imaginary planes; ensure() only grows, and steady-state
 * calls never touch the allocator.
 */
struct BatchedHsWorkspace
{
    std::vector<double> prefixRe, prefixIm;      //!< (opCount+1) SoA slices
    std::vector<double> backwardRe, backwardIm;  //!< transposed accumulator
    std::vector<double> u3Re, u3Im;  //!< per U3 op: 4 entries + 3*4 derivs
    std::vector<double> gtRe, gtIm;  //!< transposed-gate scratch (4 entries)
    std::vector<double> w2Re, w2Im;  //!< trace contraction (4 entries)
    std::vector<double> trRe, trIm;  //!< per-lane trace accumulators

    /**
     * 64-byte-aligned base of each buffer above, set by ensure(). One
     * lane group of the 8-lane batch is one cache line (of the 4- and
     * 2-lane tables, half and a quarter of one), so an aligned base
     * keeps every vector load/store within a single line;
     * vector<double>'s own data() is only 16-byte aligned, which
     * would split EVERY 64-byte access across two lines. The vectors
     * over-allocate by 7 doubles and these point at the first aligned
     * element (plain operator new throughout — the allocation-probe
     * tests override only the plain operators).
     */
    double *preRe = nullptr, *preIm = nullptr;
    double *bwdRe = nullptr, *bwdIm = nullptr;
    double *gRe = nullptr, *gIm = nullptr;
    double *tgRe = nullptr, *tgIm = nullptr;
    double *wRe = nullptr, *wIm = nullptr;
    double *tRe = nullptr, *tIm = nullptr;

    uint64_t allocations = 0;  //!< ensure() calls that grew a buffer
    uint64_t reuses = 0;       //!< ensure() calls served without growth

    /** Size the arena for @p lanes lanes; returns true when any
     *  buffer had to grow. */
    bool ensure(size_t dim, size_t lanes, size_t opCount, size_t u3Count);
};

/**
 * The L-lane cost. Not safe for concurrent evaluateBatch() calls on
 * one instance; the multistart driver owns its instances and runs on
 * a single thread.
 */
template <size_t L>
class BatchedHsCost
{
  public:
    BatchedHsCost(const Matrix &target, const Ansatz &ansatz);

    /**
     * Evaluate all lanes at once. xs[l] points at lane l's parameter
     * vector (size paramCount()); a null entry marks an idle lane,
     * which is computed with all-zero parameters (identity-phase
     * U3s, always finite) and produces no output. For live lanes,
     * f[l] receives the objective and grads[l] (non-null, resized to
     * paramCount()) the analytic gradient. Allocation-free after the
     * constructor.
     */
    void evaluateBatch(const std::array<const std::vector<double> *, L> &xs,
                       std::array<double, L> &f,
                       const std::array<std::vector<double> *, L> &grads);

    /** The one-lane call: the objective at @p x, its gradient into
     *  @p grad. */
    double
    evaluate(const std::vector<double> &x, std::vector<double> &grad)
        requires(L == 1)
    {
        std::array<double, 1> f;
        evaluateBatch({&x}, f, {&grad});
        return f[0];
    }

    int paramCount() const { return plan.nParams; }

    /** The reusable arena (test/diagnostic hook). */
    const BatchedHsWorkspace &workspace() const { return ws; }

    /** The kernel table in use (test/diagnostic hook); defaults to
     *  batchKernelsFor<L>, overridable for parity tests. */
    void useKernels(const kern::batch::BatchKernelSet &k) { kernels = &k; }

  private:
    double dimSquared;
    size_t dim;
    const kern::batch::BatchKernelSet *kernels;
    CompiledPlan plan;
    std::vector<double> tcRe, tcIm;  //!< conj(target), plain scalars
    Complex idleG[4];       //!< u3WithDerivatives(0,0,0): gate ...
    Complex idleDg[3][4];   //!< ... and derivatives, for idle lanes
    BatchedHsWorkspace ws;
};

extern template class BatchedHsCost<1>;
extern template class BatchedHsCost<2>;
extern template class BatchedHsCost<4>;
extern template class BatchedHsCost<kern::batch::kLanes>;

} // namespace quest::synth

#endif // QUEST_SYNTH_BATCH_BATCHED_HS_COST_HH
