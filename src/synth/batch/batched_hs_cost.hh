/**
 * @file
 * Hilbert-Schmidt synthesis cost with analytic gradient, evaluated
 * for L parameter vectors against the SAME target in one pass: of
 * one ansatz, or of sibling ansätze that differ only in their final
 * layer.
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
 * candidate's value and gradient are bit-identical in any of them,
 * and whether its final layer ran lane-uniform or on its own; the
 * multistart driver (batch_instantiate.cc) relies on that when it
 * runs each tick on the narrowest cost that holds its live
 * candidates, whichever siblings they belong to.
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
 * The SoA buffers of one sweep over some lane count, all plain
 * std::vector<double> (no aligned new: the allocation-probe tests
 * override only the plain operators) with split real/imaginary
 * planes. fit() only grows.
 */
struct SweepArena
{
    std::vector<double> prefixRe, prefixIm;      //!< (u3Count+1) SoA slices
    std::vector<double> backwardRe, backwardIm;  //!< transposed accumulator
    std::vector<double> u3Re, u3Im;  //!< per U3 op: 4 entries + 3*4 derivs
    std::vector<double> gtRe, gtIm;  //!< transposed-gate scratch (4 entries)
    std::vector<double> w2Re, w2Im;  //!< trace contraction (4 entries)
    std::vector<double> trRe, trIm;  //!< per-lane trace accumulators

    /**
     * 64-byte-aligned base of each buffer above, set by fit(). One
     * lane group of the 8-lane batch is one cache line (of the 4- and
     * 2-lane tables, half and a quarter of one), so an aligned base
     * keeps every vector load/store within a single line;
     * vector<double>'s own data() is only 16-byte aligned, which
     * would split EVERY 64-byte access across two lines. The vectors
     * over-allocate by 7 doubles and these point at the first aligned
     * element.
     */
    double *preRe = nullptr, *preIm = nullptr;
    double *bwdRe = nullptr, *bwdIm = nullptr;
    double *gRe = nullptr, *gIm = nullptr;
    double *tgRe = nullptr, *tgIm = nullptr;
    double *wRe = nullptr, *wIm = nullptr;
    double *tRe = nullptr, *tIm = nullptr;

    /** Size for @p lanes lanes of @p u3Count U3 ops; returns true
     *  when any buffer had to grow. */
    bool fit(size_t dim, size_t lanes, size_t u3Count);
};

/**
 * The scratch arena of evaluateBatch(): one sweep over the tick's
 * lanes, plus the 1-lane sweep a sibling tick runs each lane's own
 * final layer in. ensure() only grows, so costs of several lane
 * counts can share one arena sized for the widest of them, and
 * steady-state calls never touch the allocator.
 */
struct BatchedHsWorkspace
{
    SweepArena batch;  //!< the tick's lanes
    SweepArena lane;   //!< one lane's final layer (sibling ticks)

    uint64_t allocations = 0;  //!< ensure() calls that grew a buffer
    uint64_t reuses = 0;       //!< ensure() calls served without growth

    /** Size the arena for @p lanes lanes of an ansatz with @p u3Count
     *  U3 ops, whose final layer differs per lane when @p siblings;
     *  returns true when any buffer had to grow. */
    bool ensure(size_t dim, size_t lanes, size_t u3Count, bool siblings);
};

/**
 * The L-lane cost. Not safe for concurrent evaluateBatch() calls on
 * one instance (or on costs sharing an arena); the multistart driver
 * owns its instances and runs on a single thread.
 */
template <size_t L>
class BatchedHsCost
{
  public:
    /** Per-lane sibling indices (see the sibling constructor). */
    using Siblings = std::array<uint32_t, L>;

    /** The cost of one ansatz; @p arena as below. */
    BatchedHsCost(const Matrix &target, const Ansatz &ansatz,
                  BatchedHsWorkspace &arena);

    /**
     * The cost of a sibling group (Ansatz::isSiblingOf): the ansätze
     * share every op but their final layer, and each lane runs the
     * sibling evaluateBatch() names for it. A tick whose live lanes
     * all run one sibling sweeps it lane-uniform. Otherwise the shared
     * prefix runs lane-uniform and each live lane's final CX/U3/U3
     * runs on the 1-lane kernels, gathered out of its lane and
     * scattered back — the 1-lane cost's own arithmetic, so every
     * lane's value and gradient are bit-identical to its sibling's
     * BatchedHsCost<1>.
     *
     * @p arena is the scratch workspace, not owned: it must outlive
     * the cost, and costs that run one after another (the widths of
     * one driver call) may share it, as it grows to the widest.
     */
    BatchedHsCost(const Matrix &target,
                  const std::vector<const Ansatz *> &siblings,
                  BatchedHsWorkspace &arena);

    /**
     * Evaluate all lanes at once. xs[l] points at lane l's parameter
     * vector (size paramCount()); a null entry marks an idle lane,
     * which produces no output. For live lanes, f[l] receives the
     * objective and grads[l] (non-null, resized to paramCount()) the
     * analytic gradient, of sibling @p sibling[l]. Allocation-free
     * after the constructor.
     */
    void evaluateBatch(const std::array<const std::vector<double> *, L> &xs,
                       const Siblings &sibling, std::array<double, L> &f,
                       const std::array<std::vector<double> *, L> &grads);

    /** Every lane on the first (or only) ansatz. */
    void
    evaluateBatch(const std::array<const std::vector<double> *, L> &xs,
                  std::array<double, L> &f,
                  const std::array<std::vector<double> *, L> &grads)
    {
        evaluateBatch(xs, Siblings{}, f, grads);
    }

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

    int paramCount() const { return plans[0].nParams; }

    /** The kernel table in use (test/diagnostic hook); defaults to
     *  batchKernelsFor<L>, overridable for parity tests. */
    void useKernels(const kern::batch::BatchKernelSet &k) { kernels = &k; }

  private:
    /** Lane @p l's final layer of sibling @p s, on the 1-lane sweep;
     *  leaves its trace in the batch sweep's accumulators and its
     *  transposed backward accumulator in lane l. */
    void finalLayer(size_t l, uint32_t s, const std::vector<double> &x,
                    std::vector<double> &grad);

    double dimSquared;
    size_t dim;
    const kern::batch::BatchKernelSet *kernels;
    const kern::batch::BatchKernelSet *laneKernels;  //!< 1-lane table
    std::vector<CompiledPlan> plans;  //!< one per sibling, whole ansatz
    size_t shared;    //!< leading ops every sibling has in common
    size_t sharedU3;  //!< U3 ops among them
    std::vector<double> tcRe, tcIm;  //!< conj(target), plain scalars
    Complex idleG[4];       //!< u3WithDerivatives(0,0,0): gate ...
    Complex idleDg[3][4];   //!< ... and derivatives, for idle lanes
    BatchedHsWorkspace &ws;
};

extern template class BatchedHsCost<1>;
extern template class BatchedHsCost<2>;
extern template class BatchedHsCost<4>;
extern template class BatchedHsCost<kern::batch::kLanes>;

} // namespace quest::synth

#endif // QUEST_SYNTH_BATCH_BATCHED_HS_COST_HH
