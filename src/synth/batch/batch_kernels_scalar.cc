/**
 * Portable scalar-lane instantiations of the kernel bodies at every
 * lane count: the one-candidate (L = 1) table every single-live-lane
 * tick runs on, and the 2-, 4- and kLanes-wide tables that are the
 * no-SIMD build's only batch tables and the fallback on hosts without
 * AVX2 or under QUEST_SIMD=scalar. Compiled with -ffp-contract=off
 * like the SIMD units so a toolchain that enables FMA globally cannot
 * contract the complex mul/add chains and break cross-table
 * bit-identity.
 */

#include "synth/batch/batch_kernels_impl.hh"
#include "synth/batch/batch_kernels_tables.hh"

namespace quest::kern::batch {

namespace {

struct VScalar
{
    using Reg = double;
    static constexpr size_t width = 1;
    static double load(const double *p) { return *p; }
    static void store(double *p, double x) { *p = x; }
    static double set1(double x) { return x; }
    static double zero() { return 0.0; }
    static double add(double a, double b) { return a + b; }
    static double sub(double a, double b) { return a - b; }
    static double mul(double a, double b) { return a * b; }
};

} // namespace

template <size_t L>
const BatchKernelSet &
scalarBatchKernelsFor(size_t dim)
{
    return impl::tableForDim<VScalar, L>(dim);
}

template const BatchKernelSet &scalarBatchKernelsFor<1>(size_t dim);
template const BatchKernelSet &scalarBatchKernelsFor<2>(size_t dim);
template const BatchKernelSet &scalarBatchKernelsFor<4>(size_t dim);
template const BatchKernelSet &scalarBatchKernelsFor<kLanes>(size_t dim);

} // namespace quest::kern::batch
