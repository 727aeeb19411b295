#include "synth/batch/batch_kernels.hh"

#include "synth/batch/batch_kernels_tables.hh"
#include "util/cpu.hh"
#include "util/logging.hh"

namespace quest::kern::batch {

namespace {

/** Resolve the dispatch once: widest ISA the build and the host both
 *  support, capped by the QUEST_SIMD override. */
SimdIsa
resolveIsa()
{
    const util::CpuFeatures &cpu = util::cpuFeatures();
    const util::SimdOverride ov = util::simdOverride();

    const bool haveAvx512 = cpu.avx512f && avx512BatchKernelsFor(2) != nullptr;
    const bool haveAvx2 =
        cpu.avx2 && avx2BatchKernelsFor<kLanes>(2) != nullptr;

    switch (ov) {
      case util::SimdOverride::Scalar:
        return SimdIsa::Scalar;
      case util::SimdOverride::Avx2:
        return haveAvx2 ? SimdIsa::Avx2 : SimdIsa::Scalar;
      case util::SimdOverride::Avx512:
      case util::SimdOverride::None:
        break;
    }
    if (haveAvx512)
        return SimdIsa::Avx512;
    if (haveAvx2)
        return SimdIsa::Avx2;
    return SimdIsa::Scalar;
}

} // namespace

const char *
simdIsaName(SimdIsa isa)
{
    switch (isa) {
      case SimdIsa::Avx512:
        return "avx512";
      case SimdIsa::Avx2:
        return "avx2";
      case SimdIsa::Scalar:
        break;
    }
    return "scalar";
}

SimdIsa
activeSimdIsa()
{
    static const SimdIsa isa = resolveIsa();
    return isa;
}

template <size_t L>
SimdIsa
activeSimdIsaFor()
{
    static const SimdIsa isa = [] {
        for (SimdIsa i : {SimdIsa::Avx512, SimdIsa::Avx2}) {
            if (i <= activeSimdIsa() && batchKernelsForIsa<L>(i, 2))
                return i;
        }
        return SimdIsa::Scalar;
    }();
    return isa;
}

template <size_t L>
const BatchKernelSet *
batchKernelsForIsa(SimdIsa isa, size_t dim)
{
    QUEST_ASSERT(dim >= 2 && (dim & (dim - 1)) == 0,
                 "batched kernel dimension must be a power of two >= 2, got ",
                 dim);
    switch (isa) {
      case SimdIsa::Avx512:
        if constexpr (L == kLanes)
            return util::cpuFeatures().avx512f ? avx512BatchKernelsFor(dim)
                                               : nullptr;
        return nullptr;
      case SimdIsa::Avx2:
        if constexpr (L > 1)
            return util::cpuFeatures().avx2 ? avx2BatchKernelsFor<L>(dim)
                                            : nullptr;
        return nullptr;
      case SimdIsa::Scalar:
        break;
    }
    return &scalarBatchKernelsFor<L>(dim);
}

template <size_t L>
const BatchKernelSet &
batchKernelsFor(size_t dim)
{
    const BatchKernelSet *k = batchKernelsForIsa<L>(activeSimdIsaFor<L>(), dim);
    QUEST_ASSERT(k != nullptr, "dispatched batched kernel table missing");
    return *k;
}

template SimdIsa activeSimdIsaFor<1>();
template SimdIsa activeSimdIsaFor<2>();
template SimdIsa activeSimdIsaFor<4>();
template SimdIsa activeSimdIsaFor<kLanes>();
template const BatchKernelSet *batchKernelsForIsa<1>(SimdIsa, size_t);
template const BatchKernelSet *batchKernelsForIsa<2>(SimdIsa, size_t);
template const BatchKernelSet *batchKernelsForIsa<4>(SimdIsa, size_t);
template const BatchKernelSet *batchKernelsForIsa<kLanes>(SimdIsa, size_t);
template const BatchKernelSet &batchKernelsFor<1>(size_t);
template const BatchKernelSet &batchKernelsFor<2>(size_t);
template const BatchKernelSet &batchKernelsFor<4>(size_t);
template const BatchKernelSet &batchKernelsFor<kLanes>(size_t);

} // namespace quest::kern::batch
