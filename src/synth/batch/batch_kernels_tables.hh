/**
 * @file
 * Internal linkage between the per-ISA kernel translation units and
 * the dispatcher (batch_kernels.cc). Not part of the public API.
 */

#ifndef QUEST_SYNTH_BATCH_BATCH_KERNELS_TABLES_HH
#define QUEST_SYNTH_BATCH_BATCH_KERNELS_TABLES_HH

#include "synth/batch/batch_kernels.hh"

namespace quest::kern::batch {

/** Portable scalar-lane table for @p L lanes (1, 2, 4 or kLanes);
 *  always available. */
template <size_t L>
const BatchKernelSet &scalarBatchKernelsFor(size_t dim);

/** AVX2-unit table for @p L = 2 (__m128d), 4 or kLanes (__m256d), or
 *  nullptr when compiled out (QUEST_SIMD=OFF or a non-x86 target). */
template <size_t L>
const BatchKernelSet *avx2BatchKernelsFor(size_t dim);

/** AVX-512 kLanes table, or nullptr when compiled out. */
const BatchKernelSet *avx512BatchKernelsFor(size_t dim);

} // namespace quest::kern::batch

#endif // QUEST_SYNTH_BATCH_BATCH_KERNELS_TABLES_HH
