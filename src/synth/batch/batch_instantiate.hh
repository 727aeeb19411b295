/**
 * @file
 * Lane-lockstep multistart driver behind instantiate().
 *
 * All multistarts of one instantiate() call share the same ansatz
 * structure, so their cost evaluations batch perfectly: each live
 * lane holds one start's L-BFGS run (LbfgsMachine), every tick
 * evaluates all live lanes in one BatchedHsCost pass, finished lanes
 * retire and refill from the pending starts. Each tick packs its live
 * runs into the narrowest cost that holds them — 1, 2, 4 or kLanes
 * lanes, each built on first use — so a 4-start call runs full 4-lane
 * ticks, a 2-start call 2-lane ticks, and a draining batch steps down
 * 8 -> 4 -> 2 -> 1 as its runs finish. A start's iterates are the
 * same at every lane count, so where it ran never shows in its
 * result. The serial-order best-of reduction stays in instantiate();
 * the driver runs on the calling thread (thread pools parallelize the
 * synthesis tasks above it).
 */

#ifndef QUEST_SYNTH_BATCH_BATCH_INSTANTIATE_HH
#define QUEST_SYNTH_BATCH_BATCH_INSTANTIATE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "linalg/matrix.hh"
#include "synth/ansatz.hh"
#include "synth/instantiater.hh"
#include "synth/lbfgs.hh"
#include "util/rng.hh"

namespace quest::synth {

/**
 * Run every multistart. @p streams holds one pre-split RNG per
 * start; @p lbfgsOptions already carries the merged call budget.
 * Fills results[i] and sets computed[i] for every start that ran to
 * completion; computed stays 0 for starts skipped past the earliest
 * goal index or cut off by the budget.
 */
void runBatchedMultistart(
    const Matrix &target, const Ansatz &ansatz, std::vector<Rng> &streams,
    const LbfgsOptions &lbfgsOptions, const InstantiaterOptions &options,
    const std::optional<std::vector<double>> &warm_start,
    std::vector<LbfgsResult> &results, std::vector<uint8_t> &computed);

} // namespace quest::synth

#endif // QUEST_SYNTH_BATCH_BATCH_INSTANTIATE_HH
