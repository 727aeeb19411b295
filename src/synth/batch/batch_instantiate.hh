/**
 * @file
 * Lane-lockstep multistart driver behind instantiate() and
 * instantiateSiblings().
 *
 * One call runs every multistart of one or more tasks against one
 * target. The tasks' ansätze are siblings (Ansatz::isSiblingOf): the
 * same structure except the final layer, as the successors of one
 * LEAP frontier node are. Each live lane holds one (task, start)
 * pair's L-BFGS run (LbfgsMachine), and every tick evaluates all live
 * lanes in one BatchedHsCost pass: the shared prefix lane-uniform,
 * each lane's own final layer on the 1-lane kernels. Finished lanes
 * retire and refill from the pending starts; a task is admitted only
 * when all its starts (at most one tick's worth) launch together, so
 * each task's runs step in the same relative lockstep as they would
 * alone. Each tick packs its live runs into the narrowest cost that
 * holds them — 1, 2, 4 or kLanes lanes, each built on first use over
 * one shared arena — so a group of 2-start siblings runs full 8-lane
 * ticks and a draining batch steps down 8 -> 4 -> 2 -> 1. Where a
 * multi-lane table is the scalar-lane loop (no AVX2, QUEST_SIMD=scalar
 * or a QUEST_SIMD=OFF build), it costs more than that many 1-lane
 * ticks, so such hosts tick one lane at a time. A start's iterates
 * are the same at every lane count, beside any neighbour, so where
 * it ran never shows in its result. The serial-order best-of
 * reduction stays in instantiater.cc; the driver runs on the calling
 * thread (thread pools parallelize the synthesis tasks above it).
 */

#ifndef QUEST_SYNTH_BATCH_BATCH_INSTANTIATE_HH
#define QUEST_SYNTH_BATCH_BATCH_INSTANTIATE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.hh"
#include "synth/ansatz.hh"
#include "synth/instantiater.hh"
#include "synth/lbfgs.hh"
#include "util/rng.hh"

namespace quest::synth {

/** One task of a driver call: its inputs and its per-start results. */
struct MultistartTask
{
    const Ansatz *ansatz = nullptr;
    const InstantiaterOptions *options = nullptr;  //!< goal and budget
    LbfgsOptions lbfgs;  //!< per-start options, call budget merged in
    std::vector<Rng> streams;  //!< one pre-split RNG per start
    const std::vector<double> *warmStart = nullptr;  //!< seeds start 0

    /** Filled by the driver: results[i] and computed[i] = 1 for every
     *  start that ran to completion; computed stays 0 for starts
     *  skipped past the task's earliest goal index or cut off by the
     *  budget. Sized to the start count by the caller. */
    std::vector<LbfgsResult> results;
    std::vector<uint8_t> computed;
};

/** Run every multistart of @p tasks, whose ansätze must be siblings
 *  when there is more than one. */
void runBatchedMultistart(const Matrix &target,
                          std::span<MultistartTask> tasks);

} // namespace quest::synth

#endif // QUEST_SYNTH_BATCH_BATCH_INSTANTIATE_HH
