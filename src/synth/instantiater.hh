/**
 * @file
 * Multi-start instantiation: optimize an ansatz's angles against a
 * target unitary from several starting points and keep the best.
 *
 * Multistarts are independent, so they run lane-lockstep through the
 * batched cost on the calling thread (synth/batch/
 * batch_instantiate.hh) — those of one call, or of a group of sibling
 * calls (instantiateSiblings). Determinism is preserved by
 * construction: every start gets its own RNG stream, split serially
 * up front, each start's iterates do not depend on which lane or lane
 * count evaluated it or on its neighbours, and the best-of reduction
 * replays the serial order's selection (including the first-to-goal
 * early stop) task by task.
 */

#ifndef QUEST_SYNTH_INSTANTIATER_HH
#define QUEST_SYNTH_INSTANTIATER_HH

#include <cmath>
#include <optional>
#include <span>
#include <vector>

#include "linalg/matrix.hh"
#include "resilience/budget.hh"
#include "synth/ansatz.hh"
#include "synth/lbfgs.hh"
#include "util/rng.hh"

namespace quest {

/** Instantiation settings. */
struct InstantiaterOptions
{
    int multistarts = 4;        //!< random restarts per call
    LbfgsOptions lbfgs;
    double goal = 0.0;          //!< stop restarts early below this cost

    /**
     * Deadline/cancellation for the whole call, merged into the
     * per-start L-BFGS budgets and checked before each start begins.
     * A fired budget trades determinism for liveness: which starts
     * completed depends on timing, so budget-truncated results must
     * never be cached (LeapSynthesizer enforces this).
     */
    resilience::Budget budget;
};

/** Best parameters found for an ansatz against a target. */
struct InstantiationResult
{
    std::vector<double> params;
    double distance = 1.0;      //!< HS distance at the optimum

    /** Non-finite costs everywhere, or the budget fired before any
     *  start finished: params are zeros, distance is +infinity. */
    bool diverged() const { return !std::isfinite(distance); }
};

/**
 * Optimize @p ansatz against @p target. If @p warm_start is provided
 * it seeds the first restart (new trailing parameters, if any, start
 * at zero); remaining restarts are uniform in [-pi, pi].
 */
InstantiationResult
instantiate(const Matrix &target, const Ansatz &ansatz, Rng &rng,
            const InstantiaterOptions &options = {},
            const std::optional<std::vector<double>> &warm_start =
                std::nullopt);

/** One instantiate() call of a sibling group: its arguments, with
 *  @p warmStart null for none. */
struct InstantiationTask
{
    const Ansatz &ansatz;
    Rng &rng;
    const InstantiaterOptions &options;
    const std::vector<double> *warmStart = nullptr;
};

/**
 * Instantiate sibling ansätze (Ansatz::isSiblingOf — the successors
 * of one LEAP frontier node) against one target in one lane-lockstep
 * run, so their starts fill the batch together. Each task keeps its
 * own RNG streams, options, warm start, early stop and reduction:
 * results[i] is bit-identical to instantiate() on tasks[i] alone.
 * instantiate() is the one-task case.
 */
std::vector<InstantiationResult>
instantiateSiblings(const Matrix &target,
                    std::span<const InstantiationTask> tasks);

} // namespace quest

#endif // QUEST_SYNTH_INSTANTIATER_HH
