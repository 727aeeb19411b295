#include "synth/instantiater.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "synth/batch/batch_instantiate.hh"
#include "util/names.hh"

namespace quest {

namespace {

/**
 * Serial-order best-of reduction: walk starts in index order, keep
 * the first strict improvement, stop at the first start that reached
 * the goal — exactly a serial loop's selection, so the outcome is
 * independent of which starts ran in which lane (or whether extra
 * starts past the goal were computed and discarded).
 */
InstantiationResult
bestOf(synth::MultistartTask &task)
{
    static auto &early_counter =
        obs::MetricsRegistry::global().counter(names::kMetricSynthEarlyStops);
    const int n_starts = static_cast<int>(task.results.size());
    InstantiationResult best;
    best.distance = 1.0;
    double best_value = 2.0;
    bool selected = false;
    for (int i = 0; i < n_starts; ++i) {
        LbfgsResult &r = task.results[static_cast<size_t>(i)];
        if (!task.computed[static_cast<size_t>(i)])
            break;  // past the earliest goal index, or budget-skipped
        // Non-finite costs (diverged starts) are never selected; a
        // NaN would also poison the < comparison below.
        if (std::isfinite(r.value) && r.value < best_value) {
            best_value = r.value;
            best.params = std::move(r.x);
            best.distance = std::sqrt(std::max(0.0, best_value));
            selected = true;
        }
        if (best_value <= task.options->goal) {
            if (i + 1 < n_starts)
                early_counter.increment();
            break;
        }
    }
    if (!selected) {
        // Every start diverged (or the budget fired before any
        // completed). Return a well-formed parameter vector — callers
        // feed it straight into Ansatz::instantiate — with an
        // infinite distance so no threshold can ever admit it.
        best.params.assign(static_cast<size_t>(task.ansatz->paramCount()),
                           0.0);
        best.distance = std::numeric_limits<double>::infinity();
    }
    return best;
}

} // namespace

std::vector<InstantiationResult>
instantiateSiblings(const Matrix &target,
                    std::span<const InstantiationTask> tasks)
{
    QUEST_TRACE_SCOPE("synth.instantiate");
    static auto &calls =
        obs::MetricsRegistry::global().counter(names::kMetricSynthInstantiations);
    calls.add(tasks.size());

    std::vector<synth::MultistartTask> runs(tasks.size());
    for (size_t t = 0; t < tasks.size(); ++t) {
        const InstantiationTask &task = tasks[t];
        synth::MultistartTask &run = runs[t];
        const size_t n_starts =
            static_cast<size_t>(std::max(1, task.options.multistarts));
        run.ansatz = &task.ansatz;
        run.options = &task.options;
        run.warmStart = task.warmStart;
        // The call-level budget bounds every start's inner loop too:
        // the L-BFGS budget becomes the tighter of its own deadline
        // and ours, and inherits our token when it has none.
        run.lbfgs = task.options.lbfgs;
        run.lbfgs.budget =
            run.lbfgs.budget.withDeadline(task.options.budget.deadline);
        if (!run.lbfgs.budget.cancel)
            run.lbfgs.budget.cancel = task.options.budget.cancel;
        // Per-start RNG streams, split serially up front: stream i is
        // the same whichever lane later runs start i.
        run.streams = task.rng.splitN(n_starts);
        run.results.resize(n_starts);
        run.computed.assign(n_starts, 0);
    }
    synth::runBatchedMultistart(target, runs);

    std::vector<InstantiationResult> results;
    results.reserve(runs.size());
    for (synth::MultistartTask &run : runs)
        results.push_back(bestOf(run));
    return results;
}

InstantiationResult
instantiate(const Matrix &target, const Ansatz &ansatz, Rng &rng,
            const InstantiaterOptions &options,
            const std::optional<std::vector<double>> &warm_start)
{
    const InstantiationTask task{ansatz, rng, options,
                                 warm_start ? &*warm_start : nullptr};
    return std::move(instantiateSiblings(target, {&task, 1}).front());
}

} // namespace quest
