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

InstantiationResult
instantiate(const Matrix &target, const Ansatz &ansatz, Rng &rng,
            const InstantiaterOptions &options,
            const std::optional<std::vector<double>> &warm_start)
{
    QUEST_TRACE_SCOPE("synth.instantiate");
    static auto &calls =
        obs::MetricsRegistry::global().counter(names::kMetricSynthInstantiations);
    static auto &early_counter =
        obs::MetricsRegistry::global().counter(names::kMetricSynthEarlyStops);
    calls.increment();

    const int n_params = ansatz.paramCount();
    const int n_starts = std::max(1, options.multistarts);

    // The call-level budget bounds every start's inner loop too: the
    // L-BFGS budget becomes the tighter of its own deadline and ours,
    // and inherits our token when it has none.
    LbfgsOptions lbfgsOptions = options.lbfgs;
    lbfgsOptions.budget =
        lbfgsOptions.budget.withDeadline(options.budget.deadline);
    if (!lbfgsOptions.budget.cancel)
        lbfgsOptions.budget.cancel = options.budget.cancel;

    // Per-start RNG streams, split serially up front: stream i is the
    // same whichever lane later runs start i.
    std::vector<Rng> streams = rng.splitN(static_cast<size_t>(n_starts));

    std::vector<LbfgsResult> results(static_cast<size_t>(n_starts));
    std::vector<uint8_t> computed(static_cast<size_t>(n_starts), 0);
    synth::runBatchedMultistart(target, ansatz, streams, lbfgsOptions,
                                options, warm_start, results, computed);

    // Serial-order best-of reduction: walk starts in index order,
    // keep the first strict improvement, stop at the first start that
    // reached the goal — exactly a serial loop's selection, so the
    // outcome is independent of which starts ran in which lane (or
    // whether extra starts past the goal were computed and
    // discarded).
    InstantiationResult best;
    best.distance = 1.0;
    double best_value = 2.0;
    bool selected = false;
    for (int i = 0; i < n_starts; ++i) {
        LbfgsResult &r = results[static_cast<size_t>(i)];
        if (!computed[static_cast<size_t>(i)])
            break;  // past the earliest goal index, or budget-skipped
        // Non-finite costs (diverged starts) are never selected; a
        // NaN would also poison the < comparison below.
        if (std::isfinite(r.value) && r.value < best_value) {
            best_value = r.value;
            best.params = std::move(r.x);
            best.distance = std::sqrt(std::max(0.0, best_value));
            selected = true;
        }
        if (best_value <= options.goal) {
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
        best.params.assign(static_cast<size_t>(n_params), 0.0);
        best.distance = std::numeric_limits<double>::infinity();
    }
    return best;
}

} // namespace quest
