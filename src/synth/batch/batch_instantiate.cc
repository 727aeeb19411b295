#include "synth/batch/batch_instantiate.hh"

#include <array>
#include <numbers>

#include "obs/metrics.hh"
#include "synth/batch/batch_kernels.hh"
#include "synth/batch/batched_hs_cost.hh"
#include "util/annotations.hh"
#include "util/logging.hh"
#include "util/names.hh"

namespace quest::synth {

namespace {

/** Which ISA served a multistart call (one counter per table). */
obs::Counter &
dispatchCounter(kern::batch::SimdIsa isa)
{
    static auto &avx512 = obs::MetricsRegistry::global().counter(
        names::kMetricSynthSimdDispatchAvx512);
    static auto &avx2 = obs::MetricsRegistry::global().counter(
        names::kMetricSynthSimdDispatchAvx2);
    static auto &scalar = obs::MetricsRegistry::global().counter(
        names::kMetricSynthSimdDispatchScalar);
    switch (isa) {
      case kern::batch::SimdIsa::Avx512:
        return avx512;
      case kern::batch::SimdIsa::Avx2:
        return avx2;
      case kern::batch::SimdIsa::Scalar:
        break;
    }
    return scalar;
}

} // namespace

void
runBatchedMultistart(const Matrix &target, const Ansatz &ansatz,
                     std::vector<Rng> &streams,
                     const LbfgsOptions &lbfgsOptions,
                     const InstantiaterOptions &options,
                     const std::optional<std::vector<double>> &warm_start,
                     std::vector<LbfgsResult> &results,
                     std::vector<uint8_t> &computed)
{
    static auto &starts_counter =
        obs::MetricsRegistry::global().counter(names::kMetricSynthMultistarts);
    static auto &batched_evals = obs::MetricsRegistry::global().counter(
        names::kMetricSynthBatchedEvals);
    static auto &batch_lanes =
        obs::MetricsRegistry::global().counter(names::kMetricSynthBatchLanes);
    static auto &lane_refills = obs::MetricsRegistry::global().counter(
        names::kMetricSynthLaneRefills);

    constexpr double pi = std::numbers::pi;
    constexpr size_t L = kern::batch::kLanes;
    const int n_starts = static_cast<int>(results.size());
    const int n_params = ansatz.paramCount();
    if (n_starts > 1)
        dispatchCounter(kern::batch::activeSimdIsa()).increment();

    // One shared L-lane cost (and so one SoA workspace) for every
    // lane: evaluateBatch reuses it allocation-free across all ticks.
    // Built on the first batched tick; calls that never fill more
    // than the tail never build it.
    std::optional<BatchedHsCost<L>> cost;

    // One-lane evaluator for the drain tail. A batch tick costs the
    // same no matter how many lanes are live, so once the pending
    // list is dry and only a couple of stragglers remain, evaluating
    // each alone is cheaper. Per-lane bit-identity across lane counts
    // (pinned by the kernel parity tests) makes the switch invisible
    // in every result. Built lazily: most multistart runs drain from
    // L to 0 quickly enough that it never exists.
    constexpr size_t kTailLanes = 2;
    std::optional<BatchedHsCost<1>> tail;

    std::array<std::optional<LbfgsMachine>, L> machines;
    std::array<int, L> laneStart;
    laneStart.fill(-1);
    std::array<std::vector<double>, L> gradBuf;
    std::array<double, L> fBuf{};

    // Lowest start index that reached the goal.
    int stop_at = n_starts;
    int next_pending = 0;

    auto makeX0 = [&](int idx) {
        std::vector<double> x0(static_cast<size_t>(n_params));
        if (idx == 0 && warm_start) {
            QUEST_ASSERT(warm_start->size() <= x0.size(),
                         "warm start larger than parameter vector");
            std::copy(warm_start->begin(), warm_start->end(), x0.begin());
            // Trailing new parameters remain zero (identity-ish U3s).
        } else {
            for (double &v : x0)
                v = streams[static_cast<size_t>(idx)].uniform(-pi, pi);
        }
        return x0;
    };

    // Claim the next runnable pending start for a free lane. Starts
    // past the earliest goal index are skipped (the reduction never
    // reads them); a fired budget stops launching, leaving the rest
    // uncomputed.
    auto launch = [&](size_t lane) -> bool {
        while (next_pending < n_starts) {
            if (options.budget.exhausted())
                return false;
            const int idx = next_pending++;
            if (idx > stop_at)
                continue;
            starts_counter.increment();
            laneStart[lane] = idx;
            machines[lane].emplace(makeX0(idx), lbfgsOptions);
            return true;
        }
        return false;
    };

    auto retire = [&](size_t lane) {
        LbfgsResult r = machines[lane]->takeResult();
        const int idx = laneStart[lane];
        const bool reached = r.value <= options.goal;
        results[static_cast<size_t>(idx)] = std::move(r);
        computed[static_cast<size_t>(idx)] = 1;
        if (reached && idx < stop_at)
            stop_at = idx;
        machines[lane].reset();
        laneStart[lane] = -1;
    };

    for (size_t lane = 0; lane < L; ++lane) {
        if (!launch(lane))
            break;
    }

    std::array<const std::vector<double> *, L> xs;
    std::array<std::vector<double> *, L> grads;

    // Lockstep drain. Bounded: every machine's per-iteration
    // options.budget poll (merged call budget) limits its lifetime to
    // maxIterations line searches of at most 40 trials, and retired
    // lanes only refill from the finite pending list.
    while (true) {
        QUEST_BOUNDED_LOOP("per-lane L-BFGS budget polls bound every machine");
        // Drop lanes that can no longer affect the serial-order
        // reduction: their start index is past the earliest goal, so
        // their result would be discarded unread (computed stays 0).
        for (size_t lane = 0; lane < L; ++lane) {
            if (machines[lane] && laneStart[lane] > stop_at) {
                machines[lane].reset();
                laneStart[lane] = -1;
            }
        }

        size_t active = 0;
        for (size_t lane = 0; lane < L; ++lane) {
            if (machines[lane]) {
                xs[lane] = &machines[lane]->queryPoint();
                grads[lane] = &gradBuf[lane];
                ++active;
            } else {
                xs[lane] = nullptr;
                grads[lane] = nullptr;
            }
        }
        if (active == 0)
            break;

        if (active <= kTailLanes && next_pending >= n_starts) {
            if (!tail)
                tail.emplace(target, ansatz);
            for (size_t lane = 0; lane < L; ++lane) {
                QUEST_BOUNDED_LOOP("at most kLanes stragglers; each "
                                   "machine polls options.budget per "
                                   "iteration");
                if (xs[lane])
                    fBuf[lane] = tail->evaluate(*xs[lane], *grads[lane]);
            }
        } else {
            if (!cost)
                cost.emplace(target, ansatz);
            cost->evaluateBatch(xs, fBuf, grads);
            batched_evals.increment();
            batch_lanes.add(active);
        }

        for (size_t lane = 0; lane < L; ++lane) {
            if (!machines[lane])
                continue;
            machines[lane]->consume(fBuf[lane], gradBuf[lane]);
            if (machines[lane]->done()) {
                retire(lane);
                if (launch(lane))
                    lane_refills.increment();
            }
        }
    }
}

} // namespace quest::synth
