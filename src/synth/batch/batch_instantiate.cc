#include "synth/batch/batch_instantiate.hh"

#include <algorithm>
#include <array>
#include <bit>
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

constexpr size_t kLanes = kern::batch::kLanes;

/** One tick's live lanes, packed into slots [0, active); the rest
 *  are null. */
using PackedXs = std::array<const std::vector<double> *, kLanes>;
using PackedGrads = std::array<std::vector<double> *, kLanes>;

/** The costs one call's ticks run on, one per table width, each
 *  built on first use. */
struct WidthCosts
{
    std::optional<BatchedHsCost<1>> w1;
    std::optional<BatchedHsCost<2>> w2;
    std::optional<BatchedHsCost<4>> w4;
    std::optional<BatchedHsCost<kLanes>> w8;
};

/** Evaluate the first W packed slots on the W-lane cost; f[j]
 *  receives slot j's objective. */
template <size_t W>
void
tickOn(std::optional<BatchedHsCost<W>> &cost, const Matrix &target,
       const Ansatz &ansatz, const PackedXs &xs, const PackedGrads &grads,
       std::array<double, kLanes> &f)
{
    if (!cost)
        cost.emplace(target, ansatz);
    std::array<const std::vector<double> *, W> xw{};
    std::array<std::vector<double> *, W> gw{};
    std::array<double, W> fw{};
    std::copy_n(xs.begin(), W, xw.begin());
    std::copy_n(grads.begin(), W, gw.begin());
    cost->evaluateBatch(xw, fw, gw);
    std::copy_n(fw.begin(), W, f.begin());
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
    static auto &batch_width =
        obs::MetricsRegistry::global().counter(names::kMetricSynthBatchWidth);
    static auto &lane_refills = obs::MetricsRegistry::global().counter(
        names::kMetricSynthLaneRefills);

    constexpr double pi = std::numbers::pi;
    constexpr size_t L = kLanes;
    const int n_starts = static_cast<int>(results.size());
    const int n_params = ansatz.paramCount();
    if (n_starts > 1)
        dispatchCounter(kern::batch::activeSimdIsa()).increment();

    // Every tick runs on the narrowest cost that holds its live lanes:
    // idle lanes cost as much as live ones, so a narrower table does
    // the same per-lane work in less time. Per-lane bit-identity
    // across lane counts (pinned by the kernel parity tests) makes the
    // width invisible in every result.
    WidthCosts costs;

    std::array<std::optional<LbfgsMachine>, L> machines;
    std::array<int, L> laneStart;
    laneStart.fill(-1);
    std::array<std::vector<double>, L> gradBuf;

    // Tick tallies, flushed to the registry once per call.
    uint64_t ticks = 0, tick_lanes = 0, tick_width = 0, refills = 0;

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

    std::array<size_t, L> live{};
    PackedXs xs;
    PackedGrads grads;
    std::array<double, L> fBuf{};

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

        xs.fill(nullptr);
        grads.fill(nullptr);
        size_t active = 0;
        for (size_t lane = 0; lane < L; ++lane) {
            if (machines[lane]) {
                live[active] = lane;
                xs[active] = &machines[lane]->queryPoint();
                grads[active] = &gradBuf[lane];
                ++active;
            }
        }
        if (active == 0)
            break;

        const size_t width = std::bit_ceil(active);
        switch (width) {
          case 1:
            tickOn(costs.w1, target, ansatz, xs, grads, fBuf);
            break;
          case 2:
            tickOn(costs.w2, target, ansatz, xs, grads, fBuf);
            break;
          case 4:
            tickOn(costs.w4, target, ansatz, xs, grads, fBuf);
            break;
          default:
            tickOn(costs.w8, target, ansatz, xs, grads, fBuf);
            break;
        }
        ++ticks;
        tick_lanes += active;
        tick_width += width;

        for (size_t j = 0; j < active; ++j) {
            const size_t lane = live[j];
            machines[lane]->consume(fBuf[j], gradBuf[lane]);
            if (machines[lane]->done()) {
                retire(lane);
                if (launch(lane))
                    ++refills;
            }
        }
    }

    batched_evals.add(ticks);
    batch_lanes.add(tick_lanes);
    batch_width.add(tick_width);
    lane_refills.add(refills);
}

} // namespace quest::synth
