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

/**
 * The table width a tick of @p active live lanes runs on: the
 * narrowest that holds them, unless that table is the scalar-lane
 * loop — a W-lane scalar-lane tick costs more than W 1-lane ticks, so
 * such hosts tick one lane at a time.
 */
size_t
tickWidth(size_t active)
{
    using kern::batch::SimdIsa;
    using kern::batch::activeSimdIsaFor;
    const size_t width = std::bit_ceil(active);
    const SimdIsa isa = width == 2   ? activeSimdIsaFor<2>()
                        : width == 4 ? activeSimdIsaFor<4>()
                                     : activeSimdIsaFor<kLanes>();
    return width > 1 && isa != SimdIsa::Scalar ? width : 1;
}

/** One tick's live lanes, packed into slots [0, active); the rest
 *  are null. */
struct Packed
{
    std::array<const std::vector<double> *, kLanes> xs{};
    std::array<std::vector<double> *, kLanes> grads{};
    std::array<uint32_t, kLanes> sibling{};  //!< the slot's task
};

/** The costs one call's ticks run on, one per table width, each
 *  built on first use over one arena. */
struct WidthCosts
{
    const Matrix &target;
    const std::vector<const Ansatz *> &siblings;
    BatchedHsWorkspace &arena;
    std::optional<BatchedHsCost<1>> w1;
    std::optional<BatchedHsCost<2>> w2;
    std::optional<BatchedHsCost<4>> w4;
    std::optional<BatchedHsCost<kLanes>> w8;

    /** Evaluate packed slots [from, from + W) on the W-lane cost;
     *  f[j] receives slot j's objective. */
    template <size_t W>
    void
    tick(std::optional<BatchedHsCost<W>> &cost, const Packed &p,
         size_t from, std::array<double, kLanes> &f)
    {
        if (!cost)
            cost.emplace(target, siblings, arena);
        std::array<const std::vector<double> *, W> xw{};
        std::array<std::vector<double> *, W> gw{};
        typename BatchedHsCost<W>::Siblings sw{};
        std::array<double, W> fw{};
        std::copy_n(p.xs.begin() + from, W, xw.begin());
        std::copy_n(p.grads.begin() + from, W, gw.begin());
        std::copy_n(p.sibling.begin() + from, W, sw.begin());
        cost->evaluateBatch(xw, sw, fw, gw);
        std::copy_n(fw.begin(), W, f.begin() + from);
    }

    /** One tick of @p width lanes over slots [0, width). */
    void
    tick(size_t width, const Packed &p, std::array<double, kLanes> &f)
    {
        switch (width) {
          case 2:
            tick(w2, p, 0, f);
            break;
          case 4:
            tick(w4, p, 0, f);
            break;
          default:
            tick(w8, p, 0, f);
            break;
        }
    }
};

} // namespace

void
runBatchedMultistart(const Matrix &target, std::span<MultistartTask> tasks)
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
    static auto &sibling_groups = obs::MetricsRegistry::global().counter(
        names::kMetricSynthSiblingGroups);

    constexpr double pi = std::numbers::pi;
    constexpr size_t L = kLanes;
    const size_t n_tasks = tasks.size();
    if (n_tasks == 0)
        return;
    auto startsOf = [&](size_t t) {
        return static_cast<int>(tasks[t].results.size());
    };

    std::vector<const Ansatz *> siblings;
    size_t total_starts = 0;
    for (size_t t = 0; t < n_tasks; ++t) {
        siblings.push_back(tasks[t].ansatz);
        total_starts += static_cast<size_t>(startsOf(t));
        if (startsOf(t) > 1)
            dispatchCounter(kern::batch::activeSimdIsa()).increment();
    }
    if (n_tasks > 1)
        sibling_groups.increment();

    // Every tick runs on the narrowest cost that holds its live lanes:
    // idle lanes cost as much as live ones, so a narrower table does
    // the same per-lane work in less time. Per-lane bit-identity
    // across lane counts and neighbours (pinned by the kernel parity
    // tests) makes the width and the lane's siblings invisible in
    // every result. All widths share one arena, sized up front for
    // the widest tick the call can run (three parameters per U3), so
    // it is allocated once.
    BatchedHsWorkspace arena;
    arena.ensure(target.rows(), tickWidth(std::min(total_starts, L)),
                 static_cast<size_t>(tasks[0].ansatz->paramCount() / 3),
                 n_tasks > 1);
    WidthCosts costs{target, siblings, arena, {}, {}, {}, {}};

    std::array<std::optional<LbfgsMachine>, L> machines;
    std::array<uint32_t, L> laneTask{};
    std::array<int, L> laneStart;
    laneStart.fill(-1);
    std::array<std::vector<double>, L> gradBuf;

    // Tick tallies, flushed to the registry once per call.
    uint64_t ticks = 0, tick_lanes = 0, tick_width = 0, refills = 0;

    // Per task: the next start to launch and the lowest start index
    // that reached the goal.
    std::vector<int> next_pending(n_tasks, 0);
    std::vector<int> stop_at(n_tasks);
    for (size_t t = 0; t < n_tasks; ++t)
        stop_at[t] = startsOf(t);

    auto makeX0 = [&](size_t t, int idx) {
        MultistartTask &task = tasks[t];
        std::vector<double> x0(
            static_cast<size_t>(task.ansatz->paramCount()));
        if (idx == 0 && task.warmStart) {
            QUEST_ASSERT(task.warmStart->size() <= x0.size(),
                         "warm start larger than parameter vector");
            std::copy(task.warmStart->begin(), task.warmStart->end(),
                      x0.begin());
            // Trailing new parameters remain zero (identity-ish U3s).
        } else {
            for (double &v : x0)
                v = task.streams[static_cast<size_t>(idx)].uniform(-pi, pi);
        }
        return x0;
    };

    // Claim task t's next runnable pending start for a free lane.
    // Starts past the earliest goal index are skipped (the reduction
    // never reads them); a fired budget stops launching, leaving the
    // rest uncomputed.
    auto launch = [&](size_t lane, size_t t) -> bool {
        while (next_pending[t] < startsOf(t)) {
            if (tasks[t].options->budget.exhausted())
                return false;
            const int idx = next_pending[t]++;
            if (idx > stop_at[t])
                continue;
            starts_counter.increment();
            laneTask[lane] = static_cast<uint32_t>(t);
            laneStart[lane] = idx;
            machines[lane].emplace(makeX0(t, idx), tasks[t].lbfgs);
            return true;
        }
        return false;
    };

    // Fill free lanes in task order. A task is admitted only when its
    // first tick's worth of starts all fit, so they launch together
    // and step in the same relative lockstep as alone; a task with
    // more starts than lanes then refills its own retired lanes first,
    // as it would alone.
    auto fill = [&]() -> uint64_t {
        size_t free = 0;
        for (size_t lane = 0; lane < L; ++lane)
            free += laneStart[lane] < 0 ? 1 : 0;
        uint64_t launched = 0;
        for (size_t t = 0; t < n_tasks && free > 0; ++t) {
            if (next_pending[t] >= startsOf(t))
                continue;
            if (next_pending[t] == 0 &&
                free < std::min(static_cast<size_t>(startsOf(t)), L))
                continue;
            for (size_t lane = 0; lane < L && free > 0; ++lane) {
                if (laneStart[lane] >= 0)
                    continue;
                if (!launch(lane, t))
                    break;
                --free;
                ++launched;
            }
        }
        return launched;
    };

    auto retire = [&](size_t lane) {
        LbfgsResult r = machines[lane]->takeResult();
        MultistartTask &task = tasks[laneTask[lane]];
        const int idx = laneStart[lane];
        const bool reached = r.value <= task.options->goal;
        task.results[static_cast<size_t>(idx)] = std::move(r);
        task.computed[static_cast<size_t>(idx)] = 1;
        int &stop = stop_at[laneTask[lane]];
        if (reached && idx < stop)
            stop = idx;
        machines[lane].reset();
        laneStart[lane] = -1;
    };

    std::array<size_t, L> live{};
    Packed packed;
    std::array<double, L> fBuf{};

    // The first fill launches the call's opening starts; every launch
    // after it takes a lane a retired or dropped run freed, and counts
    // as a refill.
    fill();

    // Lockstep drain. Bounded: every machine's per-iteration
    // options.budget poll (merged call budget) limits its lifetime to
    // maxIterations line searches of at most 40 trials, and retired
    // lanes only refill from the finite pending lists.
    while (true) {
        QUEST_BOUNDED_LOOP("per-lane L-BFGS budget polls bound every machine");
        // Drop lanes that can no longer affect their task's
        // serial-order reduction: their start index is past the
        // earliest goal, so their result would be discarded unread
        // (computed stays 0). Other tasks may take the freed lanes.
        for (size_t lane = 0; lane < L; ++lane) {
            if (machines[lane] &&
                laneStart[lane] > stop_at[laneTask[lane]]) {
                machines[lane].reset();
                laneStart[lane] = -1;
            }
        }
        refills += fill();

        packed.xs.fill(nullptr);
        packed.grads.fill(nullptr);
        packed.sibling.fill(0);
        size_t active = 0;
        for (size_t lane = 0; lane < L; ++lane) {
            if (machines[lane]) {
                live[active] = lane;
                packed.xs[active] = &machines[lane]->queryPoint();
                packed.grads[active] = &gradBuf[lane];
                packed.sibling[active] = laneTask[lane];
                ++active;
            }
        }
        if (active == 0)
            break;

        const size_t width = tickWidth(active);
        if (width == 1) {
            for (size_t j = 0; j < active; ++j)
                costs.tick(costs.w1, packed, j, fBuf);
            ticks += active;
            tick_width += active;
        } else {
            costs.tick(width, packed, fBuf);
            ++ticks;
            tick_width += width;
        }
        tick_lanes += active;

        for (size_t j = 0; j < active; ++j) {
            const size_t lane = live[j];
            machines[lane]->consume(fBuf[j], gradBuf[lane]);
            if (machines[lane]->done()) {
                retire(lane);
                refills += fill();
            }
        }
    }

    batched_evals.add(ticks);
    batch_lanes.add(tick_lanes);
    batch_width.add(tick_width);
    lane_refills.add(refills);
}

} // namespace quest::synth
