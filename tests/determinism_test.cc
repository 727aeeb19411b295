/**
 * @file
 * Determinism contract: the same configuration and seed must produce
 * byte-identical results — across repeated runs and across worker
 * thread counts. Task RNGs are split serially when the task list is
 * built and every task writes its own output slot, so the schedule
 * must not leak into the results.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <optional>
#include <string>

#include "algos/algorithms.hh"
#include "anneal/dual_annealing.hh"
#include "dense_ansatz.hh"
#include "ir/qasm.hh"
#include "obs/metrics.hh"
#include "quest/pipeline.hh"
#include "resilience/budget.hh"
#include "synth/batch/batch_kernels.hh"
#include "synth/batch/batch_instantiate.hh"
#include "synth/batch/batched_hs_cost.hh"
#include "synth/instantiater.hh"
#include "synth/lbfgs.hh"
#include "util/names.hh"

namespace quest {
namespace {

constexpr double pi = std::numbers::pi;

QuestConfig
tinyConfig()
{
    QuestConfig cfg;
    cfg.synth.beamWidth = 1;
    cfg.synth.inst.multistarts = 1;
    cfg.synth.inst.lbfgs.maxIterations = 60;
    cfg.synth.maxLayers = 5;
    cfg.synth.candidatesPerLevel = 3;
    cfg.synth.stallLevels = 3;
    cfg.anneal.maxIterations = 120;
    cfg.maxSamples = 3;
    return cfg;
}

/** Exact (not approximate) equality of two pipeline results. */
void
expectIdentical(const QuestResult &a, const QuestResult &b)
{
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    ASSERT_EQ(a.blockApprox.size(), b.blockApprox.size());
    for (size_t blk = 0; blk < a.blockApprox.size(); ++blk) {
        ASSERT_EQ(a.blockApprox[blk].size(), b.blockApprox[blk].size())
            << "block " << blk;
        for (size_t k = 0; k < a.blockApprox[blk].size(); ++k) {
            // Bitwise-equal distances, not EXPECT_DOUBLE_EQ: any
            // schedule-dependent float difference is a failure.
            EXPECT_EQ(a.blockApprox[blk][k].distance,
                      b.blockApprox[blk][k].distance)
                << "block " << blk << " approx " << k;
            EXPECT_EQ(a.blockApprox[blk][k].cnotCount,
                      b.blockApprox[blk][k].cnotCount);
            EXPECT_EQ(toQasm(a.blockApprox[blk][k].circuit),
                      toQasm(b.blockApprox[blk][k].circuit));
        }
        EXPECT_EQ(a.blockSimilar[blk], b.blockSimilar[blk]);
    }

    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (size_t s = 0; s < a.samples.size(); ++s) {
        EXPECT_EQ(a.samples[s].choice, b.samples[s].choice);
        EXPECT_EQ(a.samples[s].cnotCount, b.samples[s].cnotCount);
        EXPECT_EQ(a.samples[s].distanceBound,
                  b.samples[s].distanceBound);
        // Certify: bit-equal measured distances, so the parallel tile
        // traces must not depend on the schedule.
        EXPECT_EQ(a.samples[s].measuredDistance,
                  b.samples[s].measuredDistance)
            << "sample " << s;
        EXPECT_EQ(toQasm(a.samples[s].circuit),
                  toQasm(b.samples[s].circuit));
    }
    EXPECT_EQ(a.threshold, b.threshold);
    EXPECT_EQ(a.certificate.maxMeasured, b.certificate.maxMeasured);
    EXPECT_EQ(a.certificate.measuredSamples,
              b.certificate.measuredSamples);
    EXPECT_EQ(a.originalCnots, b.originalCnots);
}

TEST(Determinism, RepeatedRunsAreByteIdentical)
{
    QuestConfig cfg = tinyConfig();
    cfg.threads = 1;
    Circuit circuit = algos::tfim(4, 3);
    QuestResult a = QuestPipeline(cfg).run(circuit);
    QuestResult b = QuestPipeline(cfg).run(circuit);
    expectIdentical(a, b);
}

TEST(Determinism, IndependentOfThreadCount)
{
    Circuit circuit = algos::tfim(8, 2);  // multi-block
    QuestConfig serial = tinyConfig();
    serial.threads = 1;
    QuestConfig parallel = tinyConfig();
    parallel.threads = 4;
    QuestResult a = QuestPipeline(serial).run(circuit);
    QuestResult b = QuestPipeline(parallel).run(circuit);
    // Full mode: every sample is measured, over several tiles.
    EXPECT_EQ(a.certificate.measuredSamples,
              static_cast<int>(a.samples.size()));
    expectIdentical(a, b);
}

TEST(Determinism, SeedChangesTheRun)
{
    QuestConfig cfg = tinyConfig();
    cfg.threads = 1;
    QuestConfig other = cfg;
    other.seed = cfg.seed + 1;
    // The pipeline seed feeds the annealer; the synthesizer draws
    // from its own seed, so vary both.
    other.synth.seed = cfg.synth.seed + 1;
    Circuit circuit = algos::tfim(4, 3);
    QuestResult a = QuestPipeline(cfg).run(circuit);
    QuestResult b = QuestPipeline(other).run(circuit);
    // Different seeds must not be forced identical: at minimum the
    // synthesized approximation distances should differ somewhere.
    bool any_difference = false;
    for (size_t blk = 0;
         blk < std::min(a.blockApprox.size(), b.blockApprox.size());
         ++blk) {
        if (a.blockApprox[blk].size() != b.blockApprox[blk].size()) {
            any_difference = true;
            break;
        }
        for (size_t k = 0; k < a.blockApprox[blk].size(); ++k)
            any_difference |= a.blockApprox[blk][k].distance !=
                              b.blockApprox[blk][k].distance;
    }
    EXPECT_TRUE(any_difference);
}

/** An ansatz-generated target, so the instantiation goal is reachable
 *  and the first-to-goal early stop actually triggers. */
Matrix
reachableTarget(Ansatz &a)
{
    Rng rng(21);
    std::vector<double> truth(a.paramCount());
    for (double &v : truth)
        v = rng.uniform(-pi, pi);
    return denseUnitary(a, truth);
}

/** instantiate() with a fixed seed and iteration cap. */
InstantiationResult
runInstantiation(const Matrix &target, const Ansatz &a, double goal,
                 int multistarts = 6)
{
    InstantiaterOptions opts;
    opts.multistarts = multistarts;
    opts.lbfgs.maxIterations = 200;
    opts.goal = goal;
    Rng rng(42);
    return instantiate(target, a, rng, opts);
}

/**
 * Every start of a multistart call run alone, in index order, through
 * the 1-lane cost: start i from stream i of Rng(seed).splitN(starts),
 * except that start 0 begins at @p warm (zero-padded) when given —
 * the same start points instantiate() draws.
 */
std::vector<LbfgsResult>
eachStartAlone(const Matrix &target, const Ansatz &a, uint64_t seed,
               int starts, const LbfgsOptions &lbfgs,
               const std::optional<std::vector<double>> &warm = std::nullopt)
{
    Rng rng(seed);
    std::vector<Rng> streams = rng.splitN(static_cast<size_t>(starts));
    synth::BatchedHsWorkspace arena;
    synth::BatchedHsCost<1> cost(target, a, arena);
    const GradObjective objective = [&cost](const std::vector<double> &x,
                                            std::vector<double> *grad) {
        return cost.evaluate(x, *grad);
    };
    std::vector<LbfgsResult> runs;
    for (int i = 0; i < starts; ++i) {
        std::vector<double> x0(static_cast<size_t>(a.paramCount()), 0.0);
        if (i == 0 && warm) {
            std::copy(warm->begin(), warm->end(), x0.begin());
        } else {
            for (double &v : x0)
                v = streams[static_cast<size_t>(i)].uniform(-pi, pi);
        }
        runs.push_back(lbfgsMinimize(objective, std::move(x0), lbfgs));
    }
    return runs;
}

/** A serial loop's best-of over @p runs: the first strict
 *  improvement wins, and the first run that reaches @p goal ends the
 *  loop. */
InstantiationResult
serialBest(std::vector<LbfgsResult> runs, double goal)
{
    InstantiationResult best;
    double best_value = 2.0;
    for (LbfgsResult &r : runs) {
        if (r.value < best_value) {
            best_value = r.value;
            best.params = std::move(r.x);
            best.distance = std::sqrt(std::max(0.0, best_value));
        }
        if (best_value <= goal)
            break;
    }
    return best;
}

/** The serial reference for runInstantiation. */
InstantiationResult
serialReference(const Matrix &target, const Ansatz &a, double goal,
                int multistarts = 6)
{
    LbfgsOptions lbfgs;
    lbfgs.maxIterations = 200;
    return serialBest(eachStartAlone(target, a, 42, multistarts, lbfgs),
                      goal);
}

/**
 * A driver task for @p starts starts of @p a from Rng(@p seed), set
 * up as instantiateSiblings() sets up each task (@p opts must
 * outlive it).
 */
synth::MultistartTask
driverTask(const Ansatz &a, const InstantiaterOptions &opts, uint64_t seed,
           int starts, const std::vector<double> *warm = nullptr)
{
    synth::MultistartTask task;
    task.ansatz = &a;
    task.options = &opts;
    task.lbfgs = opts.lbfgs;
    Rng rng(seed);
    task.streams = rng.splitN(static_cast<size_t>(starts));
    task.warmStart = warm;
    task.results.resize(static_cast<size_t>(starts));
    task.computed.assign(static_cast<size_t>(starts), 0);
    return task;
}

/** True when every multi-lane table is SIMD; otherwise the driver
 *  ticks one lane at a time. */
bool
simdTicks()
{
    using kern::batch::SimdIsa;
    return kern::batch::activeSimdIsaFor<2>() != SimdIsa::Scalar &&
           kern::batch::activeSimdIsaFor<4>() != SimdIsa::Scalar &&
           kern::batch::activeSimdIsaFor<kern::batch::kLanes>() !=
               SimdIsa::Scalar;
}

/** Bitwise equality of two L-BFGS runs. */
void
expectSameRun(const LbfgsResult &got, const LbfgsResult &want,
              const std::string &where)
{
    EXPECT_EQ(got.value, want.value) << where;
    EXPECT_EQ(got.iterations, want.iterations) << where;
    EXPECT_EQ(got.converged, want.converged) << where;
    EXPECT_EQ(got.x, want.x) << where;
}

/** Bitwise equality of distance and every parameter. */
void
expectSameResult(const InstantiationResult &got,
                 const InstantiationResult &want)
{
    EXPECT_EQ(got.distance, want.distance);
    ASSERT_EQ(got.params.size(), want.params.size());
    for (size_t i = 0; i < got.params.size(); ++i)
        EXPECT_EQ(got.params[i], want.params[i]) << "param " << i;
}

TEST(Determinism, BatchedEngineMatchesScalarSerialWithEarlyStop)
{
    Ansatz a = Ansatz::initialLayer(2);
    a.addLayer(0, 1);
    a.addLayer(1, 0);
    const Matrix target = reachableTarget(a);

    // goal 1e-10 on the cost is reachable (the target is in the
    // ansatz family), so some start triggers the early stop and the
    // lane driver's skip logic is exercised, not just the happy path.
    // The lane-lockstep run must match the serial one-start-at-a-time
    // reference bit for bit.
    const InstantiationResult serial = serialReference(target, a, 1e-10);
    EXPECT_LT(serial.distance, 1e-4);
    expectSameResult(runInstantiation(target, a, 1e-10), serial);
}

TEST(Determinism, BatchedEngineMatchesScalarSerialAcrossLaneRefills)
{
    Ansatz a = Ansatz::initialLayer(2);
    a.addLayer(0, 1);
    const Matrix target = reachableTarget(a);

    // 11 starts > kLanes (8) with an unreachable goal: every lane
    // retires at least once and the refill path runs, so pending
    // starts are proven to resume on whichever lane frees up without
    // perturbing any other lane's iterates.
    expectSameResult(runInstantiation(target, a, 0.0, 11),
                     serialReference(target, a, 0.0, 11));
}

TEST(Determinism, MultistartDriverMatchesEachStartAloneAtEveryWidth)
{
    Ansatz a = Ansatz::initialLayer(3);
    a.addLayer(0, 1);
    a.addLayer(1, 2);
    const Matrix target = reachableTarget(a);
    InstantiaterOptions opts;
    opts.lbfgs.maxIterations = 60;
    opts.goal = -1.0;  // unreachable: no lane is ever dropped

    auto &reg = obs::MetricsRegistry::global();
    auto &ticks = reg.counter(names::kMetricSynthBatchedEvals);
    auto &lanes = reg.counter(names::kMetricSynthBatchLanes);
    auto &width = reg.counter(names::kMetricSynthBatchWidth);
    auto &evals = reg.counter(names::kMetricLbfgsEvaluations);
    auto &refills = reg.counter(names::kMetricSynthLaneRefills);

    // 1..9 starts: every table width from the first tick, and runs
    // that end at different iteration counts, so a call's ticks step
    // down 8 -> 4 -> 2 -> 1 lanes mid-run (9 also refills a lane).
    for (int starts = 1; starts <= 9; ++starts) {
        const std::vector<LbfgsResult> alone =
            eachStartAlone(target, a, 42, starts, opts.lbfgs);

        synth::MultistartTask task = driverTask(a, opts, 42, starts);
        const std::vector<LbfgsResult> &results = task.results;
        const std::vector<uint8_t> &computed = task.computed;
        const uint64_t ticks0 = ticks.value(), lanes0 = lanes.value();
        const uint64_t width0 = width.value(), evals0 = evals.value();
        const uint64_t refills0 = refills.value();
        synth::runBatchedMultistart(target, {&task, 1});
        const uint64_t dTicks = ticks.value() - ticks0;
        const uint64_t dLanes = lanes.value() - lanes0;
        const uint64_t dWidth = width.value() - width0;

        for (int i = 0; i < starts; ++i) {
            const std::string where = "starts=" + std::to_string(starts) +
                                      " start=" + std::to_string(i);
            ASSERT_TRUE(computed[static_cast<size_t>(i)]) << where;
            expectSameRun(results[static_cast<size_t>(i)],
                          alone[static_cast<size_t>(i)], where);
        }

        // Every live lane of every tick is one L-BFGS evaluation. On
        // SIMD tables the widths are the narrowest powers of two
        // holding them; where the multi-lane tables are scalar-lane
        // loops, every tick is a 1-lane tick.
        EXPECT_EQ(dLanes, evals.value() - evals0) << starts;
        // The opening fill launches up to kLanes starts; each later
        // launch takes a retired lane.
        EXPECT_EQ(refills.value() - refills0,
                  static_cast<uint64_t>(std::max(starts - 8, 0)))
            << starts;
        if (!simdTicks()) {
            EXPECT_EQ(dWidth, dLanes) << starts;
            EXPECT_EQ(dTicks, dLanes) << starts;
        } else {
            EXPECT_GE(dWidth, dLanes) << starts;
            EXPECT_LT(dWidth, 2 * dLanes) << starts;
            EXPECT_LE(dTicks, dLanes) << starts;
            if (starts == 9) {
                EXPECT_GT(dWidth, dTicks) << "no multi-lane tick";
                EXPECT_LT(dWidth, 8 * dTicks) << "no narrow tick";
            }
        }

        opts.multistarts = starts;
        Rng irng(42);
        expectSameResult(instantiate(target, a, irng, opts),
                         serialBest(alone, opts.goal));
    }
}

TEST(Determinism, MultistartDriverMatchesEachStartAloneWithWarmStart)
{
    Ansatz a = Ansatz::initialLayer(2);
    a.addLayer(0, 1);
    a.addLayer(1, 0);
    const Matrix target = reachableTarget(a);
    InstantiaterOptions opts;
    opts.lbfgs.maxIterations = 200;
    opts.goal = 1e-10;  // reachable: some start stops the call early

    // A warm start from the previous level: one layer (two U3s)
    // fewer, the new trailing parameters start at zero.
    Rng wrng(7);
    std::vector<double> warm(static_cast<size_t>(a.paramCount() - 6));
    for (double &v : warm)
        v = wrng.uniform(-pi, pi);

    bool stoppedEarly = false;
    for (int starts = 1; starts <= 9; ++starts) {
        const std::vector<LbfgsResult> alone =
            eachStartAlone(target, a, 42, starts, opts.lbfgs, warm);
        int firstGoal = starts;
        for (int i = starts; i-- > 0;)
            if (alone[static_cast<size_t>(i)].value <= opts.goal)
                firstGoal = i;
        stoppedEarly |= firstGoal + 1 < starts;

        synth::MultistartTask task = driverTask(a, opts, 42, starts, &warm);
        const std::vector<LbfgsResult> &results = task.results;
        const std::vector<uint8_t> &computed = task.computed;
        synth::runBatchedMultistart(target, {&task, 1});

        // Every start up to the first that reached the goal must run;
        // later ones may be dropped, but any that finished must match.
        for (int i = 0; i < starts; ++i) {
            const std::string where = "starts=" + std::to_string(starts) +
                                      " start=" + std::to_string(i);
            if (i <= firstGoal) {
                ASSERT_TRUE(computed[static_cast<size_t>(i)]) << where;
            }
            if (computed[static_cast<size_t>(i)]) {
                expectSameRun(results[static_cast<size_t>(i)],
                              alone[static_cast<size_t>(i)], where);
            }
        }

        opts.multistarts = starts;
        Rng irng(42);
        expectSameResult(instantiate(target, a, irng, opts, warm),
                         serialBest(alone, opts.goal));
    }
    EXPECT_TRUE(stoppedEarly) << "no start reached the goal early";
}

TEST(Determinism, SiblingGroupMatchesEachTaskAlone)
{
    // Seven siblings of one frontier node (the last a duplicate pair,
    // as a lineage with the node's structure can be), each with its
    // own options — 2 starts capped at 300 iterations or 4 at 600,
    // as LEAP's node and lineage tasks — its own RNG and, for some,
    // a warm start. The target is the first sibling's, so its starts
    // reach the goal and stop early. Every prefix of 1..7 tasks run
    // as one group must give each task exactly instantiate()'s
    // result on it alone, with the same start and evaluation counts.
    Ansatz parent = Ansatz::initialLayer(3);
    parent.addLayer(0, 1);
    parent.addLayer(1, 2);
    const std::pair<int, int> pairs[] = {{2, 0}, {0, 1}, {1, 2}, {0, 2},
                                         {1, 0}, {2, 1}, {2, 0}};
    std::vector<Ansatz> kids;
    for (auto [a, b] : pairs) {
        kids.push_back(parent);
        kids.back().addLayer(a, b);
    }
    const Matrix target = reachableTarget(kids[0]);
    Rng wrng(17);
    std::vector<double> warm(static_cast<size_t>(parent.paramCount()));
    for (double &v : warm)
        v = wrng.uniform(-pi, pi);
    std::vector<InstantiaterOptions> opts(kids.size());
    for (size_t k = 0; k < kids.size(); ++k) {
        const bool lineage = k % 3 == 2;
        opts[k].multistarts = lineage ? 4 : 2;
        opts[k].lbfgs.maxIterations = lineage ? 600 : 300;
        opts[k].goal = 1e-10;
    }
    auto warmOf = [&](size_t k) { return k % 2 == 0 ? &warm : nullptr; };

    auto &reg = obs::MetricsRegistry::global();
    auto &starts = reg.counter(names::kMetricSynthMultistarts);
    auto &evals = reg.counter(names::kMetricLbfgsEvaluations);
    auto &groups = reg.counter(names::kMetricSynthSiblingGroups);
    auto &early = reg.counter(names::kMetricSynthEarlyStops);
    auto &refills = reg.counter(names::kMetricSynthLaneRefills);
    const uint64_t early0 = early.value();
    for (size_t count = 1; count <= kids.size(); ++count) {
        std::vector<InstantiationResult> alone;
        const uint64_t starts0 = starts.value(), evals0 = evals.value();
        for (size_t k = 0; k < count; ++k) {
            Rng rng(100 + k);
            std::optional<std::vector<double>> w;
            if (warmOf(k))
                w = *warmOf(k);
            alone.push_back(instantiate(target, kids[k], rng, opts[k], w));
        }
        const uint64_t aloneStarts = starts.value() - starts0;
        const uint64_t aloneEvals = evals.value() - evals0;

        std::vector<Rng> rngs;
        for (size_t k = 0; k < count; ++k)
            rngs.emplace_back(100 + k);
        std::vector<InstantiationTask> tasks;
        for (size_t k = 0; k < count; ++k)
            tasks.push_back({kids[k], rngs[k], opts[k], warmOf(k)});
        const uint64_t starts1 = starts.value(), evals1 = evals.value();
        const uint64_t groups1 = groups.value();
        const uint64_t refills1 = refills.value();
        const std::vector<InstantiationResult> together =
            instantiateSiblings(target, tasks);

        ASSERT_EQ(together.size(), count);
        for (size_t k = 0; k < count; ++k) {
            SCOPED_TRACE("tasks=" + std::to_string(count) +
                         " task=" + std::to_string(k));
            expectSameResult(together[k], alone[k]);
        }
        EXPECT_EQ(starts.value() - starts1, aloneStarts) << count;
        EXPECT_EQ(evals.value() - evals1, aloneEvals) << count;
        EXPECT_EQ(groups.value() - groups1, count > 1 ? 1u : 0u);
        // The opening fill admits, in order, each task whose starts
        // still fit the kLanes free lanes; every later launch, into a
        // lane a retired or dropped run freed, is a refill.
        uint64_t opening = 0;
        for (size_t k = 0; k < count; ++k) {
            const auto n = static_cast<uint64_t>(opts[k].multistarts);
            if (opening + n <= 8)
                opening += n;
        }
        EXPECT_EQ(refills.value() - refills1, aloneStarts - opening)
            << count;
    }
    EXPECT_GT(early.value(), early0) << "no task stopped early";
}

TEST(Determinism, SiblingGroupWithAFiredBudgetMatchesEachTaskAlone)
{
    // One task's budget has already fired: it launches nothing and
    // reports the diverged result, while its siblings run as alone.
    Ansatz parent = Ansatz::initialLayer(2);
    parent.addLayer(0, 1);
    std::vector<Ansatz> kids(3, parent);
    kids[0].addLayer(1, 0);
    kids[1].addLayer(0, 1);
    kids[2].addLayer(1, 0);
    const Matrix target = reachableTarget(kids[0]);
    resilience::CancelToken fired;
    fired.cancel();
    std::vector<InstantiaterOptions> opts(kids.size());
    for (InstantiaterOptions &o : opts) {
        o.multistarts = 2;
        o.lbfgs.maxIterations = 300;
    }
    opts[1].budget = resilience::Budget(resilience::Deadline(), &fired);

    std::vector<Rng> rngs;
    std::vector<InstantiationTask> tasks;
    for (size_t k = 0; k < kids.size(); ++k)
        rngs.emplace_back(200 + k);
    for (size_t k = 0; k < kids.size(); ++k)
        tasks.push_back({kids[k], rngs[k], opts[k]});
    const std::vector<InstantiationResult> together =
        instantiateSiblings(target, tasks);
    for (size_t k = 0; k < kids.size(); ++k) {
        SCOPED_TRACE("task=" + std::to_string(k));
        Rng rng(200 + k);
        expectSameResult(together[k],
                         instantiate(target, kids[k], rng, opts[k]));
    }
    EXPECT_TRUE(together[1].diverged());
    EXPECT_FALSE(together[0].diverged());
}

TEST(Determinism, DualAnnealingSameSeed)
{
    AnnealObjective objective = [](const std::vector<double> &x) {
        double f = 0.0;
        for (size_t i = 0; i < x.size(); ++i)
            f += (x[i] - 0.3 * static_cast<double>(i + 1)) *
                 (x[i] - 0.3 * static_cast<double>(i + 1));
        return std::cos(3.0 * x[0]) + f;
    };
    const std::vector<double> lo(3, -2.0), hi(3, 2.0);
    AnnealOptions options;
    options.maxIterations = 500;
    options.seed = 12345;

    AnnealResult a = dualAnnealing(objective, lo, hi, options);
    AnnealResult b = dualAnnealing(objective, lo, hi, options);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.x, b.x);
    EXPECT_EQ(a.evaluations, b.evaluations);
}

} // namespace
} // namespace quest
