/**
 * @file
 * google-benchmark micro-benchmarks of the hot kernels behind the
 * QUEST pipeline: statevector gate application, HS distance,
 * gradient evaluation, instantiation and annealing steps.
 *
 * Besides the google-benchmark suite, main() measures instantiation
 * throughput and Full-mode certify latency directly and archives them
 * as BENCH_instantiation.json and BENCH_certify.json (via
 * bench_common's writeBenchJson) so CI keeps machine-readable records
 * of the hot-path numbers next to the figure harnesses.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <functional>
#include <string>

#include "algos/algorithms.hh"
#include "anneal/dual_annealing.hh"
#include "bench_common.hh"
#include "ir/lower.hh"
#include "linalg/distance.hh"
#include "partition/scan_partitioner.hh"
#include "resilience/thread_pool.hh"
#include "sim/statevector.hh"
#include "sim/unitary_builder.hh"
#include "synth/batch/batched_hs_cost.hh"
#include "synth/instantiater.hh"
#include "util/rng.hh"
#include "util/table.hh"

namespace {

using namespace quest;

/** A ring-entangled test ansatz over n qubits. */
Ansatz
benchAnsatz(int n, int layers)
{
    Ansatz a = Ansatz::initialLayer(n);
    for (int l = 0; l < layers; ++l)
        a.addLayer(l % n, (l + 1) % n);
    return a;
}

void
BM_StateVectorCx(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    StateVector sv(n);
    sv.applyGate(Gate::h(0));
    for (auto _ : state) {
        sv.applyGate(Gate::cx(0, n - 1));
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
}
BENCHMARK(BM_StateVectorCx)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void
BM_StateVectorU3(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    StateVector sv(n);
    Gate g = Gate::u3(n / 2, 0.3, 0.2, -0.4);
    for (auto _ : state) {
        sv.applyGate(g);
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
}
BENCHMARK(BM_StateVectorU3)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void
BM_CircuitSimulation(benchmark::State &state)
{
    const int steps = static_cast<int>(state.range(0));
    Circuit c = lowerToNative(algos::tfim(8, steps));
    for (auto _ : state) {
        StateVector sv(8);
        sv.applyCircuit(c);
        benchmark::DoNotOptimize(sv.amplitudes().data());
    }
}
BENCHMARK(BM_CircuitSimulation)->Arg(1)->Arg(4)->Arg(16);

void
BM_HsDistance(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    Matrix u = buildUnitary(lowerToNative(algos::tfim(n, 1)));
    Matrix v = buildUnitary(lowerToNative(algos::tfim(n, 2)));
    for (auto _ : state)
        benchmark::DoNotOptimize(hsDistance(u, v));
}
BENCHMARK(BM_HsDistance)->Arg(2)->Arg(4)->Arg(6);

void
BM_BuildUnitary(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    Circuit c = lowerToNative(algos::tfim(n, 2));
    for (auto _ : state)
        benchmark::DoNotOptimize(buildUnitary(c));
}
BENCHMARK(BM_BuildUnitary)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

void
BM_CostGradient(benchmark::State &state)
{
    const int layers = static_cast<int>(state.range(0));
    Matrix target = buildUnitary(lowerToNative(algos::tfim(4, 2)));
    Ansatz a = Ansatz::initialLayer(4);
    for (int l = 0; l < layers; ++l)
        a.addLayer(l % 3, l % 3 + 1);
    synth::BatchedHsWorkspace arena;
    synth::BatchedHsCost<1> cost(target, a, arena);
    Rng rng(1);
    std::vector<double> x(a.paramCount());
    for (double &v : x)
        v = rng.uniform(-3.0, 3.0);
    std::vector<double> grad;
    for (auto _ : state)
        benchmark::DoNotOptimize(cost.evaluate(x, grad));
}
BENCHMARK(BM_CostGradient)->Arg(2)->Arg(6)->Arg(12);

void
BM_HsEvalGrad(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    Ansatz a = benchAnsatz(n, 2 * n);
    Matrix target = buildUnitary(lowerToNative(algos::tfim(n, 2)));
    synth::BatchedHsWorkspace arena;
    synth::BatchedHsCost<1> cost(target, a, arena);
    Rng rng(3);
    std::vector<double> x(a.paramCount());
    for (double &v : x)
        v = rng.uniform(-3.0, 3.0);
    std::vector<double> grad;
    for (auto _ : state)
        benchmark::DoNotOptimize(cost.evaluate(x, grad));
}
BENCHMARK(BM_HsEvalGrad)->Arg(2)->Arg(3)->Arg(4);

void
BM_Instantiation(benchmark::State &state)
{
    Matrix target = buildUnitary(lowerToNative(algos::tfim(3, 1)));
    Ansatz a = Ansatz::initialLayer(3);
    a.addLayer(0, 1);
    a.addLayer(1, 2);
    InstantiaterOptions opts;
    opts.multistarts = 1;
    opts.lbfgs.maxIterations = 100;
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(instantiate(target, a, rng, opts));
}
BENCHMARK(BM_Instantiation);

/**
 * The instantiation hot loop with a deadline armed but never firing —
 * against BM_Instantiation, the cost of the resilience plumbing on
 * bounded runs (the unbounded case adds only two branches per L-BFGS
 * iteration; the acceptance bar is <1% either way).
 */
void
BM_InstantiationArmedBudget(benchmark::State &state)
{
    Matrix target = buildUnitary(lowerToNative(algos::tfim(3, 1)));
    Ansatz a = Ansatz::initialLayer(3);
    a.addLayer(0, 1);
    a.addLayer(1, 2);
    resilience::CancelToken token;
    InstantiaterOptions opts;
    opts.multistarts = 1;
    opts.lbfgs.maxIterations = 100;
    opts.budget = resilience::Budget(
        resilience::Deadline::after(86400.0), &token);
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(instantiate(target, a, rng, opts));
}
BENCHMARK(BM_InstantiationArmedBudget);

/** The raw cost of one budget poll, unbounded vs armed. */
void
BM_BudgetPoll(benchmark::State &state)
{
    resilience::CancelToken token;
    const resilience::Budget budget =
        state.range(0) == 0
            ? resilience::Budget()
            : resilience::Budget(resilience::Deadline::after(86400.0),
                                 &token);
    for (auto _ : state)
        benchmark::DoNotOptimize(budget.exhausted());
}
BENCHMARK(BM_BudgetPoll)->Arg(0)->Arg(1);

void
BM_DualAnnealingStep(benchmark::State &state)
{
    AnnealObjective f = [](const std::vector<double> &x) {
        double v = 0.0;
        for (double xi : x)
            v += (xi - 0.4) * (xi - 0.4);
        return v;
    };
    AnnealOptions opts;
    opts.maxIterations = 100;
    opts.localSearch = false;
    std::vector<double> lo(8, 0.0), hi(8, 1.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(dualAnnealing(f, lo, hi, opts));
}
BENCHMARK(BM_DualAnnealingStep);

/** Mean milliseconds per call of @p fn over @p iters calls. */
double
msPerCall(int iters, const std::function<void()> &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i)
        fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count() /
           static_cast<double>(iters);
}

/**
 * Microseconds per tick of the W-lane cost (one evaluateBatch() with
 * every lane live) over @p ticks ticks, on sibling ansätze
 * (Ansatz::isSiblingOf) with lane l on sibling l mod their count:
 * with more than one, every tick runs each lane's final layer on its
 * own.
 */
template <size_t W>
double
usPerTick(const Matrix &target, const std::vector<const Ansatz *> &siblings,
          int ticks)
{
    synth::BatchedHsWorkspace arena;
    synth::BatchedHsCost<W> cost(target, siblings, arena);
    const Ansatz &a = *siblings.front();
    typename synth::BatchedHsCost<W>::Siblings sibling{};
    for (size_t l = 0; l < W; ++l)
        sibling[l] = static_cast<uint32_t>(l % siblings.size());
    Rng rng(9);
    std::array<std::vector<double>, W> xsStore;
    std::array<const std::vector<double> *, W> xs{};
    std::array<std::vector<double>, W> gradStore;
    std::array<std::vector<double> *, W> grads{};
    for (size_t l = 0; l < W; ++l) {
        xsStore[l].resize(static_cast<size_t>(a.paramCount()));
        for (double &v : xsStore[l])
            v = rng.uniform(-3.0, 3.0);
        xs[l] = &xsStore[l];
        grads[l] = &gradStore[l];
    }
    std::array<double, W> f{};
    cost.evaluateBatch(xs, sibling, f, grads);  // warm the arena
    return 1000.0 * msPerCall(ticks, [&] {
               cost.evaluateBatch(xs, sibling, f, grads);
               benchmark::DoNotOptimize(f.data());
           });
}

/** The same with one ansatz in every lane. */
template <size_t W>
double
usPerTick(const Matrix &target, const Ansatz &a, int ticks)
{
    return usPerTick<W>(target, {&a}, ticks);
}

/**
 * Instantiation throughput table archived as BENCH_instantiation.json.
 * Every row carries an `engine` column, and both columns are measured
 * IN THE SAME RUN so their ratio is machine-consistent:
 *
 *  - "scalar": one candidate at a time — the cost's 1-lane
 *    instantiation, and multistart work issued as one single-start
 *    instantiate() call per start (which never fills a batch);
 *  - "simd": the 8-lane batch on the dispatched ISA — per-candidate
 *    cost throughput with every lane live, and the same starts as
 *    one multistart call.
 *
 * The "hs_tick_wW_nN" rows time one tick of each table width W (1,
 * 2, 4, 8 lanes, every lane live) on an n-qubit, 3n-layer ansatz;
 * their engine is the ISA that serves that width, so µs per tick / W
 * compares the widths' per-lane cost. "hs_tick_sib_w8_nN" is an
 * 8-lane tick of a LEAP sibling group: four siblings, two lanes each,
 * so every lane also runs its own final layer on the 1-lane kernels.
 *
 * The n=2..4 cases run the specialized fixed-dim kernels; n=5 (dim
 * 32) runs the generic runtime-dim kernels, and is also where
 * evaluation dominates the serial per-iteration L-BFGS bookkeeping,
 * so the end-to-end ratio approaches the raw per-eval ratio. Its
 * repetition counts are scaled down to keep the full run's wall time
 * in check.
 */
Table
instantiationTable()
{
    const bool smoke = quest::bench::smokeMode();
    constexpr size_t kLanes = kern::batch::kLanes;

    /** @p starts starts of @p opts, issued one instantiate() call per
     *  start. */
    auto oneAtATime = [](const Matrix &target, const Ansatz &a, Rng &rng,
                         InstantiaterOptions opts, int starts) {
        opts.multistarts = 1;
        for (int i = 0; i < starts; ++i)
            benchmark::DoNotOptimize(instantiate(target, a, rng, opts));
    };

    Table table({"case", "engine", "metric", "value"});
    for (int n = 2; n <= 5; ++n) {
        const int scale = n == 5 ? 8 : 1;
        const int evals = (smoke ? 200 : 5000) / scale;
        const int batches = (smoke ? 50 : 1000) / scale;
        const int insts = std::max(1, (smoke ? 2 : 20) / scale);
        const std::string suffix = "_n" + std::to_string(n);
        Ansatz a = benchAnsatz(n, 2 * n);
        Matrix target = buildUnitary(lowerToNative(algos::tfim(n, 2)));
        synth::BatchedHsWorkspace arena;
        synth::BatchedHsCost<1> cost(target, a, arena);
        Rng rng(5);
        std::vector<double> x(a.paramCount());
        for (double &v : x)
            v = rng.uniform(-3.0, 3.0);
        std::vector<double> grad;
        cost.evaluate(x, grad);  // warm the workspace

        double ms = msPerCall(
            evals, [&] { benchmark::DoNotOptimize(
                             cost.evaluate(x, grad)); });
        table.addRow({"hs_eval_grad" + suffix, "scalar", "evals_per_s",
                      Table::num(1000.0 / ms, 1)});

        // Batched gradient evaluation: per-candidate throughput with
        // all kLanes lanes live.
        synth::BatchedHsWorkspace batchedArena;
        synth::BatchedHsCost<kLanes> batched(target, a, batchedArena);
        std::array<std::vector<double>, kLanes> xsStore;
        std::array<const std::vector<double> *, kLanes> xs{};
        std::array<std::vector<double>, kLanes> gradStore;
        std::array<std::vector<double> *, kLanes> grads{};
        for (size_t l = 0; l < kLanes; ++l) {
            xsStore[l].resize(x.size());
            for (double &v : xsStore[l])
                v = rng.uniform(-3.0, 3.0);
            xs[l] = &xsStore[l];
            grads[l] = &gradStore[l];
        }
        std::array<double, kLanes> f{};
        batched.evaluateBatch(xs, f, grads);  // warm the arena
        ms = msPerCall(batches, [&] {
            batched.evaluateBatch(xs, f, grads);
            benchmark::DoNotOptimize(f.data());
        });
        table.addRow({"hs_eval_grad" + suffix, "simd", "evals_per_s",
                      Table::num(1000.0 / ms *
                                     static_cast<double>(kLanes),
                                 1)});

        // End-to-end multistart instantiation, same target/ansatz/
        // seed and iteration cap: 24 starts one call at a time, then
        // as one 24-start call. Unreachable goal: every start runs to
        // its iteration cap. Three waves of starts so the batch's
        // lane refills are exercised and the final-wave tail is
        // amortized, as in a real synthesis run where candidates keep
        // arriving.
        InstantiaterOptions iopts;
        iopts.multistarts = 24;
        iopts.lbfgs.maxIterations = smoke ? 40 : 100;
        iopts.goal = 0.0;
        Rng srng(7);
        ms = msPerCall(insts, [&] {
            oneAtATime(target, a, srng, iopts, iopts.multistarts);
        });
        table.addRow({"instantiate" + suffix, "scalar",
                      "instantiations_per_sec",
                      Table::num(1000.0 / ms, 2)});
        Rng brng(7);
        ms = msPerCall(insts, [&] {
            benchmark::DoNotOptimize(instantiate(target, a, brng, iopts));
        });
        table.addRow({"instantiate" + suffix, "simd",
                      "instantiations_per_sec",
                      Table::num(1000.0 / ms, 2)});
    }

    // One tick per table width, every lane live.
    for (int n : {3, 4}) {
        const Ansatz a = benchAnsatz(n, 3 * n);
        const Matrix target = buildUnitary(lowerToNative(algos::tfim(n, 2)));
        const int ticks = smoke ? 200 : 2000;
        auto addTick = [&](size_t w, kern::batch::SimdIsa isa, double us) {
            table.addRow({"hs_tick_w" + std::to_string(w) + "_n" +
                              std::to_string(n),
                          kern::batch::simdIsaName(isa), "us_per_tick",
                          Table::num(us, 2)});
        };
        addTick(1, kern::batch::activeSimdIsaFor<1>(),
                usPerTick<1>(target, a, ticks));
        addTick(2, kern::batch::activeSimdIsaFor<2>(),
                usPerTick<2>(target, a, ticks));
        addTick(4, kern::batch::activeSimdIsaFor<4>(),
                usPerTick<4>(target, a, ticks));
        addTick(kLanes, kern::batch::activeSimdIsaFor<kLanes>(),
                usPerTick<kLanes>(target, a, ticks));

        // A LEAP sibling tick: the same ansatz as the prefix of four
        // siblings whose final layers sit on four different pairs,
        // two lanes each.
        std::vector<Ansatz> kids;
        const Ansatz prefix = benchAnsatz(n, 3 * n - 1);
        for (int k = 0; k < 4; ++k) {
            kids.push_back(prefix);
            kids.back().addLayer(k % n, (k + 1 + k / n) % n);
        }
        const std::vector<const Ansatz *> siblings{&kids[0], &kids[1],
                                                   &kids[2], &kids[3]};
        table.addRow({"hs_tick_sib_w" + std::to_string(kLanes) + "_n" +
                          std::to_string(n),
                      kern::batch::simdIsaName(
                          kern::batch::activeSimdIsaFor<kLanes>()),
                      "us_per_tick",
                      Table::num(usPerTick<kLanes>(target, siblings, ticks),
                                 2)});
    }

    // Latency of a small 4-start workload issued one start at a time.
    const int insts = smoke ? 2 : 20;
    Matrix target = buildUnitary(lowerToNative(algos::tfim(3, 1)));
    Ansatz a = Ansatz::initialLayer(3);
    a.addLayer(0, 1);
    a.addLayer(1, 2);
    InstantiaterOptions opts;
    opts.lbfgs.maxIterations = smoke ? 40 : 100;
    Rng rng(7);
    table.addRow({"instantiate_serial", "scalar", "ms_per_call",
                  Table::num(msPerCall(insts, [&] {
                                 oneAtATime(target, a, rng, opts, 4);
                             }),
                             3)});
    return table;
}

/**
 * A Full-mode certify workload on @p n qubits: the 4-qubit blocks of
 * a TFIM circuit, four candidates per block (the block itself and
 * three copies with a small extra rz, so every candidate unitary
 * differs), and @p samples samples choosing among them at random.
 */
struct CertifyFixture
{
    Circuit original;
    std::vector<Block> blocks;
    std::vector<std::vector<Matrix>> unitaries;  //!< [block][candidate]
    std::vector<Circuit> sampleCircuits;
    std::vector<std::vector<int>> choices;

    CertifyFixture(int n, int samples)
        : original(lowerToNative(algos::tfim(n, 3)).withoutPseudoOps()),
          blocks(ScanPartitioner(4).partition(original)),
          unitaries(blocks.size())
    {
        std::vector<std::vector<Circuit>> candidates(blocks.size());
        for (size_t b = 0; b < blocks.size(); ++b) {
            for (int k = 0; k < 4; ++k) {
                Circuit c = blocks[b].circuit;
                if (k > 0)
                    c.append(Gate::rz(0, 0.01 * k));
                unitaries[b].push_back(circuitUnitary(c));
                candidates[b].push_back(std::move(c));
            }
        }
        Rng rng(11);
        for (int s = 0; s < samples; ++s) {
            std::vector<int> choice(blocks.size());
            std::vector<Block> chosen = blocks;
            for (size_t b = 0; b < blocks.size(); ++b) {
                choice[b] = static_cast<int>(rng.uniformInt(4));
                chosen[b].circuit = candidates[b][choice[b]];
            }
            sampleCircuits.push_back(assembleBlocks(chosen, n));
            choices.push_back(std::move(choice));
        }
    }

    /** The pre-block certify: one dense gate-by-gate unitary for the
     *  original and one per sample. */
    double
    certifyGateLevel() const
    {
        const Matrix original_u = buildUnitary(original);
        double worst = 0.0;
        for (const Circuit &c : sampleCircuits)
            worst = std::max(worst, hsDistance(original_u, buildUnitary(c)));
        return worst;
    }

    /** The pipeline's certify: traces from the block unitaries. */
    double
    certifyBlockLevel(ThreadPool &pool) const
    {
        FactorProduct reference(blocks.size());
        for (size_t b = 0; b < blocks.size(); ++b)
            reference[b] = {&unitaries[b][0], &blocks[b].qubits};
        std::vector<FactorProduct> products(choices.size(), reference);
        for (size_t s = 0; s < choices.size(); ++s)
            for (size_t b = 0; b < blocks.size(); ++b)
                products[s][b].unitary = &unitaries[b][choices[s][b]];
        const int n = original.numQubits();
        double worst = 0.0;
        for (const Complex &trace :
             productTraces(n, reference, products, pool))
            worst = std::max(worst,
                             hsDistanceFromTrace(trace, size_t{1} << n));
        return worst;
    }
};

/**
 * Full-mode certify latency archived as BENCH_certify.json: the
 * gate-level dense builds ("certify_gate_nN") against the block-level
 * tile traces ("certify_block_nN") on the same fixture, both on one
 * thread so the rows compare work, not parallelism.
 */
Table
certifyTable()
{
    const bool smoke = quest::bench::smokeMode();
    const int samples = smoke ? 4 : 16;
    ThreadPool serial(0);
    Table table({"case", "engine", "metric", "value"});
    for (int n : {6, 8, 10}) {
        const CertifyFixture fixture(n, samples);
        const std::string suffix = "_n" + std::to_string(n);
        const int reps = n == 10 ? 1 : (smoke ? 2 : 5);
        table.addRow({"certify_gate" + suffix, "serial", "ms_per_call",
                      Table::num(msPerCall(reps, [&] {
                                     benchmark::DoNotOptimize(
                                         fixture.certifyGateLevel());
                                 }),
                                 3)});
        table.addRow({"certify_block" + suffix, "serial", "ms_per_call",
                      Table::num(msPerCall(reps, [&] {
                                     benchmark::DoNotOptimize(
                                         fixture.certifyBlockLevel(
                                             serial));
                                 }),
                                 3)});
    }
    return table;
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    quest::bench::finishBench("instantiation", instantiationTable());
    quest::bench::finishBench("certify", certifyTable());
    return 0;
}
