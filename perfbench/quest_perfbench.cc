/**
 * @file
 * The repository benchmark: cold QUEST compiles through the public
 * entry points, with every output checked.
 *
 *   quest_perfbench --workload <full_8q|large_64q|service_mix>
 *                   --seed <n> --seconds <s> --trace <0|1>
 *                   [--trace-out file.json]
 *
 * Workloads (perfbench/README.md says why each was chosen):
 *
 *   full_8q      seeded variants of tfim_8, heisenberg_8 and mult_8,
 *                compiled one after another by QuestPipeline::run in
 *                Full mode (measured certificate);
 *   large_64q    seeded variants of tfim_64, qaoa_64 and adder_64 in
 *                BlockBound (`--large`) mode;
 *   service_mix  four closed-loop QuestClient connections over two
 *                tenants against an in-process QuestServer on a unix
 *                socket, about three quarters of the submissions
 *                repeating an already-completed circuit.
 *
 * Every compile uses service::baseCompileConfig(), the budget
 * quest_compile and quest_served run. With --trace 0 the run reports
 * the end-to-end metrics, measured with tracing off; with --trace 1
 * it compiles the same inputs untraced and then traced, reports the
 * per-layer metrics from the program's spans and counters plus the
 * benchmark's own spans, checks that the per-layer counters repeat
 * exactly, and writes the traced spans as a Chrome trace.
 *
 * The last line of standard output is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * The exit code is 0 only when every output check passed.
 */

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algos/algorithms.hh"
#include "ir/qasm.hh"
#include "obs/chrome_trace.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "quest/pipeline.hh"
#include "resilience/thread_pool.hh"
#include "service/client.hh"
#include "service/job.hh"
#include "service/server.hh"
#include "util/names.hh"
#include "util/rng.hh"
#include "verify/verifier.hh"

namespace {

using namespace quest;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---- Small measurement helpers -------------------------------------

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** CPU seconds the whole process has used (all threads). */
double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Peak resident set of this process so far, in MiB. */
double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The highest percentile that has at least ten samples beyond it
 *  (the eleventh-largest sample); the maximum when there are fewer
 *  than twenty samples, where that percentile would fall below the
 *  median. */
struct Tail
{
    double value = 0.0;
    double percentile = 100.0;
    size_t beyond = 0;
};

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    t.beyond = n >= 20 ? 10 : 0;
    t.value = v[n - 1 - t.beyond];
    t.percentile = 100.0 * static_cast<double>(n - t.beyond) /
                   static_cast<double>(n);
    return t;
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

/** Set-up times taken in bursts of back-to-back set-ups at points
 *  spread over a run. On a shared host one core's speed can shift by
 *  1.7x for seconds at a time (4-vCPU Xeon VM), so a single burst
 *  times one speed. setup_s is each burst's median averaged over the
 *  bursts: spread over the run as compile_s is, and robust to the
 *  odd slow set-up within a burst. */
class SetUpTimes
{
  public:
    explicit SetUpTimes(size_t reps) : reps_(reps) {}

    /** Time one burst of set-ups at this point of the run, calling
     *  @p tearDown untimed before each. */
    template <class F, class G>
    void
    burst(F &&setUp, G &&tearDown)
    {
        std::vector<double> times;
        for (size_t r = 0; r < reps_; ++r) {
            tearDown();
            const Clock::time_point t0 = Clock::now();
            setUp();
            times.push_back(secondsBetween(t0, Clock::now()));
        }
        bursts_.push_back(std::move(times));
    }

    double
    value() const
    {
        std::vector<double> medians;
        for (const std::vector<double> &times : bursts_)
            medians.push_back(median(times));
        return mean(medians);
    }

    std::string
    note() const
    {
        return "median of n=" + std::to_string(reps_) +
               " set-ups, mean over " + std::to_string(bursts_.size()) +
               " bursts spread over the run";
    }

  private:
    size_t reps_;
    std::vector<std::vector<double>> bursts_;
};

/** Counter and histogram values of the global registry: at one
 *  instant (take()), or the work between two instants (since()), so
 *  work is attributed to the public calls made in between. */
struct Counts
{
    std::map<std::string, uint64_t> count; //!< counters, hist counts
    std::map<std::string, uint64_t> sum;   //!< histogram sums

    static Counts
    take()
    {
        Counts c;
        for (const obs::MetricSnapshot &m :
             obs::MetricsRegistry::global().snapshot()) {
            if (m.kind == obs::MetricKind::Gauge)
                continue;
            c.count[m.name] = m.count;
            if (m.kind == obs::MetricKind::Histogram)
                c.sum[m.name] = m.sum;
        }
        return c;
    }

    /** What was recorded since @p earlier (a take() of this process). */
    Counts
    since(const Counts &earlier) const
    {
        Counts d = *this;
        for (const auto &[name, v] : earlier.count)
            d.count[name] -= v;
        for (const auto &[name, v] : earlier.sum)
            d.sum[name] -= v;
        return d;
    }

    Counts &
    operator+=(const Counts &other)
    {
        for (const auto &[name, v] : other.count)
            count[name] += v;
        for (const auto &[name, v] : other.sum)
            sum[name] += v;
        return *this;
    }

    double
    operator()(const char *name) const
    {
        auto it = count.find(name);
        return it == count.end() ? 0.0 : static_cast<double>(it->second);
    }

    double
    histSum(const char *name) const
    {
        auto it = sum.find(name);
        return it == sum.end() ? 0.0 : static_cast<double>(it->second);
    }
};

// ---- Output collection ---------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one invocation reports: metrics plus operation accounting.
 *  A failed check marks one already attempted operation failed. */
struct Report
{
    std::vector<Metric> metrics;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t problems = 0;             //!< failed checks, all counted
    std::vector<std::string> failures; //!< first few, for stderr

    void
    add(const std::string &name, double value, const std::string &unit,
        const std::string &note)
    {
        metrics.push_back({name, value, unit});
        std::printf("  %-26s %14.6g %-8s %s\n", name.c_str(), value,
                    unit.c_str(), note.c_str());
    }

    /** Count one operation; @p problem non-empty marks it failed. */
    void
    operation(const std::string &problem)
    {
        ++attempted;
        if (!problem.empty())
            fail(problem);
    }

    void
    fail(const std::string &problem)
    {
        ++problems;
        failed = std::min(problems, attempted);
        if (failures.size() < 20)
            failures.push_back(problem);
    }
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// ---- Seeded inputs ---------------------------------------------------

/** One benchmark input: the name of the suite circuit it varies and
 *  the QASM the program receives. */
struct Input
{
    std::string name;
    std::string qasm;
};

/** center scaled by a uniform factor in [1 - rel, 1 + rel). */
double
jitter(Rng &rng, double center, double rel)
{
    return center * rng.uniform(1.0 - rel, 1.0 + rel);
}

/** Trotter parameters (dt, coupling, field) within 10% of the
 *  standard suite's (0.1, 1, 1). */
struct Trotter
{
    double dt, coupling, field;
};

Trotter
drawTrotter(Rng &rng)
{
    return {jitter(rng, 0.1, 0.1), jitter(rng, 1.0, 0.1),
            jitter(rng, 1.0, 0.1)};
}

/** @p base with its input register loaded differently: an X on each
 *  of @p wires with probability one half. */
Circuit
withInputFlips(const Circuit &base, int first, int count, Rng &rng)
{
    Circuit c(base.numQubits());
    for (int w = first; w < first + count; ++w)
        if (rng.bernoulli(0.5))
            c.append(Gate::x(w));
    c.appendCircuit(base);
    return c;
}

Input
makeInput(const std::string &name, const Circuit &c)
{
    return {name, toQasm(c)};
}

/** One compile workload's circuit set: the inputs as QASM and as
 *  the circuits the program parsed from it. */
struct CircuitSet
{
    std::vector<Input> inputs;
    std::vector<Circuit> circuits;
};

/** The @p variant-th seeded circuit set of a compile workload: full_8q
 *  varies tfim_8, heisenberg_8 and mult_8, large_64q varies tfim_64,
 *  qaoa_64 and adder_64. */
CircuitSet
circuitSet(SelectionMode mode, uint64_t seed, uint64_t variant)
{
    Rng rng(seed, 0x5e7000 + variant);
    const Trotter t = drawTrotter(rng);
    CircuitSet set;
    if (mode == SelectionMode::Full) {
        const Trotter h = drawTrotter(rng);
        // multiplier(8): a on wires 0-1, b on wires 2-3.
        set.inputs = {
            makeInput("tfim_8",
                      algos::tfim(8, 10, t.dt, t.coupling, t.field)),
            makeInput("heisenberg_8",
                      algos::heisenberg(8, 5, h.dt, h.coupling, h.field)),
            makeInput("mult_8",
                      withInputFlips(algos::multiplier(8), 0, 4, rng))};
    } else {
        const uint64_t graph_seed = rng();
        // adder(64): a on wires 1-31, b on wires 32-62.
        set.inputs = {
            makeInput("tfim_64",
                      algos::tfim(64, 10, t.dt, t.coupling, t.field)),
            makeInput("qaoa_64", algos::qaoa(64, 2, graph_seed)),
            makeInput("adder_64",
                      withInputFlips(algos::adder(64), 1, 62, rng))};
    }
    for (const Input &in : set.inputs)
        set.circuits.push_back(parseQasm(in.qasm));
    return set;
}

/** The service_mix circuit kinds, in the order new inputs cycle
 *  through them: expensive and cheap kinds alternate, so every run
 *  sees the same balanced mix of first sightings. */
constexpr const char *kServiceKinds[] = {
    "tfim_4", "hlf_4", "heisenberg_4", "qaoa_5", "qft_4",
    "vqe_5",  "qft_5", "vqe_4",        "adder_4"};
constexpr size_t kNumServiceKinds = std::size(kServiceKinds);

/** One seeded variant of service kind @p kind. */
Input
serviceInput(size_t kind, Rng &rng)
{
    const std::string name = kServiceKinds[kind];
    if (name == "tfim_4" || name == "heisenberg_4") {
        const Trotter t = drawTrotter(rng);
        return makeInput(name, name == "tfim_4"
                                   ? algos::tfim(4, 10, t.dt, t.coupling,
                                                 t.field)
                                   : algos::heisenberg(4, 5, t.dt,
                                                       t.coupling,
                                                       t.field));
    }
    if (name == "hlf_4") {
        // A graph without edges has no CNOT to reduce; draw another.
        for (;;) {
            const Circuit c = algos::hlf(4, rng());
            if (c.twoQubitGateCount() > 0)
                return makeInput(name, c);
        }
    }
    if (name == "qaoa_5")
        return makeInput(name, algos::qaoa(5, 1, rng()));
    if (name == "vqe_4")
        return makeInput(name, algos::vqe(4, 4, rng()));
    if (name == "vqe_5")
        return makeInput(name, algos::vqe(5, 3, rng()));
    // qft_4, qft_5 and adder_4 on a seeded input basis state (adder:
    // carry-in, a, b and carry-out wires).
    const Circuit base = name == "qft_4"   ? algos::qft(4)
                         : name == "qft_5" ? algos::qft(5)
                                           : algos::adder(4);
    return makeInput(name, withInputFlips(base, 0, base.numQubits(), rng));
}

/** Distinct service inputs in a seeded order: the kinds in rotation
 *  (input i is of kind i mod kNumServiceKinds), each a fresh seeded
 *  variant (a repeated QASM text is redrawn). */
class ServicePool
{
  public:
    explicit ServicePool(uint64_t seed) : rng(seed, 0x5e) {}

    /** The @p i-th distinct input, drawing more as needed. */
    const Input &
    at(size_t i)
    {
        while (inputs.size() <= i) {
            const size_t kind = inputs.size() % kNumServiceKinds;
            for (int tries = 0;; ++tries) {
                if (tries == 1000)
                    throw std::runtime_error(
                        std::string("out of distinct ") +
                        kServiceKinds[kind] + " variants");
                Input in = serviceInput(kind, rng);
                if (seen.insert(in.qasm).second) {
                    inputs.push_back(std::move(in));
                    break;
                }
            }
        }
        return inputs[i];
    }

    /** An already generated input; safe to call concurrently. */
    const Input &get(size_t i) const { return inputs.at(i); }

  private:
    Rng rng;
    std::set<std::string> seen;
    std::vector<Input> inputs;
};

/** Output quality of distinct inputs, grouped by the suite circuit
 *  they vary, so every kind weighs the same however many variants of
 *  it a run drew. */
struct Quality
{
    std::map<std::string, std::vector<double>> cnotRatio, maxDistance;
    size_t inputs = 0;

    void
    add(const std::string &kind, const QuestResult &r)
    {
        cnotRatio[kind].push_back(static_cast<double>(r.minSampleCnots()) /
                                  static_cast<double>(r.originalCnots));
        maxDistance[kind].push_back(
            r.selectionMode == SelectionMode::Full
                ? r.certificate.maxMeasured
                : r.certificate.maxBound);
        ++inputs;
    }

    void
    merge(const Quality &other)
    {
        for (const auto &[kind, v] : other.cnotRatio)
            cnotRatio[kind].insert(cnotRatio[kind].end(), v.begin(),
                                   v.end());
        for (const auto &[kind, v] : other.maxDistance)
            maxDistance[kind].insert(maxDistance[kind].end(), v.begin(),
                                     v.end());
        inputs += other.inputs;
    }

    /** Geometric mean over kinds of min-sample / original CNOTs. */
    double
    cnotRatioOverKinds() const
    {
        std::vector<double> per_kind;
        for (const auto &[kind, v] : cnotRatio)
            per_kind.push_back(geomean(v));
        return geomean(per_kind);
    }

    /** Mean over kinds of the certificate's max distance. */
    double
    maxDistanceOverKinds() const
    {
        std::vector<double> per_kind;
        for (const auto &[kind, v] : maxDistance)
            per_kind.push_back(mean(v));
        return mean(per_kind);
    }
};

// ---- Output checks ---------------------------------------------------

/** Checks one local compile; returns the first problem or "". */
std::string
checkCompile(const QuestResult &r, SelectionMode mode,
             double unitary_builds, double statevector_builds)
{
    if (r.samples.empty())
        return "no samples";
    if (r.fallbackBlocks() != 0)
        return std::to_string(r.fallbackBlocks()) +
               " blocks fell back to their original circuit";
    const CircuitVerifier verifier(
        {.requireNative = true, .allowPseudoOps = false});
    for (size_t s = 0; s < r.samples.size(); ++s) {
        const ApproxSample &sample = r.samples[s];
        const std::string where = "sample " + std::to_string(s) + ": ";
        if (!(sample.distanceBound <= r.threshold))
            return where + "bound " + std::to_string(sample.distanceBound) +
                   " exceeds threshold " + std::to_string(r.threshold);
        if (mode == SelectionMode::Full &&
            !(sample.measured() &&
              sample.measuredDistance <= sample.distanceBound + 1e-6)) {
            return where + "measured distance " +
                   std::to_string(sample.measuredDistance) +
                   " not within bound " +
                   std::to_string(sample.distanceBound);
        }
        const VerifyReport report = verifier.verify(sample.circuit);
        if (!report.ok())
            return where + "verifier: " + report.toString();
        if (sample.circuit.cnotCount() != sample.cnotCount ||
            sample.cnotCount > r.originalCnots) {
            return where + std::to_string(sample.cnotCount) +
                   " CNOTs against " + std::to_string(r.originalCnots) +
                   " in the original";
        }
    }
    if (mode == SelectionMode::BlockBound &&
        (unitary_builds != 0 || statevector_builds != 0)) {
        return "BlockBound run built " +
               std::to_string(unitary_builds) + " unitaries and " +
               std::to_string(statevector_builds) + " statevectors";
    }
    return "";
}

/** The samples as comparable text: QASM, CNOTs and exact bound. */
std::vector<std::string>
sampleFingerprint(const QuestResult &r)
{
    std::vector<std::string> out;
    for (const ApproxSample &s : r.samples)
        out.push_back(toQasm(s.circuit) + "#" +
                      std::to_string(s.cnotCount) + "#" +
                      jsonNumber(s.distanceBound));
    return out;
}

std::vector<std::string>
sampleFingerprint(const service::ResultReply &r)
{
    std::vector<std::string> out;
    for (const service::SampleResult &s : r.samples)
        out.push_back(s.qasm + "#" + std::to_string(s.cnotCount) + "#" +
                      jsonNumber(s.distanceBound));
    return out;
}

/** Checks one served result; returns the first problem or "". */
std::string
checkServed(const service::ResultReply &r)
{
    if (r.status.state != service::JobState::Done)
        return std::string("job ended ") +
               service::jobStateName(r.status.state) + ": " +
               r.status.detail;
    if (r.samples.empty())
        return "no samples";
    if (r.okBlocks != r.blocks)
        return std::to_string(r.blocks - r.okBlocks) +
               " blocks fell back";
    const CircuitVerifier verifier(
        {.requireNative = true, .allowPseudoOps = false});
    for (const service::SampleResult &s : r.samples) {
        if (!(s.distanceBound <= r.threshold))
            return "served bound exceeds threshold";
        Circuit c(1);
        try {
            c = parseQasm(s.qasm);
        } catch (const QasmError &e) {
            return std::string("served sample does not parse: ") +
                   e.what();
        }
        if (!verifier.verify(c).ok())
            return "served sample fails the verifier";
        if (c.cnotCount() != s.cnotCount || s.cnotCount > r.originalCnots)
            return "served sample CNOT count wrong or above original";
    }
    return "";
}

// ---- Per-layer attribution from spans --------------------------------

/** Span and counter totals over a set of compiles. */
struct Layers
{
    double partition = 0, synthSelf = 0, similarity = 0, anneal = 0,
           certify = 0;
    double outer = 0; //!< benchmark span (or quest.pipeline) total
    double synthBusy = 0, instantiateBusy = 0;
    double blocks = 0;
    bool phaseMissing = false;

    /** Fold in the spans of whole compiles. @p outer_name is the
     *  span the phases must account for. */
    void
    addSpans(const std::vector<obs::TraceEvent> &events,
             const char *outer_name)
    {
        std::map<std::string, size_t> n;
        std::vector<const obs::TraceEvent *> synth, simil;
        for (const obs::TraceEvent &e : events) {
            const std::string name = e.name;
            const double d = static_cast<double>(e.durNs) * 1e-9;
            ++n[name];
            if (name == outer_name)
                outer += d;
            if (name == "quest.partition")
                partition += d;
            else if (name == "quest.synthesis")
                synth.push_back(&e);
            else if (name == "quest.similarity") {
                similarity += d;
                simil.push_back(&e);
            } else if (name == "quest.anneal")
                anneal += d;
            else if (name == "quest.certify")
                certify += d;
            else if (name == "synth.synthesize")
                synthBusy += d;
            else if (name == "synth.instantiate")
                instantiateBusy += d;
        }
        // Self time of the synthesis phase: its span minus the part
        // its nested similarity phase covers.
        for (const obs::TraceEvent *s : synth) {
            int64_t self = s->durNs;
            for (const obs::TraceEvent *c : simil) {
                if (c->tid != s->tid)
                    continue;
                const int64_t lo = std::max(s->startNs, c->startNs);
                const int64_t hi = std::min(s->startNs + s->durNs,
                                            c->startNs + c->durNs);
                self -= std::max<int64_t>(0, hi - lo);
            }
            synthSelf += static_cast<double>(self) * 1e-9;
        }
        const size_t pipelines = n["quest.pipeline"];
        for (const char *phase :
             {"quest.partition", "quest.synthesis", "quest.similarity",
              "quest.anneal", "quest.certify"}) {
            if (n[phase] != pipelines)
                phaseMissing = true;
        }
    }

    double phases() const
    {
        return partition + synthSelf + similarity + anneal + certify;
    }
};

/** The per-layer counters that must repeat exactly between two
 *  compiles of one input at one seed. */
std::vector<uint64_t>
determinismCounters(const Counts &d)
{
    return {static_cast<uint64_t>(d(names::kMetricSynthInstantiations)),
            static_cast<uint64_t>(d(names::kMetricLbfgsEvaluations)),
            static_cast<uint64_t>(d(names::kMetricAnnealEvaluations)),
            static_cast<uint64_t>(d(names::kMetricSimUnitaryBuilds)),
            static_cast<uint64_t>(d(names::kMetricSynthBatchLanes)),
            static_cast<uint64_t>(d(names::kMetricSynthBatchedEvals))};
}

/** Per-layer metrics shared by every workload, from counter deltas
 *  and span totals, each divided by @p per (passes or jobs). */
void
reportLayers(Report &rep, const Layers &L, const Counts &d, double per,
             double utilization, double overhead,
             const std::string &per_what)
{
    const double hits = d(names::kMetricSynthCacheHits);
    const double misses = d(names::kMetricSynthCacheMisses);
    const double inst = d(names::kMetricSynthInstantiations);
    const double batched = d(names::kMetricSynthBatchedEvals);
    const double lbfgs_calls =
        d(names::kMetricLbfgsIterationsPerCall);
    const double steps = d(names::kMetricAnnealSteps);
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    rep.add("partition.s", L.partition / per, "s", per_what);
    rep.add("partition.unique_blocks", (L.blocks - hits) / per, "count",
            per_what + "; blocks minus quest.synth.cache_hits");
    rep.add("synth.phase_s", L.synthSelf / per, "s",
            per_what + "; quest.synthesis minus quest.similarity");
    rep.add("synth.busy_s", L.synthBusy / per, "s",
            per_what + "; summed synth.synthesize");
    rep.add("synth.instantiate_busy_s", L.instantiateBusy / per, "s",
            per_what + "; summed synth.instantiate");
    rep.add("synth.instantiations", inst / per, "count", per_what);
    rep.add("synth.multistarts", d(names::kMetricSynthMultistarts) / per,
            "count", per_what);
    rep.add("synth.candidates_per_inst",
            ratio(d(names::kMetricSynthCandidates), inst), "ratio",
            "synth.candidates / synth.instantiations");
    rep.add("synth.lane_occupancy",
            ratio(d(names::kMetricSynthBatchLanes), 8.0 * batched),
            "ratio", "synth.batch_lanes / (8 synth.batched_evals)");
    rep.add("lbfgs.evals", d(names::kMetricLbfgsEvaluations) / per,
            "count", per_what);
    rep.add("lbfgs.iters_per_call",
            ratio(d.histSum(names::kMetricLbfgsIterationsPerCall),
                  lbfgs_calls),
            "count", "mean of lbfgs.iterations_per_call");
    rep.add("similarity.s", L.similarity / per, "s", per_what);
    rep.add("anneal.s", L.anneal / per, "s", per_what);
    rep.add("anneal.evals", d(names::kMetricAnnealEvaluations) / per,
            "count", per_what);
    rep.add("anneal.accept_ratio",
            ratio(d(names::kMetricAnnealAcceptances), steps), "ratio",
            "anneal.acceptances / anneal.steps");
    rep.add("certify.s", L.certify / per, "s", per_what);
    rep.add("certify.unitary_builds",
            d(names::kMetricSimUnitaryBuilds) / per, "count", per_what);
    rep.add("pool.utilization", utilization, "ratio",
            "process CPU / (threads x wall)");
    rep.add("cache.hit_ratio", ratio(hits, hits + misses), "ratio",
            "quest.synth.cache_hits / (hits + misses)");
    rep.add("cache.disk_hits", d(names::kMetricCacheHit) / per, "count",
            per_what + "; quest.cache.hit");
    rep.add("cache.disk_misses", d(names::kMetricCacheMiss) / per,
            "count", per_what + "; quest.cache.miss");
    rep.add("phases.coverage", ratio(L.phases(), L.outer), "ratio",
            "partition+synthesis+similarity+anneal+certify over the "
            "enclosing span");
    rep.add("trace.overhead", overhead, "ratio",
            "traced / untraced - 1 (per-input time, median; jobs per "
            "second on service_mix)");
}

// ---- Compile workloads -----------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
};

/** One pass over the workload's circuit set. */
struct Pass
{
    double wall = 0, cpu = 0;
    std::vector<double> latencies;          //!< per compile
    std::vector<std::vector<uint64_t>> counters; //!< per compile
    std::vector<std::vector<std::string>> samples; //!< per compile
    Quality quality;
    Layers layers;
    Counts counts; //!< summed over the compiles
};

/** Compile input @p i of @p set, check the result and add it to
 *  @p pass. The pass's wall and CPU time cover QuestPipeline::run. */
void
compileOne(const CircuitSet &set, size_t i, const QuestConfig &config,
           bool traced, Report &rep, Pass &pass,
           std::vector<obs::TraceEvent> *trace_sink)
{
    const std::string &name = set.inputs[i].name;
    if (traced)
        obs::TraceSession::global().start();
    const Counts before = Counts::take();
    const double cpu0 = processCpuSeconds();
    const Clock::time_point c0 = Clock::now();
    std::string problem;
    std::optional<QuestResult> r;
    try {
        QuestPipeline pipeline(config);
        QUEST_TRACE_SCOPE("bench.compile");
        r = pipeline.run(set.circuits[i]);
    } catch (const std::exception &e) {
        problem = std::string("threw: ") + e.what();
    }
    const double latency = secondsBetween(c0, Clock::now());
    pass.cpu += processCpuSeconds() - cpu0;
    pass.wall += latency;
    pass.latencies.push_back(latency);
    const Counts d = Counts::take().since(before);
    pass.counts += d;
    pass.counters.push_back(determinismCounters(d));
    if (r) {
        problem = checkCompile(*r, config.selectionMode,
                               d(names::kMetricSimUnitaryBuilds),
                               d(names::kMetricSimStatevectorBuilds));
        pass.samples.push_back(sampleFingerprint(*r));
        pass.quality.add(name, *r);
        pass.layers.blocks += static_cast<double>(r->blocks.size());
        std::printf("  %-14s %8.3f s  %5zu blocks  %6.0f instantiations"
                    "  cnot ratio %.4f  max distance %.4f%s\n",
                    name.c_str(), latency, r->blocks.size(),
                    d(names::kMetricSynthInstantiations),
                    pass.quality.cnotRatio[name].back(),
                    pass.quality.maxDistance[name].back(),
                    traced ? "  (traced)" : "");
    } else {
        pass.samples.emplace_back();
    }
    if (traced) {
        obs::TraceSession &session = obs::TraceSession::global();
        session.stop();
        std::vector<obs::TraceEvent> events = session.collect();
        if (session.droppedEvents() != 0) {
            std::printf("  warning: %zu trace events dropped\n",
                        session.droppedEvents());
        }
        pass.layers.addSpans(events, "bench.compile");
        if (trace_sink)
            trace_sink->insert(trace_sink->end(), events.begin(),
                               events.end());
    }
    rep.operation(problem.empty() ? "" : name + ": " + problem);
}

/** Compile every input of @p set once, untraced, calling @p after
 *  following each compile. */
template <class F>
Pass
compilePass(const CircuitSet &set, const QuestConfig &config, Report &rep,
            F &&after)
{
    Pass pass;
    for (size_t i = 0; i < set.circuits.size(); ++i) {
        compileOne(set, i, config, false, rep, pass, nullptr);
        after();
    }
    return pass;
}

void
writeTrace(const std::string &path,
           const std::vector<obs::TraceEvent> &events)
{
    if (path.empty())
        return;
    std::ofstream os(path);
    obs::writeChromeTrace(os, events);
    std::printf("  chrome trace: %zu spans written to %s\n",
                events.size(), path.c_str());
}

Report
runCompileWorkload(const Args &args, SelectionMode mode)
{
    Report rep;
    const unsigned threads = ThreadPool::hardwareConcurrency();

    // Set-up: generate the first seeded circuit set, hand it to the
    // program as QASM, build the production config. Timed in a burst
    // of about a tenth of a second here and, untraced, after every
    // compile.
    SetUpTimes setups(mode == SelectionMode::Full ? 150 : 25);
    CircuitSet set;
    QuestConfig config;
    const auto setUp = [&] {
        set = circuitSet(mode, args.seed, 0);
        config = service::baseCompileConfig();
        config.selectionMode = mode;
        config.seed = args.seed;
    };
    setups.burst(setUp, [] {});
    std::printf("threads: %u, mode: %s\n", threads,
                selectionModeName(mode));

    if (!args.trace) {
        // Each pass compiles a fresh seeded variant of the set, so a
        // run averages over inputs. The pass count fills --seconds at
        // the set's nominal compile time on four cores, so a run's
        // work depends on its arguments alone, never on timing.
        const double nominal_pass_s =
            mode == SelectionMode::Full ? 14.0 : 7.0;
        const long count =
            std::max(1L, std::lround(args.seconds / nominal_pass_s));
        std::vector<Pass> passes;
        Quality quality;
        for (long p = 0; p < count; ++p) {
            const CircuitSet variant = circuitSet(mode, args.seed, p);
            std::printf("pass %ld:\n", p);
            passes.push_back(compilePass(variant, config, rep,
                                         [&] { setups.burst(setUp, [] {}); }));
            quality.merge(passes.back().quality);
        }
        const double rss = peakRssMiB();

        std::vector<double> wall, cpu, lat;
        std::map<std::string, std::vector<double>> lat_by_kind;
        for (const Pass &p : passes) {
            wall.push_back(p.wall);
            cpu.push_back(p.cpu);
            lat.insert(lat.end(), p.latencies.begin(),
                       p.latencies.end());
            for (size_t i = 0; i < set.inputs.size(); ++i)
                lat_by_kind[set.inputs[i].name].push_back(p.latencies[i]);
        }
        // Below twenty compiles no percentile above the median has ten
        // samples beyond it, and the median of kinds up to sixfold
        // apart is one kind's one or two compiles, as noisy as a single
        // compile. The tail is then the slowest kind's median latency
        // and the p50 the geometric mean over kinds of their medians.
        Tail tail = tailOf(lat);
        double p50 = median(lat);
        std::string p50_note = "p50, ";
        std::string tail_what;
        if (lat.size() < 20) {
            tail.value = 0;
            std::vector<double> kind_medians;
            for (const auto &[kind, v] : lat_by_kind) {
                kind_medians.push_back(median(v));
                if (median(v) > tail.value) {
                    tail.value = median(v);
                    tail_what = kind;
                }
            }
            p50 = geomean(kind_medians);
            p50_note = "geomean over " +
                       std::to_string(kind_medians.size()) +
                       " kinds of each kind's median, ";
        }
        const std::string np =
            "median of n=" + std::to_string(passes.size()) + " passes";
        const std::string nc =
            "n=" + std::to_string(lat.size()) + " compiles";
        const std::string nk =
            " over " + std::to_string(quality.cnotRatio.size()) +
            " kinds (n=" + std::to_string(quality.inputs) + " inputs)";
        std::printf("\nend-to-end (seed %llu):\n",
                    static_cast<unsigned long long>(args.seed));
        rep.add("setup_s", setups.value(), "s", setups.note());
        rep.add("compile_s", median(wall), "s", np);
        rep.add("compile_cpu_s", median(cpu), "s", np);
        rep.add("jobs_per_s",
                static_cast<double>(set.inputs.size()) / median(wall),
                "jobs/s", "compiles per second at the median pass, " + np);
        rep.add("job_latency_p50_s", p50, "s", p50_note + nc);
        char tail_note[160];
        if (tail_what.empty()) {
            std::snprintf(tail_note, sizeof tail_note,
                          "p%.1f, %s, %zu beyond", tail.percentile,
                          nc.c_str(), tail.beyond);
        } else {
            std::snprintf(tail_note, sizeof tail_note,
                          "median of the slowest kind (%s), %s",
                          tail_what.c_str(), nc.c_str());
        }
        rep.add("job_latency_tail_s", tail.value, "s", tail_note);
        rep.add("peak_rss_mb", rss, "MiB", "whole process");
        rep.add("cnot_ratio", quality.cnotRatioOverKinds(), "ratio",
                "geomean" + nk + " of min-sample / original CNOTs");
        rep.add("max_distance", quality.maxDistanceOverKinds(),
                "hs_distance",
                "mean" + nk + " of the " +
                    (mode == SelectionMode::Full ? "max measured distance"
                                                 : "max bound"));
        return rep;
    }

    // Traced run: each input of the first set compiled twice in a
    // row, untraced and traced, the order alternating between inputs.
    // trace.overhead is the median over inputs of their time ratio, so
    // drift and the process's slower first compile do not pose as
    // tracing cost. The samples and per-layer counters of the two
    // compiles must agree exactly.
    Pass plain, traced;
    std::vector<obs::TraceEvent> events;
    std::vector<double> ratios;
    for (size_t i = 0; i < set.circuits.size(); ++i) {
        for (bool trace_it : {i % 2 == 1, i % 2 == 0}) {
            compileOne(set, i, config, trace_it, rep,
                       trace_it ? traced : plain,
                       trace_it ? &events : nullptr);
        }
        ratios.push_back(traced.latencies[i] / plain.latencies[i]);
    }
    for (size_t i = 0; i < set.inputs.size(); ++i) {
        if (traced.samples[i] != plain.samples[i])
            rep.fail(set.inputs[i].name +
                     ": samples differ between two compiles");
        if (traced.counters[i] != plain.counters[i])
            rep.fail(set.inputs[i].name +
                     ": per-layer counters differ between two compiles "
                     "at one seed");
    }
    writeTrace(args.traceOut, events);
    if (traced.layers.phaseMissing)
        rep.fail("a pipeline phase span is missing from a compile");

    std::printf("\nper-layer (seed %llu, per circuit set of %zu "
                "compiles):\n",
                static_cast<unsigned long long>(args.seed),
                set.inputs.size());
    reportLayers(rep, traced.layers, traced.counts, 1.0,
                 traced.cpu / (threads * traced.wall),
                 median(ratios) - 1.0, "per circuit set");
    for (const char *name :
         {"service.queue_wait_s", "service.run_s", "service.rpc_s",
          "service.result_retries", "service.shed"}) {
        rep.add(name, 0.0, std::string(name).ends_with("_s") ? "s"
                                                              : "count",
                "no service in this workload");
    }
    return rep;
}

// ---- The service workload --------------------------------------------

/** One completed job as the client saw it. */
struct JobRecord
{
    size_t input = 0; //!< index into the ServicePool
    bool first = false; //!< first submission of this input
    double latency = 0, rpc = 0;
    service::ResultReply reply;
};

/**
 * The closed-loop job schedule of @p total submissions. Every fourth
 * submission (at a seeded phase), and every submission while nothing
 * has completed yet, is the first sighting of the next new input;
 * the others repeat an input whose first submission has already
 * completed: of the kinds with a completed input, the one repeated
 * least so far, and a seeded variant within it. Every kind thus gets
 * the same share of repeats however the first completions are timed;
 * warm latency differs by kind, so a shifting mix would move p50. A
 * fixed amount of work with a fixed mix keeps runs comparable.
 */
class Schedule
{
  public:
    Schedule(uint64_t seed, size_t total)
        : rng(seed, 0x5c), total(total), completed(kNumServiceKinds),
          repeated(kNumServiceKinds)
    {
        phase = rng.uniformInt(4);
    }

    /** Next input index and whether it is its first submission;
     *  nothing once every submission was handed out. */
    std::optional<std::pair<size_t, bool>>
    next()
    {
        std::lock_guard<std::mutex> lock(mu);
        if (submitted == total)
            return std::nullopt;
        const uint32_t pick = rng();
        if ((submitted++ + phase) % 4 == 0 || done == 0)
            return std::pair{issued++, true};
        size_t kind = kNumServiceKinds;
        for (size_t k = 0; k < kNumServiceKinds; ++k) {
            if (!completed[k].empty() &&
                (kind == kNumServiceKinds || repeated[k] < repeated[kind]))
                kind = k;
        }
        ++repeated[kind];
        return std::pair{completed[kind][pick % completed[kind].size()],
                         false};
    }

    void
    completedFirst(size_t input)
    {
        std::lock_guard<std::mutex> lock(mu);
        completed[input % kNumServiceKinds].push_back(input);
        ++done;
    }

  private:
    std::mutex mu;
    Rng rng;
    size_t total;
    size_t phase = 0;
    size_t submitted = 0;
    size_t issued = 0;
    size_t done = 0;
    std::vector<std::vector<size_t>> completed; //!< by kind
    std::vector<size_t> repeated;               //!< by kind
};

/** A server with an empty cache in its own directory, plus clients
 *  connected over its unix socket. */
struct Service
{
    std::unique_ptr<service::QuestServer> server;
    std::vector<service::QuestClient> clients;
    fs::path dir;

    Service(const fs::path &root, int index, size_t connections)
    {
        dir = root / ("svc" + std::to_string(index));
        fs::remove_all(dir);
        fs::create_directories(dir);
        service::ServerConfig cfg;
        // Relative to the working directory: a unix socket path is
        // limited to about a hundred bytes.
        cfg.socketPath = fs::proximate(dir / "s.sock").string();
        cfg.cacheDir = (dir / "cache").string();
        // One compile thread per executor and no shared pool threads:
        // compiling threads never outnumber the cores, so a warm job
        // is not timed waiting for a core behind a cold one.
        cfg.executors = static_cast<unsigned>(connections);
        cfg.threads = 1;
        server = std::make_unique<service::QuestServer>(cfg);
        server->start();
        for (size_t c = 0; c < connections; ++c)
            clients.push_back(
                service::QuestClient::connect(cfg.socketPath));
    }

    ~Service()
    {
        clients.clear();
        if (server)
            server->stop();
        server.reset();
        std::error_code ec;
        fs::remove_all(dir, ec);
    }

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;
};

/** One closed-loop load phase. */
struct Wave
{
    std::vector<JobRecord> jobs;
    double wall = 0, cpu = 0;
    Counts counts;
    uint64_t rejected = 0;
};

Wave
runWave(Service &svc, ServicePool &pool, uint64_t seed, size_t total,
        Report &rep, std::mutex &rep_mu)
{
    const size_t connections = svc.clients.size();
    // Every input the schedule can reach is generated before the
    // clock starts.
    pool.at(total / 4 + connections);

    Schedule schedule(seed, total);
    Wave wave;
    std::mutex wave_mu;
    std::atomic<uint64_t> rejected{0};

    const Counts before = Counts::take();
    const double cpu0 = processCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < connections; ++c) {
        threads.emplace_back([&, c] {
            service::QuestClient &client = svc.clients[c];
            std::vector<JobRecord> mine;
            while (const auto slot = schedule.next()) {
                const auto [input, first] = *slot;
                service::SubmitRequest request;
                request.tenant = c % 2 ? "tenant-b" : "tenant-a";
                request.options.seed = seed;
                request.qasm = pool.get(input).qasm;
                JobRecord job;
                job.input = input;
                job.first = first;
                std::string problem;
                const Clock::time_point j0 = Clock::now();
                try {
                    service::SubmitReply sub;
                    {
                        QUEST_TRACE_SCOPE("bench.submit");
                        sub = client.submit(request);
                    }
                    job.rpc = secondsBetween(j0, Clock::now());
                    if (!sub.accepted) {
                        ++rejected;
                        problem = "submit rejected: " + sub.detail;
                    } else {
                        QUEST_TRACE_SCOPE("bench.result");
                        job.reply = client.result(sub.jobId);
                    }
                } catch (const std::exception &e) {
                    problem = std::string("threw: ") + e.what();
                }
                job.latency = secondsBetween(j0, Clock::now());
                if (problem.empty() &&
                    job.reply.status.state != service::JobState::Done) {
                    problem = std::string("job ended ") +
                              service::jobStateName(
                                  job.reply.status.state) +
                              ": " + job.reply.status.detail;
                }
                if (first && problem.empty())
                    schedule.completedFirst(input);
                {
                    std::lock_guard<std::mutex> lock(rep_mu);
                    rep.operation(problem);
                }
                if (problem.empty())
                    mine.push_back(std::move(job));
            }
            std::lock_guard<std::mutex> lock(wave_mu);
            for (JobRecord &j : mine)
                wave.jobs.push_back(std::move(j));
        });
    }
    for (std::thread &t : threads)
        t.join();
    wave.wall = secondsBetween(t0, Clock::now());
    wave.cpu = processCpuSeconds() - cpu0;
    wave.counts = Counts::take().since(before);
    wave.rejected = rejected.load();
    return wave;
}

/** Outside the timed region: every served result passes the output
 *  checks, repeats of an input are byte-identical to its first
 *  result, and every distinct input's result is byte-identical to a
 *  local QuestPipeline::run of the same QASM and options. Returns
 *  the quality of the distinct inputs. */
Quality
checkService(const std::vector<const Wave *> &waves, ServicePool &pool,
             uint64_t seed, Report &rep)
{
    std::map<size_t, const service::ResultReply *> firstReply;
    for (const Wave *w : waves) {
        for (const JobRecord &j : w->jobs) {
            const std::string problem = checkServed(j.reply);
            if (!problem.empty())
                rep.fail(pool.at(j.input).name + ": " + problem);
            auto [it, inserted] =
                firstReply.try_emplace(j.input, &j.reply);
            if (!inserted && sampleFingerprint(j.reply) !=
                                 sampleFingerprint(*it->second)) {
                rep.fail(pool.at(j.input).name +
                         ": repeated job's samples differ");
            }
        }
    }

    // Local reference compiles, several at a time on one shared
    // pool (samples are byte-identical for any thread count).
    std::vector<size_t> todo;
    for (const auto &[input, reply] : firstReply)
        todo.push_back(input);
    service::CompileOptions options;
    options.seed = seed;
    QuestConfig config = service::compileConfig(options);
    const unsigned threads = ThreadPool::hardwareConcurrency();
    ThreadPool shared(threads - 1);
    config.pool = &shared;

    std::vector<std::optional<QuestResult>> local(todo.size());
    std::vector<std::string> problems(todo.size());
    std::vector<std::string> qasm(todo.size());
    for (size_t i = 0; i < todo.size(); ++i)
        qasm[i] = pool.at(todo[i]).qasm;
    const Clock::time_point t0 = Clock::now();
    std::atomic<size_t> cursor{0};
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < threads; ++w) {
        workers.emplace_back([&] {
            for (size_t i; (i = cursor++) < todo.size();) {
                try {
                    QuestPipeline pipeline(config);
                    const QuestResult &r =
                        local[i].emplace(pipeline.run(parseQasm(qasm[i])));
                    problems[i] =
                        checkCompile(r, SelectionMode::Full, 0, 0);
                    const service::ResultReply &served =
                        *firstReply.at(todo[i]);
                    if (problems[i].empty() &&
                        sampleFingerprint(r) != sampleFingerprint(served))
                        problems[i] = "served samples differ from a "
                                      "local compile";
                } catch (const std::exception &e) {
                    problems[i] = std::string("local compile threw: ") +
                                  e.what();
                }
            }
        });
    }
    for (std::thread &t : workers)
        t.join();
    std::printf("checked %zu distinct inputs against local compiles in "
                "%.1f s\n",
                todo.size(), secondsBetween(t0, Clock::now()));

    Quality q;
    for (size_t i = 0; i < todo.size(); ++i) {
        if (!problems[i].empty())
            rep.fail(pool.at(todo[i]).name + ": " + problems[i]);
        if (local[i])
            q.add(pool.at(todo[i]).name, *local[i]);
    }
    return q;
}

/** Blocks submitted must equal cache hits plus misses. */
void
checkCacheAccounting(const Wave &w, Report &rep)
{
    double blocks = 0;
    for (const JobRecord &j : w.jobs)
        blocks += static_cast<double>(j.reply.blocks);
    const double hm = w.counts(names::kMetricSynthCacheHits) +
                      w.counts(names::kMetricSynthCacheMisses);
    if (hm != blocks) {
        rep.fail("cache hits + misses (" + std::to_string(hm) +
                 ") != blocks submitted (" + std::to_string(blocks) +
                 ")");
    }
}

Report
runServiceWorkload(const Args &args, const fs::path &workdir)
{
    Report rep;
    std::mutex rep_mu;
    const size_t connections =
        std::min<size_t>(4, ThreadPool::hardwareConcurrency());
    const fs::path root = workdir / ("service-" + std::to_string(getpid()));
    struct RemoveOnExit
    {
        fs::path dir;
        ~RemoveOnExit()
        {
            std::error_code ec;
            fs::remove_all(dir, ec);
        }
    } cleanup{root};
    // A fixed amount of work sized to --seconds: rounds of the nine
    // kinds' first sightings, each with three repeats, at about six
    // jobs per second on four cores.
    const size_t round_jobs = 4 * kNumServiceKinds;
    const size_t rounds = static_cast<size_t>(
        std::max(1L, std::lround(args.seconds * 6.0 / round_jobs)));
    const size_t jobs = rounds * round_jobs;
    const size_t half = std::max<size_t>(1, rounds / 2) * round_jobs;

    // Set-up: generate the inputs and schedule, start a server with
    // an empty cache on a unix socket, connect the clients. Timed in
    // a burst of about a tenth of a second on fresh directories here,
    // where the last one serves the load, and, untraced, after the
    // load and after its checks.
    SetUpTimes setups(50);
    std::unique_ptr<ServicePool> pool;
    std::unique_ptr<Service> svc;
    int index = 0;
    const auto burst = [&](std::unique_ptr<ServicePool> &p,
                           std::unique_ptr<Service> &s) {
        setups.burst(
            [&] {
                p = std::make_unique<ServicePool>(args.seed);
                p->at(jobs / 4 + connections);
                s = std::make_unique<Service>(root, index++, connections);
            },
            [&] {
                s.reset();
                p.reset();
            });
    };
    burst(pool, svc);
    const auto laterBurst = [&] {
        std::unique_ptr<ServicePool> p;
        std::unique_ptr<Service> s;
        burst(p, s);
    };
    std::printf("service: %zu jobs, %zu connections over 2 tenants, %zu "
                "executors, no shared pool threads\n",
                jobs, connections, connections);

    if (!args.trace) {
        const Wave wave =
            runWave(*svc, *pool, args.seed, jobs, rep, rep_mu);
        const double rss = peakRssMiB();
        svc.reset();
        laterBurst();
        checkCacheAccounting(wave, rep);
        const Quality q = checkService({&wave}, *pool, args.seed, rep);
        laterBurst();

        std::vector<double> lat;
        size_t cold = 0;
        std::map<std::string, std::vector<double>> first_by_kind,
            repeat_by_kind;
        std::vector<double> repeats;
        for (const JobRecord &j : wave.jobs) {
            lat.push_back(j.latency);
            cold += j.first;
            (j.first ? first_by_kind : repeat_by_kind)[pool->at(j.input).name]
                .push_back(j.latency);
            if (!j.first)
                repeats.push_back(j.latency);
        }
        for (const auto *by_kind : {&first_by_kind, &repeat_by_kind}) {
            std::printf("%s, median latency by kind:",
                        by_kind == &first_by_kind ? "first sightings"
                                                  : "repeats");
            for (const auto &[kind, v] : *by_kind)
                std::printf(" %s %zux %.4fs", kind.c_str(), v.size(),
                            median(v));
            std::printf("\n");
        }
        std::printf("repeats: %zu, median latency %.4f s\n",
                    repeats.size(), median(repeats));
        const double completed = static_cast<double>(wave.jobs.size());
        const double waves = completed / static_cast<double>(connections);
        const Tail tail = tailOf(lat);
        const std::string nj = "n=" + std::to_string(wave.jobs.size()) +
                               " jobs (" + std::to_string(cold) +
                               " first sightings)";
        std::printf("\nend-to-end (seed %llu):\n",
                    static_cast<unsigned long long>(args.seed));
        rep.add("setup_s", setups.value(), "s", setups.note());
        rep.add("compile_s", waves > 0 ? wave.wall / waves : 0.0, "s",
                "wall per wave of one job per connection, " + nj);
        rep.add("compile_cpu_s", waves > 0 ? wave.cpu / waves : 0.0, "s",
                "CPU per wave of one job per connection, " + nj);
        rep.add("jobs_per_s", completed / wave.wall, "jobs/s",
                nj + " over " + std::to_string(wave.wall) + " s");
        rep.add("job_latency_p50_s", median(lat), "s", "p50, " + nj);
        char tail_note[160];
        std::snprintf(tail_note, sizeof tail_note,
                      "p%.1f, %s, %zu beyond", tail.percentile,
                      nj.c_str(), tail.beyond);
        rep.add("job_latency_tail_s", tail.value, "s", tail_note);
        rep.add("peak_rss_mb", rss, "MiB", "whole process");
        const std::string nk =
            " over " + std::to_string(q.cnotRatio.size()) +
            " kinds (n=" + std::to_string(q.inputs) + " distinct inputs)";
        rep.add("cnot_ratio", q.cnotRatioOverKinds(), "ratio",
                "geomean" + nk + " of min-sample / original CNOTs");
        rep.add("max_distance", q.maxDistanceOverKinds(), "hs_distance",
                "mean" + nk + " of the max measured distance");
        return rep;
    }

    // Traced run: half the work untraced, then half traced on a
    // fresh server and cache with the same schedule.
    const Wave plain =
        runWave(*svc, *pool, args.seed, half, rep, rep_mu);
    svc = std::make_unique<Service>(root, index++, connections);
    obs::TraceSession::global().start();
    const Wave traced =
        runWave(*svc, *pool, args.seed, half, rep, rep_mu);
    svc.reset();
    obs::TraceSession &session = obs::TraceSession::global();
    session.stop();
    const std::vector<obs::TraceEvent> events = session.collect();
    if (session.droppedEvents() != 0)
        std::printf("  warning: %zu trace events dropped\n",
                    session.droppedEvents());
    writeTrace(args.traceOut, events);
    checkCacheAccounting(plain, rep);
    checkCacheAccounting(traced, rep);
    checkService({&plain, &traced}, *pool, args.seed, rep);

    Layers layers;
    layers.addSpans(events, "quest.pipeline");
    if (layers.phaseMissing)
        rep.fail("a pipeline phase span is missing from a job");
    std::vector<double> rpc;
    for (const JobRecord &j : traced.jobs) {
        layers.blocks += static_cast<double>(j.reply.blocks);
        rpc.push_back(j.rpc);
    }
    const double completed = std::max<double>(1, traced.jobs.size());
    const Counts &d = traced.counts;
    const double queue_n = d(names::kMetricServiceJobQueueMs);
    const double run_n = d(names::kMetricServiceJobRunMs);
    const double plain_rate =
        static_cast<double>(plain.jobs.size()) / plain.wall;
    const double traced_rate = completed / traced.wall;

    std::printf("\nper-layer (seed %llu, per job over n=%zu traced "
                "jobs):\n",
                static_cast<unsigned long long>(args.seed),
                traced.jobs.size());
    reportLayers(rep, layers, d, completed,
                 traced.cpu / (ThreadPool::hardwareConcurrency() *
                               traced.wall),
                 plain_rate / traced_rate - 1.0, "per job");
    rep.add("service.queue_wait_s",
            queue_n > 0 ? d.histSum(names::kMetricServiceJobQueueMs) /
                              queue_n * 1e-3
                        : 0.0,
            "s", "mean of service.job.queue_ms");
    rep.add("service.run_s",
            run_n > 0 ? d.histSum(names::kMetricServiceJobRunMs) /
                            run_n * 1e-3
                      : 0.0,
            "s", "mean of service.job.run_ms");
    rep.add("service.rpc_s", median(rpc), "s",
            "median bench.submit span, n=" + std::to_string(rpc.size()));
    rep.add("service.result_retries",
            d(names::kMetricServiceResultRetries), "count",
            "service.result.retries over the traced wave");
    rep.add("service.shed",
            static_cast<double>(traced.rejected) +
                d(names::kMetricServiceTenantSheds),
            "count", "rejected submits + service.tenants.shed");
    return rep;
}

// ---- main --------------------------------------------------------------

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "quest_perfbench: %s\n"
                 "usage: quest_perfbench --workload "
                 "<full_8q|large_64q|service_mix> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out file] "
                 "[--workdir dir]\n",
                 why);
    std::exit(2);
}

void
printJson(const Report &rep)
{
    std::ostringstream os;
    os << "{\"correct\": " << (rep.problems == 0 ? "true" : "false")
       << ", \"attempted\": " << rep.attempted
       << ", \"failed\": " << rep.failed << ", \"metrics\": {";
    for (size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric &m = rep.metrics[i];
        os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
           << jsonNumber(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    std::string workdir = ".";
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                args.workload = value;
                have_workload = true;
            } else if (arg == "--seed") {
                args.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                args.seconds = std::stod(value);
            } else if (arg == "--trace") {
                args.trace = std::stoi(value) != 0;
            } else if (arg == "--trace-out") {
                args.traceOut = value;
            } else if (arg == "--workdir") {
                workdir = value;
            } else {
                usage(("unknown option " + arg).c_str());
            }
        } catch (const std::logic_error &) {
            usage(("bad value for " + arg).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");

    std::printf("quest_perfbench: workload %s, seed %llu, %g s, "
                "trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::fflush(stdout);

    Report rep;
    try {
        if (args.workload == "full_8q")
            rep = runCompileWorkload(args, SelectionMode::Full);
        else if (args.workload == "large_64q")
            rep = runCompileWorkload(args, SelectionMode::BlockBound);
        else if (args.workload == "service_mix")
            rep = runServiceWorkload(args, workdir);
        else
            usage(("unknown workload " + args.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "quest_perfbench: %s\n", e.what());
        return 2;
    }

    std::printf("\nerror_rate: %.6g (%llu of %llu operations failed)\n",
                rep.attempted ? static_cast<double>(rep.failed) /
                                    static_cast<double>(rep.attempted)
                              : 0.0,
                static_cast<unsigned long long>(rep.failed),
                static_cast<unsigned long long>(rep.attempted));
    for (const std::string &f : rep.failures)
        std::fprintf(stderr, "check failed: %s\n", f.c_str());
    printJson(rep);
    return rep.problems == 0 ? 0 : 1;
}
