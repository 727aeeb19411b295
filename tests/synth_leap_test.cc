/**
 * @file
 * LEAP synthesizer tests. Synthesis settings are kept lean so the
 * suite stays fast; quality assertions are correspondingly loose.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numbers>
#include <utility>
#include <vector>

#include "algos/algorithms.hh"
#include "dense_ansatz.hh"
#include "ir/lower.hh"
#include "linalg/decompose.hh"
#include "linalg/distance.hh"
#include "obs/metrics.hh"
#include "synth/instantiater.hh"
#include "synth/leap_synthesizer.hh"
#include "util/names.hh"
#include "util/rng.hh"

namespace quest {
namespace {

constexpr double pi = std::numbers::pi;

SynthConfig
leanConfig()
{
    SynthConfig cfg;
    cfg.beamWidth = 1;
    cfg.inst.multistarts = 2;
    cfg.inst.lbfgs.maxIterations = 250;
    cfg.candidatesPerLevel = 4;
    cfg.maxLayers = 8;
    return cfg;
}

TEST(Instantiater, RecoversKnownAnsatzParams)
{
    Rng rng(1);
    Ansatz a = Ansatz::initialLayer(2);
    a.addLayer(0, 1);
    std::vector<double> truth(a.paramCount());
    for (double &v : truth)
        v = rng.uniform(-pi, pi);
    Matrix target = denseUnitary(a, truth);

    InstantiaterOptions opts;
    opts.multistarts = 4;
    InstantiationResult r = instantiate(target, a, rng, opts);
    EXPECT_LT(r.distance, 1e-4);
}

TEST(Instantiater, WarmStartAtOptimumStays)
{
    Rng rng(3);
    Ansatz a = Ansatz::initialLayer(2);
    std::vector<double> truth(a.paramCount());
    for (double &v : truth)
        v = rng.uniform(-pi, pi);
    Matrix target = denseUnitary(a, truth);

    InstantiaterOptions opts;
    opts.multistarts = 1;
    InstantiationResult r = instantiate(target, a, rng, opts, truth);
    EXPECT_LT(r.distance, 1e-6);
}

TEST(Leap, OneQubitTargetIsAnalytic)
{
    Matrix h = gateMatrix(Gate::h(0));
    LeapSynthesizer synth(leanConfig());
    SynthOutput out = synth.synthesize(h, 4);
    ASSERT_EQ(out.candidates.size(), 1u);
    EXPECT_EQ(out.best().cnotCount, 0);
    EXPECT_NEAR(out.best().distance, 0.0, 1e-7);
    EXPECT_NEAR(hsDistance(circuitUnitary(out.best().circuit), h), 0.0,
                1e-7);
}

TEST(Leap, ProductTargetNeedsNoCnots)
{
    Rng rng(5);
    Matrix u = kron(makeU3(0.3, 0.2, -0.4), makeU3(1.1, -0.7, 0.5));
    LeapSynthesizer synth(leanConfig());
    SynthOutput out = synth.synthesize(u, 4);
    const SynthCandidate &level0 = out.candidates.front();
    EXPECT_EQ(level0.cnotCount, 0);
    EXPECT_LT(level0.distance, 1e-4);
}

TEST(Leap, CnotTargetSynthesizesExactly)
{
    Matrix cx = gateMatrix(Gate::cx(0, 1));
    SynthConfig cfg = leanConfig();
    cfg.inst.multistarts = 4;
    LeapSynthesizer synth(cfg);
    SynthCandidate best = synth.synthesizeExact(cx, 1e-4, 3);
    EXPECT_LE(best.cnotCount, 1);
    EXPECT_LT(best.distance, 1e-4);
}

TEST(Leap, TwoQubitCircuitRoundTrip)
{
    // Synthesize the unitary of a small native circuit and verify
    // the result's unitary distance directly.
    Circuit c = lowerToNative(algos::tfim(2, 2));
    Matrix target = circuitUnitary(c);
    SynthConfig cfg = leanConfig();
    cfg.inst.multistarts = 4;
    LeapSynthesizer synth(cfg);
    SynthOutput out = synth.synthesize(target,
                                       static_cast<int>(c.cnotCount()));

    const SynthCandidate &best = out.best();
    EXPECT_LT(best.distance, 1e-3);
    EXPECT_LE(best.cnotCount, 3);  // any 2q unitary needs at most 3
    EXPECT_NEAR(hsDistance(circuitUnitary(best.circuit), target),
                best.distance, 1e-6);
}

TEST(Leap, CandidateMetadataIsConsistent)
{
    Circuit c = lowerToNative(algos::tfim(3, 2));
    Matrix target = circuitUnitary(c);
    LeapSynthesizer synth(leanConfig());
    SynthOutput out = synth.synthesize(target, 6);

    ASSERT_FALSE(out.candidates.empty());
    int last_cnots = -1;
    for (const SynthCandidate &cand : out.candidates) {
        EXPECT_GE(cand.cnotCount, last_cnots);  // sorted by level
        last_cnots = cand.cnotCount;
        EXPECT_EQ(cand.circuit.cnotCount(),
                  static_cast<size_t>(cand.cnotCount));
        EXPECT_NEAR(hsDistance(circuitUnitary(cand.circuit), target),
                    cand.distance, 1e-6);
    }
    // bestIndex points at the shortest exact candidate, or at the
    // minimum distance when nothing is exact.
    const SynthCandidate &best = out.best();
    if (best.distance < synth.config().exactEpsilon) {
        for (const SynthCandidate &cand : out.candidates) {
            if (cand.distance < synth.config().exactEpsilon) {
                EXPECT_LE(best.cnotCount, cand.cnotCount);
            }
        }
    } else {
        for (const SynthCandidate &cand : out.candidates)
            EXPECT_GE(cand.distance, best.distance - 1e-12);
    }
}

TEST(Leap, RespectsCnotBudget)
{
    Circuit c = lowerToNative(algos::tfim(3, 3));
    Matrix target = circuitUnitary(c);
    LeapSynthesizer synth(leanConfig());
    SynthOutput out = synth.synthesize(target, 3);
    for (const SynthCandidate &cand : out.candidates)
        EXPECT_LE(cand.cnotCount, 3);
}

TEST(Leap, DeterministicForSeed)
{
    Circuit c = lowerToNative(algos::tfim(2, 1));
    Matrix target = circuitUnitary(c);
    LeapSynthesizer synth(leanConfig());
    SynthOutput a = synth.synthesize(target, 3);
    SynthOutput b = synth.synthesize(target, 3);
    ASSERT_EQ(a.candidates.size(), b.candidates.size());
    for (size_t i = 0; i < a.candidates.size(); ++i)
        EXPECT_EQ(a.candidates[i].distance, b.candidates[i].distance);
}

TEST(Leap, ThreadedMatchesSerial)
{
    Circuit c = lowerToNative(algos::tfim(2, 2));
    Matrix target = circuitUnitary(c);
    SynthConfig serial = leanConfig();
    SynthConfig threaded = leanConfig();
    threaded.threads = 4;
    SynthOutput a = LeapSynthesizer(serial).synthesize(target, 4);
    SynthOutput b = LeapSynthesizer(threaded).synthesize(target, 4);
    ASSERT_EQ(a.candidates.size(), b.candidates.size());
    for (size_t i = 0; i < a.candidates.size(); ++i)
        EXPECT_EQ(a.candidates[i].distance, b.candidates[i].distance);
}

/** FNV-1a over every recorded candidate's CNOT count, distance bits
 *  and gates (type, wires, angle bits), plus the preferred index. */
uint64_t
outputDigest(const SynthOutput &out)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto add = [&h](uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ULL;
    };
    add(out.candidates.size());
    add(out.bestIndex);
    for (const SynthCandidate &c : out.candidates) {
        add(static_cast<uint64_t>(c.cnotCount));
        add(std::bit_cast<uint64_t>(c.distance));
        for (const Gate &g : c.circuit) {
            add(static_cast<uint64_t>(g.type));
            for (int q : g.qubits)
                add(static_cast<uint64_t>(q));
            for (double p : g.params)
                add(std::bit_cast<uint64_t>(p));
        }
    }
    return h;
}

TEST(Leap, SynthesizeMatchesRecordedDigests)
{
    // Whole synthesize() outputs, bit for bit, as recorded before the
    // children of a frontier node were instantiated as one sibling
    // group: the grouping must never show in a result. The three
    // cases cover a two-node beam (two groups per level), the
    // pipeline's one-node beam with a skeleton lineage, and a
    // two-qubit target whose siblings are single tasks.
    struct Case
    {
        const char *name;
        Circuit circuit;
        int beam, maxLayers;
        bool skeleton;
        uint64_t digest;
    };
    const Case cases[] = {
        {"tfim_3", lowerToNative(algos::tfim(3, 1)), 2, 5, false,
         0xb90ab1ffa70d59faULL},
        {"heisenberg_4", lowerToNative(algos::heisenberg(4, 1)), 1, 3,
         true, 0xddad75d9cd0d6343ULL},
        {"vqe_2", lowerToNative(algos::vqe(2, 2, 5)), 2, 4, false,
         0x7ac925ea31ec6bc8ULL},
    };
    auto &groups = obs::MetricsRegistry::global().counter(
        names::kMetricSynthSiblingGroups);
    for (const Case &c : cases) {
        const Circuit native = c.circuit.withoutPseudoOps();
        std::vector<std::pair<int, int>> skeleton;
        for (const Gate &g : native)
            if (g.type == GateType::CX)
                skeleton.emplace_back(g.qubits[0], g.qubits[1]);
        SynthConfig cfg;
        cfg.beamWidth = c.beam;
        cfg.inst.multistarts = 2;
        cfg.inst.lbfgs.maxIterations = 300;
        cfg.maxLayers = c.maxLayers;
        const uint64_t groups0 = groups.value();
        const SynthOutput out = LeapSynthesizer(cfg).synthesize(
            circuitUnitary(native), static_cast<int>(skeleton.size()),
            c.skeleton ? &skeleton : nullptr);
        EXPECT_EQ(outputDigest(out), c.digest)
            << c.name << ": 0x" << std::hex << outputDigest(out);
        if (native.numQubits() > 2) {
            EXPECT_GT(groups.value(), groups0) << c.name;
        }
    }
}

TEST(Leap, TopologyRestrictionRespected)
{
    Circuit c = lowerToNative(algos::tfim(3, 2));
    Matrix target = circuitUnitary(c);
    SynthConfig cfg = leanConfig();
    cfg.couplings = {{0, 1}, {1, 2}};  // line: no (0, 2) CNOTs
    LeapSynthesizer synth(cfg);
    SynthOutput out = synth.synthesize(target, 6);
    for (const SynthCandidate &cand : out.candidates) {
        for (const Gate &g : cand.circuit) {
            if (g.type != GateType::CX)
                continue;
            int lo = std::min(g.qubits[0], g.qubits[1]);
            int hi = std::max(g.qubits[0], g.qubits[1]);
            EXPECT_TRUE((lo == 0 && hi == 1) || (lo == 1 && hi == 2))
                << g.toString();
        }
    }
}

TEST(Leap, TopologyRestrictionStillSynthesizes)
{
    // A line-restricted search still finds low-distance candidates
    // for a line-structured target.
    Circuit c = lowerToNative(algos::tfim(3, 1));
    Matrix target = circuitUnitary(c);
    SynthConfig cfg = leanConfig();
    cfg.inst.multistarts = 4;
    cfg.couplings = {{0, 1}, {1, 2}};
    LeapSynthesizer synth(cfg);
    SynthOutput out = synth.synthesize(target, 6);
    EXPECT_LT(out.best().distance, 0.05);
}

TEST(Leap, SkeletonLineageRecoversOriginal)
{
    // With the skeleton hint the search contains the original CX
    // structure, so the full-budget level reaches (near-)zero
    // distance even when the generic schedules would not.
    Circuit c = lowerToNative(algos::vqe(4, 2, 31));
    Matrix target = circuitUnitary(c);
    std::vector<std::pair<int, int>> skeleton;
    for (const Gate &g : c)
        if (g.type == GateType::CX)
            skeleton.emplace_back(g.qubits[0], g.qubits[1]);

    SynthConfig cfg = leanConfig();
    cfg.inst.multistarts = 3;
    cfg.maxLayers = static_cast<int>(skeleton.size());
    LeapSynthesizer synth(cfg);
    SynthOutput out = synth.synthesize(
        target, static_cast<int>(skeleton.size()), &skeleton);
    EXPECT_LT(out.best().distance, 1e-3);
}

TEST(Leap, MaxLayersCapsExploration)
{
    Circuit c = lowerToNative(algos::tfim(3, 4));
    Matrix target = circuitUnitary(c);
    SynthConfig cfg = leanConfig();
    cfg.maxLayers = 3;
    LeapSynthesizer synth(cfg);
    SynthOutput out = synth.synthesize(target, 100);
    for (const SynthCandidate &cand : out.candidates)
        EXPECT_LE(cand.cnotCount, 3);
}

TEST(Leap, ReseedIntervalOneStillWorks)
{
    // Reseeding every level collapses the frontier to one node each
    // time (pure LEAP prefix freezing); synthesis must still make
    // progress and stay deterministic.
    Circuit c = lowerToNative(algos::tfim(2, 2));
    Matrix target = circuitUnitary(c);
    SynthConfig cfg = leanConfig();
    cfg.reseedInterval = 1;
    LeapSynthesizer synth(cfg);
    SynthOutput a = synth.synthesize(target, 4);
    SynthOutput b = synth.synthesize(target, 4);
    EXPECT_LT(a.best().distance, 0.2);
    ASSERT_EQ(a.candidates.size(), b.candidates.size());
    for (size_t i = 0; i < a.candidates.size(); ++i)
        EXPECT_EQ(a.candidates[i].distance, b.candidates[i].distance);
}

TEST(Leap, WideBeamCoversNarrowBeam)
{
    // A wider beam explores a superset of structures, so its best
    // distance can only match or improve the narrow beam's at equal
    // instantiation settings.
    Circuit c = lowerToNative(algos::tfim(2, 1));
    Matrix target = circuitUnitary(c);
    SynthConfig narrow = leanConfig();
    SynthConfig wide = leanConfig();
    wide.beamWidth = 3;
    double d_narrow =
        LeapSynthesizer(narrow).synthesize(target, 3).best().distance;
    double d_wide =
        LeapSynthesizer(wide).synthesize(target, 3).best().distance;
    EXPECT_LE(d_wide, d_narrow + 1e-6);
}

TEST(Leap, RejectsNonUnitaryTarget)
{
    Matrix bad(4, 4);
    bad(0, 0) = 2.0;
    LeapSynthesizer synth(leanConfig());
    EXPECT_DEATH(synth.synthesize(bad, 3), "unitary");
}

} // namespace
} // namespace quest
