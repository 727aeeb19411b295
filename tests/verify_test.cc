/**
 * @file
 * Verifier tests: every circuit the generators, partitioner,
 * synthesizer and pipeline produce must lint clean, and hand-built
 * malformed circuits (bad wire, wrong arity, CX self-loop,
 * non-finite angle, non-covering partition, ...) must be rejected
 * with a useful message.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "algos/algorithms.hh"
#include "ir/lower.hh"
#include "partition/scan_partitioner.hh"
#include "quest/pipeline.hh"
#include "synth/leap_synthesizer.hh"
#include "verify/verifier.hh"

namespace quest {
namespace {

/** A small well-formed native circuit to corrupt. */
Circuit
nativeFixture()
{
    Circuit c(3);
    c.append(Gate::u3(0, 0.1, 0.2, 0.3));
    c.append(Gate::cx(0, 1));
    c.append(Gate::u3(1, -0.4, 0.5, 0.0));
    c.append(Gate::cx(1, 2));
    return c;
}

/** True iff some issue message contains @p needle. */
bool
mentions(const VerifyReport &report, const std::string &needle)
{
    for (const VerifyIssue &issue : report.issues)
        if (issue.message.find(needle) != std::string::npos)
            return true;
    return false;
}

// ---- Positive coverage: every generator. ---------------------------

TEST(CircuitVerifier, AcceptsEveryGeneratorRawAndLowered)
{
    CircuitVerifier raw_verifier;
    CircuitVerifier native_verifier({.requireNative = true});
    for (const auto &spec : algos::standardSuite()) {
        Circuit c = spec.build();
        EXPECT_TRUE(raw_verifier.verify(c).ok())
            << spec.name << ":\n" << raw_verifier.verify(c).toString();
        Circuit lowered = lowerToNative(c);
        EXPECT_TRUE(native_verifier.verify(lowered).ok())
            << spec.name << " lowered:\n"
            << native_verifier.verify(lowered).toString();
    }
}

TEST(PartitionVerifier, AcceptsEveryGeneratorPartition)
{
    for (const auto &spec : algos::standardSuite()) {
        Circuit c = lowerToNative(spec.build()).withoutPseudoOps();
        for (int width : {3, 4}) {
            auto blocks = ScanPartitioner(width).partition(c);
            VerifyReport report =
                PartitionVerifier(width).verify(c, blocks);
            EXPECT_TRUE(report.ok())
                << spec.name << " width " << width << ":\n"
                << report.toString();
        }
    }
}

TEST(CircuitVerifier, AcceptsPseudoOpsInTheRightPlaces)
{
    Circuit c(2);
    c.append(Gate::h(0));
    c.append(Gate::barrier({0, 1}));
    c.append(Gate::cx(0, 1));
    c.append(Gate::measure(0));
    c.append(Gate::measure(1));
    EXPECT_TRUE(CircuitVerifier().verify(c).ok());
}

// ---- Positive coverage: synthesizer and pipeline outputs. ----------

TEST(CircuitVerifier, AcceptsEveryLeapCandidate)
{
    Circuit block = lowerToNative(algos::tfim(2, 1)).withoutPseudoOps();
    SynthConfig cfg;
    cfg.maxLayers = 4;
    cfg.inst.multistarts = 2;
    cfg.verifyCandidates = true;  // the synthesizer's own pass
    LeapSynthesizer synthesizer(cfg);
    SynthOutput out = synthesizer.synthesize(
        circuitUnitary(block), static_cast<int>(block.cnotCount()));

    ASSERT_FALSE(out.candidates.empty());
    CircuitVerifier verifier({.requireNative = true,
                              .allowPseudoOps = false});
    for (const SynthCandidate &c : out.candidates)
        EXPECT_TRUE(verifier.verify(c.circuit).ok())
            << verifier.verify(c.circuit).toString();
}

TEST(Pipeline, VerifiersAcceptEveryPipelineArtifact)
{
    QuestConfig cfg;
    cfg.verify = true;  // in-pipeline verification after every step
    cfg.synth.beamWidth = 1;
    cfg.synth.inst.multistarts = 2;
    cfg.synth.inst.lbfgs.maxIterations = 200;
    cfg.synth.maxLayers = 5;
    cfg.synth.stallLevels = 4;
    cfg.maxSamples = 3;
    QuestResult r = QuestPipeline(cfg).run(algos::tfim(4, 2));

    // The pipeline would have panicked on an internal failure; also
    // lint the outputs externally.
    CircuitVerifier verifier({.requireNative = true,
                              .allowPseudoOps = false});
    EXPECT_TRUE(verifier.verify(r.original).ok());
    EXPECT_TRUE(PartitionVerifier(cfg.maxBlockSize)
                    .verify(r.original, r.blocks)
                    .ok());
    for (const auto &approx_list : r.blockApprox)
        for (const BlockApprox &a : approx_list)
            EXPECT_TRUE(verifier.verify(a.circuit).ok());
    ASSERT_GE(r.samples.size(), 1u);
    for (const ApproxSample &s : r.samples)
        EXPECT_TRUE(verifier.verify(s.circuit).ok());
}

// ---- Negative coverage: malformed circuits. ------------------------

TEST(CircuitVerifier, RejectsOutOfRangeWire)
{
    Circuit c = nativeFixture();
    c[1].qubits[1] = 99;  // bypasses append()'s validation
    VerifyReport report = CircuitVerifier().verify(c);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.issues[0].gateIndex, 1u);
    EXPECT_TRUE(mentions(report, "outside circuit"));
}

TEST(CircuitVerifier, RejectsNegativeWire)
{
    Circuit c = nativeFixture();
    c[0].qubits[0] = -1;
    EXPECT_TRUE(mentions(CircuitVerifier().verify(c),
                         "outside circuit"));
}

TEST(CircuitVerifier, RejectsWrongArity)
{
    Circuit c = nativeFixture();
    c[1].qubits.pop_back();  // a one-wire CX
    VerifyReport report = CircuitVerifier().verify(c);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(mentions(report, "arity"));
}

TEST(CircuitVerifier, RejectsCxSelfLoop)
{
    Circuit c = nativeFixture();
    c[1].qubits[1] = c[1].qubits[0];
    VerifyReport report = CircuitVerifier().verify(c);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(mentions(report, "duplicate wire"));
}

TEST(CircuitVerifier, RejectsNonFiniteAngle)
{
    Circuit c = nativeFixture();
    c[0].params[2] = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(mentions(CircuitVerifier().verify(c), "non-finite"));

    Circuit d = nativeFixture();
    d[2].params[0] = std::numeric_limits<double>::infinity();
    EXPECT_TRUE(mentions(CircuitVerifier().verify(d), "non-finite"));
}

TEST(CircuitVerifier, RejectsWrongParamCount)
{
    Circuit c = nativeFixture();
    c[0].params.pop_back();
    EXPECT_TRUE(mentions(CircuitVerifier().verify(c), "parameters"));
}

TEST(CircuitVerifier, RejectsNonNativeGateWhenRequired)
{
    Circuit c(2);
    c.append(Gate::h(0));
    CircuitVerifier strict({.requireNative = true});
    VerifyReport report = strict.verify(c);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(mentions(report, "native"));
    EXPECT_TRUE(CircuitVerifier().verify(c).ok());
}

TEST(CircuitVerifier, RejectsPseudoOpsWhenForbidden)
{
    Circuit c(2);
    c.append(Gate::cx(0, 1));
    c.append(Gate::measure(0));
    CircuitVerifier strict({.allowPseudoOps = false});
    EXPECT_TRUE(mentions(strict.verify(c), "pseudo-op"));
}

TEST(CircuitVerifier, RejectsGateAfterMeasurement)
{
    Circuit c(2);
    c.append(Gate::measure(0));
    c.append(Gate::h(1));
    VerifyReport report = CircuitVerifier().verify(c);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(mentions(report, "trailing suffix"));
}

TEST(CircuitVerifier, RejectsDoubleMeasurement)
{
    Circuit c(2);
    c.append(Gate::measure(0));
    c.append(Gate::measure(0));
    EXPECT_TRUE(mentions(CircuitVerifier().verify(c),
                         "measured twice"));
}

TEST(CircuitVerifier, RejectsZeroWireCircuit)
{
    Circuit c;  // default-constructed placeholder
    EXPECT_TRUE(mentions(CircuitVerifier().verify(c), "no wires"));
}

TEST(CircuitVerifier, RespectsIssueCap)
{
    Circuit c(2);
    for (int i = 0; i < 10; ++i)
        c.append(Gate::h(0));
    for (size_t i = 0; i < c.size(); ++i)
        c[i].qubits[0] = 42;
    CircuitVerifier capped({.maxIssues = 3});
    EXPECT_EQ(capped.verify(c).issues.size(), 3u);
}

TEST(CircuitVerifier, PinsEveryIssueMessage)
{
    // Every per-gate message, byte for byte: the gate's rendering is
    // built only when an issue is recorded, and must read exactly as
    // an eagerly rendered one.
    Circuit c(3);
    c.append(Gate::barrier({0}));
    c[0].qubits.clear();                  // 0: wireless pseudo-op
    c.append(Gate::cx(0, 1));
    c[1].qubits.pop_back();               // 1: one-wire CX
    c.append(Gate::u3(0, 0.5, -1.25, 2));
    c[2].qubits[0] = 7;                   // 2: wire out of range
    c.append(Gate::cx(1, 2));
    c[3].qubits[1] = 1;                   // 3: duplicate wire
    c.append(Gate::u3(2, 0.1, 0.2, 0.3));
    c[4].params.pop_back();               // 4: two parameters
    c.append(Gate::u3(1, 0.1, 0.2, 0.3));
    c[5].params[1] = std::numeric_limits<double>::infinity();  // 5
    c.append(Gate::h(2));                 // 6: non-native
    c.append(Gate::measure(0));           // 7: pseudo-op
    c.append(Gate::measure(0));           // 8: measured twice
    c.append(Gate::cx(1, 2));             // 9: after a measurement
    const VerifyReport report =
        CircuitVerifier({.requireNative = true, .allowPseudoOps = false})
            .verify(c);
    EXPECT_EQ(report.toString(),
              "gate 0: barrier with no wires\n"
              "gate 0: barrier ; — pseudo-op not allowed here\n"
              "gate 0: barrier ; — barrier outside the native {u3, cx} set\n"
              "gate 1: cx q[0]; — arity 1 does not match cx's arity of 2\n"
              "gate 2: u3(0.5,-1.25,2) q[7]; — wire 7 outside circuit of "
              "3 qubits\n"
              "gate 3: cx q[1],q[1]; — duplicate wire 1\n"
              "gate 4: u3(0.1,0.2) q[2]; — 2 parameters; u3 takes 3\n"
              "gate 5: u3(0.1,inf,0.3) q[1]; — non-finite parameter\n"
              "gate 6: h q[2]; — h outside the native {u3, cx} set\n"
              "gate 7: measure q[0]; — pseudo-op not allowed here\n"
              "gate 8: measure q[0]; — pseudo-op not allowed here\n"
              "gate 8: measure q[0]; — wire 0 measured twice\n"
              "gate 9: cx q[1],q[2]; — gate after a measurement "
              "(measurements must be a trailing suffix)");

    // The cap stops recording (and rendering) mid-circuit.
    const VerifyReport capped =
        CircuitVerifier({.requireNative = true, .maxIssues = 2}).verify(c);
    EXPECT_EQ(capped.toString(),
              "gate 0: barrier with no wires\n"
              "gate 0: barrier ; — barrier outside the native {u3, cx} set");
    EXPECT_EQ(CircuitVerifier().verify(Circuit()).toString(),
              "circuit has no wires (default-constructed?)");
}

TEST(VerifyReport, RendersGateIndexAndMessage)
{
    Circuit c = nativeFixture();
    c[1].qubits[1] = 99;
    std::string text = CircuitVerifier().verify(c).toString();
    EXPECT_NE(text.find("gate 1"), std::string::npos);
    EXPECT_NE(text.find("99"), std::string::npos);
}

TEST(VerifyOrPanic, PanicsWithContext)
{
    Circuit c = nativeFixture();
    c[1].qubits[1] = 99;
    EXPECT_DEATH(verifyOrPanic(c, {}, "unit test"), "unit test");
}

// ---- Negative coverage: broken partitions. -------------------------

class BrokenPartition : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        original = lowerToNative(algos::heisenberg(6, 1))
                       .withoutPseudoOps();
        blocks = ScanPartitioner(3).partition(original);
        ASSERT_GT(blocks.size(), 1u);
        ASSERT_TRUE(
            PartitionVerifier(3).verify(original, blocks).ok());
    }

    Circuit original;
    std::vector<Block> blocks;
};

TEST_F(BrokenPartition, RejectsMissingGate)
{
    blocks[0].circuit.erase(0);
    VerifyReport report = PartitionVerifier(3).verify(original, blocks);
    ASSERT_FALSE(report.ok());
}

TEST_F(BrokenPartition, RejectsDuplicatedGate)
{
    blocks[0].circuit.append(blocks[0].circuit[0]);
    EXPECT_FALSE(PartitionVerifier(3).verify(original, blocks).ok());
}

TEST_F(BrokenPartition, RejectsModifiedGate)
{
    // Find a parameterized gate and nudge an angle.
    for (size_t b = 0; b < blocks.size(); ++b) {
        for (size_t i = 0; i < blocks[b].circuit.size(); ++i) {
            if (!blocks[b].circuit[i].params.empty()) {
                blocks[b].circuit[i].params[0] += 0.25;
                VerifyReport report =
                    PartitionVerifier(3).verify(original, blocks);
                ASSERT_FALSE(report.ok());
                EXPECT_TRUE(mentions(report, "wire"));
                return;
            }
        }
    }
    FAIL() << "fixture has no parameterized gate";
}

TEST_F(BrokenPartition, RejectsReorderedGatesOnAWire)
{
    // Swap two distinct gates inside one block; some wire must see
    // a different sequence.
    for (size_t b = 0; b < blocks.size(); ++b) {
        Circuit &c = blocks[b].circuit;
        for (size_t i = 0; i + 1 < c.size(); ++i) {
            if (c[i].type != c[i + 1].type ||
                c[i].qubits != c[i + 1].qubits) {
                std::swap(c[i], c[i + 1]);
                // The swap may still be a legal commutation only if
                // the gates share no wire; pick overlapping gates.
                bool share = false;
                for (int q : c[i].qubits)
                    share |= c[i + 1].actsOn(q);
                if (!share) {
                    std::swap(c[i], c[i + 1]);  // undo; keep looking
                    continue;
                }
                EXPECT_FALSE(
                    PartitionVerifier(3).verify(original, blocks).ok());
                return;
            }
        }
    }
    FAIL() << "fixture has no overlapping adjacent gate pair";
}

TEST_F(BrokenPartition, RejectsUnsortedWireMapping)
{
    ASSERT_GE(blocks[0].qubits.size(), 2u);
    std::swap(blocks[0].qubits[0], blocks[0].qubits[1]);
    VerifyReport report = PartitionVerifier(3).verify(original, blocks);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(mentions(report, "ascending"));
}

TEST_F(BrokenPartition, RejectsOutOfRangeMapping)
{
    blocks[0].qubits[0] = original.numQubits() + 5;
    EXPECT_FALSE(PartitionVerifier(3).verify(original, blocks).ok());
}

TEST_F(BrokenPartition, RejectsWidthMismatch)
{
    blocks[0].qubits.push_back(original.numQubits() - 1);
    VerifyReport report = PartitionVerifier(3).verify(original, blocks);
    ASSERT_FALSE(report.ok());
}

TEST_F(BrokenPartition, RejectsOverWideBlock)
{
    // The width-4 partition is fine per se but violates a width-3
    // contract.
    auto wide = ScanPartitioner(4).partition(original);
    bool has_wide = false;
    for (const Block &b : wide)
        has_wide |= b.width() > 3;
    ASSERT_TRUE(has_wide);
    VerifyReport report = PartitionVerifier(3).verify(original, wide);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(mentions(report, "exceeds"));
}

TEST_F(BrokenPartition, RejectsMeasuredInput)
{
    Circuit measured = original;
    measured.append(Gate::measure(0));
    EXPECT_TRUE(mentions(
        PartitionVerifier(3).verify(measured, blocks),
        "measurements"));
}

TEST_F(BrokenPartition, RejectsCorruptBlockCircuit)
{
    blocks[0].circuit[0].qubits[0] = 77;
    VerifyReport report = PartitionVerifier(3).verify(original, blocks);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(mentions(report, "block 0"));
}

TEST(PartitionVerifierDeath, PanicsWithContext)
{
    Circuit c(2);
    c.append(Gate::cx(0, 1));
    std::vector<Block> blocks;  // empty: nothing covers the CX
    EXPECT_DEATH(verifyOrPanic(c, blocks, 2, "partition unit test"),
                 "partition unit test");
}

} // namespace
} // namespace quest
