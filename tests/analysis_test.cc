/**
 * @file
 * Tests for the quest_analyze static-analysis library: the lexer, the
 * rule families over the seeded violation fixtures in
 * tests/analysis_fixtures/ (a miniature repo mirroring the real
 * layout, so the path policy applies verbatim), the registry
 * cross-checks against alternate REGISTRY_*.md variants, the
 * suppression round-trip, and the golden text/JSON report formats.
 *
 * Fixture files pin their violation line numbers; analysis_test and
 * the fixtures must change together.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hh"
#include "analysis/lexer.hh"
#include "analysis/registry.hh"
#include "analysis/report.hh"
#include "analysis/rules.hh"

namespace quest::analysis {
namespace {

std::string
fixtures()
{
    return QUEST_ANALYSIS_FIXTURES_DIR;
}

AnalyzerConfig
fixtureConfig()
{
    AnalyzerConfig config;
    config.root = fixtures();
    return config;
}

/** The (rule, file, line) triples of a report, sorted. */
std::vector<std::string>
keysOf(const Report &report)
{
    std::vector<std::string> keys;
    keys.reserve(report.findings.size());
    for (const Finding &f : report.findings)
        keys.push_back(f.rule + " " + f.file + ":" +
                       std::to_string(f.line));
    return keys;
}

bool
hasFinding(const Report &report, const std::string &rule,
           const std::string &file, int line)
{
    return std::any_of(report.findings.begin(), report.findings.end(),
                       [&](const Finding &f) {
                           return f.rule == rule && f.file == file &&
                                  f.line == line;
                       });
}

// ---- lexer --------------------------------------------------------

TEST(Lexer, ClassifiesBasicTokens)
{
    const auto tokens = lex("int x = 42; // done");
    ASSERT_EQ(tokens.size(), 6u);
    EXPECT_EQ(tokens[0].kind, TokenKind::Identifier);
    EXPECT_EQ(tokens[0].text, "int");
    EXPECT_EQ(tokens[3].kind, TokenKind::Number);
    EXPECT_EQ(tokens[3].text, "42");
    EXPECT_EQ(tokens[5].kind, TokenKind::Comment);
}

TEST(Lexer, TracksLineNumbers)
{
    const auto tokens = lex("a\nb\n\ncd");
    ASSERT_EQ(tokens.size(), 3u);
    EXPECT_EQ(tokens[0].line, 1);
    EXPECT_EQ(tokens[1].line, 2);
    EXPECT_EQ(tokens[2].line, 4);
}

TEST(Lexer, StringContentIsOneToken)
{
    const auto tokens = lex("f(\"rand() inside\")");
    ASSERT_EQ(tokens.size(), 4u);
    EXPECT_EQ(tokens[2].kind, TokenKind::String);
    EXPECT_EQ(tokens[2].text, "rand() inside");
}

TEST(Lexer, RawStringSwallowsDelimiters)
{
    const auto tokens = lex("auto s = R\"x(a \" b)x\"; int z;");
    auto it = std::find_if(tokens.begin(), tokens.end(),
                           [](const Token &t) {
                               return t.kind == TokenKind::String;
                           });
    ASSERT_NE(it, tokens.end());
    EXPECT_EQ(it->text, "a \" b");
    EXPECT_EQ(tokens.back().text, ";");
}

TEST(Lexer, BlockCommentSpansLines)
{
    const auto tokens = lex("a /* two\nlines */ b");
    ASSERT_EQ(tokens.size(), 3u);
    EXPECT_EQ(tokens[1].kind, TokenKind::Comment);
    EXPECT_EQ(tokens[2].line, 2);
}

// ---- full fixture-tree scan ---------------------------------------

TEST(Analyzer, FixtureTreeFindingsAreExactlyTheSeededOnes)
{
    const Report report = analyze(fixtureConfig());

    const std::vector<std::string> expected = {
        "analyze.unused-suppression src/unused_ok.cc:6",
        "cancellation.unpolled-loop src/synth/unpolled.cc:7",
        "cancellation.unpolled-loop src/synth/unpolled.cc:26",
        "determinism.clock src/determinism_bad.cc:4",
        "determinism.clock src/determinism_bad.cc:9",
        "determinism.env src/determinism_bad.cc:10",
        "determinism.fs-order src/determinism_bad.cc:31",
        "determinism.rand src/determinism_bad.cc:11",
        "determinism.unordered src/determinism_bad.cc:20",
        "errors.runtime-error src/errors_bad.cc:7",
        "errors.swallowed-exception src/errors_bad.cc:15",
        "registry.literal-name src/registry_bad.cc:8",
        "registry.literal-name src/registry_bad.cc:10",
        "registry.literal-name src/registry_bad.cc:17",
        "registry.undocumented-fault-site src/registry_bad.cc:17",
        "registry.undocumented-metric src/registry_bad.cc:10",
        "registry.unknown-constant src/registry_bad.cc:11",
    };
    std::vector<std::string> actual = keysOf(report);
    std::sort(actual.begin(), actual.end());
    std::vector<std::string> want = expected;
    std::sort(want.begin(), want.end());
    EXPECT_EQ(actual, want);
    EXPECT_FALSE(report.clean());
}

TEST(Analyzer, EveryEmittedRuleIsInTheCatalogue)
{
    const Report report = analyze(fixtureConfig());
    for (const Finding &f : report.findings) {
        const bool known =
            std::any_of(allRules().begin(), allRules().end(),
                        [&](const RuleInfo &r) { return r.id == f.rule; });
        EXPECT_TRUE(known) << "finding with unlisted rule " << f.rule;
    }
}

// ---- clean paths --------------------------------------------------

TEST(Analyzer, CleanFileScansClean)
{
    AnalyzerConfig config = fixtureConfig();
    config.paths = {"src/clean.cc"};
    const Report report = analyze(config);
    EXPECT_TRUE(report.clean()) << keysOf(report).front();
    EXPECT_EQ(report.filesScanned, 1);
    EXPECT_EQ(report.code.metrics.count("fix.good"), 1u);
    EXPECT_EQ(report.code.faultSites.count("fix.fault"), 1u);
}

TEST(Analyzer, EphemeralPrefixExemptsTestLocalNames)
{
    AnalyzerConfig config = fixtureConfig();
    config.paths = {"tests/obs_fix_test.cc"};
    const Report report = analyze(config);
    EXPECT_TRUE(report.clean());
    // The name itself is not part of the documentable manifest; the
    // prefix that carried it is.
    EXPECT_EQ(report.code.metrics.count("tmp.x"), 0u);
    EXPECT_EQ(report.code.prefixes.count("tmp."), 1u);
}

// ---- suppressions -------------------------------------------------

TEST(Analyzer, SuppressionSilencesAndCountsAsUsed)
{
    AnalyzerConfig config = fixtureConfig();
    config.paths = {"src/suppressed_ok.cc"};
    const Report report = analyze(config);
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.suppressionsUsed, 1);
}

TEST(Analyzer, UnusedSuppressionIsItselfAFinding)
{
    AnalyzerConfig config = fixtureConfig();
    config.paths = {"src/unused_ok.cc"};
    const Report report = analyze(config);
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_TRUE(hasFinding(report, "analyze.unused-suppression",
                           "src/unused_ok.cc", 6));
    EXPECT_EQ(report.suppressionsUsed, 0);
}

// ---- registry cross-checks ----------------------------------------

TEST(Analyzer, KindMismatchAgainstAlternateRegistry)
{
    AnalyzerConfig config = fixtureConfig();
    config.registryPath = "docs/REGISTRY_kind.md";
    config.paths = {"src/clean.cc"};
    const Report report = analyze(config);
    EXPECT_TRUE(hasFinding(report, "registry.kind-mismatch",
                           "src/clean.cc", 9));
}

TEST(Analyzer, ExitCodeDivergenceBothDirections)
{
    AnalyzerConfig config = fixtureConfig();
    config.registryPath = "docs/REGISTRY_exit.md";
    config.paths = {"src/clean.cc"};
    const Report report = analyze(config);
    int exitFindings = 0;
    for (const Finding &f : report.findings)
        exitFindings += f.rule == "registry.exit-code";
    // io: documented 12, code says 11. timeout: documented, absent.
    EXPECT_EQ(exitFindings, 2);
}

TEST(Analyzer, StaleRowsOnFullScan)
{
    AnalyzerConfig config = fixtureConfig();
    config.registryPath = "docs/REGISTRY_stale.md";
    const Report report = analyze(config);
    int stale = 0;
    for (const Finding &f : report.findings)
        stale += f.rule == "registry.stale";
    // metric fix.stale, fault site fix.gone, prefix dead.
    EXPECT_EQ(stale, 3);
}

TEST(Analyzer, NarrowedScanDisablesStaleChecks)
{
    AnalyzerConfig config = fixtureConfig();
    config.registryPath = "docs/REGISTRY_stale.md";
    config.paths = {"src/clean.cc"};
    const Report report = analyze(config);
    for (const Finding &f : report.findings)
        EXPECT_NE(f.rule, "registry.stale");
}

// ---- report formats -----------------------------------------------

TEST(Report, GoldenText)
{
    AnalyzerConfig config = fixtureConfig();
    config.paths = {"src/errors_bad.cc"};
    const Report report = analyze(config);

    std::ostringstream out;
    writeText(out, report);
    EXPECT_EQ(
        out.str(),
        "src/errors_bad.cc:7: error: [errors.runtime-error] throw a "
        "typed QuestError (or a decoder error) instead of "
        "std::runtime_error outside src/util\n"
        "src/errors_bad.cc:15: error: [errors.swallowed-exception] "
        "catch (...) neither rethrows nor forwards the exception "
        "(annotate QUEST_INTENTIONAL_SWALLOW if dropping it is the "
        "contract)\n"
        "quest_analyze: 2 finding(s) in 1 files\n");
}

TEST(Report, GoldenJson)
{
    AnalyzerConfig config = fixtureConfig();
    config.paths = {"src/errors_bad.cc"};
    const Report report = analyze(config);

    std::ostringstream out;
    writeJson(out, report);
    EXPECT_EQ(
        out.str(),
        "{\"schema\":\"quest-analyze-v1\",\"files_scanned\":1,"
        "\"suppressions_used\":0,\"clean\":false,\"findings\":["
        "{\"rule\":\"errors.runtime-error\",\"severity\":\"error\","
        "\"file\":\"src/errors_bad.cc\",\"line\":7,\"message\":"
        "\"throw a typed QuestError (or a decoder error) instead of "
        "std::runtime_error outside src/util\"},"
        "{\"rule\":\"errors.swallowed-exception\",\"severity\":"
        "\"error\",\"file\":\"src/errors_bad.cc\",\"line\":15,"
        "\"message\":\"catch (...) neither rethrows nor forwards the "
        "exception (annotate QUEST_INTENTIONAL_SWALLOW if dropping it "
        "is the contract)\"}],\"registry\":{\"metrics\":[],"
        "\"fault_sites\":[],\"exit_codes\":["
        "{\"category\":\"internal\",\"code\":70},"
        "{\"category\":\"io\",\"code\":11}],\"prefixes\":[]}}\n");
}

TEST(Report, GoldenDocsManifest)
{
    const Report report = analyze(fixtureConfig());
    EXPECT_EQ(renderManifest(report.doc),
              "exit-code internal 70\n"
              "exit-code io 11\n"
              "fault-site fix.fault\n"
              "metric counter fix.good\n"
              "prefix tmp.\n");
}

TEST(Report, ManifestsAgreeOnViolationFreeScan)
{
    // On the real tree CI diffs code vs docs manifests; mirror that
    // here over the fixture files that carry no registry violations.
    AnalyzerConfig config = fixtureConfig();
    config.paths = {"src/clean.cc", "tests/obs_fix_test.cc"};
    const Report report = analyze(config);
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(renderManifest(report.code), renderManifest(report.doc));
}

} // namespace
} // namespace quest::analysis
