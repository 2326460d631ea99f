/**
 * @file
 * melody-lint rule-engine tests: each rule family has a fixture
 * proving it fires (exact rule id + line) and a clean fixture
 * proving it stays quiet, plus suppression, scoping and lexer
 * robustness coverage. Fixtures live in tests/lint_fixtures/ and
 * are linted under *virtual* paths so the path-scoping logic is
 * exercised without depending on where the checkout lives.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hh"

namespace {

namespace fs = std::filesystem;
using melodylint::Diagnostic;
using melodylint::lintSource;
using melodylint::lintTree;
using melodylint::SuppressionNote;

std::string
fixture(const std::string &name)
{
    const std::string path =
        std::string(LINT_FIXTURE_DIR) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "missing fixture " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** (rule, line) pairs for compact assertions. */
std::vector<std::pair<std::string, int>>
ruleLines(const std::vector<Diagnostic> &diags)
{
    std::vector<std::pair<std::string, int>> out;
    out.reserve(diags.size());
    for (const auto &d : diags)
        out.emplace_back(d.rule, d.line);
    return out;
}

using Expected = std::vector<std::pair<std::string, int>>;

// ---------------------------------------------------------------
// Family 1: determinism.
// ---------------------------------------------------------------

TEST(LintDeterminism, BannedCallFiresWithRuleAndLine)
{
    const auto diags = lintSource("src/cxl/fixture.cc",
                                  fixture("det_banned_call.cc"));
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"det-banned-call", 10},
                        {"det-banned-call", 16}}));
}

TEST(LintDeterminism, BannedCallAllowedInsideRng)
{
    // src/sim/rng.cc is the one blessed home for raw entropy.
    const auto diags = lintSource("src/sim/rng.cc",
                                  fixture("det_banned_call.cc"));
    EXPECT_TRUE(diags.empty());
}

TEST(LintDeterminism, UnorderedIterFiresInStatsPath)
{
    const auto diags = lintSource("src/stats/fixture.cc",
                                  fixture("det_unordered_iter.cc"));
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"det-unordered-iter", 15}}));
}

TEST(LintDeterminism, UnorderedIterFiresInSweepEnginePaths)
{
    // The sweep engine renders figure bytes, so it is an output
    // path even though it lives under src/sim/.
    const auto sweepDiags = lintSource(
        "src/sim/sweep.cc", fixture("det_unordered_iter.cc"));
    EXPECT_EQ(ruleLines(sweepDiags),
              (Expected{{"det-unordered-iter", 15}}));
    const auto cacheDiags = lintSource(
        "src/sim/run_cache.cc", fixture("det_unordered_iter.cc"));
    EXPECT_EQ(ruleLines(cacheDiags),
              (Expected{{"det-unordered-iter", 15}}));
}

TEST(LintDeterminism, UnorderedIterFiresInFigureDriverPaths)
{
    // Spa reports, the figure drivers and the CLI all print bytes
    // that end up in results/golden, so each is an output path.
    for (const char *path :
         {"src/spa/fixture.cc", "bench/fixture.cc",
          "tools/fixture.cc"}) {
        SCOPED_TRACE(path);
        const auto diags =
            lintSource(path, fixture("det_unordered_iter.cc"));
        EXPECT_EQ(ruleLines(diags),
                  (Expected{{"det-unordered-iter", 15}}));
    }
}

TEST(LintDeterminism, UnorderedIterQuietOutsideOutputPaths)
{
    // The same loop in the memory model is order-insensitive
    // simulation state, not figure output.
    const auto diags = lintSource("src/mem/fixture.cc",
                                  fixture("det_unordered_iter.cc"));
    EXPECT_TRUE(diags.empty());
}

TEST(LintDeterminism, StaticLocalFiresOnMutableOnly)
{
    const auto diags = lintSource("src/sim/fixture.cc",
                                  fixture("det_static_local.cc"));
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"det-static-local", 8}}));
}

TEST(LintDeterminism, UnorderedIterFiresInServePaths)
{
    // Serve responses are rendered bytes and must be reproducible,
    // so src/serve/ is an output path like the sweep engine.
    const auto diags = lintSource("src/serve/fixture.cc",
                                  fixture("det_unordered_iter.cc"));
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"det-unordered-iter", 15}}));
}

// ---------------------------------------------------------------
// Family: serve/supervisor EINTR hygiene.
// ---------------------------------------------------------------

TEST(LintServe, EintrRetryFiresOnRawSyscallsInServePaths)
{
    // Global-scope and unqualified raw calls fire; member calls,
    // sim::retry* wrappers and declarations stay quiet.
    const auto diags = lintSource("src/serve/fixture.cc",
                                  fixture("srv_eintr_retry.cc"));
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"srv-eintr-retry", 17},
                        {"srv-eintr-retry", 18},
                        {"srv-eintr-retry", 20},
                        {"srv-eintr-retry", 26}}));
}

TEST(LintServe, EintrRetryFiresInSupervisorPaths)
{
    const auto diags = lintSource("src/sim/supervisor.cc",
                                  fixture("srv_eintr_retry.cc"));
    EXPECT_EQ(diags.size(), 4u);
}

TEST(LintServe, EintrRetryFiresInWorkerPaths)
{
    // The fork-worker primitive owns the worker pipes and the reap
    // for both the supervisor and the daemon.
    const auto diags = lintSource("src/sim/worker.cc",
                                  fixture("srv_eintr_retry.cc"));
    EXPECT_EQ(diags.size(), 4u);
}

TEST(LintServe, EintrRetryFiresInIoFaultPaths)
{
    // The host-I/O fault injector (DESIGN.md §15) sits inside the
    // blessed-wrapper plumbing; its own file I/O follows the same
    // retry discipline as the daemon's.
    const auto diags = lintSource("src/sim/io_fault.cc",
                                  fixture("srv_eintr_retry.cc"));
    EXPECT_EQ(diags.size(), 4u);
}

TEST(LintServe, EintrRetryQuietInBlessedWrapperHome)
{
    // src/sim/retry_io.hh is where the raw calls live on purpose.
    const auto diags = lintSource("src/sim/retry_io.cc",
                                  fixture("srv_eintr_retry.cc"));
    EXPECT_TRUE(diags.empty());
}

TEST(LintServe, EintrRetryQuietOutsideDaemonPaths)
{
    // Single-shot CLI paths may take the simple raw-call route.
    // (src/dram/, not src/mem/: the fixture's member-call decoys
    // would trip the RAS plain-call rule there.)
    const auto diags = lintSource("src/dram/fixture.cc",
                                  fixture("srv_eintr_retry.cc"));
    EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------
// Family 2: RAS-status hygiene.
// ---------------------------------------------------------------

TEST(LintRas, IgnoredStatusFiresOnDropAndVoidCast)
{
    const auto diags = lintSource("src/mem/fixture.cc",
                                  fixture("ras_ignored_status.cc"));
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"ras-ignored-status", 19},
                        {"ras-ignored-status", 20}}));
}

TEST(LintRas, IgnoredStatusQuietOutsideRasLayers)
{
    const auto diags = lintSource("src/cpu/fixture.cc",
                                  fixture("ras_ignored_status.cc"));
    EXPECT_TRUE(diags.empty());
}

TEST(LintRas, PlainCallFiresOnPointerReceiver)
{
    const auto diags = lintSource("src/cxl/fixture.cc",
                                  fixture("ras_plain_call.cc"));
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"ras-plain-call", 19}}));
}

TEST(LintRas, PlainCallQuietInHeadersAndOtherLayers)
{
    // Headers define the status-less wrappers themselves (the
    // header-hygiene rules still inspect the virtual .hh path, so
    // only assert this rule's silence).
    for (const auto &d : lintSource("src/cxl/fixture.hh",
                                    fixture("ras_plain_call.cc")))
        EXPECT_NE(d.rule, "ras-plain-call");
    EXPECT_TRUE(lintSource("src/dram/fixture.cc",
                           fixture("ras_plain_call.cc"))
                    .empty());
}

// ---------------------------------------------------------------
// Flow family: ras-status-flow (structural front end).
// ---------------------------------------------------------------

TEST(LintRasFlow, BoundStatusNeverReadFires)
{
    const auto diags = lintSource("src/mem/fixture.cc",
                                  fixture("ras_status_flow.cc"));
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"ras-status-flow", 14},
                        {"ras-status-flow", 22}}));
}

TEST(LintRasFlow, OldCallSiteRuleMissesTheBoundDrop)
{
    // The acceptance case: binding the status satisfies the
    // call-site rule (ras-ignored-status); only dataflow sees it
    // was never read.
    const auto diags = lintSource("src/mem/fixture.cc",
                                  fixture("ras_status_flow.cc"));
    for (const auto &d : diags)
        EXPECT_NE(d.rule, "ras-ignored-status");
}

TEST(LintRasFlow, QuietOutsideRasLayers)
{
    const auto diags = lintSource("src/cpu/fixture.cc",
                                  fixture("ras_status_flow.cc"));
    EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------
// Flow family: fork-child-hygiene.
// ---------------------------------------------------------------

TEST(LintForkChild, ChildRegionAndCallClosureFire)
{
    const auto diags = lintSource("src/serve/fixture.cc",
                                  fixture("fork_child_hygiene.cc"));
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"fork-child-hygiene", 15},
                        {"fork-child-hygiene", 17},
                        {"fork-child-hygiene", 26},
                        {"fork-child-hygiene", 28},
                        {"fork-child-hygiene", 52},
                        {"fork-child-hygiene", 62},
                        {"fork-child-hygiene", 69},
                        {"fork-child-hygiene", 78}}));
}

TEST(LintForkChild, FiresInSupervisorScope)
{
    const auto diags = lintSource("src/sim/supervisor.cc",
                                  fixture("fork_child_hygiene.cc"));
    EXPECT_EQ(diags.size(), 8u);
}

TEST(LintForkChild, FiresInWorkerScope)
{
    // The fork-worker primitive's own child block (it forks through
    // sim::retryFork), and the child bodies (lambda or same-TU
    // function) handed to spawn().
    const auto diags = lintSource("src/sim/worker.cc",
                                  fixture("fork_child_hygiene.cc"));
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"fork-child-hygiene", 15},
                        {"fork-child-hygiene", 17},
                        {"fork-child-hygiene", 26},
                        {"fork-child-hygiene", 28},
                        {"fork-child-hygiene", 52},
                        {"fork-child-hygiene", 62},
                        {"fork-child-hygiene", 69},
                        {"fork-child-hygiene", 78}}));
}

TEST(LintForkChild, QuietOutsideForkSites)
{
    // Only the fork sites are in scope: the fork-worker primitive
    // (sim/worker) and the two TUs that spawn through it (serve
    // daemon, sweep supervisor).
    const auto diags = lintSource("src/cpu/fixture.cc",
                                  fixture("fork_child_hygiene.cc"));
    EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------
// Flow family: sig-async-safety.
// ---------------------------------------------------------------

TEST(LintSigSafety, HandlerClosureChecked)
{
    // snprintf in the handler and logLine in the closure fire;
    // ::write, the same-TU helper call, the SIG_IGN registration
    // and the non-handler function stay quiet.
    const auto diags = lintSource("src/sim/fixture.cc",
                                  fixture("sig_async_safety.cc"));
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"sig-async-safety", 14},
                        {"sig-async-safety", 23}}));
}

TEST(LintSigSafety, AppliesAcrossAllOfSrc)
{
    // Handlers can be registered anywhere under src/.
    const auto diags = lintSource("src/mem/fixture.cc",
                                  fixture("sig_async_safety.cc"));
    EXPECT_EQ(diags.size(), 2u);
}

// ---------------------------------------------------------------
// Architecture family: layering and include cycles.
// ---------------------------------------------------------------

TEST(LintArch, LayeringFiresOnUpwardIncludes)
{
    const auto diags = lintSource("src/sim/fixture.cc",
                                  fixture("arch_layering.cc"));
    EXPECT_EQ(ruleLines(diags), (Expected{{"arch-layering", 10},
                                          {"arch-layering", 11}}));
}

TEST(LintArch, LayeringQuietOnDownwardIncludes)
{
    // From core (near the top) every include in the fixture points
    // downward.
    const auto diags = lintSource("src/core/fixture.cc",
                                  fixture("arch_layering.cc"));
    EXPECT_TRUE(diags.empty());
}

TEST(LintArch, IncludeCycleDetectedOnceInFixtureTree)
{
    const auto report = lintTree(
        {std::string(LINT_FIXTURE_DIR) + "/cycle_tree"});
    int cycles = 0;
    for (const auto &d : report.diags) {
        if (d.rule != "arch-include-cycle")
            continue;
        ++cycles;
        // The acyclic neighbor includes into the cycle but is not
        // part of it.
        EXPECT_EQ(d.message.find("cyc_ok.hh"), std::string::npos);
        EXPECT_NE(d.message.find("cyc_a.hh"), std::string::npos);
        EXPECT_NE(d.message.find("cyc_b.hh"), std::string::npos);
        EXPECT_NE(d.message.find("cyc_c.hh"), std::string::npos);
    }
    EXPECT_EQ(cycles, 1);
    EXPECT_EQ(report.filesScanned, 4);
}

// ---------------------------------------------------------------
// Driver: one serial pass over the tree.
// ---------------------------------------------------------------

TEST(LintTree, SuppressionsAggregateInPathOrder)
{
    // lintSource sorts a file's notes by line, so notes of a later
    // path with an earlier line must still follow the earlier path.
    const fs::path root =
        fs::path(::testing::TempDir()) / "melody-lint-order";
    fs::remove_all(root);
    fs::create_directories(root);
    const std::string allow =
        "#pragma once  // lint:allow(hdr-pragma-once: fixture)\n";
    std::ofstream(root / "a.hh") << "// a\n// a\n" << allow;
    std::ofstream(root / "b.hh") << allow;

    const auto report = lintTree({root.string()});
    EXPECT_TRUE(report.diags.empty());
    EXPECT_EQ(report.suppressed, 2);
    ASSERT_EQ(report.suppressions.size(), 2u);
    EXPECT_EQ(fs::path(report.suppressions[0].path).filename(),
              "a.hh");
    EXPECT_EQ(report.suppressions[0].line, 3);
    EXPECT_EQ(fs::path(report.suppressions[1].path).filename(),
              "b.hh");
    EXPECT_EQ(report.suppressions[1].line, 1);
    fs::remove_all(root);
}

// ---------------------------------------------------------------
// Error discipline family.
// ---------------------------------------------------------------

TEST(LintError, FatalOnUserInputPathFires)
{
    const auto diags =
        lintSource("src/ras/fault_plan_util.cc",
                   fixture("err_fatal_user_input.cc"));
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"err-fatal-user-input", 11}}));
}

TEST(LintError, FatalFineOnInternalPaths)
{
    // SIM_FATAL stays legal for internal invariants elsewhere.
    const auto diags = lintSource(
        "src/cpu/core.cc", fixture("err_fatal_user_input.cc"));
    EXPECT_TRUE(diags.empty());
}

TEST(LintError, StrayStreamFiresInLibraryCode)
{
    const auto diags = lintSource("src/spa/fixture.cc",
                                  fixture("err_stray_stream.cc"));
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"err-stray-stream", 11},
                        {"err-stray-stream", 12}}));
}

TEST(LintError, StrayStreamFineInToolsAndLogging)
{
    EXPECT_TRUE(lintSource("tools/melody_cli.cc",
                           fixture("err_stray_stream.cc"))
                    .empty());
    EXPECT_TRUE(lintSource("src/sim/logging.cc",
                           fixture("err_stray_stream.cc"))
                    .empty());
}

// ---------------------------------------------------------------
// Family 4: header hygiene.
// ---------------------------------------------------------------

TEST(LintHeader, GuardMismatchFires)
{
    const auto diags = lintSource("src/sim/fixture.hh",
                                  fixture("hdr_bad_guard.hh"));
    EXPECT_EQ(ruleLines(diags), (Expected{{"hdr-guard", 3}}));
}

TEST(LintHeader, PragmaOnceFires)
{
    const auto diags = lintSource("src/sim/fixture.hh",
                                  fixture("hdr_pragma_once.hh"));
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"hdr-pragma-once", 3}}));
}

TEST(LintHeader, MissingIncludeFires)
{
    const auto diags = lintSource("src/sim/fixture.hh",
                                  fixture("hdr_missing_include.hh"));
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"hdr-missing-include", 13}}));
}

TEST(LintHeader, GuardRulesSkipNonHeaders)
{
    const auto diags = lintSource("src/sim/fixture.cc",
                                  fixture("hdr_pragma_once.hh"));
    EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------
// Clean fixtures: every family stays quiet on well-behaved code.
// ---------------------------------------------------------------

TEST(LintClean, CleanSourceIsQuietInEveryScope)
{
    const std::string content = fixture("clean.cc");
    for (const char *path :
         {"src/stats/clean.cc", "src/mem/clean.cc",
          "src/cxl/clean.cc", "src/sim/clean.cc",
          "tools/clean.cc"})
        EXPECT_TRUE(lintSource(path, content).empty())
            << "unexpected finding under " << path;
}

TEST(LintClean, CleanHeaderIsQuiet)
{
    EXPECT_TRUE(
        lintSource("src/sim/clean.hh", fixture("clean.hh"))
            .empty());
}

// ---------------------------------------------------------------
// Suppression syntax.
// ---------------------------------------------------------------

TEST(LintSuppression, AllowCoversSameLineAndLineAbove)
{
    int suppressed = 0;
    const auto diags = lintSource(
        "src/cxl/fixture.cc", fixture("suppressed.cc"),
        &suppressed);
    // Only the wrong-rule allow leaves its violation live.
    EXPECT_EQ(ruleLines(diags),
              (Expected{{"det-banned-call", 24}}));
    EXPECT_EQ(suppressed, 2);
}

TEST(LintSuppression, ReasonSyntaxIsRecordedPerRule)
{
    int suppressed = 0;
    std::vector<SuppressionNote> notes;
    const auto diags =
        lintSource("src/serve/fixture.cc",
                   fixture("flow_suppressed.cc"), &suppressed,
                   &notes);
    EXPECT_TRUE(diags.empty());
    EXPECT_EQ(suppressed, 3);
    ASSERT_EQ(notes.size(), 3u);
    for (const auto &n : notes) {
        EXPECT_EQ(n.path, "src/serve/fixture.cc");
        EXPECT_FALSE(n.reason.empty())
            << n.rule << " note lost its reason";
    }
    EXPECT_EQ(notes[0].rule, "fork-child-hygiene");
    EXPECT_EQ(notes[0].reason,
              "helper runs pre-thread, stdio is safe here");
}

TEST(LintSuppression, ReasonlessAllowStillWorks)
{
    // The pre-reason syntax stays valid: reason is optional.
    int suppressed = 0;
    std::vector<SuppressionNote> notes;
    lintSource("src/cxl/fixture.cc", fixture("suppressed.cc"),
               &suppressed, &notes);
    EXPECT_EQ(suppressed, 2);
    ASSERT_EQ(notes.size(), 2u);
    EXPECT_TRUE(notes[0].reason.empty());
}

// ---------------------------------------------------------------
// Lexer robustness: tokens inside comments and strings are inert.
// ---------------------------------------------------------------

TEST(LintLexer, CommentsAndStringsNeverMatch)
{
    const std::string content =
        "// rand() in a comment\n"
        "/* std::mt19937 in a block\n   comment */\n"
        "const char *s = \"rand() time() SIM_FATAL\";\n"
        "const char *r = R\"(rand() mt19937)\";\n";
    EXPECT_TRUE(lintSource("src/cxl/strings.cc", content).empty());
}

TEST(LintLexer, LineNumbersSurviveMultilineConstructs)
{
    const std::string content =
        "/* one\n   two\n   three */\n"
        "int f() { return rand(); }\n";  // line 4
    const auto diags = lintSource("src/cxl/lines.cc", content);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "det-banned-call");
    EXPECT_EQ(diags[0].line, 4);
}

// ---------------------------------------------------------------
// JSON report shape.
// ---------------------------------------------------------------

TEST(LintReport, JsonHasStableKeysAndCounts)
{
    melodylint::Report report;
    report.filesScanned = 2;
    report.suppressed = 1;
    report.elapsedMs = 12.5;
    report.diags.push_back({"src/a.cc", 7, "det-banned-call",
                            melodylint::Severity::kError,
                            "msg with \"quotes\""});
    report.suppressions.push_back({"src/b.cc", 9, "ras-status-flow",
                                   "probe result unused on purpose"});
    std::ostringstream os;
    melodylint::writeJsonReport(report, os);
    const std::string j = os.str();
    EXPECT_NE(j.find("\"filesScanned\": 2"), std::string::npos);
    EXPECT_NE(j.find("\"errors\": 1"), std::string::npos);
    EXPECT_NE(j.find("\"warnings\": 0"), std::string::npos);
    EXPECT_NE(j.find("\"suppressed\": 1"), std::string::npos);
    EXPECT_NE(j.find("\"elapsedMs\": 12.5"), std::string::npos);
    EXPECT_NE(j.find("\"rule\": \"det-banned-call\""),
              std::string::npos);
    EXPECT_NE(j.find("\\\"quotes\\\""), std::string::npos);
    // Suppression reasons are first-class report content.
    EXPECT_NE(j.find("\"suppressions\": ["), std::string::npos);
    EXPECT_NE(j.find("\"reason\": \"probe result unused on "
                     "purpose\""),
              std::string::npos);
}

}  // namespace
