/**
 * @file
 * Supervised (crash-isolated) sweep execution tests: byte-identical
 * output vs the in-process engine for any job count, structured
 * failure causes for every crash class (SIGSEGV, SIGABRT, thrown
 * exception, premature exit, watchdog hang), retry accounting,
 * reruns that resume from the run cache, runtime invariant
 * plumbing, and the cache stats/clear maintenance entry points.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/figures.hh"
#include "sim/interrupt.hh"
#include "sim/invariants.hh"
#include "sim/logging.hh"
#include "sim/run_cache.hh"
#include "sim/supervisor.hh"
#include "sim/sweep.hh"

using namespace cxlsim;

namespace {

std::string
freshDir(const char *leaf)
{
    namespace fs = std::filesystem;
    const fs::path d = fs::path(testing::TempDir()) / leaf;
    fs::remove_all(d);
    return d.string();
}

sweep::Options
isolated()
{
    sweep::Options o;
    o.cache = false;
    o.isolate = true;
    o.checkInvariants = false;
    return o;
}

/** What the victim point should do when it runs. */
enum class Victim { kOk, kSegv, kAbort, kThrow, kExit, kHang };

/**
 * Synthetic sweep with two healthy points on either side of one
 * configurable victim, plus a gather over the victim's slot. If
 * @p trapSurvivors, the healthy points throw — used by the resume
 * tests to prove cached points are never re-executed. A throw (not
 * a crash) fails an in-process rerun without killing the test.
 */
void
buildVictimSweep(sweep::Sweep &s, Victim mode,
                 bool trapSurvivors = false,
                 const std::string &marker = "")
{
    s.scope("victim-sweep");
    s.text("header\n");
    for (int k = 0; k < 2; ++k)
        s.point("pre k=" + std::to_string(k),
                [k, trapSurvivors](sweep::Emit &e) {
                    if (trapSurvivors)
                        throw std::runtime_error(
                            "survivor re-executed");
                    e.printf("pre %d = %d\n", k, k * k);
                });
    const std::size_t victim =
        s.point("victim", 1, [mode, marker](sweep::Emit *slots) {
            switch (mode) {
              case Victim::kSegv: {
#if defined(__SANITIZE_ADDRESS__)
                  // The ASan+UBSan build turns a null store into
                  // exit 1; deliver the SIGSEGV directly there.
                  std::signal(SIGSEGV, SIG_DFL);
                  std::raise(SIGSEGV);
#endif
                  volatile int *p = nullptr;
                  *p = 42;
                  break;
              }
              case Victim::kAbort:
                std::abort();
              case Victim::kThrow:
                throw std::runtime_error("victim boom");
              case Victim::kExit:
                std::_Exit(7);
              case Victim::kHang:
                for (;;)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
              case Victim::kOk:
                break;
            }
            // Transient-failure mode: crash only until the marker
            // file exists (created below on the first attempt).
            if (!marker.empty() &&
                !std::filesystem::exists(marker)) {
                {
                    std::ofstream f(marker);
                    f << "attempted\n";
                }
                std::abort();
            }
            slots[0].text("victim ok\n");
        });
    s.place(victim);
    for (int k = 0; k < 2; ++k)
        s.point("post k=" + std::to_string(k),
                [k, trapSurvivors](sweep::Emit &e) {
                    if (trapSurvivors)
                        throw std::runtime_error(
                            "survivor re-executed");
                    e.printf("post %d = %d\n", k, k * k * k);
                });
    s.gather(s.slotsOf(victim),
             [](const std::vector<std::string> &in,
                sweep::Emit &out) {
                 out.printf("victim emitted %zu byte(s)\n",
                            in[0].size());
             });
}

std::string
renderVictim(const sweep::Options &opts, Victim mode,
             sweep::Sweep::Report *rep = nullptr,
             bool trapSurvivors = false,
             const std::string &marker = "")
{
    sweep::Sweep s("test-supervisor", opts);
    buildVictimSweep(s, mode, trapSurvivors, marker);
    return s.renderToString(rep);
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f),
                       std::istreambuf_iterator<char>());
}

}  // namespace

// ---------------------------------------------------------------
// Fault-free supervised runs: byte-identical to in-process mode.
// ---------------------------------------------------------------

TEST(Supervisor, FaultFreeOutputMatchesInProcessByteForByte)
{
    sweep::Options inproc;
    inproc.cache = false;
    inproc.checkInvariants = false;
    const std::string ref = renderVictim(inproc, Victim::kOk);
    ASSERT_FALSE(ref.empty());
    for (unsigned jobs : {1u, 8u}) {
        sweep::Options iso = isolated();
        iso.jobs = jobs;
        sweep::Sweep::Report rep;
        EXPECT_EQ(ref, renderVictim(iso, Victim::kOk, &rep))
            << "jobs=" << jobs;
        EXPECT_TRUE(rep.clean());
        EXPECT_EQ(rep.retries, 0u);
    }
}

/** ISSUE acceptance: real figures, isolated, N in {1, 8}. */
class FigureIsolateDeterminism
    : public testing::TestWithParam<const char *>
{
};

TEST_P(FigureIsolateDeterminism, MatchesInProcessBytes)
{
    const figs::Figure *fig = figs::find(GetParam());
    ASSERT_NE(fig, nullptr);

    auto render = [&](const sweep::Options &o) {
        sweep::Sweep s(fig->binary, o);
        s.scope(fig->binary);
        fig->build(s);
        sweep::Sweep::Report rep;
        const std::string out = s.renderToString(&rep);
        EXPECT_TRUE(rep.clean());
        return out;
    };

    sweep::Options inproc;
    inproc.cache = false;
    inproc.checkInvariants = false;
    const std::string ref = render(inproc);
    ASSERT_FALSE(ref.empty());
    for (unsigned jobs : {1u, 8u}) {
        sweep::Options iso = isolated();
        iso.jobs = jobs;
        EXPECT_EQ(ref, render(iso)) << "jobs=" << jobs;
    }
}

INSTANTIATE_TEST_SUITE_P(Figures, FigureIsolateDeterminism,
                         testing::Values("fig01", "fig16",
                                         "usecase"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

// ---------------------------------------------------------------
// Crash classification and graceful degradation.
// ---------------------------------------------------------------

namespace {

/** Run one victim mode to exhaustion and return the report. */
sweep::Sweep::Report
crashReport(Victim mode, std::string *out,
            unsigned maxAttempts = 2, unsigned timeoutMs = 0)
{
    sweep::Options o = isolated();
    o.jobs = 4;
    o.maxAttempts = maxAttempts;
    o.timeoutMs = timeoutMs;
    sweep::Sweep::Report rep;
    *out = renderVictim(o, mode, &rep);
    return rep;
}

}  // namespace

TEST(Supervisor, SegvDegradesGracefully)
{
    std::string out;
    const sweep::Sweep::Report rep =
        crashReport(Victim::kSegv, &out);

    EXPECT_FALSE(rep.clean());
    ASSERT_EQ(rep.failures.size(), 1u);
    EXPECT_EQ(rep.failures[0].key, "victim-sweep|victim");
    EXPECT_EQ(rep.failures[0].cause, "SIGSEGV");
    EXPECT_EQ(rep.failures[0].attempts, 2u);
    EXPECT_EQ(rep.retries, 1u);

    // Survivors render normally; the victim and its dependent
    // gather render deterministic placeholders.
    EXPECT_NE(out.find("pre 0 = 0\n"), std::string::npos);
    EXPECT_NE(out.find("post 1 = 1\n"), std::string::npos);
    EXPECT_NE(out.find("[melody] point failed: "
                       "victim-sweep|victim (SIGSEGV, "
                       "2 attempt(s))\n"),
              std::string::npos);
    EXPECT_NE(out.find("[melody] gather skipped: depends on "
                       "failed point: victim-sweep|victim\n"),
              std::string::npos);
    EXPECT_EQ(out.find("victim ok"), std::string::npos);
}

TEST(Supervisor, AbortReportsSigabrt)
{
    std::string out;
    const sweep::Sweep::Report rep =
        crashReport(Victim::kAbort, &out);
    ASSERT_EQ(rep.failures.size(), 1u);
    EXPECT_EQ(rep.failures[0].cause, "SIGABRT");
}

TEST(Supervisor, ThrownExceptionReportsWhat)
{
    std::string out;
    const sweep::Sweep::Report rep =
        crashReport(Victim::kThrow, &out);
    ASSERT_EQ(rep.failures.size(), 1u);
    EXPECT_EQ(rep.failures[0].cause, "exception: victim boom");
}

TEST(Supervisor, PrematureExitReportsExitCode)
{
    std::string out;
    const sweep::Sweep::Report rep =
        crashReport(Victim::kExit, &out);
    ASSERT_EQ(rep.failures.size(), 1u);
    EXPECT_EQ(rep.failures[0].cause, "exit-code 7");
}

TEST(Supervisor, HangTripsWatchdog)
{
    std::string out;
    const sweep::Sweep::Report rep = crashReport(
        Victim::kHang, &out, /*maxAttempts=*/1,
        /*timeoutMs=*/250);
    ASSERT_EQ(rep.failures.size(), 1u);
    EXPECT_EQ(rep.failures[0].cause, "watchdog-timeout");
    EXPECT_EQ(rep.failures[0].attempts, 1u);
    EXPECT_EQ(rep.retries, 0u);
}

TEST(Supervisor, RetryRecoversTransientFailure)
{
    namespace fs = std::filesystem;
    const fs::path marker =
        fs::path(testing::TempDir()) / "supervisor-transient";
    fs::remove(marker);

    sweep::Options o = isolated();
    o.jobs = 1;
    o.maxAttempts = 3;
    sweep::Sweep::Report rep;
    const std::string out = renderVictim(
        o, Victim::kOk, &rep, false, marker.string());

    // First attempt aborts after dropping the marker; the retry
    // sees it and succeeds, so the sweep finishes clean.
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.retries, 1u);
    EXPECT_NE(out.find("victim ok\n"), std::string::npos);
    EXPECT_NE(out.find("victim emitted 10 byte(s)\n"),
              std::string::npos);
    fs::remove(marker);
}

TEST(Supervisor, InterruptFailsQueuedPointsWithDistinctCause)
{
    // With the CLI's graceful-interrupt handlers installed, a
    // SIGINT mid-run must stop dispatch and fail every queued
    // point with the distinct cause "interrupted" (not a crash
    // cause, not a silent drop) while in-flight work is reaped.
    sim::installInterruptHandlers();

    sweep::Options o = isolated();
    o.jobs = 1;
    o.maxAttempts = 3;  // interruption must also defeat retries
    sweep::Sweep s("test-interrupt", o);
    s.scope("interrupt-sweep");
    // Every point behaves identically (signal the supervising
    // parent from the forked worker, then finish normally), so the
    // expectations hold for any launch order: whichever point runs
    // first interrupts the parent and completes; the other three
    // never start.
    for (int k = 0; k < 4; ++k)
        s.point("p" + std::to_string(k), [k](sweep::Emit &e) {
            ::kill(::getppid(), SIGINT);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(300));
            e.printf("point %d done\n", k);
        });
    sweep::Sweep::Report rep;
    const std::string out = s.renderToString(&rep);

    EXPECT_TRUE(sim::interruptRequested());
    sim::resetInterruptHandlers();
    EXPECT_FALSE(sim::interruptRequested());

    // Exactly one point got to run; the three queued ones carry
    // the "interrupted" cause with no retry attempts burned.
    std::size_t doneLines = 0;
    for (std::size_t at = out.find(" done\n");
         at != std::string::npos;
         at = out.find(" done\n", at + 1))
        ++doneLines;
    EXPECT_EQ(doneLines, 1u);
    ASSERT_EQ(rep.failures.size(), 3u);
    for (const auto &f : rep.failures) {
        EXPECT_EQ(f.cause, "interrupted");
        EXPECT_EQ(f.attempts, 1u);
    }
}

TEST(Supervisor, SecondInterruptKillsInFlightWorkers)
{
    // The first signal lets in-flight work finish; a second one
    // must SIGKILL it (a hung point would otherwise pin the
    // wind-down forever) and report the same distinct
    // "interrupted" cause as the queued points it joined.
    sim::installInterruptHandlers();

    sweep::Options o = isolated();
    o.jobs = 1;
    o.maxAttempts = 3;
    sweep::Sweep s("test-interrupt-2", o);
    s.scope("interrupt-escalation");
    // Both points would run ~forever; the test only passes if the
    // escalation cuts them down.
    for (int k = 0; k < 2; ++k)
        s.point("hang" + std::to_string(k), [k](sweep::Emit &e) {
            std::this_thread::sleep_for(std::chrono::seconds(120));
            e.printf("hang %d finished\n", k);
        });

    // Deliver the two-signal sequence from a helper thread while
    // renderToString blocks in the supervisor loop.
    std::thread interrupter([] {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        ::kill(::getpid(), SIGINT);
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        ::kill(::getpid(), SIGINT);
    });
    const auto t0 = std::chrono::steady_clock::now();
    sweep::Sweep::Report rep;
    const std::string out = s.renderToString(&rep);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    interrupter.join();

    EXPECT_GE(sim::interruptCount(), 2);
    sim::resetInterruptHandlers();
    EXPECT_EQ(sim::interruptCount(), 0);

    // Nothing finished, both points failed as interrupted (the
    // in-flight one on its first attempt — no retry after a cut),
    // and the run wound down promptly instead of sleeping 120s.
    EXPECT_EQ(out.find(" finished\n"), std::string::npos);
    ASSERT_EQ(rep.failures.size(), 2u);
    for (const auto &f : rep.failures) {
        EXPECT_EQ(f.cause, "interrupted");
        EXPECT_EQ(f.attempts, 1u);
    }
    EXPECT_LT(elapsed, std::chrono::seconds(30));
}

// ---------------------------------------------------------------
// Resuming = rerunning against the run cache. Isolated runs store
// each point the moment its worker reports back, so a rerun of a
// crashed or interrupted run recomputes only what never finished.
// ---------------------------------------------------------------

namespace {

/** Isolated options with the run cache on, in @p dir. */
sweep::Options
isolatedCached(const std::string &dir)
{
    sweep::Options o = isolated();
    o.jobs = 4;
    o.cache = true;
    o.cacheDir = dir;
    return o;
}

}  // namespace

TEST(Supervisor, CrashedIsolatedRunResumesFromRunCache)
{
    const std::string dir = freshDir("resume-isolated");

    // Run 1: the victim segfaults; the four survivors are stored.
    sweep::Sweep::Report rep1;
    renderVictim(isolatedCached(dir), Victim::kSegv, &rep1);
    ASSERT_EQ(rep1.failures.size(), 1u);
    EXPECT_EQ(rep1.cacheStores, 4u);

    // Run 2: the same command, with every survivor booby-trapped
    // to throw if re-executed. A clean report proves the cache
    // (not recomputation) supplied their bytes.
    sweep::Sweep::Report rep2;
    const std::string out =
        renderVictim(isolatedCached(dir), Victim::kOk, &rep2,
                     /*trapSurvivors=*/true);
    EXPECT_TRUE(rep2.clean());
    EXPECT_EQ(rep2.cacheHits, 4u);
    EXPECT_EQ(rep2.cacheStores, 1u);

    // The resumed output is byte-identical to a fully clean run.
    EXPECT_EQ(out, renderVictim(isolated(), Victim::kOk));
}

TEST(Supervisor, InProcessRerunResumesFromIsolatedRunCache)
{
    const std::string dir = freshDir("resume-inproc");
    sweep::Sweep::Report rep1;
    renderVictim(isolatedCached(dir), Victim::kSegv, &rep1);
    ASSERT_EQ(rep1.failures.size(), 1u);

    // The rerun needs no --isolate: the in-process engine reads
    // the same cache. The trap throws rather than segfaults, so a
    // survivor recomputed here fails the test instead of killing
    // the test binary.
    sweep::Options inproc = isolatedCached(dir);
    inproc.isolate = false;
    sweep::Sweep::Report rep2;
    std::string out;
    EXPECT_NO_THROW(out = renderVictim(inproc, Victim::kOk, &rep2,
                                       /*trapSurvivors=*/true));
    EXPECT_TRUE(rep2.clean());
    EXPECT_EQ(rep2.cacheHits, 4u);
    EXPECT_EQ(out, renderVictim(isolated(), Victim::kOk));
}

TEST(Supervisor, SaltBumpMissesEveryCachedPoint)
{
    const std::string dir = freshDir("resume-salt");
    sweep::Options one = isolatedCached(dir);
    one.salt = "salt-one";
    const std::string want = renderVictim(one, Victim::kOk);

    // A new salt orphans every entry: all five points recompute.
    sweep::Options two = isolatedCached(dir);
    two.salt = "salt-two";
    sweep::Sweep::Report rep;
    EXPECT_EQ(renderVictim(two, Victim::kOk, &rep), want);
    EXPECT_EQ(rep.cacheHits, 0u);
    EXPECT_EQ(rep.cacheStores, 5u);

    // The old salt's entries are still there, and still whole.
    sweep::Sweep::Report back;
    EXPECT_EQ(renderVictim(one, Victim::kOk, &back,
                           /*trapSurvivors=*/true),
              want);
    EXPECT_TRUE(back.clean());
    EXPECT_EQ(back.cacheHits, 5u);
}

TEST(Supervisor, InterruptedRunResumesFromRunCache)
{
    // The point that was in flight when the signal landed is
    // reaped and stored; the rerun takes it from the cache and
    // computes only the three points the interrupt cut.
    const std::string dir = freshDir("resume-interrupt");
    const auto build = [](sweep::Sweep &s, bool signal) {
        s.scope("interrupt-resume");
        for (int k = 0; k < 4; ++k)
            s.point("p" + std::to_string(k),
                    [k, signal](sweep::Emit &e) {
                        if (signal) {
                            ::kill(::getppid(), SIGINT);
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(300));
                        }
                        e.printf("point %d done\n", k);
                    });
    };
    sweep::Options o = isolatedCached(dir);
    o.jobs = 1;

    sim::installInterruptHandlers();
    sweep::Sweep::Report rep1;
    {
        sweep::Sweep s("test-interrupt-resume", o);
        build(s, true);
        s.renderToString(&rep1);
    }
    sim::resetInterruptHandlers();
    ASSERT_EQ(rep1.failures.size(), 3u);
    EXPECT_EQ(rep1.cacheStores, 1u);

    sweep::Sweep s("test-interrupt-resume", o);
    build(s, false);
    sweep::Sweep::Report rep2;
    const std::string out = s.renderToString(&rep2);
    EXPECT_TRUE(rep2.clean());
    EXPECT_EQ(rep2.cacheHits, 1u);
    EXPECT_EQ(rep2.cacheStores, 3u);
    EXPECT_EQ(out, "point 0 done\npoint 1 done\n"
                   "point 2 done\npoint 3 done\n");
}

TEST(Supervisor, NoCacheRunPersistsNothing)
{
    namespace fs = std::filesystem;
    const std::string dir = freshDir("resume-nocache");
    sweep::Options o = isolatedCached(dir);
    o.cache = false;
    sweep::Sweep::Report rep;
    renderVictim(o, Victim::kSegv, &rep);
    ASSERT_EQ(rep.failures.size(), 1u);
    EXPECT_EQ(rep.cacheStores, 0u);
    EXPECT_FALSE(fs::exists(dir));
}

// ---------------------------------------------------------------
// runSupervised() directly: one success callback, failures in the
// report.
// ---------------------------------------------------------------

namespace {

using PointFn = std::function<void(sweep::Emit *)>;

/** Tasks for @p fns with caller indices 10, 11, 12, ... */
std::vector<sweep::SupervisorTask>
tasksFor(const std::vector<PointFn> &fns)
{
    std::vector<sweep::SupervisorTask> tasks;
    for (std::size_t i = 0; i < fns.size(); ++i)
        tasks.push_back(
            {10 + i, "task" + std::to_string(i), 1, &fns[i]});
    return tasks;
}

}  // namespace

TEST(Supervisor, OnSuccessFiresOncePerSucceededTask)
{
    const std::vector<PointFn> fns = {
        [](sweep::Emit *s) { s[0].text("a\n"); },
        [](sweep::Emit *) { throw std::runtime_error("bad"); },
        [](sweep::Emit *s) { s[0].text("c\n"); },
    };
    sweep::SupervisorConfig cfg;
    cfg.jobs = 2;
    cfg.maxAttempts = 2;
    std::map<std::size_t, std::vector<std::string>> got;
    std::size_t calls = 0;
    const sweep::SupervisorReport rep = sweep::runSupervised(
        tasksFor(fns), cfg,
        [&](std::size_t index, std::vector<std::string> slots,
            std::vector<sim::InvariantViolation> violations) {
            ++calls;
            EXPECT_TRUE(violations.empty());
            got[index] = std::move(slots);
        });

    EXPECT_EQ(calls, 2u);
    EXPECT_EQ(got[10], (std::vector<std::string>{"a\n"}));
    EXPECT_EQ(got[12], (std::vector<std::string>{"c\n"}));
    EXPECT_EQ(got.count(11), 0u);
    EXPECT_EQ(rep.launched, 4u);  // three first attempts + 1 retry
    EXPECT_EQ(rep.retries, 1u);
    ASSERT_EQ(rep.failures.size(), 1u);
    EXPECT_EQ(rep.failures[0].index, 11u);
    EXPECT_EQ(rep.failures[0].attempts, 2u);
    EXPECT_EQ(rep.failures[0].cause, "exception: bad");
}

TEST(Supervisor, FailuresAreSortedByTaskIndexWhateverTheFinishOrder)
{
    // The lower the index, the later the task dies, so completion
    // order is the reverse of index order.
    std::vector<PointFn> fns;
    for (int i = 0; i < 4; ++i)
        fns.push_back([i](sweep::Emit *) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(60 * (4 - i)));
            std::_Exit(20 + i);
        });
    sweep::SupervisorConfig cfg;
    cfg.jobs = 4;
    cfg.maxAttempts = 1;
    const sweep::SupervisorReport rep = sweep::runSupervised(
        tasksFor(fns), cfg,
        [](std::size_t, std::vector<std::string>,
           std::vector<sim::InvariantViolation>) {
            ADD_FAILURE() << "no task should succeed";
        });
    ASSERT_EQ(rep.failures.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(rep.failures[i].index, 10 + i);
        EXPECT_EQ(rep.failures[i].cause,
                  "exit-code " + std::to_string(20 + i));
        EXPECT_EQ(rep.failures[i].attempts, 1u);
    }
    EXPECT_EQ(rep.retries, 0u);
}

// ---------------------------------------------------------------
// Invariant checker: collector plumbing and diagnostics.
// ---------------------------------------------------------------

TEST(Invariants, RecordCapAndScopeRestore)
{
    EXPECT_EQ(sim::currentInvariants(), nullptr);
    sim::Invariants outer;
    {
        sim::InvariantScope a(&outer);
        EXPECT_EQ(sim::currentInvariants(), &outer);
        {
            sim::InvariantScope b(nullptr);
            EXPECT_EQ(sim::currentInvariants(), nullptr);
        }
        EXPECT_EQ(sim::currentInvariants(), &outer);

        for (int i = 0; i < 100; ++i)
            outer.record("test/cap", "loop",
                         "i=" + std::to_string(i));
    }
    EXPECT_EQ(sim::currentInvariants(), nullptr);
    EXPECT_TRUE(outer.failed());
    EXPECT_EQ(outer.violations().size(),
              sim::Invariants::kMaxRecorded);
    EXPECT_EQ(outer.dropped(),
              100u - sim::Invariants::kMaxRecorded);
}

TEST(Invariants, ApproxGeToleratesRoundoff)
{
    EXPECT_TRUE(sim::approxGe(1.0, 1.0));
    EXPECT_TRUE(sim::approxGe(2.0, 1.0));
    EXPECT_TRUE(sim::approxGe(1.0, 1.0 + 1e-12));
    EXPECT_FALSE(sim::approxGe(1.0, 1.1));
}

namespace {

/** One-point sweep whose body records a synthetic violation. */
std::string
renderViolating(const sweep::Options &opts,
                sweep::Sweep::Report *rep)
{
    sweep::Sweep s("test-invariants", opts);
    s.scope("iv");
    s.point("bad", [](sweep::Emit &e) {
        if (sim::Invariants *inv = sim::currentInvariants())
            inv->record("test/synthetic", "renderViolating",
                        "x=1");
        e.text("bad ran\n");
    });
    return s.renderToString(rep);
}

}  // namespace

TEST(Invariants, ViolationsSurfaceInProcess)
{
    sweep::Options o;
    o.cache = false;
    o.checkInvariants = true;
    sweep::Sweep::Report rep;
    const std::string out = renderViolating(o, &rep);
    EXPECT_NE(out.find("bad ran\n"), std::string::npos);
    EXPECT_FALSE(rep.clean());
    ASSERT_EQ(rep.invariantDiags.size(), 1u);
    EXPECT_EQ(rep.invariantDiags[0].invariant, "test/synthetic");
    EXPECT_EQ(rep.invariantDiags[0].pointKey, "iv|bad");
    EXPECT_EQ(rep.invariantDiags[0].values, "x=1");
}

TEST(Invariants, ViolationsCrossTheIsolationPipe)
{
    sweep::Options o = isolated();
    o.checkInvariants = true;
    sweep::Sweep::Report rep;
    const std::string out = renderViolating(o, &rep);
    EXPECT_NE(out.find("bad ran\n"), std::string::npos);
    ASSERT_EQ(rep.invariantDiags.size(), 1u);
    EXPECT_EQ(rep.invariantDiags[0].invariant, "test/synthetic");
    EXPECT_EQ(rep.invariantDiags[0].where, "renderViolating");
}

TEST(Invariants, DisabledCheckerRecordsNothing)
{
    sweep::Options o;
    o.cache = false;
    o.checkInvariants = false;
    sweep::Sweep::Report rep;
    renderViolating(o, &rep);
    EXPECT_TRUE(rep.clean());
}

TEST(Invariants, RealFiguresRunCleanWithCheckerOn)
{
    const figs::Figure *fig = figs::find("fig01");
    ASSERT_NE(fig, nullptr);
    sweep::Options o;
    o.cache = false;
    o.checkInvariants = true;
    sweep::Sweep s(fig->binary, o);
    s.scope(fig->binary);
    fig->build(s);
    sweep::Sweep::Report rep;
    s.renderToString(&rep);
    EXPECT_TRUE(rep.clean());
    for (const auto &d : rep.invariantDiags)
        ADD_FAILURE() << d.invariant << " at " << d.where << ": "
                      << d.values;
}

// ---------------------------------------------------------------
// Crashtest figure registration (used by the CI smoke job).
// ---------------------------------------------------------------

TEST(CrashTestFigure, FindableButHiddenFromSuite)
{
    EXPECT_NE(figs::find("crashtest"), nullptr);
    EXPECT_NE(figs::find("crashtest_selftest"), nullptr);
    for (const figs::Figure &f : figs::all())
        EXPECT_STRNE(f.name, "crashtest");
}

// ---------------------------------------------------------------
// Run-cache maintenance: scanDir / clearDir (melody cache).
// ---------------------------------------------------------------

TEST(RunCacheMaintenance, ScanAndClear)
{
    namespace fs = std::filesystem;
    const std::string dir = freshDir("cache-maint");

    sweep::Options o;
    o.cache = true;
    o.cacheDir = dir;
    o.salt = "maint-salt";
    o.checkInvariants = false;
    sweep::Sweep::Report rep;
    renderVictim(o, Victim::kOk, &rep);
    ASSERT_GT(rep.cacheStores, 0u);

    // Drop a foreign file in the directory: counted, never
    // deleted.
    const fs::path foreign = fs::path(dir) / "README.txt";
    {
        std::ofstream f(foreign);
        f << "not a cache entry\n";
    }

    sweep::RunCache::DirStats st = sweep::RunCache::scanDir(dir);
    EXPECT_EQ(st.entries, rep.cacheStores);
    EXPECT_GT(st.bytes, 0u);
    EXPECT_EQ(st.foreign, 1u);
    ASSERT_EQ(st.perSalt.size(), 1u);
    EXPECT_EQ(st.perSalt.begin()->first, "maint-salt");
    EXPECT_EQ(st.perSalt.begin()->second, rep.cacheStores);

    const std::uint64_t removed = sweep::RunCache::clearDir(dir);
    EXPECT_EQ(removed, rep.cacheStores);
    EXPECT_TRUE(fs::exists(foreign));

    st = sweep::RunCache::scanDir(dir);
    EXPECT_EQ(st.entries, 0u);
    EXPECT_EQ(st.foreign, 1u);

    // A missing directory scans as empty rather than erroring.
    st = sweep::RunCache::scanDir(dir + "-missing");
    EXPECT_EQ(st.entries, 0u);
    EXPECT_EQ(st.bytes, 0u);
}

TEST(RunCacheMaintenance, ClearRacesLiveWriterSafely)
{
    // `melody cache clear` against a directory a sweep is actively
    // writing into: the advisory flock serialises deletion against
    // in-flight tmp-write+rename stores, so renders always come
    // back byte-identical (a cleared entry is only ever a miss,
    // never a torn read) and no store is lost mid-rename.
    const std::string dir = freshDir("cache-race");

    sweep::Options ref;
    ref.cache = false;
    ref.checkInvariants = false;
    const std::string want = renderVictim(ref, Victim::kOk);
    ASSERT_FALSE(want.empty());

    std::atomic<bool> stop{false};
    std::thread clearer([&] {
        while (!stop.load()) {
            sweep::RunCache::clearDir(dir);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2));
        }
    });

    sweep::Options o;
    o.cache = true;
    o.cacheDir = dir;
    o.salt = "race-salt";
    o.checkInvariants = false;
    for (int i = 0; i < 25; ++i) {
        sweep::Sweep::Report rep;
        EXPECT_EQ(renderVictim(o, Victim::kOk, &rep), want)
            << "iteration " << i;
        EXPECT_TRUE(rep.clean()) << "iteration " << i;
    }

    stop.store(true);
    clearer.join();
    sweep::RunCache::clearDir(dir);
}

TEST(RunCache, StoreThenLookupRoundTripsRows)
{
    const std::string dir = freshDir("runcache-roundtrip");
    const std::vector<std::string> rows = {
        "a\n", "", std::string("bytes\0\xff", 7)};
    {
        sweep::RunCache c(dir, "rc-salt");
        c.store("point-key", rows);
        std::vector<std::string> out;
        ASSERT_TRUE(c.lookup("point-key", rows.size(), &out));
        EXPECT_EQ(out, rows);
        EXPECT_FALSE(c.lookup("other-key", rows.size(), &out));
        EXPECT_EQ(c.stats().stores, 1u);
        EXPECT_EQ(c.stats().hits, 1u);
        EXPECT_EQ(c.stats().misses, 1u);
        EXPECT_EQ(c.stats().corrupt, 0u);
    }
    // A later process with the same salt hits; another salt
    // addresses a different file, so it is a plain miss.
    sweep::RunCache again(dir, "rc-salt");
    std::vector<std::string> out;
    ASSERT_TRUE(again.lookup("point-key", rows.size(), &out));
    EXPECT_EQ(out, rows);
    sweep::RunCache bumped(dir, "rc-salt-2");
    EXPECT_FALSE(bumped.lookup("point-key", rows.size(), &out));
    EXPECT_EQ(bumped.stats().corrupt, 0u);
}

TEST(RunCache, WrongRowCountIsACorruptMiss)
{
    const std::string dir = freshDir("runcache-rowcount");
    sweep::RunCache c(dir, "rc-salt");
    c.store("point-key", {"one", "two"});
    std::vector<std::string> out = {"untouched"};
    EXPECT_FALSE(c.lookup("point-key", 3, &out));
    EXPECT_EQ(c.stats().corrupt, 1u);
    EXPECT_EQ(out, std::vector<std::string>{"untouched"});
}

TEST(RunCache, EntryWrittenForAnotherKeyOrSaltIsRejected)
{
    // Simulate a hash collision: overwrite one key's entry file
    // with another key's (then another salt's) bytes. The key and
    // salt echoed in the entry must turn both into corrupt misses.
    namespace fs = std::filesystem;
    const std::string dir = freshDir("runcache-collide");
    const auto entries = [&] {
        std::vector<fs::path> v;
        for (const auto &e : fs::directory_iterator(dir))
            if (e.path().extension() == ".rcache")
                v.push_back(e.path());
        return v;
    };

    sweep::RunCache c(dir, "rc-salt");
    c.store("key-a", {"A"});
    ASSERT_EQ(entries().size(), 1u);
    const fs::path fileA = entries()[0];
    c.store("key-b", {"B"});
    ASSERT_EQ(entries().size(), 2u);
    const fs::path fileB =
        entries()[0] == fileA ? entries()[1] : entries()[0];
    const std::string bytesA = slurp(fileA.string());

    fs::copy_file(fileA, fileB, fs::copy_options::overwrite_existing);
    std::vector<std::string> out;
    EXPECT_FALSE(c.lookup("key-b", 1, &out));
    EXPECT_EQ(c.stats().corrupt, 1u);

    sweep::RunCache other(dir, "rc-salt-2");
    other.store("key-a", {"A2"});
    ASSERT_EQ(entries().size(), 3u);
    for (const fs::path &p : entries()) {
        if (p == fileA || p == fileB)
            continue;
        std::ofstream f(p, std::ios::binary | std::ios::trunc);
        f << bytesA;
    }
    EXPECT_FALSE(other.lookup("key-a", 1, &out));
    EXPECT_EQ(other.stats().corrupt, 1u);

    // The untouched original still hits.
    ASSERT_TRUE(c.lookup("key-a", 1, &out));
    EXPECT_EQ(out, std::vector<std::string>{"A"});
}

// ---------------------------------------------------------------
// Environment plumbing (MELODY_SWEEP_* variables).
// ---------------------------------------------------------------

TEST(SweepEnv, IsolateAndInvariantSwitchesParse)
{
    setenv("MELODY_SWEEP_ISOLATE", "1", 1);
    setenv("MELODY_SWEEP_CHECK_INVARIANTS", "1", 1);
    sweep::Options on = sweep::optionsFromEnv();
    EXPECT_TRUE(on.isolate);
    EXPECT_TRUE(on.checkInvariants);

    setenv("MELODY_SWEEP_ISOLATE", "0", 1);
    setenv("MELODY_SWEEP_CHECK_INVARIANTS", "off", 1);
    sweep::Options off = sweep::optionsFromEnv();
    EXPECT_FALSE(off.isolate);
    EXPECT_FALSE(off.checkInvariants);

    unsetenv("MELODY_SWEEP_ISOLATE");
    unsetenv("MELODY_SWEEP_CHECK_INVARIANTS");
}
