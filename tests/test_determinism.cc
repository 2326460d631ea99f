/**
 * @file
 * End-to-end determinism: the same seeded workload must produce
 * bit-identical RunResults no matter how the sweep is scheduled —
 * serially, or via parallelFor with 1, 2 or 8 worker threads. This
 * pins the worker pool's contract (each index claimed exactly
 * once, results written by index) and the indexed multicore
 * scheduler's tie-breaking (lowest core index first).
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "core/platform.hh"
#include "core/slowdown.hh"
#include "ras/fault_plan.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "workloads/suite.hh"

using namespace cxlsim;

namespace {

std::vector<workloads::WorkloadProfile>
smallSuite()
{
    // Mix of 1-, 2-, 6- and 10-thread workloads so the multicore
    // scheduler's heap path is exercised, shrunk for test speed.
    std::vector<workloads::WorkloadProfile> ws;
    for (const char *n :
         {"605.mcf_s", "602.gcc_s", "519.lbm_r", "603.bwaves_s"}) {
        workloads::WorkloadProfile w = workloads::byName(n);
        w.blocksPerCore = 800;
        ws.push_back(w);
    }
    return ws;
}

void
expectSameResult(const cpu::RunResult &a, const cpu::RunResult &b,
                 const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.wallTicks, b.wallTicks);
    // Bit-exact: determinism means equality, not tolerance.
    EXPECT_EQ(a.counters.cycles, b.counters.cycles);
    EXPECT_EQ(a.counters.instructions, b.counters.instructions);
    EXPECT_EQ(a.counters.p1, b.counters.p1);
    EXPECT_EQ(a.counters.p2, b.counters.p2);
    EXPECT_EQ(a.counters.p3, b.counters.p3);
    EXPECT_EQ(a.counters.p4, b.counters.p4);
    EXPECT_EQ(a.counters.p5, b.counters.p5);
    EXPECT_EQ(a.counters.p6, b.counters.p6);
    EXPECT_EQ(a.counters.p7, b.counters.p7);
    EXPECT_EQ(a.counters.p8, b.counters.p8);
    EXPECT_EQ(a.counters.p9, b.counters.p9);
    EXPECT_EQ(a.counters.l1pfIssued, b.counters.l1pfIssued);
    EXPECT_EQ(a.counters.l1pfL3Hit, b.counters.l1pfL3Hit);
    EXPECT_EQ(a.counters.l1pfL3Miss, b.counters.l1pfL3Miss);
    EXPECT_EQ(a.counters.l2pfIssued, b.counters.l2pfIssued);
    EXPECT_EQ(a.counters.l2pfL3Hit, b.counters.l2pfL3Hit);
    EXPECT_EQ(a.counters.l2pfL3Miss, b.counters.l2pfL3Miss);
    EXPECT_EQ(a.counters.demandL3Miss, b.counters.demandL3Miss);
    EXPECT_EQ(a.counters.machineChecks, b.counters.machineChecks);
    EXPECT_EQ(a.counters.demandTimeouts, b.counters.demandTimeouts);
    EXPECT_EQ(a.counters.prefetchDrops, b.counters.prefetchDrops);
    EXPECT_EQ(a.backendStats.reads, b.backendStats.reads);
    EXPECT_EQ(a.backendStats.writes, b.backendStats.writes);

    // RAS reports must agree node-by-node, counter-by-counter.
    ASSERT_EQ(a.ras.size(), b.ras.size());
    for (std::size_t i = 0; i < a.ras.size(); ++i) {
        EXPECT_EQ(a.ras[i].name, b.ras[i].name);
        const ras::RasStats &x = a.ras[i].stats;
        const ras::RasStats &y = b.ras[i].stats;
        EXPECT_EQ(x.crcErrors, y.crcErrors);
        EXPECT_EQ(x.linkReplays, y.linkReplays);
        EXPECT_EQ(x.linkDownEvents, y.linkDownEvents);
        EXPECT_EQ(x.corrected, y.corrected);
        EXPECT_EQ(x.uncorrected, y.uncorrected);
        EXPECT_EQ(x.poisonedReturns, y.poisonedReturns);
        EXPECT_EQ(x.patrolScrubs, y.patrolScrubs);
        EXPECT_EQ(x.refusedRequests, y.refusedRequests);
        EXPECT_EQ(x.hostRetries, y.hostRetries);
        EXPECT_EQ(x.hostTimeouts, y.hostTimeouts);
        EXPECT_EQ(x.failovers, y.failovers);
        EXPECT_EQ(x.failoverExtraNs, y.failoverExtraNs);
        EXPECT_EQ(x.degradedEntries, y.degradedEntries);
        EXPECT_EQ(x.offlineEntries, y.offlineEntries);
    }
}

}  // namespace

TEST(Determinism, ParallelForThreadCountMatchesSerial)
{
    const auto ws = smallSuite();
    const melody::Platform plat("EMR2S", "CXL-A");

    // Serial reference: plain loop, no parallelFor involved.
    std::vector<cpu::RunResult> ref(ws.size());
    for (std::size_t i = 0; i < ws.size(); ++i)
        ref[i] = melody::runWorkload(ws[i], plat, /*seed=*/1);

    for (unsigned threads : {1u, 2u, 8u}) {
        std::vector<cpu::RunResult> out(ws.size());
        parallelFor(
            ws.size(),
            [&](std::size_t i) {
                out[i] = melody::runWorkload(ws[i], plat, /*seed=*/1);
            },
            threads);
        for (std::size_t i = 0; i < ws.size(); ++i)
            expectSameResult(ref[i], out[i],
                             ws[i].name + " @" +
                                 std::to_string(threads) +
                                 " threads");
    }
}

TEST(Determinism, FaultPlanStableAcrossThreadCounts)
{
    // The determinism contract extends to fault injection: every
    // fault process draws from its own seeded stream, so a fixed
    // FaultPlan yields identical results (counters AND RasStats) no
    // matter how many parallelFor workers schedule the runs.
    const auto ws = smallSuite();
    melody::Platform plat("EMR2S", "CXL-B");
    plat.setFaultPlan(ras::parseFaultPlan(
        "crc=3e-4,ce=2e-4,ue=5e-5,scrub=50us,failover"));

    std::vector<cpu::RunResult> ref(ws.size());
    for (std::size_t i = 0; i < ws.size(); ++i)
        ref[i] = melody::runWorkload(ws[i], plat, /*seed=*/3);

    // The plan must actually perturb the runs, or this test proves
    // nothing.
    ras::RasStats injected;
    for (const auto &r : ref)
        injected += r.rasTotal();
    EXPECT_GT(injected.injected(), 0u);

    for (unsigned threads : {1u, 2u, 8u}) {
        std::vector<cpu::RunResult> out(ws.size());
        parallelFor(
            ws.size(),
            [&](std::size_t i) {
                out[i] = melody::runWorkload(ws[i], plat, /*seed=*/3);
            },
            threads);
        for (std::size_t i = 0; i < ws.size(); ++i)
            expectSameResult(ref[i], out[i],
                             ws[i].name + " faulted @" +
                                 std::to_string(threads) +
                                 " threads");
    }
}

TEST(Determinism, RepeatedParallelRunsAreStable)
{
    // Back-to-back pool jobs (the persistent-pool reuse path) must
    // not leak state between jobs.
    const auto ws = smallSuite();
    const melody::Platform plat("SPR2S", "CXL-B");
    std::vector<cpu::RunResult> first(ws.size()),
        second(ws.size());
    for (auto *out : {&first, &second}) {
        parallelFor(
            ws.size(),
            [&](std::size_t i) {
                (*out)[i] =
                    melody::runWorkload(ws[i], plat, /*seed=*/7);
            },
            4);
    }
    for (std::size_t i = 0; i < ws.size(); ++i)
        expectSameResult(first[i], second[i], ws[i].name);
}

TEST(Determinism, SlowdownStudyRunsEachBaselineOnce)
{
    // Four setups race for one workload's baseline: the memo must
    // run it once, and the shared result must be exactly what a
    // fresh study computes serially. SKX2S keeps the LLC small.
    workloads::WorkloadProfile w = workloads::byName("605.mcf_s");
    w.blocksPerCore = 800;
    const std::vector<std::string> mems = {"NUMA-140ns", "CXL-A",
                                           "CXL-B", "CXL-D"};
    melody::SlowdownStudy study(21);
    std::vector<double> slow(mems.size());
    std::vector<cpu::RunResult> runs(mems.size());
    std::latch start(static_cast<std::ptrdiff_t>(mems.size()));
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < mems.size(); ++i)
        threads.emplace_back([&, i] {
            start.arrive_and_wait();
            slow[i] = study.slowdownWithRun(w, "SKX2S", mems[i],
                                            &runs[i]);
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(study.baselineRuns(), 1u);

    melody::SlowdownStudy fresh(21);
    for (std::size_t i = 0; i < mems.size(); ++i) {
        cpu::RunResult ref;
        EXPECT_EQ(slow[i],
                  fresh.slowdownWithRun(w, "SKX2S", mems[i], &ref))
            << mems[i];
        expectSameResult(ref, runs[i], mems[i]);
    }
    expectSameResult(fresh.baseline(w, "SKX2S"),
                     study.baseline(w, "SKX2S"), "baseline");
    EXPECT_EQ(study.baselineRuns(), 1u);
}

TEST(Determinism, FailedSlowdownBaselineRethrowsToEveryCaller)
{
    // A baseline that throws must reach every concurrent caller as
    // the same error (none left waiting forever) and must not stay
    // in the memo: the next call runs it again.
    workloads::WorkloadProfile w = workloads::byName("605.mcf_s");
    w.blocksPerCore = 800;
    melody::SlowdownStudy study(21);
    constexpr int kCallers = 8;
    std::latch start(kCallers);
    std::vector<std::future<void>> calls;
    for (int i = 0; i < kCallers; ++i)
        calls.push_back(std::async(std::launch::async, [&, i] {
            start.arrive_and_wait();
            if (i % 2)
                study.baseline(w, "NoSuchServer");
            else
                study.slowdownWithRun(w, "NoSuchServer", "CXL-A",
                                      nullptr);
        }));
    for (auto &c : calls) {
        ASSERT_EQ(c.wait_for(std::chrono::seconds(60)),
                  std::future_status::ready)
            << "a caller is stuck on a failed baseline";
        EXPECT_THROW(c.get(), ConfigError);
    }
    const unsigned runs = study.baselineRuns();
    EXPECT_GE(runs, 1u);
    EXPECT_THROW(study.baseline(w, "NoSuchServer"), ConfigError);
    EXPECT_EQ(study.baselineRuns(), runs + 1);
}

TEST(Determinism, ParallelForCoversEveryIndexOnce)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        for (std::size_t grain : {std::size_t{1}, std::size_t{7}}) {
            std::vector<int> hits(1000, 0);
            parallelFor(
                hits.size(), [&](std::size_t i) { ++hits[i]; },
                threads, grain);
            for (std::size_t i = 0; i < hits.size(); ++i)
                ASSERT_EQ(hits[i], 1)
                    << "index " << i << " @" << threads << "t grain "
                    << grain;
        }
    }
}

/**
 * Many tiny jobs back to back: each index of each job runs exactly
 * once, through that job's body. A worker that took a job's slot
 * and stalled must not resume on the next job's cursor with the
 * first job's (by then dangling) body; under ThreadSanitizer that
 * shows as a race within a few thousand jobs.
 */
TEST(Determinism, BackToBackJobsRunOnlyTheirOwnIndices)
{
    constexpr std::size_t kIndices = 8;
    for (int job = 0; job < 20000; ++job) {
        std::array<std::atomic<int>, kIndices> runs{};
        parallelFor(
            kIndices, [&](std::size_t i) { runs[i].fetch_add(1); }, 8);
        for (std::size_t i = 0; i < kIndices; ++i)
            ASSERT_EQ(runs[i].load(), 1) << "job " << job << " index " << i;
    }
}

TEST(Determinism, NestedParallelForFallsBackToSerial)
{
    std::vector<int> outer(16, 0);
    parallelFor(
        outer.size(),
        [&](std::size_t i) {
            int inner = 0;
            parallelFor(
                8, [&](std::size_t) { ++inner; }, 8);
            outer[i] = inner;
        },
        4);
    for (int v : outer)
        EXPECT_EQ(v, 8);
}

TEST(Determinism, CounterScaleMatchesHandDivision)
{
    cpu::CounterSet c;
    c.cycles = 1234.5;
    c.instructions = 999.25;
    c.p1 = 10;
    c.p2 = 20;
    c.p3 = 30;
    c.p4 = 40;
    c.p5 = 50;
    c.p6 = 60;
    c.p7 = 70;
    c.p8 = 80;
    c.p9 = 90;
    c.l2pfIssued = 17;
    cpu::CounterSet d = c;
    d.scale(1.0 / 2.0);
    EXPECT_EQ(d.cycles, c.cycles / 2.0);
    EXPECT_EQ(d.instructions, c.instructions / 2.0);
    EXPECT_EQ(d.p1, c.p1 / 2.0);
    EXPECT_EQ(d.p5, c.p5 / 2.0);
    EXPECT_EQ(d.p9, c.p9 / 2.0);
    // Integral prefetch populations are totals, never scaled.
    EXPECT_EQ(d.l2pfIssued, c.l2pfIssued);
}
