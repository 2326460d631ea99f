/**
 * @file
 * Unit tests for the simulation kernel: tick types, earliest-first
 * scheduler, RNG and the parallel-for worker pool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include "sim/earliest.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

using namespace cxlsim;

TEST(Types, NsTickConversionRoundTrips)
{
    EXPECT_EQ(nsToTicks(1.0), kTicksPerNs);
    EXPECT_EQ(nsToTicks(114.0), 114 * kTicksPerNs);
    EXPECT_DOUBLE_EQ(ticksToNs(nsToTicks(250.0)), 250.0);
    EXPECT_EQ(usToTicks(1.0), kTicksPerUs);
}

TEST(Types, LineAlign)
{
    EXPECT_EQ(lineAlign(0), 0u);
    EXPECT_EQ(lineAlign(63), 0u);
    EXPECT_EQ(lineAlign(64), 64u);
    EXPECT_EQ(lineAlign(130), 128u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange)
{
    Rng r(7);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowRespectsBound)
{
    Rng r(9);
    for (std::uint64_t n : {1ULL, 2ULL, 7ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            ASSERT_LT(r.below(n), n);
    }
    EXPECT_EQ(r.below(1), 0u);
    EXPECT_EQ(r.below(0), 0u);
}

TEST(Rng, ChanceEdgeCases)
{
    Rng r(11);
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_FALSE(r.chance(-1.0));
    EXPECT_TRUE(r.chance(1.0));
    EXPECT_TRUE(r.chance(2.0));
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, ExponentialMean)
{
    Rng r(13);
    double sum = 0;
    for (int i = 0; i < 20000; ++i)
        sum += r.exponential(250.0);
    EXPECT_NEAR(sum / 20000.0, 250.0, 10.0);
}

TEST(Rng, BoundedParetoStaysInBounds)
{
    Rng r(17);
    double lo = 1e9, hi = 0;
    for (int i = 0; i < 20000; ++i) {
        const double v = r.boundedPareto(100.0, 3000.0, 1.2);
        ASSERT_GE(v, 99.999);
        ASSERT_LE(v, 3000.001);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    // Heavy tail: both ends of the range get visited.
    EXPECT_LT(lo, 120.0);
    EXPECT_GT(hi, 1500.0);
}

TEST(Rng, BoundedParetoIsHeavyTailedTowardLow)
{
    Rng r(19);
    int below300 = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        below300 += r.boundedPareto(100.0, 3000.0, 1.5) < 300.0;
    // Most mass near the lower bound.
    EXPECT_GT(below300, n / 2);
}

TEST(Rng, ZipfBoundsAndSkew)
{
    Rng r(23);
    const std::uint64_t n = 1000;
    std::uint64_t lowHalf = 0;
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t v = r.zipf(n, 0.9);
        ASSERT_LT(v, n);
        lowHalf += v < n / 2;
    }
    // Skew concentrates on low ranks.
    EXPECT_GT(lowHalf, 14000u);

    // Zero skew is roughly uniform.
    lowHalf = 0;
    for (int i = 0; i < 20000; ++i)
        lowHalf += r.zipf(n, 0.0) < n / 2;
    EXPECT_NEAR(static_cast<double>(lowHalf), 10000.0, 600.0);
}

TEST(Rng, NormalMoments)
{
    Rng r(29);
    double sum = 0, sq = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = r.normal(10.0, 3.0);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(std::sqrt(var), 3.0, 0.15);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(31);
    Rng b = a.fork(1);
    Rng c = a.fork(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += b.next() == c.next();
    EXPECT_LT(same, 2);
}

/**
 * EarliestFirst must always expose the agent a linear scan for the
 * lowest (t, index) would pick, so swapping one for the other never
 * reorders requests. Keys are drawn from only 8 ticks: most
 * comparisons tie and the index tie-break decides. The sizes are
 * the agent counts the fig03 harness runs (MLC: 31 x 24 + 1).
 */
class EarliestFirstOrder : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(EarliestFirstOrder, MatchesLinearScan)
{
    using Key = std::pair<Tick, unsigned>;
    const unsigned n = GetParam();
    Rng rng(7919 + n);
    std::vector<Tick> tick(n);
    std::vector<bool> live(n, false);
    std::vector<unsigned> dead(n);
    for (unsigned i = 0; i < n; ++i)
        dead[i] = i;
    sim::EarliestFirst sched;
    sched.reserve(n);

    const Key none{~Tick{0}, n};
    const auto scan = [&] {
        Key best = none;
        for (unsigned i = 0; i < n; ++i)
            if (live[i] && Key{tick[i], i} < best)
                best = {tick[i], i};
        return best;
    };
    const auto top = [&] {
        return sched.empty()
                   ? none
                   : Key{sched.top().t, sched.top().index};
    };

    for (int op = 0; op < 20000; ++op) {
        const std::uint64_t r = rng.below(10);
        if (!dead.empty() && (sched.empty() || r < 2)) {
            const std::size_t k = rng.below(dead.size());
            const unsigned i = dead[k];
            dead[k] = dead.back();
            dead.pop_back();
            tick[i] = rng.below(8);
            live[i] = true;
            sched.push(tick[i], i);
        } else if (r < 3) {
            const unsigned i = sched.top().index;
            live[i] = false;
            dead.push_back(i);
            sched.popTop();
        } else {
            const unsigned i = sched.top().index;
            tick[i] = rng.below(8);
            sched.replaceTop(tick[i]);
        }
        ASSERT_EQ(top(), scan()) << "op " << op;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EarliestFirstOrder,
                         ::testing::Values(1u, 2u, 7u, 193u, 745u));

/** One parallelFor() call shape: items, threads, grain. */
struct ForShape
{
    std::size_t n;
    unsigned threads;
    std::size_t grain;
};

/** Names each instance by its shape, e.g. `n1000_t3_g7`. */
void
PrintTo(const ForShape &s, std::ostream *os)
{
    *os << "n" << s.n << "_t" << s.threads << "_g" << s.grain;
}

/**
 * Whatever the shape, parallelFor() must hand every index to the
 * body exactly once and return only after all of them ran. The
 * shapes cover the clamps: one item, more threads than items,
 * 0 = hardware concurrency, grain 0, a grain that does not divide
 * n and a grain larger than n.
 */
class ParallelForCoverage : public ::testing::TestWithParam<ForShape>
{
};

TEST_P(ParallelForCoverage, EachIndexRunsExactlyOnce)
{
    const ForShape s = GetParam();
    std::vector<std::atomic<int>> hits(s.n);
    std::vector<std::size_t> out(s.n, 0);
    parallelFor(
        s.n,
        [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
            out[i] = i * i;
        },
        s.threads, s.grain);
    for (std::size_t i = 0; i < s.n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
        // Plain per-index writes are visible once the call returns.
        ASSERT_EQ(out[i], i * i) << "index " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ParallelForCoverage,
    ::testing::Values(ForShape{1, 4, 1}, ForShape{5, 8, 1},
                      ForShape{500, 0, 1}, ForShape{64, 4, 0},
                      ForShape{1000, 3, 7}, ForShape{10, 2, 64}));

TEST(ParallelFor, ZeroItemsNeverCallsTheBody)
{
    int calls = 0;
    parallelFor(0, [&](std::size_t) { ++calls; }, 4);
    EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, NestedCallsRunSeriallyOnTheCallingThread)
{
    constexpr std::size_t kOuter = 4, kInner = 8;
    std::vector<std::thread::id> outerId(kOuter);
    std::vector<std::thread::id> innerId(kOuter * kInner);
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    parallelFor(
        kOuter,
        [&](std::size_t o) {
            outerId[o] = std::this_thread::get_id();
            parallelFor(
                kInner,
                [&](std::size_t i) {
                    innerId[o * kInner + i] =
                        std::this_thread::get_id();
                    hits[o * kInner + i].fetch_add(1);
                },
                4);
        },
        4);
    for (std::size_t k = 0; k < kOuter * kInner; ++k) {
        EXPECT_EQ(hits[k].load(), 1) << "cell " << k;
        EXPECT_EQ(innerId[k], outerId[k / kInner]) << "cell " << k;
    }
}

TEST(ParallelFor, BackToBackJobsWithGrowingPoolStayExact)
{
    // The pool grows on demand and parks workers between jobs; a
    // parked worker must never replay or skip a later job's items.
    constexpr std::size_t kN = 257;
    for (int round = 0; round < 3; ++round) {
        for (unsigned threads = 2; threads <= 6; ++threads) {
            std::atomic<std::size_t> sum{0};
            std::atomic<std::size_t> calls{0};
            parallelFor(
                kN,
                [&](std::size_t i) {
                    sum.fetch_add(i);
                    calls.fetch_add(1);
                },
                threads);
            ASSERT_EQ(calls.load(), kN) << "threads " << threads;
            ASSERT_EQ(sum.load(), kN * (kN - 1) / 2)
                << "threads " << threads;
        }
    }
}
