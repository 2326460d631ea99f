/**
 * @file
 * Unit tests for the simulation kernel: event queue, earliest-first
 * scheduler and RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "sim/earliest.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
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

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(300, [&] { order.push_back(3); });
    q.schedule(100, [&] { order.push_back(1); });
    q.schedule(200, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 300u);
    EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueue, TiesBreakFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(50, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, RunUntilAdvancesClock)
{
    EventQueue q;
    int fired = 0;
    q.schedule(100, [&] { ++fired; });
    q.schedule(500, [&] { ++fired; });
    q.runUntil(250);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 250u);
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            q.scheduleAfter(10, chain);
    };
    q.schedule(0, chain);
    q.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(q.now(), 40u);
}

TEST(EventQueue, StressTickSeqOrdering)
{
    // 10k randomly-ticked events must execute in exact (tick,
    // insertion-seq) order — the determinism contract the whole
    // simulator leans on.
    constexpr int kEvents = 10000;
    EventQueue q;
    Rng rng(12345);
    std::vector<std::pair<Tick, int>> expected;
    expected.reserve(kEvents);
    std::vector<std::pair<Tick, int>> executed;
    executed.reserve(kEvents);
    for (int id = 0; id < kEvents; ++id) {
        // Narrow tick range so ties are common.
        const Tick when = rng.below(977);
        expected.emplace_back(when, id);
        q.schedule(when, [&executed, &q, id] {
            executed.emplace_back(q.now(), id);
        });
    }
    q.run();
    // Stable sort by tick keeps insertion order within a tick.
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    ASSERT_EQ(executed.size(), expected.size());
    for (int i = 0; i < kEvents; ++i) {
        ASSERT_EQ(executed[i].first, expected[i].first) << "at " << i;
        ASSERT_EQ(executed[i].second, expected[i].second)
            << "at " << i;
    }
    EXPECT_EQ(q.executed(), static_cast<std::uint64_t>(kEvents));
}

TEST(EventQueue, HandlerIsAllocationFreeForTypicalCaptures)
{
    // A four-word capture must fit the inline buffer.
    struct Capture
    {
        void *a, *b, *c;
        std::uint64_t d;
    };
    static_assert(sizeof(Capture) <= kInlineFunctionStorage);
    int hits = 0;
    std::uint64_t sum = 0;
    EventQueue q;
    Capture cap{&hits, &q, nullptr, 41};
    q.schedule(5, [cap, &hits, &sum] {
        ++hits;
        sum += cap.d;
    });
    q.run();
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(sum, 41u);
}

TEST(InlineFunction, MoveOnlyAndOversizedCaptures)
{
    // Move-only capture.
    auto p = std::make_unique<int>(7);
    InlineFunction f([q = std::move(p)] { *q += 1; });
    EXPECT_TRUE(static_cast<bool>(f));
    f();

    // Oversized capture falls back to the heap but still works.
    struct Big
    {
        char bytes[200];
    };
    Big big{};
    big.bytes[199] = 42;
    int seen = 0;
    InlineFunction g([big, &seen] { seen = big.bytes[199]; });
    InlineFunction h = std::move(g);
    EXPECT_FALSE(static_cast<bool>(g));
    h();
    EXPECT_EQ(seen, 42);

    // Move-assignment releases the previous payload.
    h = InlineFunction([&seen] { seen = -1; });
    h();
    EXPECT_EQ(seen, -1);
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
