/**
 * @file
 * Tests for the CPU model: caches with pending-line semantics,
 * prefetchers, and the core's Intel-style stall accounting — the
 * substrate Spa's correctness rests on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "cpu/cache.hh"
#include "cpu/core.hh"
#include "cpu/hierarchy.hh"
#include "cpu/multicore.hh"
#include "cpu/prefetcher.hh"
#include "cpu/profile.hh"
#include "core/platform.hh"
#include "mem/backend.hh"
#include "sim/invariants.hh"
#include "workloads/suite.hh"
#include "workloads/synthetic_kernel.hh"

using namespace cxlsim;
using namespace cxlsim::cpu;

TEST(Cache, HitMissBasics)
{
    Cache c(64 * 1024, 8);
    Tick ready;
    StallTag home;
    EXPECT_EQ(c.lookup(0, 0, &ready, &home), LookupResult::kMiss);
    c.insert(0, 0, StallTag::kDram, false);
    EXPECT_EQ(c.lookup(0, 10, &ready, &home), LookupResult::kHit);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, PendingUntilReady)
{
    Cache c(64 * 1024, 8);
    c.insert(64, nsToTicks(500), StallTag::kL2, false);
    Tick ready;
    StallTag home;
    EXPECT_EQ(c.lookup(64, nsToTicks(100), &ready, &home),
              LookupResult::kPending);
    EXPECT_EQ(ready, nsToTicks(500));
    EXPECT_EQ(home, StallTag::kL2);
    EXPECT_EQ(c.lookup(64, nsToTicks(600), &ready, &home),
              LookupResult::kHit);
    EXPECT_EQ(c.pendingHits(), 1u);
}

TEST(Cache, LruEviction)
{
    // 2 ways, tiny cache: set count = 512 lines / ... use direct
    // geometry: 2 ways, 1 set = 128 bytes.
    Cache c(128, 2);
    ASSERT_EQ(c.sets(), 1u);
    c.insert(0 * 64, 0, StallTag::kDram, false);
    c.insert(1 * 64, 0, StallTag::kDram, false);
    Tick ready;
    StallTag home;
    // Touch line 0 so line 1 becomes LRU.
    c.lookup(0, 10, &ready, &home);
    const Eviction ev = c.insert(2 * 64, 0, StallTag::kDram, false);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 64u);
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(64));
}

TEST(Cache, DirtyEvictionReported)
{
    Cache c(128, 2);
    c.insert(0, 0, StallTag::kDram, true);
    c.insert(64, 0, StallTag::kDram, false);
    const Eviction ev = c.insert(128, 0, StallTag::kDram, false);
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.lineAddr, 0u);
}

TEST(Cache, MarkDirtyAndReinsert)
{
    Cache c(64 * 1024, 8);
    c.insert(0, 0, StallTag::kDram, false);
    c.markDirty(0);
    const Eviction none = c.insert(0, 100, StallTag::kL2, false);
    EXPECT_FALSE(none.valid);  // refresh, not new insert
    c.invalidate(0);
    EXPECT_FALSE(c.contains(0));
}

namespace cxlsim::cpu {

/** White-box view of a Cache's raw state (a friend of Cache). */
struct CacheInspector
{
    /**
     * The first difference between @p a and @p b in tags, metadata
     * of valid ways (an empty way's is never read), MRU hints or
     * stamp counter; "" when there is none.
     */
    static std::string
    diff(const Cache &a, const Cache &b)
    {
        if (a.sets_ != b.sets_ || a.ways_ != b.ways_)
            return "geometry";
        if (a.stamp_ != b.stamp_)
            return "stamp " + std::to_string(a.stamp_) + " vs " +
                   std::to_string(b.stamp_);
        for (std::uint64_t s = 0; s < a.sets_; ++s) {
            const std::string at = " of set " + std::to_string(s);
            if (a.mru_[s] != b.mru_[s])
                return "mru" + at;
            for (unsigned w = 0; w < a.ways_; ++w) {
                const std::size_t i = s * a.ways_ + w;
                const std::string way = at + " way " + std::to_string(w);
                if (a.tags_[i] != b.tags_[i])
                    return "tag" + way;
                if (!a.tags_[i])
                    continue;
                const Cache::Meta &x = a.meta_[i];
                const Cache::Meta &y = b.meta_[i];
                if (x.readyAt != y.readyAt)
                    return "readyAt" + way;
                if (x.lruStamp != y.lruStamp)
                    return "lruStamp" + way;
                if (x.home != y.home)
                    return "home" + way;
                if (x.dirty != y.dirty)
                    return "dirty" + way;
            }
        }
        return "";
    }

    static const void *tags(const Cache &c) { return c.tags_.get(); }
    static const void *meta(const Cache &c) { return c.meta_.get(); }
};

}  // namespace cxlsim::cpu

namespace {

/** The oracle for Cache::fill(): one insert per line, in order. */
void
insertEach(Cache *c, std::span<const LineRange> ranges, StallTag home)
{
    for (const LineRange &r : ranges)
        for (std::uint64_t i = 0; i < r.lines; ++i)
            c->insert(r.first + i * kCacheLineBytes, 0, home, false);
}

/** @p parts joined by '_' as a test-name suffix: a prime becomes
 *  'p', any other non-alphanumeric '_'. */
template <typename... Parts>
std::string
paramName(const Parts &...parts)
{
    std::string out;
    for (const std::string &p : {std::string(parts)...})
        out += (out.empty() ? "" : "_") + p;
    for (char &c : out)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = c == '\'' ? 'p' : '_';
    return out;
}

CpuProfile
cpuNamed(const std::string &name)
{
    if (name == "EMR")
        return emr();
    if (name == "EMR'")
        return emrPrime();
    if (name == "SPR")
        return spr();
    return skx();
}

}  // namespace

/**
 * fill() leaves exactly the state of per-line inserts, for the LLC
 * and L2 geometries of every CPU and the core counts figures run:
 * each core's share of 0.7 of the LLC, so the L3 fills without
 * evicting while the L2s wrap many times (except SKX's at 32
 * cores). Ranges start off set boundaries and leave gaps.
 */
class CacheFillOracle
    : public ::testing::TestWithParam<std::tuple<const char *, unsigned>>
{
};

TEST_P(CacheFillOracle, MatchesPerLineInserts)
{
    const CpuProfile p = cpuNamed(std::get<0>(GetParam()));
    const unsigned cores = std::get<1>(GetParam());
    const std::uint64_t share = static_cast<std::uint64_t>(
        0.7 * static_cast<double>(p.l3.sizeBytes / kCacheLineBytes) /
        cores);
    std::vector<LineRange> ranges;
    for (unsigned c = 0; c < cores; ++c)
        ranges.push_back(
            {(c * (share + 37) + 5) * kCacheLineBytes, share});

    for (unsigned c = 0; c < cores; ++c) {
        Cache fast(p.l2.sizeBytes, p.l2.ways);
        Cache ref(p.l2.sizeBytes, p.l2.ways);
        fast.fill({&ranges[c], 1}, StallTag::kL2);
        insertEach(&ref, {&ranges[c], 1}, StallTag::kL2);
        ASSERT_EQ(CacheInspector::diff(fast, ref), "") << "L2 " << c;
    }
    Cache fast(p.l3.sizeBytes, p.l3.ways);
    Cache ref(p.l3.sizeBytes, p.l3.ways);
    fast.fill(ranges, StallTag::kL3);
    insertEach(&ref, ranges, StallTag::kL3);
    EXPECT_EQ(CacheInspector::diff(fast, ref), "");
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheFillOracle,
    ::testing::Combine(::testing::Values("EMR", "EMR'", "SPR", "SKX"),
                       ::testing::Values(1u, 2u, 8u, 32u)),
    [](const auto &info) {
        return paramName(std::get<0>(info.param),
                         std::to_string(std::get<1>(info.param)));
    });

TEST(CacheFill, EmptyRangesInsertNothing)
{
    const LineRange none{4096, 0};
    Cache empty(64 * 1024, 8), fresh(64 * 1024, 8);
    empty.fill({&none, 1}, StallTag::kL2);
    EXPECT_EQ(CacheInspector::diff(empty, fresh), "");

    // An empty range between two others, which wrap the 128 sets.
    const std::vector<LineRange> ranges = {
        {64 * 3, 1000}, {64 * 2000, 0}, {64 * 1003, 300}};
    Cache fast(64 * 1024, 8), ref(64 * 1024, 8);
    fast.fill(ranges, StallTag::kL3);
    insertEach(&ref, ranges, StallTag::kL3);
    EXPECT_EQ(CacheInspector::diff(fast, ref), "");
}

TEST(CacheFillDeathTest, RefusesOverlapsAndAWarmCache)
{
    const std::vector<LineRange> overlap = {{0, 10}, {64 * 9, 10}};
    Cache c(64 * 1024, 8);
    EXPECT_DEATH(c.fill(overlap, StallTag::kL3), "ranges overlap");
    c.insert(0, 0, StallTag::kL3, false);
    const LineRange one{64, 1};
    EXPECT_DEATH(c.fill({&one, 1}, StallTag::kL3), "empty cache");
}

/** A suite workload, run on @p threads cores when nonzero. */
struct WarmedWorkload
{
    const char *name;
    unsigned threads;
};

/**
 * MemoryHierarchy::warm() over real kernels' preload ranges leaves
 * every L2 and the LLC as per-line inserts do, core by core, each
 * line into the core's L2 and then the LLC.
 * Covers whole partitions (the ubench workloads, also split over 3
 * cores so that partitions are not line-aligned) and hot regions of
 * 8- and 10-thread workloads, whose 10 partitions are not
 * line-aligned either.
 */
class WarmOracle
    : public ::testing::TestWithParam<std::tuple<const char *, WarmedWorkload>>
{
};

TEST_P(WarmOracle, MatchesPerLinePreload)
{
    const WarmedWorkload ww = std::get<1>(GetParam());
    auto w = workloads::byName(ww.name);
    if (ww.threads)
        w.threads = ww.threads;
    melody::Platform plat(std::get<0>(GetParam()), "Local");
    const CpuProfile &p = plat.cpu();
    auto be = plat.makeBackend(1);
    const auto kernels = workloads::makeKernels(w);
    const auto n = static_cast<unsigned>(kernels.size());
    const std::uint64_t budget = static_cast<std::uint64_t>(
        0.7 * static_cast<double>(p.l3.sizeBytes) / n);
    std::vector<LineRange> ranges;
    for (const auto &k : kernels)
        ranges.push_back(k->preloadRange(budget));

    MemoryHierarchy h(p, n, be.get());
    h.warm(ranges);
    Cache l3(p.l3.sizeBytes, p.l3.ways);
    for (unsigned c = 0; c < n; ++c) {
        Cache l2(p.l2.sizeBytes, p.l2.ways);
        for (std::uint64_t i = 0; i < ranges[c].lines; ++i) {
            const Addr a = ranges[c].first + i * kCacheLineBytes;
            l2.insert(a, 0, StallTag::kL2, false);
            l3.insert(a, 0, StallTag::kL3, false);
        }
        ASSERT_EQ(CacheInspector::diff(h.l2(c), l2), "") << "L2 " << c;
    }
    EXPECT_EQ(CacheInspector::diff(h.l3(), l3), "");
}

INSTANTIATE_TEST_SUITE_P(
    SuiteWorkloads, WarmOracle,
    ::testing::Combine(::testing::Values("EMR2S", "EMR2S'", "SPR2S",
                                         "SKX2S"),
                       ::testing::Values(
                           WarmedWorkload{"ubench-rnd-64m-i1", 0},
                           WarmedWorkload{"ubench-chase-64m-i2", 0},
                           WarmedWorkload{"bfs-web", 0},
                           WarmedWorkload{"603.bwaves_s", 0},
                           WarmedWorkload{"ubench-rnd-64m-i1", 3})),
    [](const auto &info) {
        const WarmedWorkload &ww = std::get<1>(info.param);
        if (!ww.threads)
            return paramName(std::get<0>(info.param), ww.name);
        return paramName(std::get<0>(info.param), ww.name,
                         std::to_string(ww.threads) + "t");
    });

/**
 * A destroyed cache leaves its huge-page arrays to the next cache of
 * its geometry built on the same thread, which must start empty:
 * it misses on every line the previous owner held.
 */
TEST(CacheFill, ReusedArraysMissOnEveryPreviouslyHeldLine)
{
    const CacheGeometry g = emr().l3;
    const LineRange all{0, g.sizeBytes / kCacheLineBytes};
    const void *tags = nullptr;
    const void *meta = nullptr;
    {
        Cache first(g.sizeBytes, g.ways);
        first.fill({&all, 1}, StallTag::kL3);
        first.markDirty(0);
        ASSERT_TRUE(first.contains(0));
        tags = CacheInspector::tags(first);
        meta = CacheInspector::meta(first);
    }
    Cache second(g.sizeBytes, g.ways);
    ASSERT_EQ(CacheInspector::tags(second), tags);
    ASSERT_EQ(CacheInspector::meta(second), meta);
    Tick ready;
    StallTag home;
    std::uint64_t found = 0;
    for (std::uint64_t i = 0; i < all.lines; ++i) {
        const Addr a = i * kCacheLineBytes;
        found += second.contains(a);
        found += second.lookup(a, 0, &ready, &home) != LookupResult::kMiss;
    }
    EXPECT_EQ(found, 0u);
    EXPECT_EQ(second.misses(), all.lines);

    // Warmed again, it matches a cache on fresh pages.
    const LineRange some{64 * 7, all.lines / 3};
    Cache fresh(g.sizeBytes, g.ways);
    ASSERT_NE(CacheInspector::tags(fresh), tags);
    second.fill({&some, 1}, StallTag::kL3);
    fresh.fill({&some, 1}, StallTag::kL3);
    EXPECT_EQ(CacheInspector::diff(second, fresh), "");
}

TEST(StridePrefetcher, TrainsOnConstantStride)
{
    PrefetcherConfig cfg{true, 4, 8, 2};
    StridePrefetcher pf(cfg);
    std::vector<Addr> out;
    pf.observe(1, 0 * 64, &out);
    EXPECT_TRUE(out.empty());
    pf.observe(1, 1 * 64, &out);
    EXPECT_TRUE(out.empty());  // confidence 1
    pf.observe(1, 2 * 64, &out);
    // Confidence reaches the threshold here: nominations begin.
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], 3u * 64);
    EXPECT_EQ(out[3], 6u * 64);
    pf.observe(1, 3 * 64, &out);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], 4u * 64);
    EXPECT_EQ(out[3], 7u * 64);
}

TEST(StridePrefetcher, NonUnitStride)
{
    PrefetcherConfig cfg{true, 2, 8, 2};
    StridePrefetcher pf(cfg);
    std::vector<Addr> out;
    for (Addr a = 0; a < 5 * 256; a += 256)
        pf.observe(3, a, &out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], 4u * 256 + 256);
}

TEST(StridePrefetcher, RandomAddressesNeverTrain)
{
    PrefetcherConfig cfg{true, 4, 8, 2};
    StridePrefetcher pf(cfg);
    Rng r(3);
    std::vector<Addr> out;
    std::size_t nominated = 0;
    for (int i = 0; i < 1000; ++i) {
        pf.observe(5, r.below(1 << 20) * 64, &out);
        nominated += out.size();
    }
    EXPECT_LT(nominated, 50u);
}

TEST(StridePrefetcher, DisabledNominatesNothing)
{
    PrefetcherConfig cfg{false, 4, 8, 2};
    StridePrefetcher pf(cfg);
    std::vector<Addr> out;
    for (Addr a = 0; a < 64 * 64; a += 64)
        pf.observe(1, a, &out);
    EXPECT_TRUE(out.empty());
}

TEST(StreamPrefetcher, NominatesAheadWithinBudget)
{
    PrefetcherConfig cfg{true, 8, 16, 2};
    StreamPrefetcher pf(cfg);
    std::vector<Addr> out;
    pf.observe(0 * 64, 100, &out);
    pf.observe(1 * 64, 100, &out);
    pf.observe(2 * 64, 100, &out);
    ASSERT_FALSE(out.empty());
    // Frontier starts right after the demand line.
    EXPECT_EQ(out.front(), 3u * 64);
    // Next observation continues from the frontier, no re-issue.
    const Addr prevEnd = out.back();
    pf.observe(3 * 64, 100, &out);
    if (!out.empty()) {
        EXPECT_GT(out.front(), prevEnd);
    }
}

TEST(StreamPrefetcher, BudgetBoundsNominations)
{
    PrefetcherConfig cfg{true, 16, 32, 2};
    StreamPrefetcher pf(cfg);
    std::vector<Addr> out;
    pf.observe(0, 100, &out);
    pf.observe(64, 100, &out);
    pf.observe(128, 2, &out);  // only 2 in-flight slots left
    EXPECT_LE(out.size(), 2u);
    pf.observe(192, 0, &out);
    EXPECT_TRUE(out.empty());
}

TEST(StreamPrefetcher, StaysWithinPage)
{
    PrefetcherConfig cfg{true, 32, 64, 2};
    StreamPrefetcher pf(cfg);
    std::vector<Addr> out;
    const Addr lastLines = 4096 - 3 * 64;
    pf.observe(lastLines, 100, &out);
    pf.observe(lastLines + 64, 100, &out);
    pf.observe(lastLines + 128, 100, &out);
    for (Addr a : out)
        EXPECT_LT(a, 4096u);
}

namespace {

CounterSet
runCounters(const workloads::WorkloadProfile &w, const char *memory,
            bool pf_on = true, Tick *wall = nullptr)
{
    melody::Platform plat("EMR2S", memory);
    auto backend = plat.makeBackend(71 ^ w.seed);
    MultiCore mc(plat.cpu(), w.exec, backend.get(),
                 workloads::makeKernels(w), pf_on);
    auto r = mc.run();
    if (wall)
        *wall = r.wallTicks;
    return r.counters;
}

workloads::WorkloadProfile
smallWorkload(const std::string &name)
{
    workloads::WorkloadProfile w = workloads::byName(name);
    w.blocksPerCore = std::min<std::uint64_t>(w.blocksPerCore, 30000);
    return w;
}

}  // namespace

/** Property: Intel counter nesting P1 >= P3 >= P4 >= P5 and
 *  P6 >= P1 + P2 across a spread of workloads and backends. */
class CounterInvariants
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(CounterInvariants, NestingHolds)
{
    for (const char *mem : {"Local", "CXL-B"}) {
        const CounterSet c =
            runCounters(smallWorkload(GetParam()), mem);
        EXPECT_GE(c.p1 + 1e-6, c.p3) << mem;
        EXPECT_GE(c.p3 + 1e-6, c.p4) << mem;
        EXPECT_GE(c.p4 + 1e-6, c.p5) << mem;
        EXPECT_GE(c.p6 + 1e-6, c.p1 + c.p2) << mem;
        EXPECT_GT(c.cycles, 0.0);
        EXPECT_GT(c.instructions, 0.0);
        // Stall components are non-negative by construction.
        EXPECT_GE(c.sL1() + 1e-6, 0.0);
        EXPECT_GE(c.sL2() + 1e-6, 0.0);
        EXPECT_GE(c.sL3() + 1e-6, 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, CounterInvariants,
    ::testing::Values("605.mcf_s", "603.bwaves_s", "redis/ycsb-c",
                      "519.lbm_r", "pts-openssl", "bfs-web",
                      "ubench-chase-256m-i7"));

TEST(Core, InstructionsInvariantAcrossBackends)
{
    const auto w = smallWorkload("605.mcf_s");
    const CounterSet local = runCounters(w, "Local");
    const CounterSet cxl = runCounters(w, "CXL-B");
    // Same instruction stream retires on both (§5.6 relies on it).
    EXPECT_DOUBLE_EQ(local.instructions, cxl.instructions);
    EXPECT_GT(cxl.cycles, local.cycles);
}

TEST(Core, ChaseSlowerThanStream)
{
    auto chase = smallWorkload("ubench-chase-4096m-i17");
    auto stream = smallWorkload("ubench-seq-4096m-i35");
    Tick wallChase, wallStream;
    const CounterSet c1 = runCounters(chase, "CXL-A", true,
                                      &wallChase);
    const CounterSet c2 = runCounters(stream, "CXL-A", true,
                                      &wallStream);
    const double ipcChase = c1.instructions / c1.cycles;
    const double ipcStream = c2.instructions / c2.cycles;
    EXPECT_LT(ipcChase, ipcStream);
}

TEST(Core, DramBoundChaseChargesP5)
{
    auto w = smallWorkload("ubench-chase-4096m-i17");
    const CounterSet c = runCounters(w, "CXL-A");
    // Almost all memory stalls should be LLC-miss (DRAM) stalls.
    EXPECT_GT(c.sDram(), 0.5 * (c.p1 + 1e-9));
}

TEST(Core, StoreBufferPressureChargesP2)
{
    workloads::WorkloadProfile w = workloads::byName("519.lbm_r");
    w.blocksPerCore = 20000;
    w.threads = 2;
    w.storesPerBlock = 2.0;  // exaggerate store pressure
    w.storeHotFrac = 0.0;
    const CounterSet c = runCounters(w, "CXL-C");
    EXPECT_GT(c.p2, 0.0);
}

TEST(Core, PrefetchersOffRemovesCacheStalls)
{
    // Finding #4's control experiment: with HW prefetchers off,
    // there are no pending prefetch lines, so (differential) cache
    // stall components vanish and everything lands in DRAM stalls.
    auto w = smallWorkload("ubench-seq-4096m-i35");
    Tick wallL, wallC;
    melody::Platform lp("EMR2S", "Local"), cp("EMR2S", "CXL-A");

    auto lb = lp.makeBackend(73);
    MultiCore ml(lp.cpu(), w.exec, lb.get(),
                 workloads::makeKernels(w), /*pf=*/false);
    auto rl = ml.run();
    wallL = rl.wallTicks;

    auto cb = cp.makeBackend(73);
    MultiCore mcxl(cp.cpu(), w.exec, cb.get(),
                   workloads::makeKernels(w), /*pf=*/false);
    auto rc = mcxl.run();
    wallC = rc.wallTicks;
    EXPECT_GT(wallC, wallL);

    const CounterSet d = rc.counters - rl.counters;
    const double cacheStalls = d.sL1() + d.sL2() + d.sL3();
    // With PF off, cache-stall deltas are ~0 vs the DRAM delta.
    EXPECT_LT(std::abs(cacheStalls), 0.05 * d.sDram() + 1e3);
    EXPECT_EQ(rc.counters.l1pfIssued, 0u);
    EXPECT_EQ(rc.counters.l2pfIssued, 0u);
}

TEST(Core, PrefetchersImproveStreamPerformance)
{
    auto w = smallWorkload("ubench-seq-4096m-i35");
    Tick wallOn = 0, wallOff = 0;
    runCounters(w, "Local", true, &wallOn);
    runCounters(w, "Local", false, &wallOff);
    EXPECT_LT(wallOn, wallOff);
}

TEST(Hierarchy, DemandMissFillsAllLevels)
{
    melody::Platform lp("EMR2S", "Local");
    auto be = lp.makeBackend(79);
    MemoryHierarchy h(lp.cpu(), 1, be.get(), false);
    const auto out = h.demandLoad(0, 4096, 0, 0);
    EXPECT_FALSE(out.immediate);
    EXPECT_EQ(out.tag, StallTag::kDram);
    // After the fill arrives the line hits in L1.
    const auto again = h.demandLoad(0, 4096, 0, out.readyAt + 1);
    EXPECT_TRUE(again.immediate);
}

TEST(Hierarchy, PendingMergeAttributesToDram)
{
    melody::Platform lp("EMR2S", "Local");
    auto be = lp.makeBackend(83);
    MemoryHierarchy h(lp.cpu(), 1, be.get(), false);
    const auto first = h.demandLoad(0, 8192, 0, 0);
    const auto merged = h.demandLoad(0, 8192, 0, 10);
    EXPECT_EQ(merged.tag, StallTag::kDram);
    EXPECT_LE(merged.readyAt, first.readyAt + nsToTicks(20));
}

TEST(Hierarchy, PreloadMakesLinesResident)
{
    melody::Platform lp("EMR2S", "Local");
    auto be = lp.makeBackend(89);
    MemoryHierarchy h(lp.cpu(), 1, be.get(), false);
    const LineRange line{1 << 20, 1};
    h.warm({&line, 1});
    const auto out = h.demandLoad(0, 1 << 20, 0, 0);
    EXPECT_FALSE(out.immediate);  // L2 hit, small latency
    EXPECT_EQ(out.tag, StallTag::kL2);
    EXPECT_LT(ticksToNs(out.readyAt), 30.0);
}

TEST(Hierarchy, RfoMissGoesToBackend)
{
    melody::Platform lp("EMR2S", "Local");
    auto be = lp.makeBackend(97);
    MemoryHierarchy h(lp.cpu(), 1, be.get(), false);
    const Tick done = h.storeRfo(0, 1 << 21, 0);
    EXPECT_GT(ticksToNs(done), 80.0);  // full memory round trip
    EXPECT_EQ(be->stats().reads, 1u);  // RFO counts as a read
    // A second store to the same line is cheap once owned.
    const Tick again = h.storeRfo(0, 1 << 21, done + 100);
    EXPECT_LT(ticksToNs(again - done - 100), 5.0);
}

TEST(Hierarchy, DirtyEvictionsReachBackendAsWritebacks)
{
    melody::Platform lp("EMR2S", "Local");
    // Tiny-cache profile to force eviction cascades quickly.
    CpuProfile prof = lp.cpu();
    prof.l1 = {4 * 1024, 4, 4.0};
    prof.l2 = {16 * 1024, 4, 14.0};
    prof.l3 = {64 * 1024, 4, 40.0};
    auto be = lp.makeBackend(101);
    MemoryHierarchy h(prof, 1, be.get(), false);
    Tick now = 0;
    for (Addr a = 0; a < (1 << 20); a += kCacheLineBytes)
        now = h.storeRfo(0, a, now) + 10;
    EXPECT_GT(be->stats().writes, 100u);
}

TEST(MultiCore, SymmetricCoresFinishTogether)
{
    auto w = smallWorkload("bfs-web");
    w.threads = 4;
    melody::Platform lp("EMR2S", "Local");
    auto be = lp.makeBackend(103);
    MultiCore mc(lp.cpu(), w.exec, be.get(),
                 workloads::makeKernels(w));
    auto r = mc.run();
    EXPECT_GT(r.wallTicks, 0u);
    EXPECT_GT(r.backendStats.requests(), 100u);
    EXPECT_GT(r.backendGBps(), 0.0);
}

TEST(MultiCore, SamplingProducesMonotonicSamples)
{
    auto w = smallWorkload("602.gcc_s");
    melody::Platform lp("EMR2S", "Local");
    auto be = lp.makeBackend(107);
    MultiCore mc(lp.cpu(), w.exec, be.get(),
                 workloads::makeKernels(w));
    mc.enableSampling(usToTicks(5));
    auto r = mc.run();
    ASSERT_GT(r.samples.size(), 3u);
    for (std::size_t i = 1; i < r.samples.size(); ++i) {
        EXPECT_GT(r.samples[i].when, r.samples[i - 1].when);
        EXPECT_GE(r.samples[i].counters.instructions,
                  r.samples[i - 1].counters.instructions);
        EXPECT_GE(r.samples[i].counters.cycles,
                  r.samples[i - 1].counters.cycles);
    }
}

namespace {

/** A suite workload shrunk further for the scheduler tests, which
 *  run it twice (or under the invariant checker) per case. */
workloads::WorkloadProfile
tinyWorkload(const std::string &name)
{
    workloads::WorkloadProfile w = workloads::byName(name);
    w.blocksPerCore = std::min<std::uint64_t>(w.blocksPerCore, 2000);
    return w;
}

/** Counts every read twice, so backend traffic no longer matches
 *  the hierarchy's own miss/writeback accounting. */
class DoubleCountingBackend : public mem::MemoryBackend
{
  public:
    explicit DoubleCountingBackend(mem::BackendPtr inner)
        : inner_(std::move(inner))
    {
    }

    Tick
    access(Addr addr, mem::ReqType type, Tick now) override
    {
        note(type);
        if (mem::isRead(type))
            note(type);
        return inner_->access(addr, type, now);
    }

    const std::string &name() const override { return inner_->name(); }

  private:
    mem::BackendPtr inner_;
};

}  // namespace

/**
 * The indexed min-heap scheduler must step cores in exactly the
 * order of a plain linear scan for the earliest (now, index) core,
 * so every request reaches the shared backend in the same sequence.
 * Covers the single-core fast path (mcf) and 2-, 6- and 10-core
 * heaps.
 */
class MultiCoreSchedule : public ::testing::TestWithParam<const char *>
{
};

TEST_P(MultiCoreSchedule, HeapMatchesLinearScan)
{
    const auto w = tinyWorkload(GetParam());
    melody::Platform plat("EMR2S", "CXL-A");

    auto heapBackend = plat.makeBackend(11);
    MultiCore mc(plat.cpu(), w.exec, heapBackend.get(),
                 workloads::makeKernels(w));
    const RunResult heap = mc.run();

    // Reference: the same construction as MultiCore, driven by a
    // linear scan (ties go to the lowest core index).
    auto scanBackend = plat.makeBackend(11);
    auto kernels = workloads::makeKernels(w);
    const auto n = static_cast<unsigned>(kernels.size());
    ASSERT_EQ(n, w.threads);
    MemoryHierarchy hier(plat.cpu(), n, scanBackend.get(), true);
    const std::uint64_t preloadBudget = static_cast<std::uint64_t>(
        0.7 * static_cast<double>(plat.cpu().l3.sizeBytes) /
        static_cast<double>(n));
    std::vector<LineRange> preload;
    for (const auto &k : kernels)
        preload.push_back(k->preloadRange(preloadBudget));
    hier.warm(preload);
    std::vector<std::unique_ptr<Core>> cores;
    for (unsigned c = 0; c < n; ++c)
        cores.push_back(std::make_unique<Core>(
            plat.cpu(), w.exec, &hier, c, kernels[c].get()));
    std::vector<bool> live(n, true);
    for (;;) {
        int next = -1;
        for (unsigned c = 0; c < n; ++c)
            if (live[c] &&
                (next < 0 || cores[c]->now() < cores[next]->now()))
                next = static_cast<int>(c);
        if (next < 0)
            break;
        if (!cores[next]->step())
            live[next] = false;
    }
    Tick wall = 0;
    CounterSet sum;
    for (const auto &c : cores) {
        wall = std::max(wall, c->now());
        sum += c->counters();
    }
    sum.scale(1.0 / static_cast<double>(n));

    EXPECT_EQ(heap.wallTicks, wall);
    EXPECT_EQ(heap.counters.cycles, sum.cycles);
    EXPECT_EQ(heap.counters.instructions, sum.instructions);
    EXPECT_EQ(heap.counters.p1, sum.p1);
    EXPECT_EQ(heap.counters.p3, sum.p3);
    EXPECT_EQ(heap.counters.p5, sum.p5);
    EXPECT_EQ(heap.counters.p6, sum.p6);
    EXPECT_EQ(heap.counters.demandL3Miss, sum.demandL3Miss);
    EXPECT_EQ(heap.counters.l2pfIssued, sum.l2pfIssued);
    EXPECT_EQ(heap.backendStats.reads, scanBackend->stats().reads);
    EXPECT_EQ(heap.backendStats.writes, scanBackend->stats().writes);
    EXPECT_GT(heap.backendStats.requests(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Workloads, MultiCoreSchedule,
                         ::testing::Values("605.mcf_s", "602.gcc_s",
                                           "519.lbm_r",
                                           "603.bwaves_s"));

/** The end-of-run accounting checks hold on fault-free runs at
 *  every core count the scheduler handles. */
class MultiCoreInvariants
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(MultiCoreInvariants, CleanRunRecordsNoViolations)
{
    const auto w = tinyWorkload(GetParam());
    melody::Platform plat("EMR2S", "CXL-B");
    auto be = plat.makeBackend(13);
    sim::Invariants inv;
    {
        sim::InvariantScope scope(&inv);
        MultiCore mc(plat.cpu(), w.exec, be.get(),
                     workloads::makeKernels(w));
        const RunResult r = mc.run();
        EXPECT_GT(r.backendStats.requests(), 0u);
    }
    for (const auto &v : inv.violations())
        ADD_FAILURE() << v.invariant << " @ " << v.where << ": "
                      << v.values;
    EXPECT_FALSE(inv.failed());
}

INSTANTIATE_TEST_SUITE_P(Workloads, MultiCoreInvariants,
                         ::testing::Values("605.mcf_s", "602.gcc_s",
                                           "519.lbm_r",
                                           "603.bwaves_s"));

TEST(MultiCore, DoubleCountedReadsBreakConservation)
{
    // The clean-run checks above must be able to fail: a backend
    // whose read count disagrees with the hierarchy's misses is
    // reported as a conservation violation at the backend.
    const auto w = tinyWorkload("602.gcc_s");
    melody::Platform plat("EMR2S", "Local");
    DoubleCountingBackend be(plat.makeBackend(17));
    sim::Invariants inv;
    {
        sim::InvariantScope scope(&inv);
        MultiCore mc(plat.cpu(), w.exec, &be,
                     workloads::makeKernels(w));
        (void)mc.run();
    }
    ASSERT_TRUE(inv.failed());
    ASSERT_EQ(inv.violations().size(), 1u);
    EXPECT_EQ(inv.violations()[0].invariant, "counters/conservation");
    EXPECT_EQ(inv.violations()[0].where, "backend");
}

TEST(Profiles, SkxVsSprPrefetchHoming)
{
    EXPECT_FALSE(skx().l2pfFillsL3);
    EXPECT_TRUE(spr().l2pfFillsL3);
    EXPECT_TRUE(emr().l2pfFillsL3);
    EXPECT_GT(emr().l3.sizeBytes, spr().l3.sizeBytes);
    EXPECT_GT(emrPrime().l3.sizeBytes, emr().l3.sizeBytes);
    EXPECT_LT(skx().robSize, spr().robSize);
}

TEST(Core, PiecewiseStallAttribution)
{
    // A 16-cycle L2 hit coexisting with a 300ns DRAM wait must not
    // taint the whole window as sL2: the DRAM portion dominates.
    workloads::WorkloadProfile w =
        workloads::byName("ubench-rnd-4096m-i56");
    w.blocksPerCore = 20000;
    w.hotFrac = 0.5;  // plenty of L2/L3 traffic alongside misses
    w.dependentFrac = 0.3;
    const CounterSet local = runCounters(w, "Local");
    const CounterSet cxl = runCounters(w, "CXL-A");
    const CounterSet d = cxl - local;
    // The latency delta lands overwhelmingly at DRAM (P5), not in
    // the cache bands.
    EXPECT_GT(d.sDram(), 5.0 * std::max(1.0, d.sL2()));
}

TEST(Core, FrontendStallsBackendInvariant)
{
    // Frontend stalls (P6 minus backend stalls) are a workload
    // property: their delta across backends is ~0 (§5.3).
    auto w = smallWorkload("redis/ycsb-c");
    const CounterSet local = runCounters(w, "Local");
    const CounterSet cxl = runCounters(w, "CXL-B");
    const double feLocal = local.p6 - local.p1 - local.p2;
    const double feCxl = cxl.p6 - cxl.p1 - cxl.p2;
    EXPECT_NEAR(feCxl, feLocal,
                0.05 * std::max(feLocal, 1.0) + 100.0);
}

TEST(Hierarchy, L2pfHomesDifferBySku)
{
    // SKX streamer fills L2 (pending tag kL2); SPR/EMR fill the
    // LLC (pending tag kL3) — the §5.4 mechanism.
    for (bool fillsL3 : {false, true}) {
        CpuProfile prof = fillsL3 ? emr() : skx();
        melody::Platform lp("EMR2S", "CXL-A");
        auto be = lp.makeBackend(301);
        MemoryHierarchy h(prof, 1, be.get(), true);
        // Train the streamer with a clean sequential stream.
        Tick now = 0;
        LoadOutcome out{};
        for (Addr a = 1 << 24; a < (1 << 24) + 64 * 200;
             a += kCacheLineBytes) {
            out = h.demandLoad(0, a, 1, now);
            // Fast consumption: the stream outruns in-flight fills.
            now += nsToTicks(4);
        }
        // A near-future stream line should be pending with the
        // SKU-appropriate home.
        bool sawExpected = false;
        for (int k = 0; k < 40 && !sawExpected; ++k) {
            const Addr next =
                (1 << 24) + 64 * (200 + k);
            const auto o = h.demandLoad(0, next, 1, now);
            if (!o.immediate &&
                o.tag == (fillsL3 ? StallTag::kL3 : StallTag::kL2))
                sawExpected = true;
            now += nsToTicks(2);
        }
        EXPECT_TRUE(sawExpected)
            << (fillsL3 ? "EMR" : "SKX");
    }
}
