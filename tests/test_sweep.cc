/**
 * @file
 * Sweep-engine contract tests: byte-identical output for any job
 * count, cache round trips that reproduce cache-miss bytes exactly
 * (including corrupted-entry fallback), salt invalidation, and
 * figure-level determinism for a few real benches.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/figures.hh"
#include "sim/logging.hh"
#include "sim/sweep.hh"

using namespace cxlsim;

namespace {

/** A synthetic sweep exercising every item kind: text, 1-slot
 *  points, a multi-slot point, and a gather over hidden slots. */
void
buildSynthetic(sweep::Sweep &s)
{
    s.scope("synthetic");
    s.text("header\n");
    std::vector<sweep::Sweep::SlotRef> hidden;
    for (int i = 0; i < 20; ++i) {
        const std::size_t id = s.point(
            "row|" + std::to_string(i), 2,
            [i](sweep::Emit *slots) {
                slots[0].printf("row %d value %d\n", i, i * i);
                slots[1].hexDoubles({i * 0.125, i * 1.5});
            });
        s.place(id, 0);
        hidden.push_back({id, 1});
    }
    s.textf("mid %s\n", "section");
    s.gather(hidden, [](const std::vector<std::string> &in,
                        sweep::Emit &out) {
        double sum = 0;
        for (const auto &slot : in)
            sum += sweep::parseHexDoubles(slot).at(1);
        out.printf("sum %.6f over %zu rows\n", sum, in.size());
    });
}

std::string
renderSynthetic(const sweep::Options &opts,
                sweep::Sweep::Report *rep = nullptr)
{
    sweep::Sweep s("test-sweep", opts);
    buildSynthetic(s);
    return s.renderToString(rep);
}

sweep::Options
noCache()
{
    sweep::Options o;
    o.cache = false;
    return o;
}

sweep::Options
cacheAt(const std::string &dir)
{
    sweep::Options o;
    o.cache = true;
    o.cacheDir = dir;
    return o;
}

std::string
freshDir(const char *leaf)
{
    namespace fs = std::filesystem;
    const fs::path d = fs::path(testing::TempDir()) / leaf;
    fs::remove_all(d);
    return d.string();
}

}  // namespace

TEST(Sweep, ParallelOutputMatchesSerialByteForByte)
{
    sweep::Options serial = noCache();
    serial.jobs = 1;
    sweep::Options par = noCache();
    par.jobs = 8;
    const std::string a = renderSynthetic(serial);
    const std::string b = renderSynthetic(par);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(Sweep, WarmCacheReproducesColdBytesExactly)
{
    const std::string dir = freshDir("sweep-warm");
    sweep::Sweep::Report cold, warm;
    const std::string a = renderSynthetic(cacheAt(dir), &cold);
    const std::string b = renderSynthetic(cacheAt(dir), &warm);
    EXPECT_EQ(a, b);
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(cold.cacheStores, cold.points);
    EXPECT_EQ(warm.cacheHits, warm.points);
    EXPECT_EQ(warm.cacheStores, 0u);
    EXPECT_EQ(warm.corruptEntries, 0u);
}

TEST(Sweep, CorruptedEntriesFallBackToRecompute)
{
    namespace fs = std::filesystem;
    const std::string dir = freshDir("sweep-corrupt");
    const std::string a = renderSynthetic(cacheAt(dir));

    // Truncate one entry and scribble over another: both must be
    // detected, recomputed, and re-stored with identical output.
    // Only .rcache files are entries — the dir also holds the
    // cross-process lock file.
    std::vector<fs::path> entries;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().extension() == ".rcache")
            entries.push_back(e.path());
    ASSERT_GE(entries.size(), 2u);
    std::sort(entries.begin(), entries.end());
    fs::resize_file(entries[0], 4);
    {
        std::ofstream f(entries[1], std::ios::binary);
        f << "melody-runcache 1\nnot a real entry\n";
    }

    sweep::Sweep::Report rep;
    const std::string b = renderSynthetic(cacheAt(dir), &rep);
    EXPECT_EQ(a, b);
    EXPECT_EQ(rep.corruptEntries, 2u);
    EXPECT_EQ(rep.cacheHits, rep.points - 2);
    EXPECT_EQ(rep.cacheStores, 2u);

    // The re-stored entries are valid again.
    sweep::Sweep::Report again;
    renderSynthetic(cacheAt(dir), &again);
    EXPECT_EQ(again.cacheHits, again.points);
    EXPECT_EQ(again.corruptEntries, 0u);
}

TEST(Sweep, SaltChangeInvalidatesEveryEntry)
{
    const std::string dir = freshDir("sweep-salt");
    renderSynthetic(cacheAt(dir));

    sweep::Options bumped = cacheAt(dir);
    bumped.salt = "melody-sweep-v999";
    sweep::Sweep::Report rep;
    const std::string b = renderSynthetic(bumped, &rep);
    EXPECT_EQ(rep.cacheHits, 0u);
    EXPECT_EQ(rep.cacheStores, rep.points);
    EXPECT_EQ(b, renderSynthetic(noCache()));
}

TEST(Sweep, ExceptionInPointPropagates)
{
    sweep::Options o = noCache();
    o.jobs = 4;
    sweep::Sweep s("test-throw", o);
    s.point("ok", [](sweep::Emit &out) { out.printf("fine\n"); });
    s.point("boom", [](sweep::Emit &) {
        throw ConfigError("injected failure");
    });
    EXPECT_THROW(s.renderToString(), ConfigError);
}

TEST(Sweep, PointsBeforeAThrowAreStored)
{
    // Serial, so points 1-3 finish before the 4th throws; each is
    // stored as it finishes, and the rerun takes them from the
    // cache (a recompute would throw).
    const std::string dir = freshDir("sweep-throw-resume");
    const auto build = [](sweep::Sweep &s, bool rerun) {
        for (int k = 0; k < 4; ++k)
            s.point("p" + std::to_string(k),
                    [k, rerun](sweep::Emit &out) {
                        if ((k == 3) != rerun)
                            throw ConfigError("point " +
                                              std::to_string(k));
                        out.printf("point %d\n", k);
                    });
    };
    sweep::Options o = cacheAt(dir);
    o.jobs = 1;
    {
        sweep::Sweep s("test-throw-resume", o);
        build(s, false);
        EXPECT_THROW(s.renderToString(), ConfigError);
    }
    sweep::Sweep s("test-throw-resume", o);
    build(s, true);
    sweep::Sweep::Report rep;
    EXPECT_EQ(s.renderToString(&rep),
              "point 0\npoint 1\npoint 2\npoint 3\n");
    EXPECT_EQ(rep.cacheHits, 3u);
    EXPECT_EQ(rep.cacheStores, 1u);
}

/** Real figures must render identical bytes at any job count —
 *  the property the whole bench migration rests on. Spot-check
 *  the three cheapest figures end to end. */
class FigureDeterminism
    : public testing::TestWithParam<const char *>
{};

TEST_P(FigureDeterminism, SerialAndParallelBytesMatch)
{
    const figs::Figure *fig = figs::find(GetParam());
    ASSERT_NE(fig, nullptr);

    auto render = [&](unsigned jobs) {
        sweep::Options o = noCache();
        o.jobs = jobs;
        sweep::Sweep s(fig->binary, o);
        s.scope(fig->binary);
        fig->build(s);
        return s.renderToString();
    };
    const std::string serial = render(1);
    const std::string par = render(8);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, par);
}

INSTANTIATE_TEST_SUITE_P(CheapFigures, FigureDeterminism,
                         testing::Values("fig01", "fig16",
                                         "usecase"));

// ---------------------------------------------------------------
// Real figures: neither the job count nor crash isolation may
// change a rendered byte.
// ---------------------------------------------------------------

TEST(Sweep, RealFiguresByteIdenticalAcrossJobsAndIsolation)
{
    // One three-figure sweep (the cheap spot-check set), in-process
    // at several job counts and isolated.
    const char *names[] = {"fig01", "fig16", "usecase"};

    const auto render = [&](bool isolate, unsigned jobs) {
        sweep::Options o = noCache();
        o.isolate = isolate;
        o.jobs = jobs;
        sweep::Sweep s("jobs-figs", o);
        for (const char *n : names) {
            const figs::Figure *f = figs::find(n);
            if (f == nullptr)
                ADD_FAILURE() << "missing figure " << n;
            else {
                s.scope(f->binary);
                f->build(s);
            }
        }
        return s.renderToString();
    };

    const std::string want = render(false, 4);
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(render(false, 1), want);
    EXPECT_EQ(render(false, 8), want);
    EXPECT_EQ(render(true, 4), want);
}

TEST(Sweep, IsolatedRunsMatchInProcessBytes)
{
    // The synthetic sweep's two-slot points carry a hidden hexfloat
    // slot into a gather, so this checks that multi-slot results
    // cross the worker pipe bit-exactly.
    sweep::Options ref = noCache();
    ref.jobs = 4;
    const std::string want = renderSynthetic(ref);
    ASSERT_FALSE(want.empty());

    for (const unsigned jobs : {1u, 4u}) {
        sweep::Options o = noCache();
        o.isolate = true;
        o.jobs = jobs;
        EXPECT_EQ(renderSynthetic(o), want) << "jobs=" << jobs;
    }
}
