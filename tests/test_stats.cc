/**
 * @file
 * Unit and property tests for the statistics library.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "stats/histogram.hh"
#include "stats/json.hh"
#include "stats/rows.hh"
#include "stats/streaming.hh"
#include "stats/summary.hh"
#include "stats/table.hh"
#include "stats/timeseries.hh"

using namespace cxlsim;
using namespace cxlsim::stats;

namespace {

/** Reference exact percentile from raw samples. */
double
refPercentile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1));
    return v[idx];
}

}  // namespace

TEST(Histogram, CountMeanMinMax)
{
    Histogram h(1, 1e6);
    h.record(100);
    h.record(200);
    h.record(300);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), 200.0);
    EXPECT_DOUBLE_EQ(h.min(), 100.0);
    EXPECT_DOUBLE_EQ(h.max(), 300.0);
}

TEST(Histogram, EmptyIsZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(0.5), 0.0);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_TRUE(h.cdfPoints().empty());
}

TEST(Histogram, SingleValuePercentiles)
{
    Histogram h(1, 1e6);
    h.recordN(500.0, 1000);
    EXPECT_NEAR(h.percentile(0.5), 500.0, 500.0 * 0.04);
    EXPECT_NEAR(h.percentile(0.999), 500.0, 500.0 * 0.04);
}

/** Property: percentiles within bucket resolution of exact values
 *  across several distributions. */
class HistogramPercentiles : public ::testing::TestWithParam<int>
{
};

TEST_P(HistogramPercentiles, MatchesExactWithinBucketError)
{
    Rng r(100 + GetParam());
    std::vector<double> samples;
    Histogram h(1, 1e7, 64);
    for (int i = 0; i < 50000; ++i) {
        double v;
        switch (GetParam()) {
          case 0:
            v = 100 + r.uniform() * 900;  // uniform
            break;
          case 1:
            v = r.exponential(300.0) + 50;  // exponential
            break;
          case 2:
            v = r.boundedPareto(100, 100000, 1.1);  // heavy tail
            break;
          default:
            v = r.normal(1000, 100);  // normal-ish
            v = std::max(v, 1.0);
            break;
        }
        samples.push_back(v);
        h.record(v);
    }
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        const double exact = refPercentile(samples, q);
        // log-bucketed with 64/decade: ~3.7% bucket width.
        EXPECT_NEAR(h.percentile(q), exact, exact * 0.06)
            << "q=" << q << " dist=" << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Distributions, HistogramPercentiles,
                         ::testing::Values(0, 1, 2, 3));

TEST(Histogram, MergeEqualsCombinedRecording)
{
    Rng r(55);
    Histogram a(1, 1e6), b(1, 1e6), both(1, 1e6);
    for (int i = 0; i < 5000; ++i) {
        const double v = 10 + r.uniform() * 1000;
        if (i % 2) {
            a.record(v);
        } else {
            b.record(v);
        }
        both.record(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_NEAR(a.mean(), both.mean(), 1e-9 * both.mean());
    EXPECT_DOUBLE_EQ(a.percentile(0.9), both.percentile(0.9));
}

TEST(Histogram, CdfPointsMonotonic)
{
    Rng r(66);
    Histogram h(1, 1e6);
    for (int i = 0; i < 10000; ++i)
        h.record(r.exponential(200));
    const auto pts = h.cdfPoints();
    ASSERT_FALSE(pts.empty());
    for (std::size_t i = 1; i < pts.size(); ++i) {
        EXPECT_GT(pts[i].first, pts[i - 1].first);
        EXPECT_GE(pts[i].second, pts[i - 1].second);
    }
    EXPECT_NEAR(pts.back().second, 1.0, 1e-12);
}

TEST(Histogram, ResetClears)
{
    Histogram h;
    h.record(5);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(0.5), 0.0);
}

TEST(Histogram, ClampsOutOfRange)
{
    Histogram h(10, 1000);
    h.record(1.0);     // below range
    h.record(1e9);     // above range
    EXPECT_EQ(h.count(), 2u);
    EXPECT_GT(h.percentile(0.9), 0.0);
}

TEST(Streaming, WelfordMatchesReference)
{
    Rng r(77);
    StreamingStats s;
    std::vector<double> v;
    for (int i = 0; i < 10000; ++i) {
        const double x = r.normal(50, 7);
        s.add(x);
        v.push_back(x);
    }
    double mean = 0;
    for (double x : v)
        mean += x;
    mean /= v.size();
    double var = 0;
    for (double x : v)
        var += (x - mean) * (x - mean);
    var /= (v.size() - 1);
    EXPECT_NEAR(s.mean(), mean, 1e-9);
    EXPECT_NEAR(s.variance(), var, 1e-6);
    EXPECT_EQ(s.count(), v.size());
}

TEST(Streaming, MergeEqualsCombined)
{
    Rng r(88);
    StreamingStats a, b, both;
    for (int i = 0; i < 2000; ++i) {
        const double x = r.uniform() * 100;
        ((i % 3) ? a : b).add(x);
        both.add(x);
    }
    a.merge(b);
    EXPECT_NEAR(a.mean(), both.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), both.variance(), 1e-6);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_EQ(a.min(), both.min());
    EXPECT_EQ(a.max(), both.max());
}

TEST(Summary, QuantileExact)
{
    std::vector<double> v{5, 1, 3, 2, 4};
    EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.0);
}

TEST(Summary, FractionBelow)
{
    std::vector<double> v{1, 2, 3, 4, 10};
    EXPECT_DOUBLE_EQ(fractionBelow(v, 4.0), 0.8);
    EXPECT_DOUBLE_EQ(fractionBelow(v, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(fractionBelow(v, 100.0), 1.0);
    EXPECT_DOUBLE_EQ(fractionBelow({}, 1.0), 0.0);
}

TEST(Summary, PearsonPerfectCorrelation)
{
    std::vector<double> x{1, 2, 3, 4, 5};
    std::vector<double> y{2, 4, 6, 8, 10};
    EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
    std::vector<double> yn{10, 8, 6, 4, 2};
    EXPECT_NEAR(pearson(x, yn), -1.0, 1e-12);
}

TEST(Summary, PearsonUncorrelated)
{
    Rng r(99);
    std::vector<double> x, y;
    for (int i = 0; i < 5000; ++i) {
        x.push_back(r.uniform());
        y.push_back(r.uniform());
    }
    EXPECT_NEAR(pearson(x, y), 0.0, 0.05);
}

TEST(Summary, RegressionSlope)
{
    std::vector<double> x{0, 1, 2, 3};
    std::vector<double> y{1, 3, 5, 7};  // slope 2
    EXPECT_NEAR(regressionSlope(x, y), 2.0, 1e-12);
}

TEST(Summary, ViolinSummaryOrdering)
{
    Rng r(111);
    std::vector<double> v;
    for (int i = 0; i < 3000; ++i)
        v.push_back(r.normal(40, 10));
    const ViolinSummary s = violinSummary(v);
    EXPECT_LE(s.min, s.p25);
    EXPECT_LE(s.p25, s.median);
    EXPECT_LE(s.median, s.p75);
    EXPECT_LE(s.p75, s.max);
    EXPECT_NEAR(s.median, 40.0, 1.0);
    ASSERT_EQ(s.gridValues.size(), s.density.size());
    // Density should peak near the median for a unimodal sample.
    std::size_t peak = 0;
    for (std::size_t i = 0; i < s.density.size(); ++i)
        if (s.density[i] > s.density[peak])
            peak = i;
    EXPECT_NEAR(s.gridValues[peak], 40.0, 8.0);
}

TEST(Summary, EmpiricalCdf)
{
    const auto pts = empiricalCdf({3, 1, 2});
    ASSERT_EQ(pts.size(), 3u);
    EXPECT_DOUBLE_EQ(pts[0].first, 1.0);
    EXPECT_NEAR(pts[0].second, 1.0 / 3, 1e-12);
    EXPECT_DOUBLE_EQ(pts[2].first, 3.0);
    EXPECT_NEAR(pts[2].second, 1.0, 1e-12);
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"A", "LongHeader"});
    t.addRow({"x", "1"});
    t.addRow({"yy", "2.5"});
    const std::string out = t.render();
    EXPECT_NE(out.find("A"), std::string::npos);
    EXPECT_NE(out.find("LongHeader"), std::string::npos);
    EXPECT_NE(out.find("yy"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, CsvFormat)
{
    Table t({"a", "b"});
    t.addRow({"1", "2"});
    EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(Table, NumFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(10.0, 0), "10");
}

TEST(TimeSeries, BasicStats)
{
    TimeSeries ts;
    ts.add(0, 1.0);
    ts.add(10, 5.0);
    ts.add(20, 3.0);
    EXPECT_EQ(ts.size(), 3u);
    EXPECT_DOUBLE_EQ(ts.maxValue(), 5.0);
    EXPECT_DOUBLE_EQ(ts.meanValue(), 3.0);
}

TEST(TimeSeries, DownsampleKeepsSpikes)
{
    TimeSeries ts;
    for (int i = 0; i < 1000; ++i)
        ts.add(i, i == 567 ? 99.0 : 1.0);
    const TimeSeries d = ts.downsampleMax(50);
    EXPECT_LE(d.size(), 50u);
    EXPECT_DOUBLE_EQ(d.maxValue(), 99.0);
}

TEST(JsonWriter, CommasSeparateElementsAtEveryNestingLevel)
{
    JsonWriter j;
    j.beginObject();
    j.field("a", 1);
    j.key("b").beginArray();
    j.value(1).value(2);
    j.beginObject().endObject();
    j.beginArray().endArray();
    j.endArray();
    j.field("c", true);
    j.endObject();
    EXPECT_EQ(j.str(), R"({"a":1,"b":[1,2,{},[]],"c":true})");
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControlBytes)
{
    // Every byte below 0x20 must be escaped (RFC 8259); bytes at or
    // above 0x80 are UTF-8 and pass through untouched.
    JsonWriter j;
    j.beginObject();
    j.field("k\"ey", std::string_view("q\"b\\s\nn\tt\rr"));
    j.field("ctl", std::string_view(std::string("a\0b\x01\x1f", 5)));
    j.field("utf8", "caf\xc3\xa9");
    j.endObject();
    EXPECT_EQ(j.str(), "{\"k\\\"ey\":\"q\\\"b\\\\s\\nn\\tt\\rr\","
                       "\"ctl\":\"a\\u0000b\\u0001\\u001f\","
                       "\"utf8\":\"caf\xc3\xa9\"}");
}

TEST(JsonWriter, DoublesRoundTripAndNonFiniteBecomesNull)
{
    for (const double v : {0.1, -2.5e-300, 1.0 / 3.0, 6.02214076e23,
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::denorm_min()}) {
        JsonWriter j;
        j.value(v);
        EXPECT_EQ(std::strtod(j.str().c_str(), nullptr), v) << j.str();
    }
    JsonWriter j;
    j.beginArray();
    j.value(std::numeric_limits<double>::quiet_NaN());
    j.value(std::numeric_limits<double>::infinity());
    j.value(-std::numeric_limits<double>::infinity());
    j.endArray();
    EXPECT_EQ(j.str(), "[null,null,null]");
}

TEST(JsonWriter, IntegerOverloadsPrintExactExtremes)
{
    JsonWriter j;
    j.beginArray();
    j.value(std::numeric_limits<std::uint64_t>::max());
    j.value(std::numeric_limits<std::int64_t>::min());
    j.value(std::numeric_limits<unsigned>::max());
    j.value(-1);
    j.value(false);
    j.endArray();
    EXPECT_EQ(j.str(), "[18446744073709551615,-9223372036854775808,"
                       "4294967295,-1,false]");
}

TEST(Rows, EncodeDecodeRoundTripsArbitraryBytes)
{
    const std::vector<std::string> rows = {
        "plain row\n", "", std::string("nul\0inside", 10),
        "12\n34\n", std::string(3000, '\xff')};
    std::vector<std::string> out;
    ASSERT_TRUE(decodeRows(encodeRows(rows), &out));
    EXPECT_EQ(out, rows);
}

TEST(Rows, EmptyListRoundTrips)
{
    EXPECT_EQ(encodeRows({}), "0\n");
    std::vector<std::string> out = {"stale"};
    ASSERT_TRUE(decodeRows("0\n", &out));
    EXPECT_TRUE(out.empty());
}

TEST(Rows, DecodeRejectsEveryTruncation)
{
    // A torn cache entry or journal record must never decode to a
    // shorter list: every strict prefix is structurally invalid.
    const std::string blob =
        encodeRows({"first\n", "", "10 digits\n", "x"});
    for (std::size_t k = 0; k < blob.size(); ++k) {
        std::vector<std::string> out = {"untouched"};
        EXPECT_FALSE(decodeRows(std::string_view(blob).substr(0, k),
                                &out))
            << "prefix of " << k << " bytes";
        EXPECT_EQ(out, std::vector<std::string>{"untouched"});
    }
}

TEST(Rows, DecodeRejectsTrailingBytesAndMalformedLengths)
{
    std::vector<std::string> out = {"untouched"};
    const std::string blob = encodeRows({"ab", "c"});
    EXPECT_FALSE(decodeRows(blob + "x", &out));
    EXPECT_FALSE(decodeRows(blob + "\n", &out));
    EXPECT_FALSE(decodeRows("", &out));
    EXPECT_FALSE(decodeRows("\n", &out));
    EXPECT_FALSE(decodeRows("-1\n", &out));
    EXPECT_FALSE(decodeRows("1 \n0\n", &out));
    // A count larger than the remaining bytes could ever hold.
    EXPECT_FALSE(decodeRows("1000\n0\n", &out));
    // A row length that overflows size_t.
    EXPECT_FALSE(
        decodeRows("1\n999999999999999999999999999\nx", &out));
    EXPECT_EQ(out, std::vector<std::string>{"untouched"});
}

TEST(Rows, Fnv1a64MatchesReferenceVectorsAndChains)
{
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
    // The run cache hashes salt then key by chaining the seed; that
    // must equal hashing the concatenation.
    EXPECT_EQ(fnv1a64("bar", fnv1a64("foo")), fnv1a64("foobar"));
}

TEST(Rows, Hex64IsFixedWidthLowercase)
{
    EXPECT_EQ(hex64(0), "0000000000000000");
    EXPECT_EQ(hex64(0xDEADBEEFull), "00000000deadbeef");
    EXPECT_EQ(hex64(~std::uint64_t{0}), "ffffffffffffffff");
}
