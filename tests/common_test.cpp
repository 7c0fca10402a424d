/**
 * @file
 * Unit tests for the common utilities: types, logging, RNG, stats,
 * command-line lists.
 */

#include <gtest/gtest.h>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace thynvm {
namespace {

TEST(TypesTest, BlockAndPageAlignment)
{
    EXPECT_EQ(blockAlign(0), 0u);
    EXPECT_EQ(blockAlign(63), 0u);
    EXPECT_EQ(blockAlign(64), 64u);
    EXPECT_EQ(blockAlign(130), 128u);
    EXPECT_EQ(pageAlign(4095), 0u);
    EXPECT_EQ(pageAlign(4096), 4096u);
    EXPECT_EQ(pageAlign(8191), 4096u);
}

TEST(TypesTest, Indices)
{
    EXPECT_EQ(blockIndex(0), 0u);
    EXPECT_EQ(blockIndex(64), 1u);
    EXPECT_EQ(pageIndex(4096), 1u);
    EXPECT_EQ(blockInPage(4096 + 128), 2u);
    EXPECT_EQ(kBlocksPerPage, 64u);
}

TEST(TypesTest, RoundUpAndPow2)
{
    EXPECT_EQ(roundUp(0, 64), 0u);
    EXPECT_EQ(roundUp(1, 64), 64u);
    EXPECT_EQ(roundUp(64, 64), 64u);
    EXPECT_EQ(roundUp(65, 64), 128u);
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(4096));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(48));
}

TEST(TypesTest, TimeUnits)
{
    EXPECT_EQ(kNanosecond, 1000u);
    EXPECT_EQ(kMillisecond, 1000u * 1000u * 1000u);
    EXPECT_EQ(10 * kMillisecond, 10000000000ull);
}

TEST(LoggingTest, PanicThrows)
{
    EXPECT_THROW(panic("boom %d", 42), PanicError);
}

TEST(LoggingTest, FatalThrows)
{
    EXPECT_THROW(fatal("bad config"), FatalError);
}

TEST(LoggingTest, PanicIfConditional)
{
    EXPECT_NO_THROW(panic_if(false, "never"));
    EXPECT_THROW(panic_if(true, "always"), PanicError);
}

TEST(LoggingTest, FormatProducesMessage)
{
    try {
        panic("value=%d name=%s", 7, "x");
        FAIL() << "panic did not throw";
    } catch (const PanicError& e) {
        EXPECT_NE(std::string(e.what()).find("value=7 name=x"),
                  std::string::npos);
    }
}

TEST(RngTest, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(RngTest, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(RngTest, BelowCoversRange)
{
    Rng r(7);
    std::vector<int> hits(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++hits[r.below(8)];
    for (int h : hits)
        EXPECT_GT(h, 500); // roughly uniform
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng r(3);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, RangeInclusive)
{
    Rng r(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        auto v = r.range(3, 5);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 5u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(StatsTest, ScalarOps)
{
    stats::Scalar s;
    EXPECT_EQ(s.value(), 0.0);
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s -= 0.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.0);
    s.reset();
    EXPECT_EQ(s.value(), 0.0);
}

TEST(StatsTest, HistogramBasics)
{
    stats::Histogram h(4, 40.0); // buckets of width 10
    h.sample(5);
    h.sample(15);
    h.sample(15);
    h.sample(100); // overflow
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 2u);
    EXPECT_DOUBLE_EQ(h.minValue(), 5.0);
    EXPECT_DOUBLE_EQ(h.maxValue(), 100.0);
    EXPECT_DOUBLE_EQ(h.mean(), (5 + 15 + 15 + 100) / 4.0);
}

TEST(StatsTest, GroupValuesAndFormulas)
{
    stats::Group g("unit");
    stats::Scalar a, b;
    g.addScalar("a", &a);
    g.addScalar("b", &b);
    g.addFormula("sum", [&] { return a.value() + b.value(); });
    a += 2;
    b += 3;
    EXPECT_DOUBLE_EQ(g.value("a"), 2.0);
    EXPECT_DOUBLE_EQ(g.value("sum"), 5.0);
    EXPECT_TRUE(g.has("sum"));
    EXPECT_FALSE(g.has("nope"));
    EXPECT_THROW(g.value("nope"), PanicError);
    auto all = g.values();
    EXPECT_EQ(all.size(), 3u);
    g.reset();
    EXPECT_DOUBLE_EQ(g.value("a"), 0.0);
}

TEST(CliTest, ParsesUnsignedLists)
{
    using V = std::vector<std::uint64_t>;
    EXPECT_EQ(parseUintList("0", "--x"), V({0}));
    EXPECT_EQ(parseUintList("0,1000", "--x"), V({0, 1000}));
    EXPECT_EQ(parseUintList("18446744073709551615", "--x"),
              V({18446744073709551615ull}));
}

TEST(CliTest, RejectsMalformedListsInsteadOfLooping)
{
    // Each of these once spun forever appending zeros: the token does
    // not start with a digit, so strtoull consumed nothing.
    for (const char* bad : {"x", "5,x", "5,,6", "-1", "", "5,", ",5",
                            "5x", "5 ,6", "+5", "18446744073709551616"}) {
        EXPECT_THROW(parseUintList(bad, "--x"), FatalError)
            << "'" << bad << "'";
    }
}

TEST(CliTest, ParsesUnsignedScalars)
{
    EXPECT_EQ(parseUint("0", "--x"), 0u);
    EXPECT_EQ(parseUint("42", "--x"), 42u);
    EXPECT_EQ(parseUint("18446744073709551615", "--x"),
              18446744073709551615ull);
    EXPECT_EQ(parseUint("4294967295", "--x", 4294967295ull),
              4294967295ull);
}

TEST(CliTest, RejectsMalformedScalars)
{
    // strtoull reads each of these as 0 or as a truncated value.
    for (const char* bad : {"x", "", "-1", "+5", "5x", " 5", "5 ", "1,2",
                            "18446744073709551616"}) {
        EXPECT_THROW(parseUint(bad, "--x"), FatalError) << "'" << bad << "'";
    }
    EXPECT_THROW(parseUint("4294967296", "--x", 4294967295ull),
                 FatalError);
}

} // namespace
} // namespace thynvm
