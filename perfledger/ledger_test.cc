/**
 * @file
 * Tests of the benchmark's own helpers: stats extraction, percentiles,
 * the image digest, the allocation counter, failure accounting, span
 * nesting, host-speed calibration and the result line.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <new>
#include <sstream>
#include <vector>

#include "alloc_counter.hh"
#include "host_speed.hh"
#include "ledger.hh"

using namespace perfledger;

namespace {

// Excerpt of a single-channel System::dumpStats.
const char* kOneChannel = R"(tick=39146523636
sys.cpu.instructions                                    2.55e+06  # instructions retired
sys.cpu.mem_stall_time                               3.82472e+10  # ticks stalled on memory
sys.l1.hits                                                  184  # block accesses that hit
sys.l1.misses                                             149816  # block accesses that missed
sys.ctrl.epochs                                               11  # completed epochs
sys.ctrl.home_migrations                                    8174  # idle blocks migrated from Region A to Home
sys.ctrl.nvm.reads                                        147113  # read requests serviced
sys.ctrl.nvm.write_bytes::checkpoint                 5.74726e+06  # bytes written by source
sys.ctrl.nvm.read_latency_ns::count                       147113  # read service latency
sys.ctrl.nvm.read_latency_ns::mean                       863.917
)";

// Excerpt of a two-channel dump: system-wide controller stats first,
// then each channel's controller and devices.
const char* kTwoChannels = R"(tick=607279958
sys.ctrl.epochs                                               16  # completed epochs
sys.ctrl.ckpt_stall_time                             4.15409e+06  # ticks execution was blocked by checkpointing
sys.ctrl.ch0.epochs                                           16  # completed epochs
sys.ctrl.ch0.ckpt_stall_time                         9.93608e+07  # ticks execution was blocked by checkpointing
sys.ctrl.ch0.home_migrations                                 574  # idle blocks migrated from Region A to Home
sys.ctrl.ch0.nvm.reads                                      1663  # read requests serviced
sys.ctrl.ch0.nvm.read_latency_ns::count                     1663  # read service latency
sys.ctrl.ch0.nvm.read_latency_ns::mean                   1637.21
sys.ctrl.ch1.epochs                                           16  # completed epochs
sys.ctrl.ch1.home_migrations                                 616  # idle blocks migrated from Region A to Home
sys.ctrl.ch1.nvm.reads                                      1670  # read requests serviced
sys.ctrl.ch1.nvm.read_latency_ns::count                     1670  # read service latency
sys.ctrl.ch1.nvm.read_latency_ns::mean                    1500.5
)";

} // namespace

TEST(StatsExtraction, SingleChannelDump)
{
    const StatMap s = parseStats(kOneChannel);
    EXPECT_DOUBLE_EQ(statOr0(s, "sys.cpu.instructions"), 2.55e6);
    EXPECT_DOUBLE_EQ(statOr0(s, "sys.l1.misses"), 149816);
    EXPECT_DOUBLE_EQ(statOr0(s, "sys.l2.misses"), 0);
    EXPECT_EQ(s.count("tick=39146523636"), 0u);
    EXPECT_DOUBLE_EQ(ctrlStat(s, "epochs"), 11);
    EXPECT_DOUBLE_EQ(ctrlStat(s, "home_migrations"), 8174);
    EXPECT_DOUBLE_EQ(ctrlStat(s, "nvm.write_bytes::checkpoint"), 5.74726e6);
    EXPECT_DOUBLE_EQ(ctrlStat(s, "missing"), 0);
    EXPECT_DOUBLE_EQ(ctrlHistMean(s, "nvm.read_latency_ns"), 863.917);
}

TEST(StatsExtraction, TwoChannelDumpFoldsChannels)
{
    const StatMap s = parseStats(kTwoChannels);
    // System-wide value wins over the per-channel ones.
    EXPECT_DOUBLE_EQ(ctrlStat(s, "epochs"), 16);
    EXPECT_DOUBLE_EQ(ctrlStat(s, "ckpt_stall_time"), 4.15409e6);
    // Per-channel-only stats are summed.
    EXPECT_DOUBLE_EQ(ctrlStat(s, "home_migrations"), 574 + 616);
    EXPECT_DOUBLE_EQ(ctrlStat(s, "nvm.reads"), 1663 + 1670);
    // "nvm.reads" must not also pick up "nvm.read_latency_ns::count".
    EXPECT_DOUBLE_EQ(ctrlHistMean(s, "nvm.read_latency_ns"),
                     (1663 * 1637.21 + 1670 * 1500.5) / (1663 + 1670));
}

TEST(Percentile, SmallSamples)
{
    EXPECT_DOUBLE_EQ(percentile({7}, 0.5), 7);
    EXPECT_DOUBLE_EQ(percentile({7}, 0.95), 7);
    EXPECT_DOUBLE_EQ(median({2, 1}), 1.5);
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 0), 1);
    EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 1), 5);
    EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5}, 0.25), 2);
    // 0.95 * (5 - 1) = 3.8: 80% of the way from 4 to 5.
    EXPECT_DOUBLE_EQ(percentile({5, 4, 3, 2, 1}, 0.95), 4.8);
}

namespace {

/** A FunctionalView over a host byte vector. */
thynvm::FunctionalView
viewOf(const std::vector<std::uint8_t>& mem)
{
    return [&mem](thynvm::Addr a, void* buf, std::size_t len) {
        std::memcpy(buf, mem.data() + a, len);
    };
}

} // namespace

TEST(ImageDigest, OneByteChangeIsCaught)
{
    std::vector<std::uint8_t> a(4 * 4096, 0);
    for (std::size_t i = 0; i < 4096; ++i)
        a[4096 + i] = static_cast<std::uint8_t>(i * 7 + 1);
    std::vector<std::uint8_t> b = a;
    const std::vector<thynvm::Addr> pages = {0, 4096, 8192};

    const ImageDigest da = digestPages(pages, viewOf(a));
    EXPECT_EQ(da.pages, 1u);
    EXPECT_TRUE(digestsAgree({da, digestPages(pages, viewOf(b))}));

    b[4096 + 100] ^= 1;
    EXPECT_FALSE(digestsAgree({da, digestPages(pages, viewOf(b))}));

    // A byte changed in a page that had been all zeros shows too.
    b = a;
    b[8192 + 5] = 1;
    EXPECT_FALSE(digestsAgree({da, digestPages(pages, viewOf(b))}));

    // Listing an extra all-zero page does not change the digest.
    EXPECT_TRUE(
        digestsAgree({da, digestPages({0, 4096, 8192, 12288}, viewOf(a))}));
    EXPECT_FALSE(digestsAgree({}));
}

TEST(AllocCounter, CountsKnownAllocations)
{
    std::vector<void*> ptrs;
    ptrs.reserve(16);
    setAllocCounting(true);
    const AllocCount a0 = allocCount();
    for (int i = 0; i < 10; ++i)
        ptrs.push_back(::operator new(24));
    ptrs.push_back(::operator new[](100));
    ptrs.push_back(::operator new(64, std::align_val_t{64}));
    const AllocCount d = allocsSince(a0);
    setAllocCounting(false);
    EXPECT_EQ(d.calls, 12u);
    EXPECT_EQ(d.bytes, 10u * 24 + 100 + 64);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(ptrs.back()) % 64, 0u);
    ::operator delete(ptrs.back(), std::align_val_t{64});
    ptrs.pop_back();
    ::operator delete[](ptrs.back());
    ptrs.pop_back();
    for (void* p : ptrs)
        ::operator delete(p);

    // Nothing is counted while counting is off.
    const AllocCount a1 = allocCount();
    ::operator delete(::operator new(8));
    EXPECT_EQ(allocsSince(a1).calls, 0u);
}

TEST(FailureAccounting, InjectedBttDropCountsAsFailed)
{
    namespace fuzz = thynvm::fuzz;
    fuzz::FuzzerConfig fc;
    fc.debug_drop_btt_entry = 0;
    fuzz::CampaignOptions opts;
    opts.seeds = {1};
    opts.workloads = {"rand"};
    opts.systems = {thynvm::SystemKind::ThyNvm};
    opts.first_and_last_hit = false;
    const fuzz::CampaignResult broken = fuzz::runCampaign(fc, opts, nullptr);
    ASSERT_FALSE(broken.violations.empty());
    EXPECT_EQ(failedCases(broken),
              broken.violations.size() + broken.not_reached);

    fc.debug_drop_btt_entry = static_cast<std::size_t>(-1);
    const fuzz::CampaignResult clean = fuzz::runCampaign(fc, opts, nullptr);
    EXPECT_EQ(clean.cases, broken.cases);
    EXPECT_EQ(failedCases(clean), 0u);
}

TEST(FailureAccounting, PerSystemCampaignsMergeIntoOne)
{
    namespace fuzz = thynvm::fuzz;
    fuzz::FuzzerConfig fc;
    fc.total_accesses = 1000;
    fuzz::CampaignOptions opts;
    opts.workloads = {"rand"};
    opts.systems = {thynvm::SystemKind::ThyNvm, thynvm::SystemKind::Journal};
    opts.first_and_last_hit = false;
    opts.channels = 1;
    const fuzz::CampaignResult whole = fuzz::runCampaign(fc, opts, nullptr);

    fuzz::CampaignResult merged;
    for (thynvm::SystemKind k : opts.systems) {
        fuzz::CampaignOptions one = opts;
        one.systems = {k};
        mergeCampaign(merged, fuzz::runCampaign(fc, one, nullptr));
    }
    ASSERT_GT(whole.cases, 0u);
    EXPECT_EQ(merged.cases, whole.cases);
    EXPECT_EQ(merged.not_reached, whole.not_reached);
    EXPECT_EQ(merged.violations.size(), whole.violations.size());
    EXPECT_EQ(merged.sites_by_system, whole.sites_by_system);
    EXPECT_EQ(merged.repros, whole.repros);
}

TEST(Tracer, ScopesNestAndSum)
{
    Tracer t;
    {
        Tracer::Scope outer(&t, "outer");
        { Tracer::Scope a(&t, "inner"); }
        { Tracer::Scope b(&t, "inner"); }
        t.add("replay", 1.0, 1.5, outer.id());
    }
    ASSERT_EQ(t.spans().size(), 4u);
    EXPECT_EQ(t.spans()[0].parent, -1);
    EXPECT_EQ(t.spans()[1].parent, 0);
    EXPECT_EQ(t.spans()[2].parent, 0);
    EXPECT_EQ(t.spans()[3].parent, 0);
    for (const Tracer::Span& s : t.spans())
        EXPECT_GE(s.end, s.start);
    EXPECT_DOUBLE_EQ(t.total("replay"), 0.5);
    EXPECT_DOUBLE_EQ(t.total("inner"),
                     (t.spans()[1].end - t.spans()[1].start) +
                         (t.spans()[2].end - t.spans()[2].start));

    // A null tracer records nothing.
    Tracer::Scope none(nullptr, "ignored");
    EXPECT_EQ(none.id(), -1);
}

TEST(ResultLine, ContractShape)
{
    EXPECT_EQ(resultJson(true, 3, 0,
                         {{"ops_per_s", 1.5, "1/s"}, {"setup_s", 0.25, "s"}}),
              "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
              "\"metrics\": {\"ops_per_s\": {\"value\": 1.5, \"unit\": "
              "\"1/s\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}");
    // All digits of a measured value survive.
    EXPECT_EQ(jsonNumber(0.1234567890123), "0.1234567890123");
    EXPECT_EQ(jsonString("a\"b\n"), "\"a\\\"b\\u000a\"");
}

TEST(HostSpeed, BracketScalesByTheNeighbouringPasses)
{
    // A host twice as slow as the reference reads half as fast.
    EXPECT_DOUBLE_EQ(referenceFactor(2 * kReferencePassS,
                                     2 * kReferencePassS),
                     0.5);
    EXPECT_DOUBLE_EQ(referenceFactor(kReferencePassS, 3 * kReferencePassS),
                     0.5);

    HostSpeed speed;
    EXPECT_DOUBLE_EQ(speed.medianFactor(), 1.0);
    int calls = 0;
    const double f = speed.bracket([&] { ++calls; });
    EXPECT_EQ(calls, 1);
    EXPECT_GT(f, 0.0);
    EXPECT_DOUBLE_EQ(speed.medianFactor(), f);
}
