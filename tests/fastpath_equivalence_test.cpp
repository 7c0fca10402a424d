/**
 * @file
 * Fast-path stat-equivalence suite: the synchronous hit fast path
 * (BlockAccessor::tryAccessFast) is a pure host-time optimization, so a
 * run with the fast path enabled must be indistinguishable — in every
 * stat, the final tick, the executed-event count, and the final memory
 * image — from the same run forced onto the per-piece event path.
 *
 * This is the contract the figure benches rely on: any divergence here
 * means the fast path changed simulated behavior, not just host speed.
 */

#include <sstream>
#include <string>
#include <vector>

#include "tests/test_util.hh"

#include "fuzz/fuzzer.hh"
#include "harness/system.hh"
#include "workloads/micro.hh"

namespace thynvm {
namespace {

struct RunResult
{
    std::string stats;
    std::vector<std::uint8_t> image;
    std::uint64_t instructions;
};

RunResult
runCell(SystemKind kind, bool fast_path, std::uint32_t access_size)
{
    MicroWorkload::Params mp;
    mp.pattern = MicroWorkload::Pattern::Random;
    mp.base = 0;
    mp.array_bytes = 8u << 20;
    mp.access_size = access_size;
    mp.read_fraction = 0.5;
    mp.total_accesses = 6000;
    mp.seed = 7;
    MicroWorkload wl(mp);

    SystemConfig cfg;
    cfg.kind = kind;
    cfg.phys_size = 16u << 20;
    cfg.epoch_length = 5 * kMillisecond;
    cfg.thynvm.btt_entries = 2048;
    cfg.thynvm.ptt_entries = 4096;
    cfg.cpu.use_fast_path = fast_path;

    System sys(cfg, wl);
    sys.start();
    sys.run(60 * kSecond);
    EXPECT_TRUE(sys.finished());

    RunResult r;
    std::ostringstream os;
    sys.dumpStats(os);
    r.stats = os.str();
    r.image.resize(mp.array_bytes);
    sys.functionalView()(mp.base, r.image.data(), r.image.size());
    r.instructions = sys.cpu().instructions();
    return r;
}

void
expectEquivalent(SystemKind kind, std::uint32_t access_size)
{
    const RunResult fast = runCell(kind, true, access_size);
    const RunResult slow = runCell(kind, false, access_size);
    EXPECT_EQ(fast.stats, slow.stats) << systemKindName(kind);
    EXPECT_EQ(fast.instructions, slow.instructions) << systemKindName(kind);
    EXPECT_TRUE(fast.image == slow.image)
        << systemKindName(kind) << ": final memory images differ";
    // Sanity: the dump carries CPU, cache, and device stats, so a
    // behavioral difference in any layer would have shown up above.
    EXPECT_NE(fast.stats.find("instructions"), std::string::npos);
    EXPECT_NE(fast.stats.find("hits"), std::string::npos);
    EXPECT_NE(fast.stats.find("write_bytes"), std::string::npos);
}

TEST(FastPathEquivalenceTest, ThyNvmBlockAccesses)
{
    expectEquivalent(SystemKind::ThyNvm, 64);
}

TEST(FastPathEquivalenceTest, ThyNvmPartialStores)
{
    // 48-byte accesses straddle block boundaries and exercise the
    // partial-store read-modify-write on both paths.
    expectEquivalent(SystemKind::ThyNvm, 48);
}

TEST(FastPathEquivalenceTest, JournalBlockAccesses)
{
    expectEquivalent(SystemKind::Journal, 64);
}

TEST(FastPathEquivalenceTest, ShadowBlockAccesses)
{
    expectEquivalent(SystemKind::Shadow, 64);
}

TEST(FastPathEquivalenceTest, IdealDramBlockAccesses)
{
    expectEquivalent(SystemKind::IdealDram, 64);
}

TEST(FastPathEquivalenceTest, IdealNvmPartialStores)
{
    expectEquivalent(SystemKind::IdealNvm, 48);
}

TEST(FastPathEquivalenceTest, MultiBlockOps)
{
    // 1KB ops span 16 blocks; the fast path collapses them into one
    // completion event per op, which must not change simulated time.
    expectEquivalent(SystemKind::ThyNvm, 1024);
}

/**
 * The last hit of every site of one (kind, workload, mode) combo, as
 * one crash walk on a single life 1, keeping every case's images.
 */
fuzz::WalkResult
walkLastHits(const fuzz::FuzzerConfig& fc, const fuzz::SiteMap& sites,
             SystemKind kind, const std::string& workload, bool fast_path)
{
    std::vector<fuzz::FuzzCase> cases;
    std::vector<Tick> cuts;
    for (const auto& [site, stats] : sites) {
        fuzz::FuzzCase c;
        c.seed = 1;
        c.workload = workload;
        c.system = kind;
        c.site = site;
        c.hit = stats.hits; // last hit: deepest into the run
        c.fast_path = fast_path;
        cases.push_back(c);
        cuts.push_back(stats.last_tick);
    }
    return fuzz::runCrashWalk(fc, cases, cuts, /*keep_images=*/true);
}

/**
 * Crash/recovery shapes: the equivalence contract must survive power
 * failure, not just clean runs. Crash plans are expressed as (site,
 * hit ordinal, tick delta) — simulated behavior, identical in both
 * modes — so each mode's site enumeration must agree, and the same
 * plan walked fast and slow must crash at the same tick, restore the
 * same op count, and yield byte-identical recovered and final images.
 */
void
expectCrashEquivalent(SystemKind kind, const std::string& workload)
{
    const fuzz::FuzzerConfig fc;
    const std::uint64_t seed = 1;

    const auto fast_sites = fuzz::enumerateSites(fc, seed, workload, kind,
                                                 /*fast_path=*/true);
    const auto slow_sites = fuzz::enumerateSites(fc, seed, workload, kind,
                                                 /*fast_path=*/false);
    ASSERT_FALSE(fast_sites.empty()) << systemKindName(kind);
    ASSERT_EQ(fast_sites.size(), slow_sites.size());
    for (const auto& [site, f] : fast_sites) {
        const auto it = slow_sites.find(site);
        ASSERT_NE(it, slow_sites.end()) << site;
        EXPECT_EQ(f.hits, it->second.hits) << site;
        EXPECT_EQ(f.first_tick, it->second.first_tick) << site;
        EXPECT_EQ(f.last_tick, it->second.last_tick) << site;
    }

    const fuzz::WalkResult fast =
        walkLastHits(fc, fast_sites, kind, workload, true);
    const fuzz::WalkResult slow =
        walkLastHits(fc, slow_sites, kind, workload, false);
    ASSERT_EQ(fast.results.size(), slow.results.size());
    for (std::size_t i = 0; i < fast.results.size(); ++i) {
        const fuzz::CaseResult& f = fast.results[i];
        const fuzz::CaseResult& s = slow.results[i];
        ASSERT_EQ(f.status, fuzz::CaseStatus::Ok) << f.repro << ": "
                                                  << f.detail;
        ASSERT_EQ(s.status, fuzz::CaseStatus::Ok) << s.repro << ": "
                                                  << s.detail;
        EXPECT_EQ(f.crash_tick, s.crash_tick) << f.repro;
        EXPECT_EQ(f.commits_before, s.commits_before) << f.repro;
        EXPECT_EQ(f.restored_ops, s.restored_ops) << f.repro;
        EXPECT_TRUE(f.recovered_image == s.recovered_image)
            << f.repro << ": recovered images differ fast vs slow";
        EXPECT_TRUE(f.final_image == s.final_image)
            << f.repro << ": final images differ fast vs slow";
    }
}

TEST(FastPathEquivalenceTest, ThyNvmCrashRecoveryAtEverySite)
{
    // The sliding window promotes pages, reaching all 11 ThyNVM sites.
    expectCrashEquivalent(SystemKind::ThyNvm, "slide");
}

TEST(FastPathEquivalenceTest, JournalCrashRecoveryAtEverySite)
{
    expectCrashEquivalent(SystemKind::Journal, "rand");
}

TEST(FastPathEquivalenceTest, ShadowCrashRecoveryAtEverySite)
{
    expectCrashEquivalent(SystemKind::Shadow, "rand");
}

} // namespace
} // namespace thynvm
