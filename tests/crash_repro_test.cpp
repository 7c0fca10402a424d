/**
 * @file
 * Repro-string contract of the crash fuzzer.
 *
 * A failing fuzz case is only useful if its one-line repro string
 * replays the identical crash on a developer machine. These tests pin
 * that contract: format/parse round-trip, bit-identical deterministic
 * replay, and end-to-end replay of a repro produced by an injected
 * regression (failing with the fault armed, passing without).
 */

#include "tests/test_util.hh"

#include <sstream>
#include <string>

#include "common/parallel.hh"
#include "fuzz/fuzzer.hh"

namespace thynvm {
namespace {

using namespace fuzz;

TEST(CrashRepro, FormatParseRoundTrip)
{
    FuzzCase c;
    c.seed = 42;
    c.workload = "slide";
    c.system = SystemKind::Shadow;
    c.site = "ckpt.pre_commit_header";
    c.hit = 7;
    c.delta = 1234;
    c.fast_path = false;

    const std::string repro = formatRepro(c);
    FuzzCase back;
    ASSERT_TRUE(parseRepro(repro, back));
    EXPECT_EQ(back.seed, c.seed);
    EXPECT_EQ(back.workload, c.workload);
    EXPECT_EQ(back.system, c.system);
    EXPECT_EQ(back.site, c.site);
    EXPECT_EQ(back.hit, c.hit);
    EXPECT_EQ(back.delta, c.delta);
    EXPECT_EQ(back.fast_path, c.fast_path);
    EXPECT_EQ(formatRepro(back), repro);
}

TEST(CrashRepro, MalformedStringsAreRejected)
{
    FuzzCase out;
    EXPECT_FALSE(parseRepro("", out));
    EXPECT_FALSE(parseRepro("seed=1", out));
    EXPECT_FALSE(parseRepro("seed=1:wl=rand:sys=nosuch:site=x:hit=1:"
                            "delta=0:fp=on",
                            out));
    EXPECT_FALSE(parseRepro("seed=1:wl=rand:sys=thynvm:site=x:hit=bad:"
                            "delta=0:fp=on",
                            out));
    EXPECT_FALSE(parseRepro("garbage without any separators", out));
    // A topology no System can build.
    EXPECT_FALSE(parseRepro("seed=1:wl=rand:sys=thynvm:site=x:hit=1:"
                            "delta=0:fp=on:ch=3",
                            out));
}

/** Every kind's repro/CLI token parses back to that kind. */
TEST(CrashRepro, EverySystemTokenParsesBackToItsKind)
{
    for (SystemKind kind : kAllSystemKinds) {
        SystemKind back = kind == SystemKind::ThyNvm ? SystemKind::Journal
                                                     : SystemKind::ThyNvm;
        ASSERT_TRUE(systemFromToken(systemToken(kind), back))
            << systemKindName(kind);
        EXPECT_EQ(back, kind) << systemToken(kind);
    }
    SystemKind out = SystemKind::ThyNvm;
    EXPECT_FALSE(systemFromToken("nosuch", out));
    EXPECT_FALSE(systemFromToken("", out));
}

/** Replaying the same case twice is bit-identical, end to end. */
TEST(CrashRepro, ReplayIsDeterministic)
{
    FuzzerConfig fc;
    FuzzCase c;
    c.seed = test::loggedSeed("crash_repro.determinism", 1);
    c.workload = "rand";
    c.system = SystemKind::ThyNvm;
    c.site = "ckpt.committed";
    c.hit = 1;
    // Site names are unprefixed on the single-channel topology; pin it
    // so a THYNVM_CHANNELS value in the environment cannot redirect
    // this case (the multi-channel twin is below).
    c.channels = 1;

    const CaseResult a = runCrashCase(fc, c);
    const CaseResult b = runCrashCase(fc, c);

    ASSERT_EQ(a.status, CaseStatus::Ok) << a.detail;
    ASSERT_EQ(b.status, CaseStatus::Ok) << b.detail;
    EXPECT_EQ(a.crash_tick, b.crash_tick);
    EXPECT_EQ(a.commits_before, b.commits_before);
    EXPECT_EQ(a.restored_ops, b.restored_ops);
    EXPECT_EQ(a.recovered_image, b.recovered_image);
    EXPECT_EQ(a.final_image, b.final_image);
}

/**
 * Multi-channel replay determinism: crash at a per-channel site and at
 * a cross-channel barrier site of a 2-channel topology; the profiled
 * crash tick, the recovered image, and the final image must replay
 * bit-identically.
 */
TEST(CrashRepro, MultiChannelReplayIsDeterministic)
{
    FuzzerConfig fc;
    for (const char* site : {"ch0.ckpt.committed", "group.all_staged"}) {
        FuzzCase c;
        c.seed = test::loggedSeed("crash_repro.mc_determinism", 1);
        c.workload = "rand";
        c.system = SystemKind::ThyNvm;
        c.site = site;
        c.hit = 1;
        c.channels = 2;

        const CaseResult a = runCrashCase(fc, c);
        const CaseResult b = runCrashCase(fc, c);

        ASSERT_EQ(a.status, CaseStatus::Ok) << site << ": " << a.detail;
        ASSERT_EQ(b.status, CaseStatus::Ok) << site << ": " << b.detail;
        EXPECT_EQ(a.crash_tick, b.crash_tick) << site;
        EXPECT_EQ(a.commits_before, b.commits_before) << site;
        EXPECT_EQ(a.restored_ops, b.restored_ops) << site;
        EXPECT_EQ(a.recovered_image, b.recovered_image) << site;
        EXPECT_EQ(a.final_image, b.final_image) << site;
    }
}

/**
 * End-to-end workflow: the campaign (with an injected fault) prints a
 * repro; replaying that exact string reproduces the violation; the
 * same string on a healthy build passes. This is what a developer does
 * when a nightly fuzz job fails.
 */
TEST(CrashRepro, InjectedReproReplaysDeterministically)
{
    FuzzerConfig broken;
    broken.debug_drop_btt_entry = 0;
    CampaignOptions opts;
    opts.seeds = {1};
    opts.systems = {SystemKind::ThyNvm};
    opts.workloads = {"rand"};

    const CampaignResult campaign = runCampaign(broken, opts, nullptr);
    ASSERT_FALSE(campaign.violations.empty())
        << "injected fault produced no violation to replay";

    const std::string repro = campaign.violations.front().repro;
    FuzzCase c;
    ASSERT_TRUE(parseRepro(repro, c)) << repro;

    // Replay on the broken build: violation, same detail both times.
    const CaseResult r1 = runCrashCase(broken, c);
    const CaseResult r2 = runCrashCase(broken, c);
    EXPECT_EQ(r1.status, CaseStatus::Violation) << repro;
    EXPECT_EQ(r1.detail, r2.detail);
    EXPECT_EQ(r1.detail, campaign.violations.front().detail);

    // Replay on the healthy build: the same crash plan passes.
    FuzzerConfig healthy;
    const CaseResult ok = runCrashCase(healthy, c);
    EXPECT_EQ(ok.status, CaseStatus::Ok) << ok.detail;
}

/** Field-by-field comparison of two case outcomes. */
void
expectSameOutcome(const CaseOutcome& got, const CaseOutcome& want,
                  const std::string& what)
{
    EXPECT_EQ(got.status, want.status) << what;
    EXPECT_EQ(got.crash_tick, want.crash_tick) << what;
    EXPECT_EQ(got.commits_before, want.commits_before) << what;
    EXPECT_EQ(got.restored_ops, want.restored_ops) << what;
    EXPECT_EQ(got.recovered_digest, want.recovered_digest)
        << what << ": recovered image differs";
    EXPECT_EQ(got.final_digest, want.final_digest)
        << what << ": final image differs";
}

void
expectSameCampaign(const CampaignResult& a, const CampaignResult& b,
                   const char* what)
{
    EXPECT_EQ(b.cases, a.cases) << what;
    EXPECT_EQ(b.not_reached, a.not_reached) << what;
    EXPECT_EQ(b.repros, a.repros) << what;
    EXPECT_EQ(b.sites_by_system, a.sites_by_system) << what;
    ASSERT_EQ(b.violations.size(), a.violations.size()) << what;
    for (std::size_t i = 0; i < a.violations.size(); ++i) {
        EXPECT_EQ(b.violations[i].repro, a.violations[i].repro) << what;
        EXPECT_EQ(b.violations[i].detail, a.violations[i].detail)
            << what;
    }
    // Every case's crash tick, oracle inputs and recovery images.
    ASSERT_EQ(a.outcomes.size(), a.cases) << what;
    ASSERT_EQ(b.outcomes.size(), a.outcomes.size()) << what;
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
        expectSameOutcome(b.outcomes[i], a.outcomes[i],
                          std::string(what) + " " + a.repros[i]);
    }
}

/**
 * The full default campaign (every seed/workload/system crash plan)
 * fanned across host workers must produce the byte-identical result —
 * counts, repro strings, site map, and log stream — as the serial
 * campaign.
 */
TEST(CrashRepro, CampaignIsThreadCountInvariant)
{
    FuzzerConfig fc;
    CampaignOptions opts; // defaults: the full tier-1 campaign

    std::ostringstream serial_log;
    const CampaignResult serial =
        runCampaign(fc, opts, &serial_log, 1);
    EXPECT_EQ(serial.repros.size(), serial.cases);
    EXPECT_TRUE(serial.violations.empty());

    for (unsigned threads : {2u, 4u}) {
        std::ostringstream log;
        const CampaignResult parallel =
            runCampaign(fc, opts, &log, threads);
        expectSameCampaign(serial, parallel,
                           threads == 2 ? "threads=2" : "threads=4");
        EXPECT_EQ(log.str(), serial_log.str());
    }
}

using test::EnvGuard;

/**
 * THYNVM_SIM_THREADS only sizes the sharded kernel of multi-channel
 * Systems; the default campaign is single-channel, so every System in
 * it keeps the serial event loop. Setting the variable (with case
 * fan-out on 2 workers on top) must not change a single repro string
 * or oracle verdict.
 */
TEST(CrashRepro, CampaignInvariantUnderSimThreadsEnv)
{
    FuzzerConfig fc;
    CampaignOptions opts; // defaults: the full tier-1 campaign

    CampaignResult base;
    {
        EnvGuard one("THYNVM_SIM_THREADS", "1");
        base = runCampaign(fc, opts, nullptr, 1);
    }
    EXPECT_FALSE(base.repros.empty());

    EnvGuard env("THYNVM_SIM_THREADS", "4");
    const CampaignResult other = runCampaign(fc, opts, nullptr, 2);
    expectSameCampaign(base, other, "THYNVM_SIM_THREADS=4");
}

/**
 * The 2-channel campaign (per-channel chK.* sites plus cross-channel
 * group.* barrier sites) re-run with every simulated System sharded
 * across THYNVM_SIM_THREADS=4 workers: the earliest-output-time window
 * schedule must not move a single crash tick or change any recovery
 * image.
 */
TEST(CrashRepro, MultiChannelCampaignInvariantUnderSimThreadsEnv)
{
    FuzzerConfig fc;
    CampaignOptions opts;
    opts.channels = 2;

    CampaignResult base;
    {
        EnvGuard one("THYNVM_SIM_THREADS", "1");
        base = runCampaign(fc, opts, nullptr, 1);
    }
    EXPECT_FALSE(base.repros.empty());
    EXPECT_TRUE(base.violations.empty());

    EnvGuard env("THYNVM_SIM_THREADS", "4");
    const CampaignResult sharded = runCampaign(fc, opts, nullptr, 2);
    expectSameCampaign(base, sharded, "channels=2 THYNVM_SIM_THREADS=4");
}

/**
 * Campaign cases crash at the tick their combo's site enumeration
 * recorded for the planned hit, plus the delta, on their combo's one
 * walked life 1; a bare repro runs its own life 1 and learns the tick
 * from an armed profile run (several channels) or by polling the
 * armed registry (one channel). Both must crash at the same tick and
 * reach the same verdict and images, for first and last hits and for
 * deltas up to 250 us, which take cuts past the workload's end, at 1,
 * 2 and 4 channels.
 */
TEST(CrashRepro, PlanCutEqualsProfileCut)
{
    FuzzerConfig fc;
    fc.total_accesses = 1500;
    CampaignOptions opts;
    opts.workloads = {"rand"};
    opts.deltas = {0, 1000, 250000000};

    struct Topology
    {
        unsigned channels;
        std::vector<SystemKind> systems;
    };
    for (const Topology& t :
         {Topology{1, {SystemKind::Shadow, SystemKind::Incremental}},
          Topology{2, {SystemKind::ThyNvm, SystemKind::Icl}},
          Topology{4, {SystemKind::Journal}}}) {
        opts.channels = t.channels;
        opts.systems = t.systems;
        const CampaignResult campaign = runCampaign(fc, opts, nullptr, 2);
        ASSERT_FALSE(campaign.repros.empty());
        ASSERT_EQ(campaign.outcomes.size(), campaign.repros.size());
        EXPECT_TRUE(campaign.violations.empty());
        EXPECT_EQ(campaign.not_reached, 0u);

        std::vector<FuzzCase> cases(campaign.repros.size());
        for (std::size_t i = 0; i < cases.size(); ++i)
            ASSERT_TRUE(parseRepro(campaign.repros[i], cases[i]));
        std::vector<CaseOutcome> replayed(cases.size());
        parallelFor(
            cases.size(),
            [&](std::size_t i) {
                replayed[i] = outcomeOf(runCrashCase(fc, cases[i]));
            },
            2);
        for (std::size_t i = 0; i < replayed.size(); ++i) {
            expectSameOutcome(campaign.outcomes[i], replayed[i],
                              campaign.repros[i]);
        }
    }
}

} // namespace
} // namespace thynvm
