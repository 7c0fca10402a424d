/**
 * @file
 * Serial vs sharded-kernel equivalence of whole simulations.
 *
 * The contract of the deterministic sharded kernel (DESIGN.md §8) is
 * that running a multi-channel simulation with any worker thread count
 * produces byte-identical statistics and the identical final tick as
 * its one-worker run. These tests pin that contract end to end across
 * the figure-bench workload families (micro patterns, KV store, SPEC
 * profiles) and the crash-consistency system kinds, through both entry
 * points: SystemConfig::sim_threads and the THYNVM_SIM_THREADS
 * environment variable. Every run uses at least two memory channels:
 * a single-channel System has no kernel, only the serial loop.
 */

#include "tests/test_util.hh"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "harness/system.hh"
#include "workloads/kvstore.hh"
#include "workloads/micro.hh"
#include "workloads/spec.hh"

namespace thynvm {
namespace {

/** Everything a run must reproduce exactly at any thread count. */
struct RunResult
{
    std::string stats;
    Tick final_tick = 0;
    bool finished = false;
};

/** Workload families covered by the figure benchmarks. */
enum class Family
{
    MicroRandom,
    MicroStreaming,
    MicroSliding,
    KvHash,
    SpecGcc,
};

const char*
familyName(Family f)
{
    switch (f) {
      case Family::MicroRandom: return "micro/random";
      case Family::MicroStreaming: return "micro/streaming";
      case Family::MicroSliding: return "micro/sliding";
      case Family::KvHash: return "kv/hash";
      case Family::SpecGcc: return "spec/gcc";
    }
    return "?";
}

/** Small-but-real configuration so one run finishes in milliseconds. */
SystemConfig
smallConfig(SystemKind kind)
{
    SystemConfig cfg;
    cfg.kind = kind;
    // At least two channels (three kernel shards), so a thread sweep
    // compares different schedules; a THYNVM_CHANNELS value in the
    // environment can only widen the topology.
    cfg.channels = std::max(2u, channelsFromEnv());
    cfg.phys_size = 4u << 20;
    cfg.epoch_length = 1 * kMillisecond;
    cfg.thynvm.btt_entries = 256;
    cfg.thynvm.ptt_entries = 512;
    return cfg;
}

std::unique_ptr<Workload>
makeWorkload(Family f)
{
    switch (f) {
      case Family::MicroRandom:
      case Family::MicroStreaming:
      case Family::MicroSliding: {
          MicroWorkload::Params mp;
          mp.pattern = f == Family::MicroRandom
                           ? MicroWorkload::Pattern::Random
                           : f == Family::MicroStreaming
                                 ? MicroWorkload::Pattern::Streaming
                                 : MicroWorkload::Pattern::Sliding;
          mp.base = 0;
          mp.array_bytes = 2u << 20;
          mp.access_size = 64;
          mp.read_fraction = 0.5;
          mp.total_accesses = 4000;
          mp.seed = 1;
          return std::make_unique<MicroWorkload>(mp);
      }
      case Family::KvHash: {
          KvWorkload::Params kp;
          kp.structure = KvWorkload::Structure::HashTable;
          kp.phys_size = 4u << 20;
          kp.value_size = 64;
          kp.initial_keys = 128;
          kp.key_space = 512;
          kp.hash_buckets = 512;
          kp.total_txns = 300;
          kp.compute_per_txn = 50;
          kp.seed = 7;
          return std::make_unique<KvWorkload>(kp);
      }
      case Family::SpecGcc: {
          SpecProfile prof = specProfile("gcc");
          prof.wss = 2u << 20; // shrink the footprint to the test system
          return std::make_unique<SpecWorkload>(prof, 0, 60000, 3);
      }
    }
    fatal("unreachable workload family");
}

/**
 * One complete run: fresh workload, fresh System, run to completion.
 * @p sim_threads goes through SystemConfig::sim_threads (0 = the
 * environment, 1 = one worker, >1 = kernel shards on worker threads).
 */
RunResult
runOne(Family f, SystemKind kind, unsigned sim_threads)
{
    SystemConfig cfg = smallConfig(kind);
    cfg.sim_threads = sim_threads;
    auto wl = makeWorkload(f);
    System sys(cfg, *wl);
    sys.start();
    RunResult r;
    r.final_tick = sys.run(20 * kSecond);
    r.finished = sys.finished();
    std::ostringstream os;
    sys.dumpStats(os);
    r.stats = os.str();
    return r;
}

void
expectSameRun(const RunResult& serial, const RunResult& other,
              const std::string& what)
{
    EXPECT_TRUE(other.finished) << what;
    EXPECT_EQ(other.final_tick, serial.final_tick) << what;
    EXPECT_EQ(other.stats, serial.stats) << what;
}

TEST(ParallelEquivalence, MicroFamiliesByteIdenticalAtAnyThreadCount)
{
    const std::vector<SystemKind> kinds = {
        SystemKind::Journal, SystemKind::Shadow, SystemKind::ThyNvm};
    const std::vector<Family> families = {Family::MicroRandom,
                                          Family::MicroStreaming,
                                          Family::MicroSliding};
    for (SystemKind kind : kinds) {
        for (Family f : families) {
            const RunResult serial = runOne(f, kind, 1);
            ASSERT_TRUE(serial.finished) << familyName(f);
            for (unsigned threads : {2u, 4u, 8u}) {
                const std::string what =
                    std::string(systemKindName(kind)) + " " +
                    familyName(f) + " threads=" +
                    std::to_string(threads);
                expectSameRun(serial, runOne(f, kind, threads), what);
            }
        }
    }
}

TEST(ParallelEquivalence, StorageAndSpecByteIdenticalAtAnyThreadCount)
{
    for (Family f : {Family::KvHash, Family::SpecGcc}) {
        const RunResult serial = runOne(f, SystemKind::ThyNvm, 1);
        ASSERT_TRUE(serial.finished) << familyName(f);
        for (unsigned threads : {2u, 4u, 8u}) {
            const std::string what = std::string(familyName(f)) +
                                     " threads=" +
                                     std::to_string(threads);
            expectSameRun(serial, runOne(f, SystemKind::ThyNvm, threads),
                          what);
        }
    }
}

using test::EnvGuard;

TEST(ParallelEquivalence, EnvVarEscapeHatchMatchesSerial)
{
    // sim_threads = 0 defers to the environment; unset env = one
    // worker.
    const RunResult serial =
        runOne(Family::MicroRandom, SystemKind::ThyNvm, 0);
    ASSERT_TRUE(serial.finished);
    {
        EnvGuard env("THYNVM_SIM_THREADS", "4");
        expectSameRun(serial,
                      runOne(Family::MicroRandom, SystemKind::ThyNvm, 0),
                      "THYNVM_SIM_THREADS=4");
    }
    // Explicit sim_threads beats the environment.
    {
        EnvGuard env("THYNVM_SIM_THREADS", "8");
        expectSameRun(serial,
                      runOne(Family::MicroRandom, SystemKind::ThyNvm, 1),
                      "sim_threads=1 overrides env");
    }
}

/**
 * A single-channel System has no kernel: whatever sim_threads or
 * THYNVM_SIM_THREADS ask for, run() takes the serial event loop, so it
 * executes no kernel window, posts no cross-shard message and produces
 * the same run. The 2-channel run beside it shows the counters do move
 * when a kernel runs.
 */
TEST(ParallelEquivalence, SingleChannelIgnoresSimThreads)
{
    struct Run
    {
        RunResult result;
        std::uint64_t windows = 0;
        std::uint64_t messages = 0;
    };
    const auto run = [](unsigned channels, unsigned sim_threads) {
        SystemConfig cfg = smallConfig(SystemKind::ThyNvm);
        cfg.channels = channels;
        cfg.sim_threads = sim_threads;
        auto wl = makeWorkload(Family::MicroRandom);
        System sys(cfg, *wl);
        sys.start();
        Run r;
        r.result.final_tick = sys.run(20 * kSecond);
        r.result.finished = sys.finished();
        std::ostringstream os;
        sys.dumpStats(os);
        r.result.stats = os.str();
        r.windows = sys.kernelWindows();
        r.messages = sys.kernelMessages();
        return r;
    };

    const Run serial = run(1, 1);
    ASSERT_TRUE(serial.result.finished);
    EXPECT_EQ(serial.windows, 0u);
    EXPECT_EQ(serial.messages, 0u);
    for (unsigned threads : {2u, 4u}) {
        const std::string what =
            "channels=1 sim_threads=" + std::to_string(threads);
        const Run r = run(1, threads);
        expectSameRun(serial.result, r.result, what);
        EXPECT_EQ(r.windows, 0u) << what;
        EXPECT_EQ(r.messages, 0u) << what;
    }
    {
        EnvGuard env("THYNVM_SIM_THREADS", "4");
        const Run r = run(1, 0);
        expectSameRun(serial.result, r.result,
                      "channels=1 THYNVM_SIM_THREADS=4");
        EXPECT_EQ(r.windows, 0u);
        EXPECT_EQ(r.messages, 0u);
    }

    const Run sharded = run(2, 2);
    ASSERT_TRUE(sharded.result.finished);
    EXPECT_GT(sharded.windows, 0u);
    EXPECT_GT(sharded.messages, 0u);
}

} // namespace
} // namespace thynvm
