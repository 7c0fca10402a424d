/**
 * @file
 * Deterministic sharded event kernel (sim/shard.hh).
 *
 * The kernel's contract is that a sharded simulation executes, per
 * shard, exactly the event sequence of a serial run — for any worker
 * thread count. These tests pin that contract with synthetic
 * multi-shard topologies exercising cross-shard mailbox traffic,
 * conservative lookahead windows, and epoch barrier alignment.
 */

#include "tests/test_util.hh"

#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "sim/shard.hh"

namespace thynvm {
namespace {

/** One observed event: (shard, tick, payload). */
struct Obs
{
    unsigned shard;
    Tick tick;
    std::uint64_t payload;

    bool
    operator==(const Obs& o) const
    {
        return shard == o.shard && tick == o.tick && payload == o.payload;
    }
};

/**
 * A ring of shards passing a token: shard i logs the hop and forwards
 * it to shard (i+1)%K with latency @p hop_latency, until @p hops hops
 * have happened. Exercises post()/mailbox drain/window advance.
 */
std::vector<std::vector<Obs>>
runTokenRing(unsigned shards, unsigned threads, Tick hop_latency,
             std::uint64_t hops, std::uint64_t* windows_out = nullptr)
{
    std::vector<EventQueue> queues(shards);
    std::vector<std::vector<Obs>> logs(shards);
    ShardedKernel kernel;
    for (unsigned i = 0; i < shards; ++i)
        kernel.addShard("ring" + std::to_string(i), queues[i]);
    for (unsigned i = 0; i < shards; ++i)
        kernel.link(i, (i + 1) % shards, hop_latency);

    // The hop handler: log, then forward through the mailbox.
    std::function<void(unsigned, std::uint64_t)> hop =
        [&](unsigned shard, std::uint64_t count) {
            EventQueue& eq = queues[shard];
            logs[shard].push_back(Obs{shard, eq.now(), count});
            if (count + 1 >= hops)
                return;
            const unsigned next = (shard + 1) % shards;
            kernel.post(shard, next, eq.now() + hop_latency,
                        [&hop, next, count] { hop(next, count + 1); });
        };

    queues[0].schedule(100, [&hop] { hop(0, 0); });
    kernel.run(threads);
    if (windows_out != nullptr)
        *windows_out = kernel.windowsExecuted();
    return logs;
}

TEST(ShardKernel, TokenRingMatchesAnalyticSchedule)
{
    const Tick lat = 40 * kNanosecond;
    const auto logs = runTokenRing(4, 1, lat, 16);
    for (unsigned s = 0; s < 4; ++s)
        ASSERT_EQ(logs[s].size(), 4u) << "shard " << s;
    // Hop j lands on shard j%4 at tick 100 + j*lat.
    for (std::uint64_t j = 0; j < 16; ++j) {
        const unsigned shard = static_cast<unsigned>(j % 4);
        const Obs& o = logs[shard][j / 4];
        EXPECT_EQ(o.tick, 100 + j * lat);
        EXPECT_EQ(o.payload, j);
    }
}

TEST(ShardKernel, TokenRingIsThreadCountInvariant)
{
    const Tick lat = 40 * kNanosecond;
    const auto serial = runTokenRing(4, 1, lat, 64);
    for (unsigned threads : {2u, 4u, 8u}) {
        const auto parallel = runTokenRing(4, threads, lat, 64);
        EXPECT_EQ(parallel, serial) << "threads=" << threads;
    }
}

/**
 * Shards running independent seeded event chains with pseudo-random
 * spacing, all-to-all linked. Each chain folds its (tick, step) pairs
 * into a checksum; any divergence of event order or timing across
 * thread counts changes it.
 */
std::vector<std::uint64_t>
runJitterChains(unsigned shards, unsigned threads, std::uint64_t steps)
{
    std::vector<EventQueue> queues(shards);
    std::vector<std::uint64_t> sums(shards, 0);
    std::vector<Rng> rngs;
    for (unsigned i = 0; i < shards; ++i)
        rngs.emplace_back(0x5eed + i);

    ShardedKernel kernel;
    for (unsigned i = 0; i < shards; ++i)
        kernel.addShard("chain" + std::to_string(i), queues[i]);
    for (unsigned i = 0; i < shards; ++i) {
        for (unsigned j = 0; j < shards; ++j) {
            if (i != j)
                kernel.link(i, j, 10 * kNanosecond);
        }
    }
    kernel.setBarrierPeriod(500 * kNanosecond);

    std::function<void(unsigned, std::uint64_t)> step =
        [&](unsigned shard, std::uint64_t n) {
            EventQueue& eq = queues[shard];
            sums[shard] =
                sums[shard] * 1099511628211ull + eq.now() * 31 + n;
            if (n + 1 < steps) {
                eq.scheduleIn(rngs[shard].below(300) + 1,
                              [&step, shard, n] { step(shard, n + 1); });
            }
        };
    for (unsigned i = 0; i < shards; ++i) {
        queues[i].schedule(i * 7, [&step, i] { step(i, 0); });
    }
    kernel.run(threads);
    return sums;
}

TEST(ShardKernel, JitterChainsAreThreadCountInvariant)
{
    const auto serial = runJitterChains(6, 1, 400);
    for (unsigned threads : {2u, 4u, 8u}) {
        EXPECT_EQ(runJitterChains(6, threads, 400), serial)
            << "threads=" << threads;
    }
}

TEST(ShardKernel, MailboxDeliversAtExactTick)
{
    EventQueue a, b;
    ShardedKernel kernel;
    kernel.addShard("a", a);
    kernel.addShard("b", b);
    kernel.link(0, 1, 50);

    Tick delivered_at = 0;
    a.schedule(10, [&] {
        kernel.post(0, 1, a.now() + 123, [&] { delivered_at = b.now(); });
    });
    kernel.run(1);
    EXPECT_EQ(delivered_at, 133u);
}

TEST(ShardKernel, MessagesReviveAnIdleShard)
{
    EventQueue a, b;
    ShardedKernel kernel;
    kernel.addShard("a", a);
    kernel.addShard("b", b);
    kernel.link(0, 1, 50);

    // Shard b starts with an empty queue (idle immediately); a message
    // posted later must still run on it.
    int ran = 0;
    a.schedule(1000, [&] {
        kernel.post(0, 1, a.now() + 50, [&ran] { ++ran; });
    });
    kernel.run(2);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(b.now(), 1050u);
}

TEST(ShardKernel, ZeroLookaheadLinkIsRejected)
{
    EventQueue a, b;
    ShardedKernel kernel;
    kernel.addShard("a", a);
    kernel.addShard("b", b);
    EXPECT_THROW(kernel.link(0, 1, 0), PanicError);
    EXPECT_THROW(kernel.link(0, 0, 10), PanicError);
    EXPECT_THROW(kernel.link(0, 7, 10), PanicError);
}

TEST(ShardKernel, PostOverUndeclaredLinkPanics)
{
    EventQueue a, b;
    ShardedKernel kernel;
    kernel.addShard("a", a);
    kernel.addShard("b", b);
    kernel.link(0, 1, 50);
    bool threw = false;
    b.schedule(10, [&] {
        try {
            kernel.post(1, 0, b.now() + 100, [] {});
        } catch (const PanicError&) {
            threw = true;
        }
    });
    kernel.run(1);
    EXPECT_TRUE(threw);
}

TEST(ShardKernel, ConservativeViolationPanics)
{
    EventQueue a, b;
    ShardedKernel kernel;
    kernel.addShard("a", a);
    kernel.addShard("b", b);
    kernel.link(0, 1, 50);
    // A message due *before* the end of the current window would race
    // the target shard; the kernel must refuse it.
    bool threw = false;
    a.schedule(10, [&] {
        try {
            kernel.post(0, 1, a.now() + 1, [] {});
        } catch (const PanicError&) {
            threw = true;
        }
    });
    kernel.run(1);
    EXPECT_TRUE(threw);
}

TEST(ShardKernel, CountsWindowsAndMessages)
{
    const Tick lat = 40 * kNanosecond;
    EventQueue a, b;
    ShardedKernel kernel;
    kernel.addShard("a", a);
    kernel.addShard("b", b);
    kernel.link(0, 1, lat);

    int delivered = 0;
    a.schedule(0, [&] {
        kernel.post(0, 1, lat, [&] { ++delivered; });
    });
    kernel.run(1);
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(kernel.messagesDelivered(), 1u);
    EXPECT_GE(kernel.windowsExecuted(), 2u);
}

/**
 * One shard with dense local work and an idle peer: the idle shard's
 * outbound path reports +infinity and the busy shard is the sole
 * actor, so the whole run collapses into one window (a fixed
 * lookahead-wide window would pay one per 40-tick quantum). Returns
 * windows executed; @p ticks_out collects the executed event ticks.
 */
std::uint64_t
runBusyIdlePair(Tick barrier_period, std::vector<Tick>* ticks_out = nullptr)
{
    EventQueue a, b;
    ShardedKernel kernel;
    kernel.addShard("busy", a);
    kernel.addShard("idle", b);
    kernel.link(0, 1, 40);
    kernel.link(1, 0, 40);
    kernel.setBarrierPeriod(barrier_period);

    // 1000 events, 40-tick spacing: 999 lookahead quanta of span.
    std::function<void(std::uint64_t)> chain = [&](std::uint64_t n) {
        if (ticks_out != nullptr)
            ticks_out->push_back(a.now());
        if (n + 1 < 1000)
            a.scheduleIn(40, [&chain, n] { chain(n + 1); });
    };
    a.schedule(0, [&chain] { chain(0); });
    kernel.run(1);
    return kernel.windowsExecuted();
}

TEST(ShardKernel, EotIdleLinkWidensToOneWindow)
{
    std::vector<Tick> ticks;
    // Sole actor, idle outbound path: the entire 40k-tick span is one
    // window.
    EXPECT_EQ(runBusyIdlePair(0, &ticks), 1u);
    // And the window executes the analytic schedule 0, 40, ..., 39960.
    ASSERT_EQ(ticks.size(), 1000u);
    for (std::size_t n = 0; n < ticks.size(); ++n)
        EXPECT_EQ(ticks[n], 40 * n) << "event " << n;
}

TEST(ShardKernel, EotWindowsClampToBarrierEdges)
{
    // Events at 0, 40, ..., 39960 with a 400-tick barrier period:
    // widening stops at every epoch edge, so exactly 100 windows of
    // 10 events each.
    EXPECT_EQ(runBusyIdlePair(400), 100u);
}

TEST(ShardKernel, EotWideningNeverAdmitsInsideClosedWindow)
{
    // A lying EOT override ("I never send") widens the target's window
    // past the poster's actual send; the admission check must refuse
    // the message instead of letting it race the target.
    EventQueue a, b;
    ShardedKernel kernel;
    kernel.addShard("a", a);
    kernel.addShard("b", b);
    kernel.link(0, 1, 50);
    b.schedule(500, [] {}); // b busy too: no sole-actor bypass
    kernel.setEotFn(0, [] { return kMaxTick; });
    bool threw = false;
    a.schedule(10, [&] {
        try {
            kernel.post(0, 1, a.now() + 50, [] {});
        } catch (const PanicError&) {
            threw = true;
        }
    });
    kernel.run(1);
    EXPECT_TRUE(threw);
}

TEST(ShardKernel, EotHonestBoundAdmitsExactlyAtWindowEnd)
{
    // The honest default EOT (next event + outbound lookahead) floors
    // the target's window at exactly the earliest possible send: a
    // post at that bound is accepted and delivered on time.
    EventQueue a, b;
    ShardedKernel kernel;
    kernel.addShard("a", a);
    kernel.addShard("b", b);
    kernel.link(0, 1, 50);
    b.schedule(500, [] {});
    Tick delivered_at = 0;
    a.schedule(10, [&] {
        kernel.post(0, 1, a.now() + 50, [&] { delivered_at = b.now(); });
    });
    kernel.run(1);
    EXPECT_EQ(delivered_at, 60u);
}

TEST(ShardKernel, EotTokenRingWindowCountRegression)
{
    // One hop per window is the conservative floor for a token ring
    // (every hop is a cross-shard message); EOT widening must stay at
    // that floor instead of regressing to multiple windows per hop.
    // TokenRingMatchesAnalyticSchedule pins the executed schedule.
    std::uint64_t windows = 0;
    runTokenRing(4, 1, 40 * kNanosecond, 16, &windows);
    EXPECT_LE(windows, 18u);
}

TEST(ShardKernel, DuplicateLinkDeclarationPanics)
{
    EventQueue a, b;
    ShardedKernel kernel;
    kernel.addShard("a", a);
    kernel.addShard("b", b);
    kernel.link(0, 1, 50);
    kernel.link(1, 0, 50);
    EXPECT_THROW(kernel.link(0, 1, 40), PanicError);
}

/**
 * One event on shard a at tick @p start posts @p n messages to shard b
 * in a single window, ticks non-decreasing in post order, then the
 * kernel runs. Returns b's log of (payload, delivery tick) and checks
 * the delivered count.
 */
std::vector<std::pair<std::uint64_t, Tick>>
burstOverOneLink(ShardedKernel& kernel, EventQueue& a, EventQueue& b,
                 Tick start, std::uint64_t n, unsigned threads)
{
    std::vector<std::pair<std::uint64_t, Tick>> log;
    log.reserve(n);
    a.schedule(start, [&, n] {
        for (std::uint64_t i = 0; i < n; ++i) {
            kernel.post(0, 1, a.now() + 50 + i / 1000, [&log, &b, i] {
                log.emplace_back(i, b.now());
            });
        }
    });
    kernel.run(threads);
    EXPECT_EQ(kernel.messagesDelivered(), n);
    return log;
}

TEST(ShardKernel, OneWindowBurstBeyondAnyFixedMailbox)
{
    // More messages in one window over one link than a 2^16-slot ring
    // could hold: the mailbox grows, and every message still lands at
    // its own tick, in post order, exactly once.
    const std::uint64_t n = (std::uint64_t{1} << 17) + 5;
    for (unsigned threads : {1u, 2u}) {
        EventQueue a, b;
        ShardedKernel kernel;
        kernel.addShard("a", a);
        kernel.addShard("b", b);
        kernel.link(0, 1, 50);

        const auto log = burstOverOneLink(kernel, a, b, 10, n, threads);
        ASSERT_EQ(log.size(), n) << "threads=" << threads;
        for (std::uint64_t i = 0; i < n; ++i) {
            ASSERT_EQ(log[i].first, i) << "threads=" << threads;
            ASSERT_EQ(log[i].second, 10 + 50 + i / 1000)
                << "threads=" << threads << " i=" << i;
        }
    }
}

TEST(ShardKernel, MailboxesComeBackEmptyAcrossRuns)
{
    // Re-running the same kernel must see only the new run's traffic:
    // the first run's drained mailboxes hold nothing that could be
    // delivered (or counted) a second time.
    const std::uint64_t n = (std::uint64_t{1} << 17) + 5;
    EventQueue a, b;
    ShardedKernel kernel;
    // Shard a always reports itself runnable, so the second run steps
    // the burst event scheduled on it after the first run ended (an
    // empty queue still leaves it idle).
    kernel.addShard("a", a, [&a](ShardWindow win) {
        while (!a.empty() && a.nextTick() < win.end())
            a.step();
        return true;
    });
    kernel.addShard("b", b);
    kernel.link(0, 1, 50);

    const auto first = burstOverOneLink(kernel, a, b, 10, n, 2);
    // Start the second burst past both shards' clocks.
    const Tick start = b.now() + 10;
    const auto second = burstOverOneLink(kernel, a, b, start, n, 2);
    ASSERT_EQ(first.size(), n);
    ASSERT_EQ(second.size(), n);
    for (std::uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(second[i].first, first[i].first);
        ASSERT_EQ(second[i].second, first[i].second - 10 + start);
    }
}

} // namespace
} // namespace thynvm
