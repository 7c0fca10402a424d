/**
 * @file
 * Unit tests for the memory device timing model, the staging port,
 * and the crash-precise durability semantics.
 */

#include "tests/test_util.hh"

#include "mem/port.hh"

namespace thynvm {
namespace {

using test::patternBlock;
using test::sameBytes;

DeviceParams
smallNvm()
{
    auto p = DeviceParams::nvm(1 << 20);
    return p;
}

TEST(DeviceTest, WriteThenReadReturnsData)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", smallNvm());

    auto data = patternBlock(1);
    DeviceRequest wr;
    wr.addr = 128;
    wr.is_write = true;
    std::memcpy(wr.data.data(), data.data(), kBlockSize);
    ASSERT_TRUE(dev.enqueue(std::move(wr)));

    std::array<std::uint8_t, kBlockSize> out{};
    bool done = false;
    DeviceRequest rd;
    rd.addr = 128;
    rd.is_write = false;
    rd.on_complete = [&] { done = true; };
    ASSERT_TRUE(dev.enqueue(std::move(rd)));
    eq.runUntil([&] { return done; });
    dev.store().read(128, out.data(), kBlockSize);
    EXPECT_EQ(out, data);
}

TEST(DeviceTest, FunctionalWriteVisibleImmediately)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", smallNvm());
    auto data = patternBlock(2);
    DeviceRequest wr;
    wr.addr = 0;
    wr.is_write = true;
    std::memcpy(wr.data.data(), data.data(), kBlockSize);
    ASSERT_TRUE(dev.enqueue(std::move(wr)));
    // The architectural view updates at enqueue, before service.
    std::array<std::uint8_t, kBlockSize> out{};
    dev.store().read(0, out.data(), kBlockSize);
    EXPECT_EQ(out, data);
}

TEST(DeviceTest, RowHitFasterThanMiss)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", smallNvm());

    Tick t0 = 0, t1 = 0, t2 = 0;
    DeviceRequest r1;
    r1.addr = 0;
    r1.on_complete = [&] { t0 = eq.now(); };
    dev.enqueue(std::move(r1));
    eq.run();

    // Same row: hit.
    DeviceRequest r2;
    r2.addr = 64;
    r2.on_complete = [&] { t1 = eq.now(); };
    const Tick start1 = eq.now();
    dev.enqueue(std::move(r2));
    eq.run();

    // Different row, same bank (banks stride by row): miss.
    const auto& p = dev.params();
    DeviceRequest r3;
    r3.addr = p.row_size * p.banks; // same bank 0, different row
    r3.on_complete = [&] { t2 = eq.now(); };
    const Tick start2 = eq.now();
    dev.enqueue(std::move(r3));
    eq.run();

    const Tick hit_latency = t1 - start1;
    const Tick miss_latency = t2 - start2;
    EXPECT_LT(hit_latency, miss_latency);
    EXPECT_GE(hit_latency, p.row_hit_latency);
    EXPECT_GE(miss_latency, p.row_miss_clean_latency);
}

TEST(DeviceTest, DirtyMissCostsMore)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", smallNvm());
    const auto& p = dev.params();

    // Open row 0 in bank 0 with a write -> dirty row buffer.
    DeviceRequest w;
    w.addr = 0;
    w.is_write = true;
    dev.enqueue(std::move(w));
    eq.run();

    // Read a different row in the same bank: dirty miss.
    Tick done_at = 0;
    DeviceRequest r;
    r.addr = p.row_size * p.banks;
    r.on_complete = [&] { done_at = eq.now(); };
    const Tick start = eq.now();
    dev.enqueue(std::move(r));
    eq.run();
    EXPECT_GE(done_at - start, p.row_miss_dirty_latency);
    EXPECT_EQ(dev.stats().value("row_misses_dirty"), 1.0);
}

TEST(DeviceTest, BankParallelismBeatsSerialization)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", smallNvm());
    const auto& p = dev.params();

    // Two misses to different banks should overlap; two misses to the
    // same bank serialize.
    unsigned done = 0;
    for (unsigned i = 0; i < 2; ++i) {
        DeviceRequest r;
        r.addr = i * p.row_size; // different banks
        r.on_complete = [&] { ++done; };
        dev.enqueue(std::move(r));
    }
    const Tick start = eq.now();
    eq.runUntil([&] { return done == 2; });
    const Tick parallel_time = eq.now() - start;

    done = 0;
    for (unsigned i = 0; i < 2; ++i) {
        DeviceRequest r;
        // Same bank, alternating rows: every access misses.
        r.addr = i * p.row_size * p.banks + 2 * p.row_size * p.banks;
        r.on_complete = [&] { ++done; };
        dev.enqueue(std::move(r));
    }
    const Tick start2 = eq.now();
    eq.runUntil([&] { return done == 2; });
    const Tick serial_time = eq.now() - start2;

    EXPECT_LT(parallel_time, serial_time);
}

TEST(DeviceTest, QueueCapacityEnforced)
{
    EventQueue eq;
    auto p = smallNvm();
    p.read_queue_capacity = 2;
    MemDevice dev(eq, "dev", p);
    DeviceRequest a, b, c;
    a.addr = 0;
    b.addr = 64;
    c.addr = 128;
    EXPECT_TRUE(dev.enqueue(std::move(a)));
    EXPECT_TRUE(dev.enqueue(std::move(b)));
    EXPECT_FALSE(dev.canAccept(false));
    EXPECT_FALSE(dev.enqueue(std::move(c)));
    eq.run();
    EXPECT_TRUE(dev.canAccept(false));
}

TEST(DeviceTest, CrashRollsBackUnservicedWrites)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", smallNvm());

    auto first = patternBlock(10);
    DeviceRequest w1;
    w1.addr = 256;
    w1.is_write = true;
    std::memcpy(w1.data.data(), first.data(), kBlockSize);
    dev.enqueue(std::move(w1));
    eq.run(); // w1 serviced -> durable

    auto second = patternBlock(11);
    DeviceRequest w2;
    w2.addr = 256;
    w2.is_write = true;
    std::memcpy(w2.data.data(), second.data(), kBlockSize);
    dev.enqueue(std::move(w2));
    // No eq.run(): w2 is still queued when power fails.
    dev.crash();

    std::array<std::uint8_t, kBlockSize> out{};
    dev.store().read(256, out.data(), kBlockSize);
    EXPECT_EQ(out, first);
}

TEST(DeviceTest, CrashRollsBackChainInReverseOrder)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", smallNvm());

    auto a = patternBlock(20);
    auto b = patternBlock(21);
    auto c = patternBlock(22);
    for (const auto* d : {&a, &b, &c}) {
        DeviceRequest w;
        w.addr = 512;
        w.is_write = true;
        std::memcpy(w.data.data(), d->data(), kBlockSize);
        dev.enqueue(std::move(w));
    }
    dev.crash();
    std::array<std::uint8_t, kBlockSize> out{};
    dev.store().read(512, out.data(), kBlockSize);
    // All three were unserviced: the original zeros come back.
    EXPECT_EQ(out, (std::array<std::uint8_t, kBlockSize>{}));
}

TEST(DeviceTest, UndoReplayOntoCopyMatchesCrash)
{
    // The device owns the upper half of a root store, as a channel's
    // slice does: the replay must land at the slice's root offset.
    const std::size_t half = 1 << 20;
    auto root = std::make_shared<BackingStore>(2 * half);
    EventQueue eq;
    MemDevice dev(eq, "dev", smallNvm(),
                  std::make_shared<BackingStore>(root, half, half));

    const auto write = [&](Addr addr, std::uint64_t tag) {
        const auto data = patternBlock(tag);
        ASSERT_TRUE(dev.enqueueWrite(addr, data.data(),
                                     TrafficSource::CpuWriteback));
    };
    write(256, 1);
    eq.run(); // durable
    for (std::uint64_t tag = 2; tag < 12; ++tag)
        write(256 + (tag % 3) * kBlockSize, tag);

    const auto image = root->clone();
    dev.replayUndoOnto(*image);
    EXPECT_FALSE(sameBytes(*image, *root)) << "nothing was undone";
    dev.crash();
    EXPECT_TRUE(sameBytes(*image, *root));
}

TEST(DeviceTest, WritesDrainedNotification)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", smallNvm());
    EXPECT_TRUE(dev.writesDrained());

    DeviceRequest w;
    w.addr = 0;
    w.is_write = true;
    dev.enqueue(std::move(w));
    EXPECT_FALSE(dev.writesDrained());

    bool drained = false;
    dev.notifyWhenWritesDrained([&] { drained = true; });
    eq.runUntil([&] { return drained; });
    EXPECT_TRUE(dev.writesDrained());
}

TEST(DeviceTest, WriteTrafficAttributedBySource)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", smallNvm());
    DeviceRequest w1;
    w1.addr = 0;
    w1.is_write = true;
    w1.source = TrafficSource::Checkpoint;
    dev.enqueue(std::move(w1));
    DeviceRequest w2;
    w2.addr = 64;
    w2.is_write = true;
    w2.source = TrafficSource::Migration;
    dev.enqueue(std::move(w2));
    eq.run();
    EXPECT_EQ(dev.writeBytes(TrafficSource::Checkpoint), kBlockSize);
    EXPECT_EQ(dev.writeBytes(TrafficSource::Migration), kBlockSize);
    EXPECT_EQ(dev.totalWriteBytes(), 2 * kBlockSize);
}

TEST(PortTest, StagesBeyondDeviceCapacity)
{
    EventQueue eq;
    auto p = smallNvm();
    p.write_queue_capacity = 4;
    p.write_drain_high = 3;
    p.write_drain_low = 1;
    MemDevice dev(eq, "dev", p);
    DevicePort port(dev);

    unsigned accepted = 0;
    for (unsigned i = 0; i < 64; ++i) {
        DeviceRequest w;
        w.addr = i * kBlockSize;
        w.is_write = true;
        auto data = patternBlock(i);
        std::memcpy(w.data.data(), data.data(), kBlockSize);
        port.send(std::move(w), [&] { ++accepted; });
    }
    bool all_durable = false;
    port.notifyWhenWritesDurable([&] { all_durable = true; });
    eq.runUntil([&] { return all_durable; });
    EXPECT_EQ(accepted, 64u);
    EXPECT_EQ(dev.totalWriteBytes(), 64 * kBlockSize);
}

TEST(PortTest, StagedWritesOntoCopyMatchQuiesce)
{
    const std::size_t half = 1 << 20;
    auto root = std::make_shared<BackingStore>(2 * half);
    EventQueue eq;
    auto p = smallNvm();
    p.write_queue_capacity = 4;
    p.write_drain_high = 3;
    p.write_drain_low = 1;
    MemDevice dev(eq, "dev", p,
                  std::make_shared<BackingStore>(root, half, half));
    DevicePort port(dev);
    for (unsigned i = 0; i < 16; ++i) {
        const auto data = patternBlock(100 + i);
        // Two writes per block: the newer staged one must win.
        port.sendWrite((i % 8) * kBlockSize, data.data(),
                       TrafficSource::CpuWriteback);
    }
    ASSERT_EQ(port.pendingWrites(), 12u);

    const auto image = root->clone();
    port.applyStagedOnto(*image);
    EXPECT_FALSE(sameBytes(*image, *root)) << "nothing was staged";
    port.quiesce();
    dev.quiesce();
    EXPECT_TRUE(sameBytes(*image, *root));
}

TEST(PortTest, FunctionalReadSeesStagedWrites)
{
    EventQueue eq;
    auto p = smallNvm();
    p.write_queue_capacity = 2;
    p.write_drain_high = 1; // force staging... high must be > low
    p.write_drain_low = 0;
    MemDevice dev(eq, "dev", p);
    DevicePort port(dev);

    // Fill the device queue so later writes stage in the port FIFO.
    std::array<std::uint8_t, kBlockSize> expected{};
    for (unsigned i = 0; i < 8; ++i) {
        DeviceRequest w;
        w.addr = 0;
        w.is_write = true;
        auto data = patternBlock(100 + i);
        expected = data;
        std::memcpy(w.data.data(), data.data(), kBlockSize);
        port.send(std::move(w));
    }
    std::array<std::uint8_t, kBlockSize> out{};
    port.functionalRead(0, out.data(), kBlockSize);
    EXPECT_EQ(out, expected); // newest staged write wins
}

TEST(PortTest, CrashDropsStagedRequests)
{
    EventQueue eq;
    auto p = smallNvm();
    p.write_queue_capacity = 2;
    p.write_drain_high = 1;
    p.write_drain_low = 0;
    MemDevice dev(eq, "dev", p);
    DevicePort port(dev);
    for (unsigned i = 0; i < 8; ++i) {
        DeviceRequest w;
        w.addr = 64 * i;
        w.is_write = true;
        auto data = patternBlock(i);
        std::memcpy(w.data.data(), data.data(), kBlockSize);
        port.send(std::move(w));
    }
    port.crash();
    dev.crash();
    // Nothing was serviced: the store must be all zeros.
    std::array<std::uint8_t, kBlockSize> out{};
    for (unsigned i = 0; i < 8; ++i) {
        dev.store().read(64 * i, out.data(), kBlockSize);
        EXPECT_EQ(out, (std::array<std::uint8_t, kBlockSize>{}));
    }
}

TEST(PortTest, DurabilityOrderingForCommitRecords)
{
    // The protocol pattern: stage data writes, wait for durability,
    // then stage the commit record. After the wait fires, all data
    // writes must have been serviced.
    EventQueue eq;
    auto p = smallNvm();
    p.write_queue_capacity = 4;
    p.write_drain_high = 3;
    p.write_drain_low = 1;
    MemDevice dev(eq, "dev", p);
    DevicePort port(dev);

    for (unsigned i = 0; i < 32; ++i) {
        DeviceRequest w;
        w.addr = i * kBlockSize;
        w.is_write = true;
        port.send(std::move(w));
    }
    bool data_durable = false;
    port.notifyWhenWritesDurable([&] { data_durable = true; });
    eq.runUntil([&] { return data_durable; });
    EXPECT_EQ(dev.totalWriteBytes(), 32 * kBlockSize);
    EXPECT_TRUE(dev.writesDrained());
}

} // namespace
} // namespace thynvm
