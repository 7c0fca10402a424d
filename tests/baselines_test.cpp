/**
 * @file
 * Behavioural unit tests for the baseline controllers: journaling,
 * shadow paging, and the ideal systems.
 */

#include "tests/test_util.hh"

#include "baselines/ideal.hh"
#include "baselines/journal.hh"
#include "baselines/shadow.hh"

namespace thynvm {
namespace {

using test::loadBlock;
using test::patternBlock;
using test::storeBlock;

// ---------------------------------------------------------------------
// Journaling.
// ---------------------------------------------------------------------

JournalConfig
smallJournal()
{
    JournalConfig cfg;
    cfg.phys_size = 256 * 1024;
    cfg.table_entries = 16;
    cfg.table_headroom = 64;
    cfg.epoch_length = 200 * kMicrosecond;
    return cfg;
}

struct JournalTest : public ::testing::Test
{
    JournalTest()
        : ctrl(std::make_unique<JournalController>(eq, "ctrl",
                                                   smallJournal()))
    {
        ctrl->start();
    }

    void
    checkpoint()
    {
        const auto epochs = ctrl->completedEpochs();
        ctrl->requestEpochEnd();
        eq.runUntil([&] {
            return ctrl->completedEpochs() == epochs + 1 &&
                   !ctrl->checkpointInProgress();
        });
    }

    EventQueue eq;
    std::unique_ptr<JournalController> ctrl;
};

TEST_F(JournalTest, StoreLoadRoundTrip)
{
    auto data = patternBlock(1);
    storeBlock(eq, *ctrl, 4096, data);
    EXPECT_EQ(loadBlock(eq, *ctrl, 4096), data);
    EXPECT_EQ(ctrl->tableLive(), 1u);
}

TEST_F(JournalTest, StoresCoalesceInBuffer)
{
    for (int i = 0; i < 5; ++i)
        storeBlock(eq, *ctrl, 0, patternBlock(i));
    EXPECT_EQ(ctrl->tableLive(), 1u);
    EXPECT_EQ(loadBlock(eq, *ctrl, 0), patternBlock(4));
}

TEST_F(JournalTest, CheckpointAppliesInPlaceAndClears)
{
    auto data = patternBlock(7);
    storeBlock(eq, *ctrl, 8192, data);
    checkpoint();
    EXPECT_EQ(ctrl->tableLive(), 0u);
    // The home region now holds the committed data.
    std::uint8_t home[kBlockSize];
    ctrl->nvm().store().read(8192, home, kBlockSize);
    EXPECT_EQ(std::memcmp(home, data.data(), kBlockSize), 0);
    EXPECT_EQ(loadBlock(eq, *ctrl, 8192), data);
}

TEST_F(JournalTest, TableOverflowForcesEpoch)
{
    for (unsigned i = 0; i < 20; ++i)
        storeBlock(eq, *ctrl, i * kBlockSize, patternBlock(i));
    eq.runUntil([&] {
        return ctrl->completedEpochs() >= 1 &&
               !ctrl->checkpointInProgress();
    });
    EXPECT_GE(ctrl->completedEpochs(), 1u);
    for (unsigned i = 0; i < 20; ++i)
        EXPECT_EQ(loadBlock(eq, *ctrl, i * kBlockSize), patternBlock(i));
}

TEST_F(JournalTest, JournalWritesDoubleTheCheckpointTraffic)
{
    for (unsigned i = 0; i < 8; ++i)
        storeBlock(eq, *ctrl, i * kBlockSize, patternBlock(i));
    checkpoint();
    // Each block is written twice: once to the journal, once in place.
    EXPECT_EQ(ctrl->stats().value("journaled_blocks"), 8.0);
    EXPECT_EQ(ctrl->stats().value("applied_blocks"), 8.0);
    EXPECT_GE(ctrl->nvm().writeBytes(TrafficSource::Checkpoint),
              2 * 8 * kBlockSize);
}

TEST_F(JournalTest, CommittedButUnappliedJournalReplaysOnRecovery)
{
    auto data = patternBlock(3);
    storeBlock(eq, *ctrl, 0, data);
    // Begin the checkpoint and stop somewhere inside it.
    ctrl->requestEpochEnd();
    for (int i = 0; i < 40 && !eq.empty(); ++i)
        eq.step();

    auto nvm = ctrl->nvmStoreHandle();
    ctrl->crash();
    eq.clear();

    ctrl = std::make_unique<JournalController>(eq, "ctrl", smallJournal(),
                                               nvm);
    bool done = false;
    ctrl->recover([&] { done = true; });
    eq.runUntil([&] { return done; });
    ctrl->start();
    const auto img = loadBlock(eq, *ctrl, 0);
    const bool committed = img == data;
    const bool rolled_back =
        img == std::array<std::uint8_t, kBlockSize>{};
    EXPECT_TRUE(committed || rolled_back);
}

// ---------------------------------------------------------------------
// Shadow paging.
// ---------------------------------------------------------------------

ShadowConfig
smallShadow()
{
    ShadowConfig cfg;
    cfg.phys_size = 256 * 1024;
    cfg.dram_size = 4 * kPageSize;
    cfg.epoch_length = 200 * kMicrosecond;
    return cfg;
}

struct ShadowTest : public ::testing::Test
{
    ShadowTest()
        : ctrl(std::make_unique<ShadowController>(eq, "ctrl",
                                                  smallShadow()))
    {
        ctrl->start();
    }

    void
    checkpoint()
    {
        const auto epochs = ctrl->completedEpochs();
        ctrl->requestEpochEnd();
        eq.runUntil([&] {
            return ctrl->completedEpochs() == epochs + 1 &&
                   !ctrl->checkpointInProgress();
        });
    }

    EventQueue eq;
    std::unique_ptr<ShadowController> ctrl;
};

TEST_F(ShadowTest, FirstWriteFaultsPageIntoDram)
{
    EXPECT_EQ(ctrl->residentPages(), 0u);
    storeBlock(eq, *ctrl, 4096, patternBlock(1));
    EXPECT_EQ(ctrl->residentPages(), 1u);
    EXPECT_EQ(ctrl->stats().value("cow_faults"), 1.0);
    EXPECT_EQ(loadBlock(eq, *ctrl, 4096), patternBlock(1));
}

TEST_F(ShadowTest, CowPreservesRestOfPage)
{
    // Preload a recognizable page image.
    std::vector<std::uint8_t> page(kPageSize, 0x5A);
    ctrl->loadImage(2 * kPageSize, page.data(), page.size());
    storeBlock(eq, *ctrl, 2 * kPageSize, patternBlock(9));
    // The written block changed; its neighbours survived the copy.
    EXPECT_EQ(loadBlock(eq, *ctrl, 2 * kPageSize), patternBlock(9));
    auto neighbour = loadBlock(eq, *ctrl, 2 * kPageSize + kBlockSize);
    for (auto b : neighbour)
        ASSERT_EQ(b, 0x5A);
}

TEST_F(ShadowTest, BufferFullEvictsWholePages)
{
    // Touch more pages than the 4-slot DRAM buffer holds.
    for (unsigned p = 0; p < 8; ++p)
        storeBlock(eq, *ctrl, p * kPageSize, patternBlock(p));
    EXPECT_LE(ctrl->residentPages(), 4u);
    EXPECT_GE(ctrl->stats().value("evictions"), 4.0);
    // Whole-page eviction flushes amplify a single dirty block into a
    // full-page NVM write: the Random pathology of Figure 8. Let the
    // staged flush traffic reach the device before counting it.
    test::settle(eq, 5 * kMillisecond);
    EXPECT_GE(ctrl->nvm().writeBytes(TrafficSource::Checkpoint),
              4 * kPageSize);
    for (unsigned p = 0; p < 8; ++p)
        EXPECT_EQ(loadBlock(eq, *ctrl, p * kPageSize), patternBlock(p));
}

TEST_F(ShadowTest, CheckpointFlipsCommittedSlots)
{
    auto v1 = patternBlock(1);
    storeBlock(eq, *ctrl, 0, v1);
    checkpoint();
    auto v2 = patternBlock(2);
    storeBlock(eq, *ctrl, 0, v2);
    checkpoint();
    EXPECT_EQ(loadBlock(eq, *ctrl, 0), v2);
    // Two checkpoints alternate between home and shadow slots; both
    // NVM copies exist, only the committed one is visible.
}

TEST_F(ShadowTest, RecoveryIgnoresUncommittedShadowWrites)
{
    auto committed = patternBlock(1);
    storeBlock(eq, *ctrl, 0, committed);
    checkpoint();
    storeBlock(eq, *ctrl, 0, patternBlock(2)); // volatile only

    auto nvm = ctrl->nvmStoreHandle();
    ctrl->crash();
    eq.clear();
    ctrl = std::make_unique<ShadowController>(eq, "ctrl", smallShadow(),
                                              nvm);
    bool done = false;
    ctrl->recover([&] { done = true; });
    eq.runUntil([&] { return done; });
    ctrl->start();
    EXPECT_EQ(loadBlock(eq, *ctrl, 0), committed);
}

// ---------------------------------------------------------------------
// Ideal systems.
// ---------------------------------------------------------------------

TEST(IdealTest, DramAndNvmRoundTrip)
{
    for (bool is_dram : {true, false}) {
        EventQueue eq;
        IdealController ctrl(eq, "ctrl", 64 * 1024, is_dram);
        auto data = patternBlock(is_dram ? 1 : 2);
        storeBlock(eq, ctrl, 128, data);
        EXPECT_EQ(loadBlock(eq, ctrl, 128), data);
    }
}

TEST(IdealTest, NvmSlowerThanDram)
{
    auto time_one = [](bool is_dram) {
        EventQueue eq;
        IdealController ctrl(eq, "ctrl", 1 << 20, is_dram);
        // Row-miss reads: alternate distant rows in one bank.
        Tick total = 0;
        for (int i = 0; i < 16; ++i) {
            const Tick t0 = eq.now();
            test::loadBlock(eq, ctrl,
                            (i % 2) * 512 * 1024 + 64 * 1024);
            total += eq.now() - t0;
        }
        return total;
    };
    EXPECT_LT(time_one(true), time_one(false));
}

TEST(IdealTest, CrashIsFree)
{
    EventQueue eq;
    IdealController ctrl(eq, "ctrl", 64 * 1024, true);
    auto data = patternBlock(3);
    storeBlock(eq, ctrl, 0, data);
    ctrl.crash();
    eq.clear();
    bool done = false;
    ctrl.recover([&] { done = true; });
    eq.runUntil([&] { return done; });
    // Idealized consistency: nothing is lost.
    EXPECT_EQ(loadBlock(eq, ctrl, 0), data);
}

TEST(IdealTest, CrashImageKeepsStagedWrites)
{
    EventQueue eq;
    IdealController ctrl(eq, "ctrl", 64 * 1024, false);
    // More writes than the device queue holds: the rest stay staged at
    // the port, and an ideal crash keeps them.
    for (unsigned i = 0; i < 100; ++i) {
        const auto data = patternBlock(i);
        ctrl.accessBlock(i * kBlockSize, true, data.data(), nullptr,
                         TrafficSource::CpuWriteback, [] {});
    }
    const auto image = ctrl.nvmStoreHandle()->clone();
    ctrl.applyCrashTo(*image);
    ctrl.crash();
    for (unsigned i = 0; i < 100; ++i) {
        std::array<std::uint8_t, kBlockSize> out{};
        image->read(i * kBlockSize, out.data(), kBlockSize);
        EXPECT_EQ(out, patternBlock(i)) << "block " << i;
        ctrl.nvmStoreHandle()->read(i * kBlockSize, out.data(), kBlockSize);
        EXPECT_EQ(out, patternBlock(i)) << "block " << i;
    }
}

TEST(IdealTest, FunctionalReadMatchesTimedRead)
{
    EventQueue eq;
    IdealController ctrl(eq, "ctrl", 64 * 1024, false);
    auto data = patternBlock(4);
    storeBlock(eq, ctrl, 4096, data);
    std::uint8_t buf[kBlockSize];
    ctrl.functionalRead(4096, buf, kBlockSize);
    EXPECT_EQ(std::memcmp(buf, data.data(), kBlockSize), 0);
    std::uint8_t word[4];
    ctrl.functionalRead(4096 + 10, word, 4);
    EXPECT_EQ(std::memcmp(word, data.data() + 10, 4), 0);
}

} // namespace
} // namespace thynvm
