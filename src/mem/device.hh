/**
 * @file
 * Timing model of a memory device (DRAM or NVM) with banked row buffers,
 * separate read/write queues, FR-FCFS-style scheduling with write-drain
 * watermarks, and crash-precise durability semantics.
 *
 * Timing follows Table 2 of the paper: row-buffer hits and misses have
 * fixed service latencies; NVM distinguishes clean and dirty row-buffer
 * misses (a dirty miss must first write the evicted row back to the cell
 * array). A shared data bus serializes block transfers.
 *
 * Hot-path design (DESIGN.md "Per-bank device scheduler"):
 *  - Requests live in a fixed slab of pooled slots; queues are intrusive
 *    doubly-linked FIFOs threaded through the slots, bucketed per bank
 *    and direction. Nothing is copied or shifted after enqueue.
 *  - FR-FCFS picks among at most `banks` head candidates; the oldest
 *    row-buffer hit per bank is tracked incrementally instead of being
 *    rediscovered by scanning the whole queue every pass.
 *  - Completions resolve by slot index in O(1); no search, no erase.
 *  - Undo bytes for crash rollback live in a per-device append-only
 *    undo log (truncated whenever the write queue drains), so queued
 *    requests carry no block-sized payloads at all.
 */

#ifndef THYNVM_MEM_DEVICE_HH
#define THYNVM_MEM_DEVICE_HH

#include <array>
#include <memory>
#include <vector>

#include "mem/backing_store.hh"
#include "mem/request.hh"
#include "sim/sim_object.hh"

namespace thynvm {

/**
 * Static configuration of a memory device.
 */
struct DeviceParams
{
    /** Total capacity in bytes. */
    std::size_t capacity = 16u << 20;
    /** Number of banks (requests to distinct banks proceed in parallel). */
    unsigned banks = 8;
    /** Row-buffer size in bytes. */
    std::size_t row_size = 8192;
    /** Service latency of a row-buffer hit. */
    Tick row_hit_latency = 40 * kNanosecond;
    /** Service latency of a row miss with a clean open row. */
    Tick row_miss_clean_latency = 80 * kNanosecond;
    /** Service latency of a row miss with a dirty open row. */
    Tick row_miss_dirty_latency = 80 * kNanosecond;
    /** Data-bus occupancy per 64-byte block transfer. */
    Tick burst_latency = 5 * kNanosecond;
    /** Read queue capacity. */
    unsigned read_queue_capacity = 32;
    /** Write queue capacity. */
    unsigned write_queue_capacity = 64;
    /** Start draining writes when the write queue reaches this level. */
    unsigned write_drain_high = 48;
    /** Stop draining when the write queue falls to this level. */
    unsigned write_drain_low = 16;

    /** Standard DDR3-1600 DRAM per Table 2. */
    static DeviceParams dram(std::size_t capacity);
    /** NVM timing per Table 2 (40/128/368 ns hit/clean/dirty). */
    static DeviceParams nvm(std::size_t capacity);
};

/**
 * A banked memory device with timing and functional state.
 *
 * Functional semantics: write data hits the backing store at *enqueue*
 * time so that producers can immediately read their own writes. For crash
 * fidelity every accepted write appends (addr, previous bytes) to the
 * device's undo log; crash() replays the log backwards over all writes
 * that the timing model had not yet serviced, leaving exactly the bytes
 * a real device would hold after power loss.
 */
class MemDevice : public SimObject
{
  public:
    MemDevice(EventQueue& eq, std::string name, const DeviceParams& params,
              std::shared_ptr<BackingStore> store = nullptr);

    /** Device configuration. */
    const DeviceParams& params() const { return params_; }
    /** Functional contents. */
    BackingStore& store() { return *store_; }
    const BackingStore& store() const { return *store_; }
    /** Shared handle to the functional contents (survives crash). */
    std::shared_ptr<BackingStore> storeHandle() { return store_; }

    /** True if a request of the given kind can be enqueued now. */
    bool canAccept(bool is_write) const;

    /**
     * Enqueue a read. Returns false (and does nothing) if the read
     * queue is full. @p on_complete fires when the timed service ends.
     */
    bool enqueueRead(Addr addr, TrafficSource source,
                     std::function<void()> on_complete = {});

    /**
     * Enqueue a write of one block. Returns false (and does nothing) if
     * the write queue is full. @p data (kBlockSize bytes) is applied to
     * the backing store immediately on acceptance; the queued request
     * itself carries no payload.
     */
    bool enqueueWrite(Addr addr, const std::uint8_t* data,
                      TrafficSource source,
                      std::function<void()> on_complete = {});

    /** Legacy request-struct enqueue; forwards to the zero-copy API. */
    bool enqueue(DeviceRequest req);

    /** Register a one-shot callback for when queue space frees up. */
    void notifyWhenAccepting(bool is_write, std::function<void()> cb);

    /** True if no writes are queued or in flight. */
    bool writesDrained() const;

    /** One-shot callback for when all currently queued writes finish. */
    void notifyWhenWritesDrained(std::function<void()> cb);

    /**
     * Power-loss semantics: roll back queued-but-unserviced writes (in
     * reverse enqueue order), drop all queued requests and callbacks.
     * The event queue is assumed to be abandoned by the caller.
     */
    void crash();

    /**
     * Non-destructive twin of crash(): replay the same undo entries,
     * newest-first, onto @p image — a copy of the root store this
     * device's store belongs to, so entries land at rootOffset() +
     * addr. The device itself is left untouched.
     */
    void replayUndoOnto(BackingStore& image) const;

    /**
     * Drop all queued requests and callbacks but keep the functional
     * contents (no rollback). Used by the idealized systems, whose
     * crash consistency is free by assumption.
     */
    void quiesce();

    /** Total bytes written, by traffic source. */
    std::uint64_t writeBytes(TrafficSource s) const;
    /** Total bytes written across all sources. */
    std::uint64_t totalWriteBytes() const;
    /** Total bytes read. */
    std::uint64_t totalReadBytes() const;

  private:
    /** Slot-index sentinel for "no slot" / list end. */
    static constexpr std::uint32_t kNullSlot = 0xffffffffu;

    /**
     * One pooled request slot. Slots never move: queues are linked
     * lists threaded through `prev`/`next`, and a completion addresses
     * its slot directly by index.
     */
    struct Slot
    {
        Addr addr = 0;
        std::uint64_t row = 0;
        Tick enqueue_tick = 0;
        std::uint64_t seq = 0;
        std::function<void()> on_complete;
        std::uint32_t prev = kNullSlot;
        std::uint32_t next = kNullSlot;
        /** Owning undo-log entry (writes only). */
        std::uint32_t undo_index = kNullSlot;
        TrafficSource source = TrafficSource::DemandRead;
        bool is_write = false;
        bool in_service = false;
    };

    /** Waiting requests of one direction at one bank, in seq order. */
    struct BankQueue
    {
        std::uint32_t head = kNullSlot;
        std::uint32_t tail = kNullSlot;
        /**
         * Oldest waiting request targeting the bank's open row, or
         * kNullSlot. Only meaningful while `row_valid`; maintained on
         * enqueue, dequeue, and row change.
         */
        std::uint32_t hit = kNullSlot;
    };

    struct Bank
    {
        Tick busy_until = 0;
        std::uint64_t open_row = ~0ull;
        bool row_dirty = false;
        bool row_valid = false;
        /** Waiting requests: [0] reads, [1] writes. */
        BankQueue q[2];
    };

    /** One saved pre-image in the append-only undo log. */
    struct UndoEntry
    {
        Addr addr = 0;
        /** Owning write slot; kNullSlot once that write is durable. */
        std::uint32_t slot = kNullSlot;
        std::array<std::uint8_t, kBlockSize> old_data{};
    };

    unsigned bankOf(Addr addr) const;
    std::uint64_t rowOf(Addr addr) const;

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t idx);
    void linkTail(BankQueue& bq, std::uint32_t idx);
    void unlink(BankQueue& bq, std::uint32_t idx);
    /** Oldest slot with @p row in the chain starting at @p from. */
    std::uint32_t scanForRow(std::uint32_t from, std::uint64_t row) const;
    /** Drop dead entries once the undo log outgrows its watermark. */
    void compactUndoLog();
    /** Write every live undo entry, newest-first, to @p dst at
     *  @p offset + its address. */
    void replayUndo(BackingStore& dst, Addr offset) const;

    /** Try to start servicing queued requests; schedules completions. */
    void trySchedule();
    /**
     * Next serviceable slot of direction @p dir (0 = read, 1 = write),
     * or kNullSlot. FR-FCFS over at most `banks` candidates: the oldest
     * row hit across ready banks wins outright, else the oldest ready
     * request.
     */
    std::uint32_t pickNext(int dir);
    /** Begin timed service of the request in slot @p idx. */
    void startService(std::uint32_t idx);
    void finishService(std::uint32_t idx, std::uint64_t seq);
    void fireAcceptCallbacks(bool is_write);
    /**
     * Arm the bank-ready wakeup: when requests wait but no completion
     * is pending (possible after quiesce() left banks busy), schedule
     * a scheduling pass at the earliest busy_until instead of stalling
     * forever.
     */
    void maybeScheduleWakeup();

    DeviceParams params_;
    std::shared_ptr<BackingStore> store_;
    std::vector<Bank> banks_;
    Tick bus_free_ = 0;

    /** Pooled slots; read_queue_capacity + write_queue_capacity. */
    std::vector<Slot> slots_;
    /** Free-slot stack threaded through Slot::next. */
    std::uint32_t free_head_ = kNullSlot;
    /** Queued requests per direction, in-service included. */
    unsigned read_count_ = 0;
    unsigned write_count_ = 0;
    /** Requests in timed service (completion event pending). */
    unsigned in_flight_ = 0;

    std::vector<UndoEntry> undo_log_;

    bool draining_writes_ = false;
    std::uint64_t next_seq_ = 0;
    /** Coalesces a same-tick burst of enqueues into one scheduling pass. */
    Event schedule_event_;
    /** Bank-ready wakeup when no completion will drive scheduling. */
    Event wakeup_event_;

    std::vector<std::function<void()>> read_accept_cbs_;
    std::vector<std::function<void()>> write_accept_cbs_;
    std::vector<std::function<void()>> drain_cbs_;

    // Statistics.
    stats::Scalar reads_;
    stats::Scalar writes_;
    stats::Scalar read_bytes_;
    stats::Scalar write_bytes_by_source_[kNumTrafficSources];
    stats::Scalar row_hits_;
    stats::Scalar row_misses_clean_;
    stats::Scalar row_misses_dirty_;
    stats::Scalar write_drain_entries_;
    stats::Histogram read_latency_{32, 2000.0}; // ns
};

} // namespace thynvm

#endif // THYNVM_MEM_DEVICE_HH
