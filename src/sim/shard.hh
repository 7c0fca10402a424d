/**
 * @file
 * Deterministic sharded event kernel (DESIGN.md §8).
 *
 * A ShardedKernel steps several EventQueues — shards — concurrently
 * while guaranteeing that every shard executes exactly the event
 * sequence it would execute under serial, single-queue simulation.
 * Simulation statistics are therefore byte-identical for any worker
 * thread count, including one.
 *
 * The scheme is conservative parallel discrete-event simulation:
 *
 *  - Each shard is granted a private window [now, W): it may execute
 *    events with tick strictly below W with no synchronization at all,
 *    because the kernel proves no other shard can send it a message
 *    landing below W. Cross-shard traffic is appended to a per-link
 *    buffer, one per declared (from, to) link, each link carrying a
 *    conservative *lookahead* — the smallest simulated latency any
 *    message over it can have. At the window edge the workers
 *    rendezvous on a barrier and the coordinator, alone, moves the
 *    posted buffers into the target queues. Posting and draining never
 *    overlap, so a buffer needs no synchronization of its own, has no
 *    capacity and cannot overflow.
 *
 *  - Window bounds come from *earliest output times* (EOT): a shard
 *    that could execute reports next-event-tick + its minimum outbound
 *    lookahead as the earliest tick at which anything it sends can
 *    land; a shard that cannot execute reports +infinity, but may
 *    still *relay* — a message it receives can trigger a send — so its
 *    EOT is floored by what it can receive plus its outbound
 *    lookahead. The kernel solves this as a fixpoint over the link
 *    graph and sets every shard's window to the minimum EOT over its
 *    in-links. When exactly one shard can execute at all, nobody can
 *    send to anyone: the sole actor's window is unbounded (up to the
 *    barrier edge) — this is what collapses the window count by orders
 *    of magnitude when channels are not actively exchanging traffic.
 *
 *  - Mid-window sends are handled by *retreat*: post() pulls the
 *    posting shard's own live window bound down to the message's
 *    delivery tick, so the poster never executes past the earliest
 *    response its send can provoke. Step functions therefore read the
 *    bound through a ShardWindow view once per event rather than
 *    capturing it. Delivery order into a queue is a pure function of
 *    simulated state: every message carries an order key derived from
 *    its link and per-link FIFO position (EventQueue::scheduleMessage),
 *    never from the host schedule or the window pattern.
 *
 *  - Window edges are additionally clamped to a *barrier period* so
 *    that globally coordinated phases (the checkpoint-epoch boundaries
 *    of the ThyNVM protocol) are global barriers: no shard enters
 *    epoch k+1 until every shard has finished epoch k.
 *
 * The one client is a multi-channel System (harness/system.hh): one
 * core shard plus one shard per memory channel. A single-channel System
 * never builds a kernel; it runs the plain serial event loop.
 */

#ifndef THYNVM_SIM_SHARD_HH
#define THYNVM_SIM_SHARD_HH

#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "sim/eventq.hh"

namespace thynvm {

/**
 * Live view of one shard's window bound. The bound can *retreat* while
 * the shard is being stepped (its own post() pulls it down to the
 * delivery tick of the message just sent), so step functions must read
 * end() afresh for every event rather than caching it.
 */
class ShardWindow
{
  public:
    /** Current end of the window: execute only events strictly below. */
    Tick end() const { return *end_; }

  private:
    friend class ShardedKernel;
    explicit ShardWindow(const Tick* end) : end_(end) {}
    const Tick* end_;
};

/**
 * Conservative windowed scheduler over a set of event-queue shards.
 */
class ShardedKernel
{
  public:
    /**
     * Steps one shard inside a window: run shard-local work with tick
     * strictly below the (live) window end. Returns true if the shard
     * may still make progress (its queue is non-empty and its run
     * condition still holds).
     */
    using StepFn = std::function<bool(ShardWindow)>;

    /**
     * Optional per-shard earliest-output-time override: a conservative
     * lower bound on the tick of the next message this shard will
     * post, given its current queue (kMaxTick when it cannot send).
     * The default — next event tick + the shard's minimum outbound
     * lookahead — is already conservative for every shard whose sends
     * originate from executing an event over a declared link; an
     * override can only *widen* windows further, and a bound that is
     * not actually conservative trips the post()/delivery panics
     * deterministically.
     */
    using EotFn = std::function<Tick()>;

    ShardedKernel() = default;
    ShardedKernel(const ShardedKernel&) = delete;
    ShardedKernel& operator=(const ShardedKernel&) = delete;

    /**
     * Register a shard stepped via @p step; @p eq is the shard's queue
     * (used for next-event-time queries and mailbox delivery).
     * @return the shard id (dense, starting at 0).
     */
    unsigned addShard(std::string name, EventQueue& eq, StepFn step);

    /**
     * Register a plain queue shard: stepped until its queue holds no
     * event below the window end.
     */
    unsigned addShard(std::string name, EventQueue& eq);

    /**
     * Declare a cross-shard link with conservative lookahead: every
     * message posted from @p from to @p to must be delivered at least
     * @p lookahead ticks after the tick it was posted at. Declaring
     * the same (from, to) pair twice panics here, at declaration time.
     * The link's mailbox is an append buffer that grows with the
     * window's traffic and is emptied at every window edge.
     */
    void link(unsigned from, unsigned to, Tick lookahead);

    /**
     * Clamp window edges to multiples of @p period (0 disables).
     * Checkpoint-epoch boundaries pass a period here so that epoch
     * transitions are global barriers across shards.
     */
    void setBarrierPeriod(Tick period) { barrier_period_ = period; }

    /**
     * Post cross-shard work: run @p fn on shard @p to at tick @p when.
     * Must be called from the worker currently stepping shard @p from
     * (typically from inside one of its events), over a declared link,
     * with @p when no earlier than the end of the target's current
     * window — the conservative rule; violating it panics, because the
     * target shard may already have stepped past @p when. Posting also
     * retreats the *posting* shard's own window bound to @p when, so
     * any response provoked by this message is conservative in turn.
     */
    void post(unsigned from, unsigned to, Tick when,
              std::function<void()> fn);

    /** Install an EOT override for shard @p shard (tests; see EotFn). */
    void setEotFn(unsigned shard, EotFn fn);

    /**
     * Run all shards to completion: windows advance until every shard
     * reports no more progress and all mailboxes are empty.
     *
     * @param threads worker count. 1 steps shards inline on the
     *        calling thread in shard-id order — the serial reference
     *        schedule. More workers step shards concurrently on
     *        persistent per-run worker threads rendezvousing on
     *        spin-then-yield barriers; rounds in which at most one
     *        shard has work are elided onto the calling thread without
     *        touching the barriers. The executed event sequence per
     *        shard is identical either way.
     * @return the latest tick reached by any shard.
     */
    Tick run(unsigned threads);

    /** Number of registered shards. */
    unsigned shardCount() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    /** Windows executed by the last run(). */
    std::uint64_t windowsExecuted() const { return windows_; }
    /** Cross-shard messages delivered by the last run(). */
    std::uint64_t messagesDelivered() const { return messages_; }

  private:
    /** One queued cross-shard message. */
    struct Message
    {
        Tick when = 0;
        /** Deterministic delivery-order key (kMessageOrderBit band). */
        std::uint64_t key = 0;
        std::function<void()> fn;
    };

    /** One declared link and its mailbox. */
    struct Link
    {
        unsigned from = 0;
        unsigned to = 0;
        Tick lookahead = 0;
        /** Messages posted this round, in post order. Appended to only
         *  by the worker stepping `from`; drained and cleared by the
         *  coordinator after the join barrier. */
        std::vector<Message> mailbox;
        /** Per-link FIFO counter feeding message order keys. Written
         *  by the producer (the worker stepping `from`). */
        std::uint64_t fifo = 0;
        /** Set by the producer on first post of a round; cleared by
         *  the coordinator at drain. */
        bool dirty = false;
    };

    struct Shard
    {
        std::string name;
        EventQueue* eq = nullptr;
        StepFn step;
        EotFn eot_fn;
        bool runnable = true;
        /** This shard steps in the current round. */
        bool active = false;
        /** Admission bound for messages targeting this shard: posts
         *  with when < window_end panic. Written by the coordinator
         *  between rounds. */
        Tick window_end = kMaxTick;
        /** Live stepping bound; starts each round at window_end and
         *  retreats when this shard posts. Only the worker stepping
         *  the shard touches it mid-round. */
        Tick dyn_end = kMaxTick;
        /** Round-locals of the EOT fixpoint (coordinator only). */
        Tick next = kMaxTick;
        Tick busy = kMaxTick;
        Tick eot = kMaxTick;
        /** Minimum lookahead over this shard's out-links. */
        Tick min_out = kMaxTick;
        /** Source shard ids of this shard's in-links. */
        std::vector<unsigned> in;
        /** Link ids this shard posted into this round (producer side;
         *  drained and cleared by the coordinator). */
        std::vector<unsigned> posted;
    };

    /** Rebuild the dense (from, to) -> link-id index. */
    void rebuildLinkIndex();
    /** Per-run derived state: min_out, in-lists. */
    void prepare();
    /**
     * Compute every shard's window for the next round (EOT fixpoint +
     * sole-actor override + barrier clamp) and mark active shards.
     * @return the number of active shards (0: the run is over).
     */
    std::size_t planWindows();
    /** Deliver posted mailboxes into their target queues. */
    void drainPosted();
    /** Step the active shards owned by @p party (shard id mod P). */
    void stepSlice(unsigned party);
    /** One round: plan, step (elided / parallel), drain. */
    bool round();
    /** Persistent worker body for parties 1..P-1. */
    void workerLoop(unsigned party);

    std::vector<Shard> shards_;
    std::vector<Link> links_;
    /** Dense (from, to) -> link id (-1: undeclared); stride_ is the
     *  shard count the index was built for. */
    std::vector<std::int32_t> link_index_;
    std::size_t stride_ = 0;
    Tick barrier_period_ = 0;
    std::uint64_t windows_ = 0;
    std::uint64_t messages_ = 0;

    /** Parallel-round state (valid inside run with parties_ > 1). */
    unsigned parties_ = 1;
    SpinBarrier* release_ = nullptr;
    SpinBarrier* join_ = nullptr;
    bool stop_ = false;
    /** First exception per party, rethrown on the coordinator. */
    std::vector<std::exception_ptr> errors_;
};

} // namespace thynvm

#endif // THYNVM_SIM_SHARD_HH
