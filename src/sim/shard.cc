/**
 * @file
 * ShardedKernel implementation.
 *
 * Soundness of the EOT windows (DESIGN.md §8 has the full argument):
 *
 *  - busy(s) = next-event-tick(s) + min-outbound-lookahead(s) is a
 *    lower bound on the delivery tick of anything shard s sends by
 *    *executing queued work*: a send from an event at tick p >= next
 *    arrives no earlier than p + link-lookahead >= busy(s).
 *
 *  - A shard that cannot execute can still *relay*: a message landing
 *    at tick m can make it send with delivery >= m + lookahead. The
 *    fixpoint eot(s) = min(busy(s), window(s) + min-out(s)) with
 *    window(x) = min over in-links of eot(sender) accounts for every
 *    such chain; iterating downward from +infinity converges to the
 *    greatest (widest) sound solution because each pass only replaces
 *    a value with a shorter relay chain's bound, and chains with
 *    repeated shards are never shorter (lookaheads are positive).
 *
 *  - Sole actor: when exactly one shard can execute, no message can
 *    reach any shard this round except ones the sole actor itself
 *    sends — and posting retreats its own live bound to the delivery
 *    tick, so it never executes past the earliest response its send
 *    can provoke. Its window is therefore unbounded up to the barrier
 *    edge. This is the case that collapses the window count when only
 *    one side of a link topology has work (a core hitting its caches
 *    while the memory channels idle, a channel draining a request).
 *
 *  - Retreat keeps multi-post rounds sound in general: after posting
 *    at tick p with delivery when = p + L, the poster executes only
 *    events below when, and any response travels two hops (>= 2L), so
 *    it lands at or after when + L > every tick the poster reached.
 *
 * Both the post() admission check (against the *target's* window) and
 * EventQueue::scheduleMessage's delivery-in-the-past check stay armed:
 * a bound that was not conservative — e.g. a lying EotFn override —
 * panics deterministically instead of corrupting order.
 */

#include "sim/shard.hh"

#include <algorithm>
#include <exception>
#include <thread>
#include <utility>

namespace thynvm {

namespace {

/** Saturating tick addition (kMaxTick is +infinity). */
Tick
satAdd(Tick a, Tick b)
{
    return (a == kMaxTick || b == kMaxTick || a > kMaxTick - b) ? kMaxTick
                                                                : a + b;
}

} // namespace

unsigned
ShardedKernel::addShard(std::string name, EventQueue& eq, StepFn step)
{
    Shard s;
    s.name = std::move(name);
    s.eq = &eq;
    s.step = std::move(step);
    shards_.push_back(std::move(s));
    if (!links_.empty())
        rebuildLinkIndex();
    return static_cast<unsigned>(shards_.size() - 1);
}

unsigned
ShardedKernel::addShard(std::string name, EventQueue& eq)
{
    EventQueue* q = &eq;
    return addShard(std::move(name), eq, [q](ShardWindow win) {
        while (!q->empty() && q->nextTick() < win.end())
            q->step();
        return !q->empty();
    });
}

void
ShardedKernel::rebuildLinkIndex()
{
    stride_ = shards_.size();
    link_index_.assign(stride_ * stride_, -1);
    for (std::size_t i = 0; i < links_.size(); ++i) {
        const Link& l = links_[i];
        std::int32_t& slot = link_index_[l.from * stride_ + l.to];
        panic_if(slot >= 0, "duplicate link %u->%u declared", l.from, l.to);
        slot = static_cast<std::int32_t>(i);
    }
}

void
ShardedKernel::link(unsigned from, unsigned to, Tick lookahead)
{
    panic_if(from >= shards_.size() || to >= shards_.size(),
             "link endpoint out of range");
    panic_if(from == to, "a shard cannot link to itself");
    panic_if(lookahead == 0,
             "zero-lookahead links admit no conservative window");
    Link l;
    l.from = from;
    l.to = to;
    l.lookahead = lookahead;
    links_.push_back(std::move(l));
    rebuildLinkIndex();
}

void
ShardedKernel::setEotFn(unsigned shard, EotFn fn)
{
    panic_if(shard >= shards_.size(), "EOT override for unknown shard %u",
             shard);
    shards_[shard].eot_fn = std::move(fn);
}

void
ShardedKernel::post(unsigned from, unsigned to, Tick when,
                    std::function<void()> fn)
{
    const std::int32_t lid =
        (from < stride_ && to < stride_)
            ? link_index_[from * stride_ + to]
            : -1;
    panic_if(lid < 0, "post over undeclared link %u->%u", from, to);
    Link& l = links_[static_cast<std::size_t>(lid)];

    panic_if(when < shards_[to].window_end,
             "conservative violation: message for tick %llu posted "
             "inside window ending at %llu",
             static_cast<unsigned long long>(when),
             static_cast<unsigned long long>(shards_[to].window_end));

    Message m;
    m.when = when;
    // Deterministic delivery order: band the message above every
    // same-tick local event and rank it by (link id, per-link FIFO
    // position) — a pure function of simulated state, independent of
    // the window schedule and the worker that drains it.
    panic_if(l.fifo >> 40,
             "link %u->%u exhausted its 2^40 message order keys", from, to);
    m.key = EventQueue::kMessageOrderBit |
            (static_cast<std::uint64_t>(lid) << 40) | l.fifo++;
    m.fn = std::move(fn);
    l.mailbox.push_back(std::move(m));

    if (!l.dirty) {
        l.dirty = true;
        shards_[from].posted.push_back(static_cast<unsigned>(lid));
    }

    // Retreat the poster's own live bound: it must not execute past
    // the delivery tick, so any response provoked by this message
    // (two hops away, >= when + lookahead) stays conservative.
    Shard& src = shards_[from];
    if (when < src.dyn_end)
        src.dyn_end = when;
}

void
ShardedKernel::prepare()
{
    for (auto& s : shards_) {
        s.min_out = kMaxTick;
        s.in.clear();
        s.posted.clear();
        s.active = false;
        s.window_end = kMaxTick;
        s.dyn_end = kMaxTick;
    }
    for (auto& l : links_) {
        l.dirty = false;
        shards_[l.from].min_out =
            std::min(shards_[l.from].min_out, l.lookahead);
        shards_[l.to].in.push_back(l.from);
    }
}

std::size_t
ShardedKernel::planWindows()
{
    // Round inputs: who can execute, and the earliest tick their
    // execution could deliver a message at.
    unsigned busy_count = 0;
    unsigned busy_shard = 0;
    for (unsigned i = 0; i < shards_.size(); ++i) {
        Shard& s = shards_[i];
        s.next = (s.runnable && !s.eq->empty()) ? s.eq->nextTick() : kMaxTick;
        if (s.next != kMaxTick) {
            ++busy_count;
            busy_shard = i;
        }
        s.busy = s.next == kMaxTick ? kMaxTick
                 : s.eot_fn         ? s.eot_fn()
                                    : satAdd(s.next, s.min_out);
        s.eot = s.busy;
    }
    if (busy_count == 0)
        return 0;

    // Greatest fixpoint of
    //   window(x) = min over in-links of eot(sender)
    //   eot(s)    = min(busy(s), window(s) + min_out(s))
    // by monotone descent from +infinity; converges because each
    // pass can only substitute a shorter relay chain's bound and
    // positive lookaheads make cyclic chains non-improving.
    bool changed = true;
    while (changed) {
        changed = false;
        for (auto& x : shards_) {
            Tick w = kMaxTick;
            for (unsigned src : x.in)
                w = std::min(w, shards_[src].eot);
            x.window_end = w;
        }
        for (auto& s : shards_) {
            const Tick e =
                std::min(s.busy, satAdd(s.window_end, s.min_out));
            if (e != s.eot) {
                s.eot = e;
                changed = true;
            }
        }
    }

    // Sole actor: nobody else can execute, so nothing can be sent
    // to anybody — the one busy shard runs to the barrier edge.
    if (busy_count == 1)
        shards_[busy_shard].window_end = kMaxTick;

    std::size_t n_active = 0;
    for (auto& s : shards_) {
        if (barrier_period_ != 0 && s.next != kMaxTick) {
            const Tick edge =
                (s.next / barrier_period_ + 1) * barrier_period_;
            s.window_end = std::min(s.window_end, edge);
        }
        s.dyn_end = s.window_end;
        s.active = s.next < s.window_end;
        if (s.active)
            ++n_active;
    }
    return n_active;
}

void
ShardedKernel::drainPosted()
{
    for (auto& s : shards_) {
        if (s.posted.empty())
            continue;
        for (unsigned lid : s.posted) {
            Link& l = links_[lid];
            l.dirty = false;
            Shard& target = shards_[l.to];
            for (Message& m : l.mailbox) {
                target.eq->scheduleMessage(m.when, m.key, std::move(m.fn));
                target.runnable = true;
                ++messages_;
            }
            l.mailbox.clear();
        }
        s.posted.clear();
    }
}

void
ShardedKernel::stepSlice(unsigned party)
{
    for (std::size_t i = party; i < shards_.size(); i += parties_) {
        Shard& s = shards_[i];
        if (s.active)
            s.runnable = s.step(ShardWindow(&s.dyn_end));
    }
}

bool
ShardedKernel::round()
{
    const std::size_t n_active = planWindows();
    if (n_active == 0)
        return false;
    ++windows_;

    if (parties_ == 1 || n_active == 1) {
        // Serial elision: with at most one shard to step there is
        // nothing to fan out; the workers stay parked in the release
        // barrier and the coordinator steps inline.
        for (auto& s : shards_) {
            if (s.active)
                s.runnable = s.step(ShardWindow(&s.dyn_end));
        }
    } else {
        release_->arriveAndWait();
        try {
            stepSlice(0);
        } catch (...) {
            errors_[0] = std::current_exception();
        }
        join_->arriveAndWait();
        for (auto& e : errors_) {
            if (e) {
                std::exception_ptr ep = e;
                e = nullptr;
                std::rethrow_exception(ep);
            }
        }
    }

    drainPosted();
    return true;
}

void
ShardedKernel::workerLoop(unsigned party)
{
    for (;;) {
        release_->arriveAndWait();
        if (stop_)
            return;
        try {
            stepSlice(party);
        } catch (...) {
            errors_[party] = std::current_exception();
        }
        join_->arriveAndWait();
    }
}

Tick
ShardedKernel::run(unsigned threads)
{
    windows_ = 0;
    messages_ = 0;
    if (shards_.empty())
        return 0;
    prepare();

    const unsigned parties =
        std::min<unsigned>(std::max(threads, 1u), shardCount());
    parties_ = parties;

    if (parties <= 1) {
        while (round()) {
        }
    } else {
        SpinBarrier release(parties);
        SpinBarrier join(parties);
        release_ = &release;
        join_ = &join;
        stop_ = false;
        errors_.assign(parties, nullptr);

        std::vector<std::thread> workers;
        for (unsigned p = 1; p < parties; ++p)
            workers.emplace_back([this, p] { workerLoop(p); });

        std::exception_ptr err;
        try {
            while (round()) {
            }
        } catch (...) {
            err = std::current_exception();
        }
        stop_ = true;
        release.arriveAndWait();
        for (auto& t : workers)
            t.join();
        release_ = nullptr;
        join_ = nullptr;
        parties_ = 1;
        if (!err) {
            for (auto& e : errors_) {
                if (e) {
                    err = e;
                    break;
                }
            }
        }
        errors_.clear();
        if (err)
            std::rethrow_exception(err);
    }

    // Close every admission window again so a post() outside run()
    // panics (when < kMaxTick), as before.
    for (auto& s : shards_) {
        s.window_end = kMaxTick;
        s.dyn_end = kMaxTick;
        s.active = false;
    }

    Tick latest = 0;
    for (const auto& s : shards_)
        latest = std::max(latest, s.eq->now());
    return latest;
}

} // namespace thynvm
