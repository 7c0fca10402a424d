/**
 * @file
 * Micro-benchmark workloads (paper §5.1): Random, Streaming, and
 * Sliding access patterns over a large array, with 1:1 read/write mix.
 */

#ifndef THYNVM_WORKLOADS_MICRO_HH
#define THYNVM_WORKLOADS_MICRO_HH

#include <cstring>

#include "common/rng.hh"
#include "cpu/workload.hh"

namespace thynvm {

/**
 * Synthetic access-pattern generator.
 */
class MicroWorkload : public Workload
{
  public:
    enum class Pattern
    {
        Random,    //!< uniform random accesses over the array
        Streaming, //!< sequential sweep over the array
        Sliding,   //!< random accesses within a window that slides
    };

    struct Params
    {
        Pattern pattern = Pattern::Random;
        /** Base physical address of the array. */
        Addr base = 0;
        /** Array size in bytes. */
        std::size_t array_bytes = 16u << 20;
        /** Bytes per access. */
        std::uint32_t access_size = 64;
        /** Fraction of accesses that are reads (paper: 1:1). */
        double read_fraction = 0.5;
        /** Window size for the Sliding pattern. */
        std::size_t window_bytes = 256 * 1024;
        /** Accesses within a window before it slides. */
        std::uint64_t accesses_per_window = 2048;
        /** Non-memory instructions between accesses. */
        std::uint64_t compute_per_access = 16;
        /** Total memory accesses (0 = unbounded). */
        std::uint64_t total_accesses = 0;
        /** RNG seed. */
        std::uint64_t seed = 1;
    };

    explicit MicroWorkload(const Params& p) : p_(p), rng_(p.seed)
    {
        store_buf_.resize(p_.access_size);
    }

    bool
    next(WorkOp& op) override
    {
        if (p_.total_accesses != 0 && issued_ >= p_.total_accesses)
            return false;

        if (!compute_emitted_) {
            compute_emitted_ = true;
            op.kind = WorkOp::Kind::Compute;
            op.count = p_.compute_per_access;
            return true;
        }
        compute_emitted_ = false;
        ++issued_;

        const Addr addr = nextAddr();
        const bool is_read = rng_.uniform() < p_.read_fraction;
        op.addr = addr;
        op.size = p_.access_size;
        if (is_read) {
            op.kind = WorkOp::Kind::Load;
        } else {
            op.kind = WorkOp::Kind::Store;
            fillPattern(addr);
            op.data = store_buf_.data();
        }
        return true;
    }

    std::vector<std::uint8_t>
    snapshot() const override
    {
        std::vector<std::uint8_t> blob(sizeof(State));
        State s{rng_, issued_, cursor_, window_base_, window_count_,
                compute_emitted_ ? 1u : 0u};
        std::memcpy(blob.data(), &s, sizeof(s));
        return blob;
    }

    void
    restore(const std::vector<std::uint8_t>& blob) override
    {
        panic_if(blob.size() != sizeof(State), "bad micro snapshot");
        State s{rng_, 0, 0, 0, 0, 0};
        std::memcpy(&s, blob.data(), sizeof(s));
        rng_ = s.rng;
        issued_ = s.issued;
        cursor_ = s.cursor;
        window_base_ = s.window_base;
        window_count_ = s.window_count;
        compute_emitted_ = s.compute_emitted != 0;
    }

    /** Memory accesses issued so far. */
    std::uint64_t issued() const { return issued_; }

  private:
    struct State
    {
        Rng rng;
        std::uint64_t issued;
        std::uint64_t cursor;
        std::uint64_t window_base;
        std::uint64_t window_count;
        /** A word, not a bool: a bool's padding bytes would carry
         *  stack garbage into the persisted snapshot blob. */
        std::uint64_t compute_emitted;
    };

    Addr
    nextAddr()
    {
        const std::uint64_t slots = p_.array_bytes / p_.access_size;
        switch (p_.pattern) {
          case Pattern::Random:
            return p_.base + rng_.below(slots) * p_.access_size;
          case Pattern::Streaming: {
            const Addr a = p_.base + cursor_ * p_.access_size;
            cursor_ = (cursor_ + 1) % slots;
            return a;
          }
          case Pattern::Sliding: {
            const std::uint64_t window_slots =
                p_.window_bytes / p_.access_size;
            if (window_count_ >= p_.accesses_per_window) {
                window_count_ = 0;
                window_base_ =
                    (window_base_ + window_slots) % slots;
            }
            ++window_count_;
            const std::uint64_t slot =
                (window_base_ + rng_.below(window_slots)) % slots;
            return p_.base + slot * p_.access_size;
          }
        }
        panic("unhandled pattern");
    }

    void
    fillPattern(Addr addr)
    {
        // Deterministic, address- and sequence-dependent payload so
        // consistency checks can detect lost or misplaced writes. One
        // little-endian word store per 8 bytes produces exactly the
        // byte-at-a-time `v >> ((i % 8) * 8)` sequence this generator
        // has always emitted, at a fraction of the host cost.
        std::uint64_t v = addr * 0x9e3779b97f4a7c15ULL + issued_;
        const std::size_t size = store_buf_.size();
        std::size_t i = 0;
        for (; i + 8 <= size; i += 8) {
            std::memcpy(store_buf_.data() + i, &v, 8);
            v = v * 6364136223846793005ULL + 1442695040888963407ULL;
        }
        for (; i < size; ++i)
            store_buf_[i] = static_cast<std::uint8_t>(v >> ((i % 8) * 8));
    }

    Params p_;
    Rng rng_;
    std::uint64_t issued_ = 0;
    std::uint64_t cursor_ = 0;
    std::uint64_t window_base_ = 0;
    std::uint64_t window_count_ = 0;
    bool compute_emitted_ = false;
    std::vector<std::uint8_t> store_buf_;
};

} // namespace thynvm

#endif // THYNVM_WORKLOADS_MICRO_HH
