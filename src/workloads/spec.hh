/**
 * @file
 * Synthetic stand-ins for the eight memory-intensive SPEC CPU2006
 * applications evaluated in Figure 11 of the paper.
 *
 * Substitution (see DESIGN.md §1): each benchmark is modeled by its
 * first-order memory behaviour — memory-instruction fraction, working
 * set size, streaming/random mix, and write share — which is what
 * determines the IPC sensitivity to checkpointing that the figure
 * reports. Parameters are calibrated from published characterizations
 * of the suite.
 */

#ifndef THYNVM_WORKLOADS_SPEC_HH
#define THYNVM_WORKLOADS_SPEC_HH

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "cpu/workload.hh"

namespace thynvm {

/**
 * Behavioural profile of one SPEC application.
 */
struct SpecProfile
{
    const char* name;
    /** Fraction of instructions that access memory. */
    double mem_ratio;
    /** Working-set size in bytes. */
    std::size_t wss;
    /** Fraction of accesses that stream sequentially. */
    double streaming_frac;
    /** Fraction of memory accesses that are writes. */
    double write_frac;
    /** Typical access size in bytes. */
    std::uint32_t access_size;
};

/** The eight profiles used for Figure 11. */
const std::vector<SpecProfile>& specProfiles();

/** Profile looked up by name; fatal if unknown. */
const SpecProfile& specProfile(const std::string& name);

/**
 * Generator realizing a SpecProfile as a CPU op stream.
 */
class SpecWorkload : public Workload
{
  public:
    /**
     * @param profile behavioural parameters.
     * @param base physical base address of the working set.
     * @param total_instructions instruction budget (0 = unbounded).
     * @param seed RNG seed.
     */
    SpecWorkload(const SpecProfile& profile, Addr base,
                 std::uint64_t total_instructions, std::uint64_t seed)
        : p_(profile), base_(base), budget_(total_instructions),
          rng_(seed)
    {
        store_buf_.resize(p_.access_size);
    }

    bool
    next(WorkOp& op) override
    {
        if (budget_ != 0 && retired_ >= budget_)
            return false;

        if (!compute_emitted_) {
            compute_emitted_ = true;
            // Geometric-ish burst of non-memory instructions so that
            // the long-run memory ratio matches the profile.
            const double per_mem = (1.0 - p_.mem_ratio) / p_.mem_ratio;
            const std::uint64_t burst = 1 + rng_.below(
                static_cast<std::uint64_t>(2.0 * per_mem) + 1);
            retired_ += burst;
            op.kind = WorkOp::Kind::Compute;
            op.count = burst;
            return true;
        }
        compute_emitted_ = false;
        retired_ += 1;

        const std::uint64_t slots = p_.wss / p_.access_size;
        Addr addr;
        if (rng_.uniform() < p_.streaming_frac) {
            addr = base_ + cursor_ * p_.access_size;
            cursor_ = (cursor_ + 1) % slots;
        } else {
            addr = base_ + rng_.below(slots) * p_.access_size;
        }

        op.addr = addr;
        op.size = p_.access_size;
        if (rng_.uniform() < p_.write_frac) {
            op.kind = WorkOp::Kind::Store;
            std::uint64_t v = addr ^ (retired_ * 0x9e3779b97f4a7c15ULL);
            for (std::size_t i = 0; i < store_buf_.size(); ++i)
                store_buf_[i] =
                    static_cast<std::uint8_t>(v >> ((i % 8) * 8));
            op.data = store_buf_.data();
        } else {
            op.kind = WorkOp::Kind::Load;
        }
        return true;
    }

    std::vector<std::uint8_t>
    snapshot() const override
    {
        std::vector<std::uint8_t> blob(sizeof(State));
        State s{rng_, retired_, cursor_, compute_emitted_ ? 1u : 0u};
        std::memcpy(blob.data(), &s, sizeof(s));
        return blob;
    }

    void
    restore(const std::vector<std::uint8_t>& blob) override
    {
        panic_if(blob.size() != sizeof(State), "bad spec snapshot");
        State s{rng_, 0, 0, 0};
        std::memcpy(&s, blob.data(), sizeof(s));
        rng_ = s.rng;
        retired_ = s.retired;
        cursor_ = s.cursor;
        compute_emitted_ = s.compute_emitted != 0;
    }

    /** Instructions retired by the generator's own accounting. */
    std::uint64_t retired() const { return retired_; }

  private:
    struct State
    {
        Rng rng;
        std::uint64_t retired;
        std::uint64_t cursor;
        /** A word, not a bool: a bool's padding bytes would carry
         *  stack garbage into the persisted snapshot blob. */
        std::uint64_t compute_emitted;
    };

    SpecProfile p_;
    Addr base_;
    std::uint64_t budget_;
    Rng rng_;
    std::uint64_t retired_ = 0;
    std::uint64_t cursor_ = 0;
    bool compute_emitted_ = false;
    std::vector<std::uint8_t> store_buf_;
};

} // namespace thynvm

#endif // THYNVM_WORKLOADS_SPEC_HH
