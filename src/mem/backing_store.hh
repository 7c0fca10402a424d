/**
 * @file
 * Functional byte storage backing a memory device.
 *
 * The store holds the *architectural* contents: writes are applied when a
 * request is enqueued at the device, so controller logic can always read
 * current data synchronously. Durability across a crash is handled by the
 * device, which records undo bytes for queued-but-unserviced writes and
 * rolls them back at crash time (see MemDevice::crash()).
 *
 * Storage is a sparse copy-on-write PagedBytes (4 KiB pages allocated on
 * first write, implicit zero page elsewhere), so a GB-scale machine only
 * pays host memory for pages it actually dirties, clone() is O(touched),
 * and recovery/oracle passes can enumerate the touched set instead of
 * scanning the whole capacity. THYNVM_DENSE_STORE swaps in the flat
 * fallback (see paged_bytes.hh).
 */

#ifndef THYNVM_MEM_BACKING_STORE_HH
#define THYNVM_MEM_BACKING_STORE_HH

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "common/types.hh"
#include "mem/paged_bytes.hh"

namespace thynvm {

/**
 * A flat byte array addressed by device-local addresses.
 *
 * A store is either a *root* (owns its pages) or a *view* over a
 * contiguous sub-range of a parent store. Views are how a multi-channel
 * machine carves one crash-surviving NVM image into per-channel device
 * stores: each channel addresses its slice with channel-local addresses
 * while the root handle is what survives System::crash(). Views resolve
 * to the ultimate root at construction (a view of a view composes
 * offsets), so every access is one indirection.
 */
class BackingStore
{
  public:
    /** Create a zero-initialized root store of @p capacity bytes. */
    explicit BackingStore(std::size_t capacity)
        : bytes_(capacity), size_(capacity)
    {}

    /**
     * Create a view over bytes [@p offset, @p offset + @p capacity) of
     * @p parent. The view shares the parent's storage (writes through
     * either are visible to both) and keeps the root alive.
     */
    BackingStore(std::shared_ptr<BackingStore> parent, std::size_t offset,
                 std::size_t capacity)
        : size_(capacity)
    {
        panic_if(parent == nullptr, "backing-store view of null parent");
        panic_if(offset + capacity > parent->size_ ||
                     offset + capacity < offset,
                 "backing-store view out of range: offset=%zu len=%zu "
                 "parent=%zu",
                 offset, capacity, parent->size_);
        offset_ = parent->offset_ + offset;
        root_ = parent->root_ ? parent->root_ : std::move(parent);
    }

    /** Capacity in bytes. */
    std::size_t size() const { return size_; }

    /** Offset of this store's first byte in its root (0 for a root). */
    std::size_t rootOffset() const { return offset_; }

    /** Read @p len bytes at @p addr into @p buf. */
    void
    read(Addr addr, void* buf, std::size_t len) const
    {
        checkRange(addr, len);
        target().read(offset_ + addr, buf, len);
    }

    /** Write @p len bytes from @p buf at @p addr. */
    void
    write(Addr addr, const void* buf, std::size_t len)
    {
        checkRange(addr, len);
        target().write(offset_ + addr, buf, len);
    }

    /** Fill @p len bytes at @p addr with @p value. */
    void
    fill(Addr addr, std::uint8_t value, std::size_t len)
    {
        checkRange(addr, len);
        target().fill(offset_ + addr, value, len);
    }

    /** Zero the store (views zero only their range). */
    void
    clear()
    {
        target().clearRange(offset_, size_);
    }

    /**
     * Copy of the current contents (views copy only their range, into
     * a fresh root store). Crash tests use clones to recover the same
     * surviving image several times independently (recovery may
     * legitimately write to the store, e.g. a journal replay, so
     * sharing one store would couple the attempts). A root clone is a
     * COW share — O(pages-table), paying only for pages that later
     * diverge; a view clone copies the view's touched pages.
     */
    std::shared_ptr<BackingStore>
    clone() const
    {
        auto copy = std::make_shared<BackingStore>(size_);
        if (root_ == nullptr && offset_ == 0) {
            copy->bytes_ = bytes_; // COW share
            return copy;
        }
        target().forEachTouchedRange(
            offset_, offset_ + size_,
            [&](Addr a, const std::uint8_t* data, std::size_t len) {
                copy->bytes_.write(a - offset_, data, len);
            });
        return copy;
    }

    /**
     * Enumerate touched bytes of this store (views: of their range,
     * with view-local addresses) as fn(addr, data, len), ascending.
     * Any byte not reported reads as zero. Requires quiescence.
     */
    template <typename Fn>
    void
    forEachTouchedRange(Fn&& fn) const
    {
        target().forEachTouchedRange(
            offset_, offset_ + size_,
            [&](Addr a, const std::uint8_t* data, std::size_t len) {
                fn(a - offset_, data, len);
            });
    }

    /** Materialized page count of the underlying root store. */
    std::size_t
    touchedPageCount() const
    {
        return target().touchedPageCount();
    }

  private:
    const PagedBytes&
    target() const
    {
        return root_ ? root_->bytes_ : bytes_;
    }

    PagedBytes&
    target()
    {
        return root_ ? root_->bytes_ : bytes_;
    }

    void
    checkRange(Addr addr, std::size_t len) const
    {
        panic_if(addr + len > size_ || addr + len < addr,
                 "backing store access out of range: addr=%llu len=%zu "
                 "capacity=%zu",
                 static_cast<unsigned long long>(addr), len, size_);
    }

    PagedBytes bytes_;                   //!< root storage (empty in views)
    std::shared_ptr<BackingStore> root_; //!< keep-alive (views only)
    std::size_t offset_ = 0;             //!< absolute offset into root
    std::size_t size_;
};

} // namespace thynvm

#endif // THYNVM_MEM_BACKING_STORE_HH
