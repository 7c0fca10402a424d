/**
 * @file
 * Process-wide heap-allocation counter. alloc_counter.cc replaces the
 * global operator new/delete family; while counting is switched on,
 * every allocation bumps a call count and a byte total. Counting is
 * off by default, so an untraced run pays one predictable branch per
 * allocation.
 */

#ifndef PERFLEDGER_ALLOC_COUNTER_HH
#define PERFLEDGER_ALLOC_COUNTER_HH

#include <cstdint>

namespace perfledger {

struct AllocCount
{
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;
};

/** Switch counting on or off (counts persist across switches). */
void setAllocCounting(bool on);

/** Allocations counted so far. */
AllocCount allocCount();

/** Counts since @p since. */
inline AllocCount
allocsSince(const AllocCount& since)
{
    const AllocCount now = allocCount();
    return {now.calls - since.calls, now.bytes - since.bytes};
}

} // namespace perfledger

#endif // PERFLEDGER_ALLOC_COUNTER_HH
