/**
 * @file
 * Counting replacements of the global allocation functions. Linked
 * only into the benchmark and its tests, never into the simulator.
 */

#include "alloc_counter.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfledger {
namespace {

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> calls{0};
std::atomic<std::uint64_t> bytes{0};

void
note(std::size_t n)
{
    if (counting.load(std::memory_order_relaxed)) {
        calls.fetch_add(1, std::memory_order_relaxed);
        bytes.fetch_add(n, std::memory_order_relaxed);
    }
}

void*
allocate(std::size_t n) noexcept
{
    note(n);
    return std::malloc(n != 0 ? n : 1);
}

void*
allocateAligned(std::size_t n, std::align_val_t al) noexcept
{
    note(n);
    const std::size_t a = static_cast<std::size_t>(al);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = n == 0 ? a : (n + a - 1) / a * a;
    return std::aligned_alloc(a, rounded);
}

void*
orThrow(void* p)
{
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

void
setAllocCounting(bool on)
{
    counting.store(on, std::memory_order_relaxed);
}

AllocCount
allocCount()
{
    return {calls.load(std::memory_order_relaxed),
            bytes.load(std::memory_order_relaxed)};
}

} // namespace perfledger

using perfledger::allocate;
using perfledger::allocateAligned;
using perfledger::orThrow;

void*
operator new(std::size_t n)
{
    return orThrow(allocate(n));
}

void*
operator new[](std::size_t n)
{
    return orThrow(allocate(n));
}

void*
operator new(std::size_t n, const std::nothrow_t&) noexcept
{
    return allocate(n);
}

void*
operator new[](std::size_t n, const std::nothrow_t&) noexcept
{
    return allocate(n);
}

void*
operator new(std::size_t n, std::align_val_t al)
{
    return orThrow(allocateAligned(n, al));
}

void*
operator new[](std::size_t n, std::align_val_t al)
{
    return orThrow(allocateAligned(n, al));
}

void*
operator new(std::size_t n, std::align_val_t al,
             const std::nothrow_t&) noexcept
{
    return allocateAligned(n, al);
}

void*
operator new[](std::size_t n, std::align_val_t al,
               const std::nothrow_t&) noexcept
{
    return allocateAligned(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept
{
    std::free(p);
}
