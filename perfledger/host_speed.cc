#include "host_speed.hh"

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>

namespace perfledger {

namespace {

/** Results are folded in here so the compiler keeps the work. */
volatile std::uint64_t g_sink = 0;

std::uint64_t
xorshift(std::uint64_t& s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

} // namespace

double
calibrationPass()
{
    // Allocated and touched once: every pass then sees the same memory.
    static std::vector<std::uint64_t> table(
        static_cast<std::size_t>(kCalibrationTableMiB * 1024 * 1024 / 8));
    const double t = now();

    using Event = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
    std::unordered_map<std::uint64_t, std::uint64_t> counts;
    counts.reserve(4096);
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    for (std::uint32_t i = 0; i < 1024; ++i)
        events.push({xorshift(rng) % 1000, i});
    for (int i = 0; i < 300000; ++i) {
        const auto [tick, id] = events.top();
        events.pop();
        const std::uint64_t x = xorshift(rng);
        std::uint64_t& cell = table[x & (table.size() - 1)];
        cell += tick ^ id;
        counts[x & 4095] += cell;
        if (((x >> 20) & 63) == 0) {
            auto* p = new std::uint64_t[((x >> 30) & 15) + 1];
            p[0] = x;
            g_sink = g_sink + p[0];
            delete[] p;
        }
        events.push({tick + 1 + (x >> 40) % 100, id});
    }
    g_sink = g_sink + counts.size();
    return now() - t;
}

} // namespace perfledger
