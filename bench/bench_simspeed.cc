/**
 * @file
 * Simulator-throughput tracker: how fast does the host execute the
 * discrete-event kernel itself?
 *
 * Two sections:
 *
 *  1. Per-cell serial baseline — replays the Figure 7 micro-benchmark
 *     cells one at a time on one host thread and reports kernel events
 *     per host second and host seconds per simulated millisecond.
 *
 *  2. Cell fan-out thread sweep (--threads t1,t2,...; default
 *     1,2,4,8) — runs the same cell set through the runGrid pool
 *     (bench_util.hh) on N host threads, the way every figure bench
 *     fans out, and cross-checks that every cell executes the same
 *     event count as its serial run, while measuring wall-clock
 *     scaling.
 *
 *  3. Channel sweep — ONE System (Random/ThyNVM) at 1/2/4 memory
 *     channels, each stepped by 1/2/4 worker threads. Multi-channel
 *     splits a single run into per-channel kernel shards, so this is
 *     the intra-System parallel-speedup axis; every (channels,
 *     threads) cell is cross-checked against the one-worker run of
 *     the identical topology (same final tick, same total event
 *     count across the core and every channel queue).
 *
 * Results are written as machine-readable JSON to BENCH_simspeed.json
 * (in the working directory) so the performance trajectory of the
 * simulation substrate is tracked from PR to PR; EXPERIMENTS.md records
 * the history.
 *
 * This binary deliberately ignores THYNVM_BENCH_THREADS: host-side
 * fan-out would perturb the per-run timing it exists to measure. The
 * only parallelism here is the thread sweep's explicit worker counts
 * and the channel sweep's sharded kernel.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "common/cli.hh"

namespace {

using namespace thynvm;
using namespace thynvm::bench;

using Clock = std::chrono::steady_clock;

const char*
patternName(MicroWorkload::Pattern p)
{
    switch (p) {
      case MicroWorkload::Pattern::Random: return "Random";
      case MicroWorkload::Pattern::Streaming: return "Streaming";
      case MicroWorkload::Pattern::Sliding: return "Sliding";
    }
    return "?";
}

struct SpeedResult
{
    std::string label;
    std::uint64_t events = 0;
    double host_seconds = 0.0;
    double sim_ms = 0.0;
    double events_per_sec = 0.0;
    double host_sec_per_sim_ms = 0.0;
    Tick final_tick = 0;
    /** Process peak RSS after the cell (monotone across cells). */
    std::uint64_t peak_rss_bytes = 0;
};

MicroWorkload::Params
cellParams(MicroWorkload::Pattern pattern)
{
    const MicroScale scale = microScale(pattern);
    MicroWorkload::Params mp;
    mp.pattern = pattern;
    mp.base = 0;
    mp.array_bytes = scale.array_bytes;
    mp.access_size = 64;
    mp.read_fraction = 0.5;
    mp.total_accesses = scale.accesses;
    mp.seed = 1;
    return mp;
}

SpeedResult
measure(SystemKind kind, MicroWorkload::Pattern pattern)
{
    const SystemConfig cfg = paperSystem(kind);
    MicroWorkload wl(cellParams(pattern));
    System sys(cfg, wl);

    const auto t0 = Clock::now();
    sys.start();
    const Tick end = sys.run(60 * kSecond);
    const double host =
        std::chrono::duration<double>(Clock::now() - t0).count();
    fatal_if(!sys.finished(), "simspeed run did not complete");

    SpeedResult r;
    r.label = std::string(patternName(pattern)) + "/" +
              systemKindName(kind);
    r.events = sys.eventq().eventsExecuted();
    r.host_seconds = host;
    r.sim_ms = static_cast<double>(sys.metrics().exec_time) /
               static_cast<double>(kMillisecond);
    r.events_per_sec =
        host > 0.0 ? static_cast<double>(r.events) / host : 0.0;
    r.host_sec_per_sim_ms = r.sim_ms > 0.0 ? host / r.sim_ms : 0.0;
    r.final_tick = end;
    r.peak_rss_bytes = peakRssBytes();
    return r;
}

/** One sweep point: the full cell set fanned out on a host pool. */
struct SweepResult
{
    unsigned threads = 0;
    std::uint64_t events = 0;
    double host_seconds = 0.0;
    double events_per_sec = 0.0;
    double speedup = 1.0;
};

SweepResult
measureGrid(unsigned threads,
            const std::vector<MicroWorkload::Pattern>& patterns,
            const std::vector<SpeedResult>& serial_cells)
{
    std::vector<GridCell<std::uint64_t>> cells;
    for (auto pattern : patterns) {
        for (auto kind : allSystems()) {
            cells.push_back({std::string(patternName(pattern)) + "/" +
                                 systemKindName(kind),
                             [pattern, kind] {
                                 MicroWorkload wl(cellParams(pattern));
                                 System sys(paperSystem(kind), wl);
                                 sys.start();
                                 sys.run(60 * kSecond);
                                 fatal_if(!sys.finished(),
                                          "sweep cell did not complete");
                                 return sys.eventq().eventsExecuted();
                             }});
        }
    }

    const auto t0 = Clock::now();
    const std::vector<std::uint64_t> events =
        runGrid("fig7 micro cells", cells, threads);
    const double host =
        std::chrono::duration<double>(Clock::now() - t0).count();

    SweepResult r;
    r.threads = threads;
    r.host_seconds = host;
    for (std::size_t i = 0; i < events.size(); ++i) {
        // Cells share no simulated state: a cell's event count must
        // not depend on how many run beside it.
        fatal_if(events[i] != serial_cells[i].events,
                 "sweep run diverged from serial: cell %s events "
                 "%llu != %llu",
                 serial_cells[i].label.c_str(),
                 static_cast<unsigned long long>(events[i]),
                 static_cast<unsigned long long>(
                     serial_cells[i].events));
        r.events += events[i];
    }
    r.events_per_sec =
        host > 0.0 ? static_cast<double>(r.events) / host : 0.0;
    return r;
}

/** One channel-sweep cell: a single System, C channels, N workers. */
struct ChannelCell
{
    unsigned channels = 1;
    unsigned threads = 1;
    std::uint64_t events = 0;
    double host_seconds = 0.0;
    double events_per_sec = 0.0;
    double speedup = 1.0; //!< vs. one worker at the same channel count
    Tick final_tick = 0;
    /** Kernel windows / cross-shard messages (0 for the serial loop). */
    std::uint64_t windows = 0;
    std::uint64_t messages = 0;
};

/** Events executed across the core queue and every channel queue. */
std::uint64_t
totalEvents(System& sys)
{
    std::uint64_t ev = sys.eventq().eventsExecuted();
    if (sys.channels() > 1) {
        auto& grp = static_cast<ChannelGroup&>(sys.controller());
        for (unsigned i = 0; i < grp.channelCount(); ++i)
            ev += grp.channelEventq(i).eventsExecuted();
    }
    return ev;
}

ChannelCell
measureChannelCell(unsigned channels, unsigned threads)
{
    SystemConfig cfg = paperSystem(SystemKind::ThyNvm);
    cfg.channels = channels;
    cfg.sim_threads = threads;
    MicroWorkload wl(cellParams(MicroWorkload::Pattern::Random));
    System sys(cfg, wl);

    const auto t0 = Clock::now();
    sys.start();
    const Tick end = sys.run(60 * kSecond);
    const double host =
        std::chrono::duration<double>(Clock::now() - t0).count();
    fatal_if(!sys.finished(), "channel-sweep run did not complete");

    ChannelCell r;
    r.channels = channels;
    r.threads = threads;
    r.events = totalEvents(sys);
    r.host_seconds = host;
    r.events_per_sec =
        host > 0.0 ? static_cast<double>(r.events) / host : 0.0;
    r.final_tick = end;
    r.windows = sys.kernelWindows();
    r.messages = sys.kernelMessages();
    return r;
}

} // namespace

int
main(int argc, char** argv)
{
    std::vector<std::uint64_t> sweep_threads = {1, 2, 4, 8};
    for (int i = 1; i < argc; ++i) {
        bool ok = std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc;
        if (ok) {
            try {
                sweep_threads = parseUintList(argv[++i], "--threads");
                for (std::uint64_t t : sweep_threads)
                    ok = ok && t >= 1 && t <= 1024;
            } catch (const FatalError&) {
                ok = false; // fatal() printed the reason
            }
        }
        if (!ok) {
            std::fprintf(stderr,
                         "usage: %s [--threads t1,t2,...]  "
                         "(each 1..1024)\n",
                         argv[0]);
            return 2;
        }
    }

    const std::vector<MicroWorkload::Pattern> patterns = {
        MicroWorkload::Pattern::Random,
        MicroWorkload::Pattern::Streaming,
        MicroWorkload::Pattern::Sliding,
    };

    heading("Simulator speed: fig7 micro cells, single host thread");
    std::printf("%-24s %14s %10s %14s %16s\n", "cell", "events",
                "host_s", "events/s", "host_s/sim_ms");

    std::vector<SpeedResult> results;
    std::uint64_t total_events = 0;
    double total_host = 0.0;
    double total_sim_ms = 0.0;
    for (auto pattern : patterns) {
        for (auto kind : allSystems()) {
            SpeedResult r = measure(kind, pattern);
            std::printf("%-24s %14llu %10.2f %14.0f %16.4f\n",
                        r.label.c_str(),
                        static_cast<unsigned long long>(r.events),
                        r.host_seconds, r.events_per_sec,
                        r.host_sec_per_sim_ms);
            total_events += r.events;
            total_host += r.host_seconds;
            total_sim_ms += r.sim_ms;
            results.push_back(std::move(r));
        }
    }

    const double agg_eps =
        total_host > 0.0 ? static_cast<double>(total_events) / total_host
                         : 0.0;
    const double agg_spms =
        total_sim_ms > 0.0 ? total_host / total_sim_ms : 0.0;
    std::printf("%-24s %14llu %10.2f %14.0f %16.4f\n", "TOTAL",
                static_cast<unsigned long long>(total_events), total_host,
                agg_eps, agg_spms);

    const unsigned host_threads = std::thread::hardware_concurrency();
    heading("Cell fan-out: same cells on the runGrid pool, thread sweep");
    std::printf("host hardware threads: %u\n\n", host_threads);

    std::vector<SweepResult> sweep;
    for (std::uint64_t threads : sweep_threads) {
        SweepResult s = measureGrid(static_cast<unsigned>(threads),
                                    patterns, results);
        if (!sweep.empty() && sweep.front().host_seconds > 0.0)
            s.speedup = sweep.front().host_seconds / s.host_seconds;
        sweep.push_back(s);
    }
    std::printf("\n%-8s %14s %10s %14s %10s\n", "threads", "events",
                "host_s", "events/s", "speedup");
    for (const SweepResult& s : sweep) {
        std::printf("%-8u %14llu %10.2f %14.0f %9.2fx\n", s.threads,
                    static_cast<unsigned long long>(s.events),
                    s.host_seconds, s.events_per_sec, s.speedup);
    }

    heading("Channel sweep: one Random/ThyNVM System, "
            "channels x workers");
    std::printf("%-10s %-8s %14s %10s %14s %10s %12s %10s\n", "channels",
                "threads", "events", "host_s", "events/s", "speedup",
                "windows", "messages");

    std::vector<ChannelCell> channel_sweep;
    for (unsigned channels : {1u, 2u, 4u}) {
        ChannelCell ref; // the one-worker cell at this channel count
        for (unsigned threads : {1u, 2u, 4u}) {
            ChannelCell c = measureChannelCell(channels, threads);
            if (threads == 1) {
                ref = c;
            } else {
                // Determinism cross-check: the sharded run replays the
                // one-worker schedule of the identical topology.
                fatal_if(c.events != ref.events,
                         "channel sweep diverged: channels=%u "
                         "threads=%u events %llu != %llu",
                         channels, threads,
                         static_cast<unsigned long long>(c.events),
                         static_cast<unsigned long long>(ref.events));
                fatal_if(c.final_tick != ref.final_tick,
                         "channel sweep diverged: channels=%u "
                         "threads=%u final tick %llu != %llu",
                         channels, threads,
                         static_cast<unsigned long long>(c.final_tick),
                         static_cast<unsigned long long>(
                             ref.final_tick));
                if (ref.host_seconds > 0.0)
                    c.speedup = ref.host_seconds / c.host_seconds;
            }
            std::printf("%-10u %-8u %14llu %10.2f %14.0f %9.2fx %12llu "
                        "%10llu\n",
                        c.channels, c.threads,
                        static_cast<unsigned long long>(c.events),
                        c.host_seconds, c.events_per_sec, c.speedup,
                        static_cast<unsigned long long>(c.windows),
                        static_cast<unsigned long long>(c.messages));
            channel_sweep.push_back(c);
        }
    }

    FILE* f = std::fopen("BENCH_simspeed.json", "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write BENCH_simspeed.json\n");
        return 1;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"simspeed\",\n");
    std::fprintf(f, "  \"workload\": \"fig7_micro\",\n");
    std::fprintf(f, "  \"host_threads\": %u,\n", host_threads);
    std::fprintf(f, "  \"total\": {\"events\": %llu, \"host_seconds\": "
                    "%.3f, \"events_per_sec\": %.0f, "
                    "\"host_sec_per_sim_ms\": %.5f},\n",
                 static_cast<unsigned long long>(total_events),
                 total_host, agg_eps, agg_spms);
    std::fprintf(f, "  \"thread_sweep\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const SweepResult& s = sweep[i];
        std::fprintf(f,
                     "    {\"threads\": %u, \"events\": %llu, "
                     "\"host_seconds\": %.3f, \"events_per_sec\": "
                     "%.0f, \"speedup\": %.3f}%s\n",
                     s.threads,
                     static_cast<unsigned long long>(s.events),
                     s.host_seconds, s.events_per_sec, s.speedup,
                     i + 1 == sweep.size() ? "" : ",");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"channel_sweep\": [\n");
    for (std::size_t i = 0; i < channel_sweep.size(); ++i) {
        const ChannelCell& c = channel_sweep[i];
        std::fprintf(f,
                     "    {\"channels\": %u, \"threads\": %u, "
                     "\"events\": %llu, \"host_seconds\": %.3f, "
                     "\"events_per_sec\": %.0f, \"speedup\": %.3f, "
                     "\"final_tick\": %llu, \"windows\": %llu, "
                     "\"messages\": %llu}%s\n",
                     c.channels, c.threads,
                     static_cast<unsigned long long>(c.events),
                     c.host_seconds, c.events_per_sec, c.speedup,
                     static_cast<unsigned long long>(c.final_tick),
                     static_cast<unsigned long long>(c.windows),
                     static_cast<unsigned long long>(c.messages),
                     i + 1 == channel_sweep.size() ? "" : ",");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"cells\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SpeedResult& r = results[i];
        std::fprintf(f,
                     "    {\"label\": \"%s\", \"events\": %llu, "
                     "\"host_seconds\": %.3f, \"sim_ms\": %.3f, "
                     "\"events_per_sec\": %.0f, "
                     "\"host_sec_per_sim_ms\": %.5f, "
                     "\"peak_rss_bytes\": %llu}%s\n",
                     r.label.c_str(),
                     static_cast<unsigned long long>(r.events),
                     r.host_seconds, r.sim_ms, r.events_per_sec,
                     r.host_sec_per_sim_ms,
                     static_cast<unsigned long long>(r.peak_rss_bytes),
                     i + 1 == results.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_simspeed.json\n");
    return 0;
}
