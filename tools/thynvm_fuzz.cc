/**
 * @file
 * Crash-point fuzzing front end.
 *
 * Default mode runs a fuzz campaign: for each (seed, workload, system,
 * fast-path mode) it enumerates every reachable crash site, crashes at
 * each one, and checks recovery against the golden epoch-model oracle.
 * Any failure prints a one-line repro string that --replay (and the
 * crash_repro_test suite) re-executes deterministically.
 *
 * Usage:
 *   thynvm_fuzz [--seeds N] [--both-fastpath] [--deltas t0,t1,...]
 *               [--threads N] [--channels N] [--inject-drop-btt IDX]
 *               [--list-sites] [--replay REPRO]
 *
 * The THYNVM_FUZZ_ITERS environment variable scales the seed count for
 * nightly-sized sweeps (same as --seeds). --threads (default: the
 * THYNVM_SIM_THREADS environment variable, else 1) fans the campaign's
 * independent (seed, workload, system, mode) combos, one crash walk
 * each, across host workers; the campaign result is byte-identical
 * for any thread count. --channels N (a power of two; default: the
 * THYNVM_CHANNELS environment variable, else 1) runs every simulated
 * System on an N-channel interleaved topology, which adds per-channel
 * (chK.*) and cross-channel barrier (group.*) crash sites to the plan.
 * --list-sites prints every site a profile run reaches, with its hit
 * count and the ticks of its first and last hit.
 */

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common/cli.hh"
#include "common/parallel.hh"
#include "fuzz/fuzzer.hh"

namespace {

using namespace thynvm;
using namespace thynvm::fuzz;

int
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--seeds N] [--both-fastpath] "
                 "[--deltas t0,t1,...]\n"
                 "          [--threads N] [--channels N] "
                 "[--inject-drop-btt IDX]\n"
                 "          [--list-sites] [--replay REPRO]\n",
                 argv0);
    return 2;
}

int
listSites(const FuzzerConfig& fc, unsigned channels)
{
    for (SystemKind kind :
         {SystemKind::ThyNvm, SystemKind::Journal, SystemKind::Shadow,
          SystemKind::Icl, SystemKind::Incremental}) {
        for (const char* wl : {"rand", "slide"}) {
            const auto sites =
                enumerateSites(fc, 1, wl, kind, true, channels);
            std::printf("%s / %s: %zu sites\n", systemToken(kind), wl,
                        sites.size());
            for (const auto& [site, stats] : sites) {
                std::printf("  %-24s %8llu hits  ticks %llu..%llu\n",
                            site.c_str(),
                            static_cast<unsigned long long>(stats.hits),
                            static_cast<unsigned long long>(
                                stats.first_tick),
                            static_cast<unsigned long long>(
                                stats.last_tick));
            }
        }
    }
    return 0;
}

int
replay(const FuzzerConfig& fc, const std::string& repro)
{
    FuzzCase c;
    if (!parseRepro(repro, c)) {
        std::fprintf(stderr, "malformed repro string: %s\n",
                     repro.c_str());
        return 2;
    }
    const CaseResult r = runCrashCase(fc, c);
    switch (r.status) {
      case CaseStatus::Ok:
        std::printf("OK %s\n  crash tick %llu, commits %llu, "
                    "restored ops %llu\n",
                    r.repro.c_str(),
                    static_cast<unsigned long long>(r.crash_tick),
                    static_cast<unsigned long long>(r.commits_before),
                    static_cast<unsigned long long>(r.restored_ops));
        return 0;
      case CaseStatus::NotReached:
        std::printf("NOT-REACHED %s\n", r.repro.c_str());
        return 3;
      case CaseStatus::Violation:
        std::printf("VIOLATION %s\n  %s\n", r.repro.c_str(),
                    r.detail.c_str());
        return 1;
    }
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    FuzzerConfig fc;
    CampaignOptions opts;
    bool list_sites = false;
    std::string replay_str;
    std::uint64_t n_seeds = 1;
    unsigned threads = std::max(1u, simThreadsFromEnv());
    unsigned channels = channelsFromEnv();

    // Every scalar is parsed strictly: a bad value ends in fatal(),
    // which prints the reason, and the usage exit below.
    try {
        if (const char* env = std::getenv("THYNVM_FUZZ_ITERS"))
            n_seeds = parseUint(env, "THYNVM_FUZZ_ITERS");

        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--seeds" && i + 1 < argc) {
                n_seeds = parseUint(argv[++i], "--seeds");
            } else if (arg == "--both-fastpath") {
                opts.both_fast_path_modes = true;
            } else if (arg == "--deltas" && i + 1 < argc) {
                opts.deltas = parseUintList(argv[++i], "--deltas");
            } else if (arg == "--threads" && i + 1 < argc) {
                threads = static_cast<unsigned>(
                    parseUint(argv[++i], "--threads", UINT_MAX));
            } else if (arg == "--channels" && i + 1 < argc) {
                channels = static_cast<unsigned>(
                    parseUint(argv[++i], "--channels", UINT_MAX));
            } else if (arg == "--inject-drop-btt" && i + 1 < argc) {
                fc.debug_drop_btt_entry =
                    parseUint(argv[++i], "--inject-drop-btt", SIZE_MAX);
            } else if (arg == "--list-sites") {
                list_sites = true;
            } else if (arg == "--replay" && i + 1 < argc) {
                replay_str = argv[++i];
            } else {
                return usage(argv[0]);
            }
        }
        // Checked here, before any System exists: a campaign worker
        // cannot report the interleaver's own check cleanly.
        fatal_if((channels & (channels - 1)) != 0,
                 "--channels / THYNVM_CHANNELS: the channel count must "
                 "be a power of two, got %u",
                 channels);
    } catch (const FatalError&) {
        return usage(argv[0]);
    }

    if (channels <= 1)
        channels = 0; // 0 = single-channel seed topology
    opts.channels = channels;

    if (list_sites)
        return listSites(fc, channels);
    if (!replay_str.empty())
        return replay(fc, replay_str);

    if (n_seeds == 0)
        n_seeds = 1;
    opts.seeds.clear();
    for (std::uint64_t s = 1; s <= n_seeds; ++s)
        opts.seeds.push_back(s);

    const CampaignResult r = runCampaign(fc, opts, &std::cerr, threads);

    std::printf("campaign: %llu cases (%llu not reached), "
                "%zu violations\n",
                static_cast<unsigned long long>(r.cases),
                static_cast<unsigned long long>(r.not_reached),
                r.violations.size());
    for (const auto& [sys, sites] : r.sites_by_system) {
        std::printf("  %-8s %zu distinct crash sites\n", sys.c_str(),
                    sites.size());
    }
    for (const CaseResult& v : r.violations)
        std::printf("VIOLATION %s\n  %s\n", v.repro.c_str(),
                    v.detail.c_str());
    return r.violations.empty() ? 0 : 1;
}
