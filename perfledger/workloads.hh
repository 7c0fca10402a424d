/**
 * @file
 * The four benchmark workloads. Each runs serially in the calling
 * process on one host thread, measures for about the requested number
 * of seconds, checks its own outputs, and returns the end-to-end
 * metrics (untraced) or the per-layer metrics (traced).
 */

#ifndef PERFLEDGER_WORKLOADS_HH
#define PERFLEDGER_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ledger.hh"

namespace perfledger {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Where the traced run writes its spans (empty = nowhere). */
    std::string trace_out;
};

struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    unsigned reps = 0;
    std::vector<Metric> metrics;
    /** One line per failed check. */
    std::vector<std::string> problems;
    /** Host readings over the whole run. */
    double wall_s = 0;
    double cpu_s = 0;
    std::uint64_t nivcsw = 0;
    /** Median host-speed factor of the run's calibration brackets. */
    double speed = 1;
};

/** Names accepted by runWorkload(), in benchmark order. */
const std::vector<std::string>& workloadNames();

/** Run one workload. @p o.workload must be one of workloadNames(). */
Outcome runWorkload(const Options& o);

} // namespace perfledger

#endif // PERFLEDGER_WORKLOADS_HH
