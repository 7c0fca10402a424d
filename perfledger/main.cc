/**
 * @file
 * perfledger: one workload of the performance-ledger benchmark.
 *
 *   perfledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *              [--trace-out <spans.json>]
 *
 * Prints each metric by name with its unit, a context line (host
 * fingerprint, host readings of the whole run, failed checks),
 * and, last, one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. Exits non-zero on bad arguments.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "ledger.hh"
#include "workloads.hh"

using namespace perfledger;

namespace {

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfledger: %s\nusage: perfledger --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>]\nworkloads:",
                 why);
    for (const std::string& w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

std::uint64_t
parseUint(const char* s, const char* what)
{
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (*s == '\0' || *s == '-' || *end != '\0' || errno != 0)
        usage(what);
    return v;
}

} // namespace

int
main(int argc, char** argv)
{
    Options o;
    bool have[4] = {false, false, false, false};
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value");
        const char* v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
            have[0] = true;
        } else if (a == "--seed") {
            o.seed = parseUint(v, "bad --seed");
            have[1] = true;
        } else if (a == "--seconds") {
            const std::uint64_t s = parseUint(v, "bad --seconds");
            if (s == 0 || s > 3600)
                usage("--seconds must be in [1, 3600]");
            o.seconds = static_cast<double>(s);
            have[2] = true;
        } else if (a == "--trace") {
            const std::uint64_t t = parseUint(v, "bad --trace");
            if (t > 1)
                usage("--trace must be 0 or 1");
            o.trace = t == 1;
            have[3] = true;
        } else if (a == "--trace-out") {
            o.trace_out = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!(have[0] && have[1] && have[2] && have[3]))
        usage("--workload, --seed, --seconds and --trace are required");
    bool known = false;
    for (const std::string& w : workloadNames())
        known = known || w == o.workload;
    if (!known)
        usage(("unknown workload " + o.workload).c_str());

    const Outcome out = runWorkload(o);

    for (const Metric& m : out.metrics) {
        std::printf("%-36s %16s %s\n", m.name.c_str(),
                    jsonNumber(m.value).c_str(), m.unit.c_str());
    }
    for (const std::string& p : out.problems)
        std::printf("CHECK FAILED: %s\n", p.c_str());

    const Fingerprint f = hostFingerprint();
    std::string problems = "[";
    for (std::size_t i = 0; i < out.problems.size(); ++i)
        problems += (i ? ", " : "") + jsonString(out.problems[i]);
    problems += "]";
    std::printf("{\"context\": {\"workload\": %s, \"seed\": %llu, "
                "\"trace\": %d, \"reps\": %u, \"nproc\": %u, \"cpu\": %s, "
                "\"compiler\": %s, \"build_type\": %s, \"wall_s\": %s, "
                "\"cpu_s\": %s, \"nivcsw\": %llu, \"speed\": %s, "
                "\"problems\": %s}}\n",
                jsonString(o.workload).c_str(),
                static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
                out.reps, f.nproc, jsonString(f.cpu).c_str(),
                jsonString(f.compiler).c_str(),
                jsonString(f.build_type).c_str(),
                jsonNumber(out.wall_s).c_str(),
                jsonNumber(out.cpu_s).c_str(),
                static_cast<unsigned long long>(out.nivcsw),
                jsonNumber(out.speed).c_str(), problems.c_str());
    std::printf("%s\n", resultJson(out.correct, out.attempted, out.failed,
                                   out.metrics)
                            .c_str());
    return 0;
}
