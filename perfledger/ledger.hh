/**
 * @file
 * Helpers shared by the performance-ledger benchmark and its tests:
 * sample statistics, extraction of per-layer numbers from
 * System::dumpStats text, the functional-image digest, host
 * fingerprint and rusage readings, the span recorder, the timing
 * Workload wrapper, and the JSON result line.
 *
 * Everything here observes the simulator from outside: it calls public
 * functions and reads the stats a System already exposes.
 */

#ifndef PERFLEDGER_LEDGER_HH
#define PERFLEDGER_LEDGER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cpu/workload.hh"
#include "fuzz/fuzzer.hh"

namespace perfledger {

// ---------------------------------------------------------------------
// Sample statistics.

/**
 * Percentile @p q in [0, 1] of @p xs by linear interpolation between
 * closest ranks (q = 0.5 is the median). @p xs must not be empty.
 */
double percentile(std::vector<double> xs, double q);

inline double
median(const std::vector<double>& xs)
{
    return percentile(xs, 0.5);
}

// ---------------------------------------------------------------------
// Stats extraction.

/** Stat name -> value, parsed from System::dumpStats output. */
using StatMap = std::map<std::string, double>;

/** Parse "name value  # comment" lines; other lines are skipped. */
StatMap parseStats(const std::string& dump);

/**
 * Controller-level stat @p name ("epochs", "nvm.reads", ...). The
 * system-wide "sys.ctrl.<name>" wins when it exists; otherwise the
 * per-channel "sys.ctrl.chN.<name>" values are summed, so single- and
 * multi-channel dumps read alike. Missing stats read 0.
 */
double ctrlStat(const StatMap& stats, const std::string& name);

/**
 * Count-weighted mean of the controller-level histogram @p name
 * (e.g. "nvm.read_latency_ns") over all channels. 0 when empty.
 */
double ctrlHistMean(const StatMap& stats, const std::string& name);

/** Stat @p name or 0 when absent. */
double statOr0(const StatMap& stats, const std::string& name);

// ---------------------------------------------------------------------
// Functional-image digest.

struct ImageDigest
{
    std::uint64_t hash = 0;
    /** Pages that hold at least one nonzero byte. */
    std::uint64_t pages = 0;

    bool operator==(const ImageDigest&) const = default;
};

/**
 * FNV-1a over (address, bytes) of every page in @p pages that holds a
 * nonzero byte, read through @p view. All-zero pages are skipped, so
 * the digest depends on the image alone, not on which zero pages a
 * backend happens to report as touched.
 */
ImageDigest digestPages(const std::vector<thynvm::Addr>& pages,
                        const thynvm::FunctionalView& view);

/** True when every digest equals the first (and there is one). */
bool digestsAgree(const std::vector<ImageDigest>& digests);

// ---------------------------------------------------------------------
// Crash-campaign failure accounting.

/** Cases of @p r that failed: oracle violations plus unreached plans. */
std::uint64_t failedCases(const thynvm::fuzz::CampaignResult& r);

/**
 * Append campaign @p part to @p into. Campaigns over one system each,
 * merged in the order of CampaignOptions::systems, give what a single
 * campaign over all of those systems returns: runCampaign plans each
 * system on its own and lists cases system by system.
 */
void mergeCampaign(thynvm::fuzz::CampaignResult& into,
                   thynvm::fuzz::CampaignResult&& part);

// ---------------------------------------------------------------------
// Host readings.

struct Fingerprint
{
    unsigned nproc = 0;
    std::string cpu;
    std::string compiler;
    std::string build_type;
};

Fingerprint hostFingerprint();

/** getrusage(RUSAGE_SELF) reading. */
struct Usage
{
    double user_s = 0;
    double sys_s = 0;
    std::uint64_t minflt = 0;
    std::uint64_t nivcsw = 0;
    /** Peak resident set, MiB. */
    double maxrss_mb = 0;
};

Usage usageNow();

/** Monotonic host seconds. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ---------------------------------------------------------------------
// Spans.

/**
 * In-memory span recorder. Spans nest by scope: a span's parent is the
 * innermost span open when it began. Spans are written out once, by
 * writeJson(), when the run ends.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0;
        double end = 0;
        int parent = -1;
    };

    /** RAII span; a null tracer records nothing. */
    class Scope
    {
      public:
        Scope(Tracer* t, const char* name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        /** Index of this span (-1 without a tracer). */
        int id() const { return id_; }

      private:
        Tracer* t_;
        int id_ = -1;
    };

    /** Record a finished span with an explicit @p parent. */
    int add(const std::string& name, double start, double end,
            int parent);

    const std::vector<Span>& spans() const { return spans_; }

    /** Summed duration of every span called @p name. */
    double total(const std::string& name) const;

    /** Write {"spans": [...]} with times relative to the first span. */
    bool writeJson(const std::string& path) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

// ---------------------------------------------------------------------
// Workload wrapper.

/**
 * Forwarding Workload that counts next() calls and the host time spent
 * in them. Only the traced run wraps its workloads.
 */
class TimedWorkload : public thynvm::Workload
{
  public:
    explicit TimedWorkload(thynvm::Workload& inner) : inner_(inner) {}

    void init(thynvm::MemController& mem) override { inner_.init(mem); }
    bool next(thynvm::WorkOp& op) override;
    void deliver(const std::uint8_t* data, std::size_t len) override
    {
        inner_.deliver(data, len);
    }
    std::vector<std::uint8_t> snapshot() const override
    {
        return inner_.snapshot();
    }
    void restore(const std::vector<std::uint8_t>& blob) override
    {
        inner_.restore(blob);
    }
    void setFunctionalView(thynvm::FunctionalView view) override
    {
        inner_.setFunctionalView(std::move(view));
    }

    std::uint64_t calls() const { return calls_; }
    double seconds() const { return seconds_; }

  private:
    thynvm::Workload& inner_;
    std::uint64_t calls_ = 0;
    double seconds_ = 0;
};

// ---------------------------------------------------------------------
// Result line.

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Shortest round-trip decimal form of @p v ("null" if not finite). */
std::string jsonNumber(double v);

/** Quote and escape @p s as a JSON string. */
std::string jsonString(const std::string& s);

/**
 * The benchmark's result object: {"correct", "attempted", "failed",
 * "metrics": {name: {"value", "unit"}}}.
 */
std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics);

} // namespace perfledger

#endif // PERFLEDGER_LEDGER_HH
