#include "workloads.hh"

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "alloc_counter.hh"
#include "bench/bench_util.hh"
#include "fuzz/fuzzer.hh"
#include "harness/system.hh"
#include "host_speed.hh"
#include "workloads/kvstore.hh"
#include "workloads/micro.hh"

namespace perfledger {

using thynvm::kAllSystemKinds;
using thynvm::kMillisecond;
using thynvm::kSecond;
using thynvm::KvWorkload;
using thynvm::MicroWorkload;
using thynvm::RunMetrics;
using thynvm::System;
using thynvm::SystemConfig;
using thynvm::SystemKind;
using thynvm::Tick;
using thynvm::Workload;
namespace fuzz = thynvm::fuzz;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

double
simMs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kMillisecond);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/**
 * Call @p rep until about @p seconds have passed: at least @p min_reps
 * times, and never starting a rep that the previous one says would
 * end past the deadline. @return reps run.
 */
template <typename Fn>
unsigned
repeatFor(double seconds, unsigned min_reps, Fn rep)
{
    const double t0 = now();
    unsigned n = 0;
    for (;;) {
        const double s = now();
        rep();
        ++n;
        const double t = now();
        if (n >= min_reps && (t - t0) + (t - s) > seconds)
            return n;
    }
}

/** Host seconds of set-up sampling before an untraced run's reps. */
constexpr double kSetupBudgetS = 1.0;

/** Host seconds of set-up samples between two calibration passes. */
constexpr double kSetupBatchS = 0.2;

/**
 * Append reference seconds of @p setup (System construction + start())
 * to @p out, sampled back to back until @p seconds have passed (at
 * least once), in batches bracketed by @p speed's calibration passes.
 * Sub-millisecond set-ups thus give thousands of samples.
 */
template <typename Fn>
void
sampleSetup(HostSpeed& speed, double seconds, std::vector<double>& out,
            Fn setup)
{
    const double t0 = now();
    do {
        std::vector<double> batch;
        const double f = speed.bracket([&] {
            const double b0 = now();
            do
                batch.push_back(setup());
            while (now() - b0 < kSetupBatchS);
        });
        for (double b : batch)
            out.push_back(b * f);
    } while (now() - t0 < seconds);
}

/** ru_maxrss less the calibration table, which stays resident. */
double
peakRssMb()
{
    return usageNow().maxrss_mb - kCalibrationTableMiB;
}

/** Host seconds to construct @p cfg around @p wl and start() it. */
double
timeSetup(const SystemConfig& cfg, Workload& wl)
{
    const double t = now();
    System sys(cfg, wl);
    sys.start();
    return now() - t;
}

// ---------------------------------------------------------------------
// Timed System runs.

/** One System built, started and run to completion, timed from outside. */
struct SysRun
{
    SystemKind kind = SystemKind::ThyNvm;
    double construct_s = 0;
    double start_s = 0;
    double run_s = 0;
    double next_s = 0;
    std::uint64_t next_calls = 0;
    std::uint64_t events = 0;
    /** Allocations made inside System::run (traced runs only). */
    AllocCount allocs;
    RunMetrics m;
    std::string stats;
    std::size_t touched_pages = 0;
    ImageDigest digest;
    bool finished = false;

    double setupS() const { return construct_s + start_s; }
};

SysRun
runSystem(const SystemConfig& cfg, Workload& wl, Tick limit, Tracer* tr,
          bool digest)
{
    SysRun r;
    r.kind = cfg.kind;
    std::optional<TimedWorkload> timed;
    Workload& w = tr != nullptr ? timed.emplace(wl) : wl;
    std::optional<System> sys;
    double t = now();
    {
        Tracer::Scope span(tr, "harness.construct");
        sys.emplace(cfg, w);
    }
    r.construct_s = now() - t;
    t = now();
    {
        Tracer::Scope span(tr, "harness.start");
        sys->start();
    }
    r.start_s = now() - t;
    const AllocCount a0 = allocCount();
    t = now();
    {
        Tracer::Scope span(tr, "harness.run");
        sys->run(limit);
    }
    r.run_s = now() - t;
    r.allocs = allocsSince(a0);
    if (timed) {
        r.next_s = timed->seconds();
        r.next_calls = timed->calls();
    }

    r.finished = sys->finished();
    r.events = sys->eventq().eventsExecuted();
    r.m = sys->metrics();
    std::ostringstream os;
    sys->dumpStats(os);
    r.stats = os.str();
    const std::vector<thynvm::Addr> pages = sys->touchedPhysPages();
    r.touched_pages = pages.size();
    if (digest)
        r.digest = digestPages(pages, sys->functionalView());
    return r;
}

/** Deterministic fingerprint of a run: stats, events and digest. */
std::string
determinismKey(const SysRun& r)
{
    std::ostringstream os;
    os << r.stats << "events=" << r.events << " digest=" << r.digest.hash
       << "/" << r.digest.pages << "\n";
    return os.str();
}

// ---------------------------------------------------------------------
// Per-layer metric table.

using LayerMap = std::map<std::string, double>;

struct LayerDef
{
    std::string name;
    std::string unit;
};

/** Every per-layer metric, in output order. */
const std::vector<LayerDef>&
layerTable()
{
    static const std::vector<LayerDef> table = [] {
        std::vector<LayerDef> t = {
            {"host.wall_s", "s"},
            {"host.cpu_s", "s"},
            {"host.sys_s", "s"},
            {"host.minflt", "count"},
            {"host.nivcsw", "count"},
            {"host.speed", "ratio"},
            {"host.allocs_per_op", "count"},
            {"host.alloc_mb_per_op", "MB"},
            {"sim.events_per_op", "count"},
            {"sim.ns_per_event", "ns"},
            {"workloads.next_s", "s"},
            {"workloads.next_share", "ratio"},
            {"workloads.next_calls_per_op", "count"},
            {"harness.construct_s", "s"},
            {"harness.start_s", "s"},
            {"harness.run_self_s", "s"},
            {"cpu.ipc", "ratio"},
            {"cpu.mem_stall_frac", "ratio"},
            {"cpu.paused_frac", "ratio"},
            {"cache.l1_hit_rate", "ratio"},
            {"cache.l2_hit_rate", "ratio"},
            {"cache.l3_hit_rate", "ratio"},
            {"cache.l3_writebacks", "count"},
            {"core.epochs", "count"},
            {"core.overflow_epochs", "count"},
            {"core.ckpt_stall_frac", "ratio"},
            {"core.ckpt_busy_frac", "ratio"},
            {"core.scheme_switches", "count"},
            {"core.stalled_stores", "count"},
            {"core.home_migrations", "count"},
        };
        for (SystemKind k : kAllSystemKinds) {
            const std::string p =
                std::string("baselines.") + fuzz::systemToken(k);
            t.push_back({p + ".run_s", "s"});
            t.push_back({p + ".sim_ms", "ms"});
            t.push_back({p + ".write_amp", "ratio"});
            t.push_back({p + ".allocs_per_op", "count"});
        }
        const std::vector<LayerDef> mem = {
            {"mem.nvm_reads", "count"},
            {"mem.nvm_writes", "count"},
            {"mem.nvm_row_hit_rate", "ratio"},
            {"mem.nvm_read_latency_ns", "ns"},
            {"mem.nvm_write_mb.cpu_writeback", "MB"},
            {"mem.nvm_write_mb.checkpoint", "MB"},
            {"mem.nvm_write_mb.migration", "MB"},
            {"mem.dram_writes", "count"},
            {"mem.write_drains", "count"},
            {"mem.touched_pages", "count"},
            {"fuzz.cases", "count"},
            {"fuzz.violations", "count"},
            {"fuzz.not_reached", "count"},
            {"fuzz.plan_s", "s"},
            {"fuzz.case_ms_p50", "ms"},
            {"fuzz.case_ms_p95", "ms"},
        };
        t.insert(t.end(), mem.begin(), mem.end());
        // The five checkpointing backends every campaign covers.
        for (SystemKind k : fuzz::CampaignOptions{}.systems) {
            t.push_back({std::string("fuzz.") + fuzz::systemToken(k) +
                             ".case_ms_p50",
                         "ms"});
        }
        t.push_back({"trace.overhead_frac", "ratio"});
        t.push_back({"trace.spans", "count"});
        return t;
    }();
    return table;
}

/** Emit every per-layer metric; those a workload does not reach read 0. */
std::vector<Metric>
layerMetrics(const LayerMap& layers)
{
    std::vector<Metric> out;
    for (const LayerDef& d : layerTable()) {
        auto it = layers.find(d.name);
        out.push_back(
            {d.name, it == layers.end() ? 0.0 : it->second, d.unit});
    }
    return out;
}

/** CPU, cache, ThyNVM core and device metrics of one ThyNVM run. */
void
modelLayers(const SysRun& r, LayerMap& out)
{
    const StatMap s = parseStats(r.stats);
    const double exec = static_cast<double>(r.m.exec_time);
    out["cpu.ipc"] = r.m.ipc;
    out["cpu.mem_stall_frac"] = ratio(statOr0(s, "sys.cpu.mem_stall_time"),
                                      exec);
    out["cpu.paused_frac"] = ratio(statOr0(s, "sys.cpu.paused_time"), exec);
    for (const char* l : {"l1", "l2", "l3"}) {
        const std::string p = std::string("sys.") + l + ".";
        const double hits = statOr0(s, p + "hits");
        out[std::string("cache.") + l + "_hit_rate"] =
            ratio(hits, hits + statOr0(s, p + "misses"));
    }
    out["cache.l3_writebacks"] = statOr0(s, "sys.l3.writebacks");

    out["core.epochs"] = ctrlStat(s, "epochs");
    out["core.overflow_epochs"] = ctrlStat(s, "overflow_epochs");
    out["core.ckpt_stall_frac"] = ratio(ctrlStat(s, "ckpt_stall_time"), exec);
    out["core.ckpt_busy_frac"] = ratio(ctrlStat(s, "ckpt_busy_time"), exec);
    out["core.scheme_switches"] =
        ctrlStat(s, "promotions") + ctrlStat(s, "demotions");
    out["core.stalled_stores"] = ctrlStat(s, "stalled_stores");
    out["core.home_migrations"] = ctrlStat(s, "home_migrations");

    out["mem.nvm_reads"] = ctrlStat(s, "nvm.reads");
    out["mem.nvm_writes"] = ctrlStat(s, "nvm.writes");
    const double row_hits = ctrlStat(s, "nvm.row_hits");
    out["mem.nvm_row_hit_rate"] =
        ratio(row_hits, row_hits + ctrlStat(s, "nvm.row_misses_clean") +
                            ctrlStat(s, "nvm.row_misses_dirty"));
    out["mem.nvm_read_latency_ns"] = ctrlHistMean(s, "nvm.read_latency_ns");
    for (const char* src : {"cpu_writeback", "checkpoint", "migration"}) {
        out[std::string("mem.nvm_write_mb.") + src] =
            ctrlStat(s, std::string("nvm.write_bytes::") + src) / kMiB;
    }
    out["mem.dram_writes"] = ctrlStat(s, "dram.writes");
    out["mem.write_drains"] = ctrlStat(s, "nvm.write_drain_entries") +
                              ctrlStat(s, "dram.write_drain_entries");
    out["mem.touched_pages"] = static_cast<double>(r.touched_pages);
}

/** Host rusage deltas of one rep. */
struct HostSample
{
    double wall_s = 0;
    double cpu_s = 0;
    double sys_s = 0;
    double minflt = 0;
    double nivcsw = 0;
};

HostSample
hostDelta(const Usage& a, const Usage& b, double wall_s)
{
    return {wall_s, (b.user_s + b.sys_s) - (a.user_s + a.sys_s),
            b.sys_s - a.sys_s, static_cast<double>(b.minflt - a.minflt),
            static_cast<double>(b.nivcsw - a.nivcsw)};
}

void
hostLayers(const std::vector<HostSample>& hs, LayerMap& out)
{
    auto med = [&](double HostSample::*f) {
        std::vector<double> v;
        for (const HostSample& h : hs)
            v.push_back(h.*f);
        return median(v);
    };
    out["host.wall_s"] = med(&HostSample::wall_s);
    out["host.cpu_s"] = med(&HostSample::cpu_s);
    out["host.sys_s"] = med(&HostSample::sys_s);
    out["host.minflt"] = med(&HostSample::minflt);
    out["host.nivcsw"] = med(&HostSample::nivcsw);
}

/** Span-derived harness/workloads metrics of one rep's System runs. */
struct HarnessSample
{
    double construct_s = 0;
    double start_s = 0;
    double run_s = 0;
    double next_s = 0;
    double next_calls = 0;
    double events = 0;
};

HarnessSample
harnessSample(const std::vector<SysRun>& runs)
{
    HarnessSample h;
    for (const SysRun& r : runs) {
        h.construct_s += r.construct_s;
        h.start_s += r.start_s;
        h.run_s += r.run_s;
        h.next_s += r.next_s;
        h.next_calls += static_cast<double>(r.next_calls);
        h.events += static_cast<double>(r.events);
    }
    return h;
}

void
harnessLayers(const std::vector<HarnessSample>& hs, LayerMap& out)
{
    std::vector<double> construct, start, self, next, share;
    for (const HarnessSample& h : hs) {
        construct.push_back(h.construct_s);
        start.push_back(h.start_s);
        self.push_back(h.run_s - h.next_s);
        next.push_back(h.next_s);
        share.push_back(ratio(h.next_s, h.run_s));
    }
    out["harness.construct_s"] = median(construct);
    out["harness.start_s"] = median(start);
    out["harness.run_self_s"] = median(self);
    out["workloads.next_s"] = median(next);
    out["workloads.next_share"] = median(share);
}

/** baselines.<kind>.* for each System run of a rep. */
void
baselineLayers(const std::vector<std::vector<SysRun>>& reps,
               double ops_per_run, LayerMap& out)
{
    std::map<SystemKind, std::vector<double>> run_s;
    for (const auto& runs : reps) {
        for (const SysRun& r : runs)
            run_s[r.kind].push_back(r.run_s);
    }
    for (const SysRun& r : reps.back()) {
        const std::string p =
            std::string("baselines.") + fuzz::systemToken(r.kind);
        out[p + ".run_s"] = median(run_s[r.kind]);
        out[p + ".sim_ms"] = simMs(r.m.exec_time);
        out[p + ".write_amp"] = r.m.write_amp;
        out[p + ".allocs_per_op"] =
            ratio(static_cast<double>(r.allocs.calls), ops_per_run);
    }
}

const SysRun*
findKind(const std::vector<SysRun>& runs, SystemKind k)
{
    for (const SysRun& r : runs) {
        if (r.kind == k)
            return &r;
    }
    return nullptr;
}

// ---------------------------------------------------------------------
// Workloads that run Systems to completion: micro-* and kv-sweep.

struct Cell
{
    SystemConfig cfg;
    std::function<std::unique_ptr<Workload>()> make;
    Tick limit = 0;
};

struct SysSpec
{
    std::vector<Cell> cells;
    /** Workload ops (accesses or transactions) per cell. */
    std::uint64_t ops_per_cell = 0;
    /** Check that every cell ends with the same functional image. */
    bool cross_digest = false;
};

SystemConfig
paperConfig(SystemKind kind)
{
    SystemConfig cfg = thynvm::bench::paperSystem(kind);
    cfg.channels = 1;
    cfg.sim_threads = 1;
    return cfg;
}

/** Fig. 7 Random cell on ThyNVM, or the L1-resident variant. */
SysSpec
microSpec(std::uint64_t seed, bool resident)
{
    MicroWorkload::Params p;
    p.pattern = MicroWorkload::Pattern::Random;
    if (resident) {
        // 1 KB ops inside a 16 KB array: every access hits L1, so the
        // CPU and the cache fast path do the work. Hits cost the same
        // wherever they land, so the seed also places the array: its
        // cold misses and checkpoint writes then meet other rows.
        p.array_bytes = 16u << 10;
        p.access_size = 1024;
        p.total_accesses = 1000000;
        p.base = (seed % 4096) * 64 * 37;
    } else {
        const thynvm::bench::MicroScale sc = thynvm::bench::microScale(
            MicroWorkload::Pattern::Random);
        p.array_bytes = sc.array_bytes;
        p.access_size = 64;
        p.total_accesses = sc.accesses;
    }
    p.read_fraction = 0.5;
    p.seed = seed;
    SysSpec spec;
    spec.ops_per_cell = p.total_accesses;
    spec.cells.push_back(
        {paperConfig(SystemKind::ThyNvm),
         [p] { return std::make_unique<MicroWorkload>(p); }, 60 * kSecond});
    return spec;
}

/** Fig. 9 hash-table KV regime on every backend in turn. */
SysSpec
kvSpec(std::uint64_t seed)
{
    KvWorkload::Params p;
    p.structure = KvWorkload::Structure::HashTable;
    p.phys_size = paperConfig(SystemKind::ThyNvm).phys_size;
    p.value_size = 256;
    // bench_util's runKv sizing: a ~12 MB live store (~96 B of node
    // overhead per value) and a compute-dominated transaction.
    p.key_space = (12u << 20) / (p.value_size + 96);
    p.initial_keys = p.key_space / 2;
    p.hash_buckets = p.key_space / 4;
    p.compute_per_txn = 6000;
    p.zipf_theta = 0.99;
    p.total_txns = 10000;
    p.seed = seed;
    SysSpec spec;
    spec.ops_per_cell = p.total_txns;
    spec.cross_digest = true;
    for (SystemKind k : kAllSystemKinds) {
        spec.cells.push_back(
            {paperConfig(k), [p] { return std::make_unique<KvWorkload>(p); },
             120 * kSecond});
    }
    return spec;
}

class SysBench
{
  public:
    SysBench(const SysSpec& spec, Outcome& out) : spec_(spec), out_(out) {}

    /** One rep: every cell in turn, checked. */
    std::vector<SysRun>
    rep(Tracer* tr)
    {
        Tracer::Scope span(tr, "perfledger.rep");
        std::vector<SysRun> runs;
        for (const Cell& c : spec_.cells) {
            std::unique_ptr<Workload> wl = c.make();
            runs.push_back(
                runSystem(c.cfg, *wl, c.limit, tr, spec_.cross_digest));
        }
        check(runs);
        return runs;
    }

    /** Host seconds to set up every cell once, without running. */
    double
    setupOnly() const
    {
        double sum = 0;
        for (const Cell& c : spec_.cells) {
            std::unique_ptr<Workload> wl = c.make();
            sum += timeSetup(c.cfg, *wl);
        }
        return sum;
    }

    std::uint64_t opsPerRep() const
    {
        return spec_.ops_per_cell * spec_.cells.size();
    }

  private:
    void
    check(const std::vector<SysRun>& runs)
    {
        const std::uint64_t ops = opsPerRep();
        out_.attempted += ops;
        std::vector<std::string> problems;
        std::string key;
        std::vector<ImageDigest> digests;
        for (const SysRun& r : runs) {
            if (!r.finished) {
                problems.push_back(std::string(fuzz::systemToken(r.kind)) +
                                   ": run did not finish");
            }
            key += determinismKey(r);
            digests.push_back(r.digest);
        }
        if (spec_.cross_digest && !digestsAgree(digests))
            problems.push_back("functional-image digests differ across "
                               "backends");
        if (key0_.empty())
            key0_ = key;
        else if (key != key0_)
            problems.push_back("deterministic stats differ between reps");
        if (!problems.empty()) {
            out_.correct = false;
            out_.failed += ops;
            out_.problems.insert(out_.problems.end(), problems.begin(),
                                 problems.end());
        }
    }

    const SysSpec& spec_;
    Outcome& out_;
    std::string key0_;
};

Outcome
runSysWorkload(const Options& o, const SysSpec& spec)
{
    Outcome out;
    SysBench bench(spec, out);
    const double ops = static_cast<double>(bench.opsPerRep());
    std::vector<double> rates;
    std::vector<double> setups;
    std::vector<SysRun> first;
    HostSpeed speed;
    auto untraced = [&] {
        std::vector<SysRun> runs;
        const double f = speed.bracket([&] { runs = bench.rep(nullptr); });
        double setup = 0;
        double run = 0;
        for (const SysRun& r : runs) {
            setup += r.setupS();
            run += r.run_s;
        }
        setups.push_back(setup * f);
        rates.push_back(ops / (run * f));
        if (first.empty())
            first = std::move(runs);
    };

    if (!o.trace) {
        const double t0 = now();
        sampleSetup(speed, kSetupBudgetS, setups,
                    [&] { return bench.setupOnly(); });
        out.reps = repeatFor(o.seconds - (now() - t0), 2, untraced);
        const SysRun* thy = findKind(first, SystemKind::ThyNvm);
        out.metrics = {
            {"ops_per_s", median(rates), "1/s"},
            {"setup_s", median(setups), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"sim_ms", simMs(thy->m.exec_time), "ms"},
            {"write_amp", thy->m.write_amp, "ratio"},
        };
    } else {
        out.reps = repeatFor(o.seconds / 2, 1, untraced);
        Tracer tracer;
        std::vector<std::vector<SysRun>> reps;
        std::vector<HostSample> host;
        std::vector<HarnessSample> harness;
        std::vector<double> traced_rates;
        setAllocCounting(true);
        out.reps += repeatFor(o.seconds / 2, 1, [&] {
            const double f = speed.bracket([&] {
                const Usage a = usageNow();
                const double s = now();
                reps.push_back(bench.rep(&tracer));
                host.push_back(hostDelta(a, usageNow(), now() - s));
            });
            harness.push_back(harnessSample(reps.back()));
            traced_rates.push_back(ops / (harness.back().run_s * f));
        });
        setAllocCounting(false);

        LayerMap layers;
        hostLayers(host, layers);
        harnessLayers(harness, layers);
        AllocCount allocs;
        for (const SysRun& r : reps.back()) {
            allocs.calls += r.allocs.calls;
            allocs.bytes += r.allocs.bytes;
        }
        layers["host.allocs_per_op"] =
            static_cast<double>(allocs.calls) / ops;
        layers["host.alloc_mb_per_op"] =
            static_cast<double>(allocs.bytes) / kMiB / ops;
        // Events of the core queue; every cell here is single-channel,
        // so that is every event.
        layers["sim.events_per_op"] = harness.back().events / ops;
        layers["workloads.next_calls_per_op"] =
            harness.back().next_calls / ops;
        std::vector<double> ns_per_event;
        for (const HarnessSample& h : harness)
            ns_per_event.push_back(ratio(h.run_s * 1e9, h.events));
        layers["sim.ns_per_event"] = median(ns_per_event);
        baselineLayers(reps, static_cast<double>(spec.ops_per_cell),
                       layers);
        modelLayers(*findKind(reps.back(), SystemKind::ThyNvm), layers);
        layers["trace.overhead_frac"] =
            median(rates) / median(traced_rates) - 1.0;
        layers["trace.spans"] = static_cast<double>(tracer.spans().size());
        layers["host.speed"] = speed.medianFactor();
        out.metrics = layerMetrics(layers);
        if (!o.trace_out.empty() && !tracer.writeJson(o.trace_out))
            out.problems.push_back("cannot write " + o.trace_out);
    }
    out.speed = speed.medianFactor();
    return out;
}

// ---------------------------------------------------------------------
// crash-fuzz-2ch.

/** Campaign sizing: one seed, rand, all five backends, last hits. */
struct FuzzSpec
{
    fuzz::FuzzerConfig fc;
    fuzz::CampaignOptions co;
};

FuzzSpec
fuzzSpec(std::uint64_t seed)
{
    FuzzSpec s;
    // Half the default access count: the per-case cost is dominated by
    // building, crashing and rebooting Systems, which this keeps.
    s.fc.total_accesses = 3000;
    s.co.seeds = {seed};
    s.co.workloads = {"rand"};
    s.co.first_and_last_hit = false;
    s.co.channels = 2;
    return s;
}

/**
 * Everything a campaign computes, as text: case and unreached counts,
 * the sites reached per system, every violation and the plan.
 */
std::string
campaignKey(const fuzz::CampaignResult& r)
{
    std::ostringstream os;
    os << "cases=" << r.cases << " not_reached=" << r.not_reached << "\n";
    for (const auto& [system, sites] : r.sites_by_system) {
        os << system << ":";
        for (const std::string& site : sites)
            os << " " << site;
        os << "\n";
    }
    for (const fuzz::CaseResult& v : r.violations)
        os << "violation " << v.repro << " " << v.detail << "\n";
    for (const std::string& repro : r.repros)
        os << repro << "\n";
    return os.str();
}

class FuzzBench
{
  public:
    FuzzBench(const FuzzSpec& spec, Outcome& out) : spec_(spec), out_(out)
    {
    }

    /**
     * One full campaign, run as one runCampaign call per backend, each
     * passed to @p around (which must call it once). The merged result
     * is what one call over all five backends returns; its violations
     * go to the log check() reads.
     */
    template <typename Around>
    fuzz::CampaignResult
    campaign(Around around)
    {
        fuzz::CampaignResult all;
        for (SystemKind k : spec_.co.systems) {
            fuzz::CampaignOptions co = spec_.co;
            co.systems = {k};
            fuzz::CampaignResult part;
            around([&] { part = fuzz::runCampaign(spec_.fc, co, &log_, 1); });
            mergeCampaign(all, std::move(part));
        }
        return all;
    }

    /**
     * The campaign's own uncrashed ThyNVM profile run: the workload and
     * System configuration that the campaign profiles for crash sites
     * and replays in every ThyNVM case. It gives sim_ms and write_amp.
     */
    SysRun
    profile(Tracer* tr)
    {
        MicroWorkload wl(params());
        return runSystem(config(SystemKind::ThyNvm), wl, spec_.fc.run_limit,
                         tr, false);
    }

    /** Host seconds to set up one System per campaign backend. */
    double
    setupOnly() const
    {
        double sum = 0;
        for (SystemKind k : spec_.co.systems) {
            MicroWorkload wl(params());
            sum += timeSetup(config(k), wl);
        }
        return sum;
    }

    /**
     * Check one rep: campaign @p r and profile run @p p. Each violation
     * or unreached case fails once; an unfinished profile run, or output
     * that differs from the first rep's, fails every case of the rep.
     */
    void
    check(const fuzz::CampaignResult& r, const SysRun& p)
    {
        out_.attempted += r.cases;
        std::vector<std::string> problems;
        if (r.cases == 0)
            problems.push_back("campaign planned no cases");
        if (failedCases(r) != 0) {
            problems.push_back(std::to_string(r.violations.size()) +
                               " violations, " +
                               std::to_string(r.not_reached) +
                               " unreached cases\n" + log_.str());
        }
        if (!p.finished)
            problems.push_back("profile run did not finish");
        const std::string key = campaignKey(r) + determinismKey(p);
        if (key0_.empty())
            key0_ = key;
        const bool repeats = key == key0_;
        if (!repeats)
            problems.push_back("campaign or profile output differs between "
                               "reps");
        log_.str("");
        if (!problems.empty()) {
            out_.correct = false;
            out_.failed +=
                repeats && p.finished ? failedCases(r) : r.cases;
            out_.problems.insert(out_.problems.end(), problems.begin(),
                                 problems.end());
        }
    }

  private:
    MicroWorkload::Params
    params() const
    {
        return fuzz::microParams(spec_.fc, spec_.co.seeds.front(), "rand");
    }

    SystemConfig
    config(SystemKind kind) const
    {
        SystemConfig cfg =
            fuzz::makeSystemConfig(spec_.fc, kind, true, spec_.co.channels);
        cfg.sim_threads = 1;
        return cfg;
    }

    const FuzzSpec& spec_;
    Outcome& out_;
    std::ostringstream log_;
    std::string key0_;
};

/** Host seconds of set-up sampled after each crash-fuzz campaign. */
constexpr double kSetupSliceS = 0.2;

Outcome
runCrashFuzz(const Options& o)
{
    Outcome out;
    const FuzzSpec spec = fuzzSpec(o.seed);
    FuzzBench bench(spec, out);
    std::vector<double> rates;
    std::vector<double> setups;
    std::optional<SysRun> first;
    HostSpeed speed;
    auto setup = [&] { return bench.setupOnly(); };
    auto untraced = [&] {
        // Reference seconds of the campaign, one backend at a time, so
        // that calibration passes come every second or two.
        double campaign_s = 0;
        const fuzz::CampaignResult r = bench.campaign([&](auto&& part) {
            double t = 0;
            const double f = speed.bracket([&] {
                t = now();
                part();
                t = now() - t;
            });
            campaign_s += t * f;
        });
        rates.push_back(static_cast<double>(r.cases) / campaign_s);
        const SysRun p = bench.profile(nullptr);
        bench.check(r, p);
        if (!first)
            first = p;
        // Set-up samples spread over the whole run, like the rates.
        sampleSetup(speed, kSetupSliceS, setups, setup);
    };

    if (!o.trace) {
        const double t0 = now();
        sampleSetup(speed, kSetupBudgetS, setups, setup);
        out.reps = repeatFor(o.seconds - (now() - t0), 2, untraced);
        out.metrics = {
            {"ops_per_s", median(rates), "1/s"},
            {"setup_s", median(setups), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"sim_ms", simMs(first->m.exec_time), "ms"},
            {"write_amp", first->m.write_amp, "ratio"},
        };
    } else {
        out.reps = repeatFor(o.seconds / 2, 1, untraced);
        Tracer tracer;
        LayerMap layers;
        setAllocCounting(true);
        const SysRun p = bench.profile(&tracer);
        harnessLayers({harnessSample({p})}, layers);
        modelLayers(p, layers);

        int camp_id = -1;
        fuzz::CampaignResult r;
        double campaign_s = 0;
        AllocCount allocs;
        const double f = speed.bracket([&] {
            const Usage a = usageNow();
            const AllocCount a0 = allocCount();
            const double t = now();
            {
                Tracer::Scope span(&tracer, "fuzz.campaign");
                camp_id = span.id();
                r = bench.campaign([](auto&& part) { part(); });
            }
            campaign_s = now() - t;
            allocs = allocsSince(a0);
            hostLayers({hostDelta(a, usageNow(), campaign_s)}, layers);
        });
        setAllocCounting(false);
        bench.check(r, p);
        ++out.reps;

        // Replay every planned case to time it on its own.
        std::map<std::string, std::vector<double>> by_kind;
        std::vector<double> case_ms;
        for (const std::string& repro : r.repros) {
            fuzz::FuzzCase c;
            if (!fuzz::parseRepro(repro, c)) {
                out.correct = false;
                out.problems.push_back("unparseable repro " + repro);
                continue;
            }
            const double s = now();
            const fuzz::CaseResult cr = fuzz::runCrashCase(spec.fc, c);
            const double e = now();
            tracer.add("fuzz.case", s, e, camp_id);
            if (cr.status != fuzz::CaseStatus::Ok) {
                out.correct = false;
                out.problems.push_back("replay failed: " + repro);
            }
            case_ms.push_back((e - s) * 1e3);
            by_kind[fuzz::systemToken(c.system)].push_back((e - s) * 1e3);
        }

        const double cases = static_cast<double>(r.cases);
        layers["host.allocs_per_op"] =
            ratio(static_cast<double>(allocs.calls), cases);
        layers["host.alloc_mb_per_op"] =
            ratio(static_cast<double>(allocs.bytes) / kMiB, cases);
        layers["fuzz.cases"] = cases;
        layers["fuzz.violations"] =
            static_cast<double>(r.violations.size());
        layers["fuzz.not_reached"] = static_cast<double>(r.not_reached);
        layers["fuzz.plan_s"] = campaign_s - tracer.total("fuzz.case");
        if (!case_ms.empty()) {
            layers["fuzz.case_ms_p50"] = percentile(case_ms, 0.5);
            layers["fuzz.case_ms_p95"] = percentile(case_ms, 0.95);
        }
        for (const auto& [kind, ms] : by_kind)
            layers["fuzz." + kind + ".case_ms_p50"] = median(ms);
        layers["trace.overhead_frac"] =
            median(rates) / ratio(cases, campaign_s * f) - 1.0;
        layers["trace.spans"] = static_cast<double>(tracer.spans().size());
        layers["host.speed"] = speed.medianFactor();
        out.metrics = layerMetrics(layers);
        if (!o.trace_out.empty() && !tracer.writeJson(o.trace_out))
            out.problems.push_back("cannot write " + o.trace_out);
    }
    out.speed = speed.medianFactor();
    return out;
}

} // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {
        "micro-thrash", "micro-resident", "kv-sweep", "crash-fuzz-2ch"};
    return names;
}

Outcome
runWorkload(const Options& o)
{
    const Usage u0 = usageNow();
    const double t0 = now();
    Outcome out;
    if (o.workload == "micro-thrash")
        out = runSysWorkload(o, microSpec(o.seed, false));
    else if (o.workload == "micro-resident")
        out = runSysWorkload(o, microSpec(o.seed, true));
    else if (o.workload == "kv-sweep")
        out = runSysWorkload(o, kvSpec(o.seed));
    else
        out = runCrashFuzz(o);
    const Usage u1 = usageNow();
    out.wall_s = now() - t0;
    out.cpu_s = (u1.user_s + u1.sys_s) - (u0.user_s + u0.sys_s);
    out.nivcsw = u1.nivcsw - u0.nivcsw;
    return out;
}

} // namespace perfledger
