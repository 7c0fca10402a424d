/**
 * @file
 * Crash fuzzer implementation.
 */

#include "fuzz/fuzzer.hh"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <optional>
#include <ostream>
#include <sstream>

#include "common/parallel.hh"

namespace thynvm {
namespace fuzz {

// ---------------------------------------------------------------------
// RecordingWorkload.
// ---------------------------------------------------------------------

std::vector<std::uint8_t>
RecordingWorkload::snapshot() const
{
    const std::vector<std::uint8_t> inner = inner_.snapshot();
    std::vector<std::uint8_t> blob(8 + inner.size());
    std::memcpy(blob.data(), &ops_, 8);
    std::memcpy(blob.data() + 8, inner.data(), inner.size());
    snapshot_counts_.push_back(ops_);
    return blob;
}

void
RecordingWorkload::restore(const std::vector<std::uint8_t>& blob)
{
    panic_if(blob.size() < 8, "recording snapshot too short");
    std::memcpy(&restored_, blob.data(), 8);
    inner_.restore(std::vector<std::uint8_t>(blob.begin() + 8,
                                             blob.end()));
    ops_ = restored_;
    was_restored_ = true;
}

void
applyStores(std::vector<std::uint8_t>& image,
            const std::vector<StoreRecord>& stores,
            std::uint64_t op_limit)
{
    for (const StoreRecord& s : stores) {
        if (s.op_index >= op_limit)
            break;
        panic_if(s.addr + s.size > image.size(),
                 "golden store out of range");
        std::memcpy(image.data() + s.addr, s.data.data(), s.size);
    }
}

// ---------------------------------------------------------------------
// Repro strings.
// ---------------------------------------------------------------------

const char*
systemToken(SystemKind kind)
{
    switch (kind) {
      case SystemKind::IdealDram: return "ideal-dram";
      case SystemKind::IdealNvm: return "ideal-nvm";
      case SystemKind::Journal: return "journal";
      case SystemKind::Shadow: return "shadow";
      case SystemKind::ThyNvm: return "thynvm";
      case SystemKind::Icl: return "icl";
      case SystemKind::Incremental: return "incremental";
    }
    return "unknown";
}

bool
systemFromToken(const std::string& tok, SystemKind& out)
{
    for (SystemKind k : kAllSystemKinds) {
        if (tok == systemToken(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

std::string
formatRepro(const FuzzCase& c)
{
    std::ostringstream os;
    os << "seed=" << c.seed << ":wl=" << c.workload
       << ":sys=" << systemToken(c.system) << ":site=" << c.site
       << ":hit=" << c.hit << ":delta=" << c.delta
       << ":fp=" << (c.fast_path ? "on" : "off");
    // Only multi-channel cases carry the topology; the default (0,
    // env-deferred) keeps pre-existing repro lists byte-identical.
    if (c.channels != 0)
        os << ":ch=" << c.channels;
    return os.str();
}

bool
parseRepro(const std::string& repro, FuzzCase& out)
{
    FuzzCase c;
    bool have_seed = false, have_site = false;
    std::size_t pos = 0;
    while (pos <= repro.size()) {
        const std::size_t end = repro.find(':', pos);
        const std::string field =
            repro.substr(pos, end == std::string::npos ? std::string::npos
                                                       : end - pos);
        pos = end == std::string::npos ? repro.size() + 1 : end + 1;
        if (field.empty())
            continue;
        const std::size_t eq = field.find('=');
        if (eq == std::string::npos)
            return false;
        const std::string key = field.substr(0, eq);
        const std::string val = field.substr(eq + 1);
        try {
            if (key == "seed") {
                c.seed = std::stoull(val);
                have_seed = true;
            } else if (key == "wl") {
                c.workload = val;
            } else if (key == "sys") {
                if (!systemFromToken(val, c.system))
                    return false;
            } else if (key == "site") {
                c.site = val;
                have_site = true;
            } else if (key == "hit") {
                c.hit = std::stoull(val);
            } else if (key == "delta") {
                c.delta = std::stoull(val);
            } else if (key == "fp") {
                if (val != "on" && val != "off")
                    return false;
                c.fast_path = (val == "on");
            } else if (key == "ch") {
                c.channels = static_cast<unsigned>(std::stoul(val));
                // Only topologies a System can build (0 = default).
                if ((c.channels & (c.channels - 1)) != 0)
                    return false;
            } else {
                return false;
            }
        } catch (...) {
            return false;
        }
    }
    if (!have_seed || !have_site)
        return false;
    out = c;
    return true;
}

// ---------------------------------------------------------------------
// Case setup.
// ---------------------------------------------------------------------

MicroWorkload::Params
microParams(const FuzzerConfig& fc, std::uint64_t seed,
            const std::string& workload)
{
    MicroWorkload::Params p;
    p.seed = seed;
    p.base = 0;
    p.array_bytes = fc.array_bytes;
    p.total_accesses = fc.total_accesses;
    if (workload == "stream") {
        p.pattern = MicroWorkload::Pattern::Streaming;
    } else if (workload == "slide") {
        // A tight window with many accesses per slide concentrates
        // stores so pages cross the promotion threshold, exercising the
        // page-writeback pipeline (and its crash sites).
        p.pattern = MicroWorkload::Pattern::Sliding;
        p.window_bytes = 8 * 1024;
        p.accesses_per_window = 256;
    } else {
        panic_if(workload != "rand", "unknown workload token '%s'",
                 workload.c_str());
        p.pattern = MicroWorkload::Pattern::Random;
    }
    return p;
}

SystemConfig
makeSystemConfig(const FuzzerConfig& fc, SystemKind kind, bool fast_path,
                 unsigned channels)
{
    SystemConfig cfg;
    cfg.kind = kind;
    cfg.channels = channels;
    cfg.phys_size = fc.phys_size;
    cfg.epoch_length = fc.epoch_length;
    cfg.thynvm.btt_entries = fc.btt_entries;
    cfg.thynvm.ptt_entries = fc.ptt_entries;
    cfg.thynvm.overflow_entries = fc.overflow_entries;
    cfg.thynvm.overflow_stall_watermark = fc.overflow_stall_watermark;
    cfg.thynvm.debug_drop_btt_entry = fc.debug_drop_btt_entry;
    cfg.cpu.use_fast_path = fast_path;
    // Small caches keep the epoch-boundary flush (and thus each case)
    // short without changing any crash-consistency behavior.
    cfg.l1 = Cache::Params{16 * 1024, 4, 4 * 333};
    cfg.l2 = Cache::Params{64 * 1024, 8, 12 * 333};
    cfg.l3 = Cache::Params{256 * 1024, 8, 28 * 333};
    return cfg;
}

// ---------------------------------------------------------------------
// The recovery oracle.
// ---------------------------------------------------------------------

namespace {

/**
 * Streaming form of imageDigest(): FNV-1a over 64-bit words, then the
 * tail bytes. Every add() but the last must pass a multiple of 8 bytes.
 */
class WordFnv
{
  public:
    void
    add(const std::uint8_t* p, std::size_t len)
    {
        const std::size_t words = len / 8;
        for (std::size_t i = 0; i < words; ++i) {
            std::uint64_t w;
            std::memcpy(&w, p + 8 * i, 8);
            h_ = (h_ ^ w) * kPrime;
        }
        for (std::size_t i = 8 * words; i < len; ++i)
            h_ = (h_ ^ p[i]) * kPrime;
    }

    /**
     * add() of @p len zero bytes in O(log len): a zero word or byte
     * only multiplies the state by the prime, so the run multiplies it
     * by one power of the prime.
     */
    void
    addZeros(std::size_t len)
    {
        std::uint64_t steps = len / 8 + len % 8;
        std::uint64_t factor = 1;
        for (std::uint64_t b = kPrime; steps != 0; steps >>= 1, b *= b) {
            if (steps & 1)
                factor *= b;
        }
        h_ *= factor;
    }

    std::uint64_t value() const { return h_; }

    /** The initial state: imageDigest() of an empty image. */
    static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;

  private:
    static constexpr std::uint64_t kPrime = 0x100000001b3ull;
    std::uint64_t h_ = kOffsetBasis;
};

/**
 * Sparse copy of the full physical image, read through the system's
 * functional view. Only touched pages are pulled (untouched pages read
 * zero by the touched-set contract), so capture cost scales with the
 * workload footprint, not the machine size.
 */
PagedBytes
capturePaged(System& sys, std::size_t phys_size)
{
    PagedBytes img(phys_size);
    FunctionalView view = sys.functionalView();
    std::uint8_t buf[kPageSize];
    for (Addr page : sys.touchedPhysPages()) {
        const std::size_t len =
            std::min<std::size_t>(kPageSize, phys_size - page);
        view(page, buf, len);
        img.write(page, buf, len);
    }
    return img;
}

/** applyStores() onto a sparse image. */
void
applyStores(PagedBytes& image, const std::vector<StoreRecord>& stores,
            std::uint64_t op_limit)
{
    for (const StoreRecord& s : stores) {
        if (s.op_index >= op_limit)
            break;
        panic_if(s.addr + s.size > image.size(),
                 "golden store out of range");
        image.write(s.addr, s.data.data(), s.size);
    }
}

/**
 * Compare @p sys's software-visible image with @p golden page by page,
 * folding the image into @p digest exactly as imageDigest() folds the
 * dense image. Pages that neither side touched are zero on both and
 * cost one multiply. With @p dense non-null the image is also
 * materialized there (runCrashCase's callers compare images).
 *
 * @return the first differing byte offset, or npos.
 */
std::size_t
compareImage(System& sys, const PagedBytes& golden, std::uint64_t& digest,
             std::vector<std::uint8_t>* dense)
{
    constexpr std::size_t npos = static_cast<std::size_t>(-1);
    const std::size_t phys = golden.size();
    FunctionalView view = sys.functionalView();
    const std::vector<Addr> touched = sys.touchedPhysPages();
    auto next = touched.begin();
    if (dense != nullptr)
        dense->assign(phys, 0);
    WordFnv fnv;
    std::size_t mismatch = npos;
    std::uint8_t img[kPageSize];
    std::uint8_t gold[kPageSize];
    for (Addr page = 0; page < phys; page += kPageSize) {
        const std::size_t len =
            std::min<std::size_t>(kPageSize, phys - page);
        const bool live = next != touched.end() && *next == page;
        if (live)
            ++next;
        if (!live && !golden.touched(page)) {
            fnv.addZeros(len);
            continue;
        }
        if (live)
            view(page, img, len);
        else
            std::memset(img, 0, len);
        if (mismatch == npos) {
            golden.read(page, gold, len);
            if (std::memcmp(img, gold, len) != 0) {
                std::size_t i = 0;
                while (img[i] == gold[i])
                    ++i;
                mismatch = page + i;
            }
        }
        fnv.add(img, len);
        if (dense != nullptr && live)
            std::memcpy(dense->data() + page, img, len);
    }
    digest = fnv.value();
    return mismatch;
}

/** Digests of the images the oracle checked; an image never captured
 *  digests as empty. */
struct Digests
{
    std::uint64_t recovered = WordFnv::kOffsetBasis;
    std::uint64_t final_image = WordFnv::kOffsetBasis;
};

/** The outcome of @p r with its images already reduced to @p d. */
CaseOutcome
outcomeWith(const CaseResult& r, const Digests& d)
{
    CaseOutcome o;
    o.status = r.status;
    o.crash_tick = r.crash_tick;
    o.commits_before = r.commits_before;
    o.restored_ops = r.restored_ops;
    o.recovered_digest = d.recovered;
    o.final_digest = d.final_image;
    return o;
}

/**
 * Life 2 of case @p c and checks A/B/C: the one oracle, shared by
 * runCrashCase() and the campaign walk. Life 1 hands over @p base (its
 * image right after start()), @p wl1 (its stores, and its snapshots
 * and @p res's commit count as they stood at the cut) and @p nvm, the
 * NVM image that survived the crash. Reboots a System on @p nvm,
 * recovers it, checks it against a sparse golden image (a COW copy of
 * @p base plus stores) and resumes it to the end. Fills @p res's
 * verdict; with @p keep_images also its dense images.
 */
Digests
recoverAndCheck(const FuzzerConfig& fc, const FuzzCase& c,
                const PagedBytes& base, const RecordingWorkload& wl1,
                std::shared_ptr<BackingStore> nvm, bool keep_images,
                CaseResult& res)
{
    Digests d;
    MicroWorkload inner2(microParams(fc, c.seed, c.workload));
    RecordingWorkload wl2(inner2);
    SystemConfig cfg2 = makeSystemConfig(fc, c.system, c.fast_path,
                                         c.channels);
    System sys2(cfg2, wl2, std::move(nvm));
    sys2.recoverAndResume();

    const std::uint64_t restored =
        wl2.wasRestored() ? wl2.restoredCount() : 0;
    res.restored_ops = restored;

    // Check B: the restored op count must be a snapshot actually taken
    // at an epoch boundary, no older than the last commit seen before
    // the crash. (A commit whose header became durable right at the
    // crash tick may be ahead of the completed-epochs counter, so
    // membership in the snapshot list is the ground truth.)
    const std::vector<std::uint64_t>& snaps = wl1.snapshotCounts();
    bool ok_b;
    if (restored == 0) {
        ok_b = res.commits_before == 0;
    } else {
        ok_b = std::find(snaps.begin(), snaps.end(), restored) !=
               snaps.end();
        if (ok_b && res.commits_before > 0) {
            panic_if(res.commits_before > snaps.size(),
                     "more commits than snapshots");
            ok_b = restored >= snaps[res.commits_before - 1];
        }
    }
    if (!ok_b) {
        std::ostringstream os;
        os << "restored op count " << restored
           << " is not a committed epoch boundary (commits before crash: "
           << res.commits_before << ")";
        res.status = CaseStatus::Violation;
        res.detail = os.str();
        return d;
    }

    // Check A: recovered image == golden image of the restored epoch.
    PagedBytes golden = base;
    applyStores(golden, wl1.stores(), restored);
    std::size_t off =
        compareImage(sys2, golden, d.recovered,
                     keep_images ? &res.recovered_image : nullptr);
    if (off != static_cast<std::size_t>(-1)) {
        std::ostringstream os;
        os << "recovered image diverges from the golden epoch image at "
           << "offset 0x" << std::hex << off << std::dec
           << " (restored ops " << restored << ")";
        res.status = CaseStatus::Violation;
        res.detail = os.str();
        return d;
    }

    // Check C: resume and run to completion; the final image must be
    // the golden prefix plus everything stored after recovery.
    sys2.run(fc.run_limit);
    if (!sys2.finished()) {
        res.status = CaseStatus::Violation;
        res.detail = "resumed execution did not complete within the "
                     "run limit";
        return d;
    }
    applyStores(golden, wl2.stores(), ~0ull);
    off = compareImage(sys2, golden, d.final_image,
                       keep_images ? &res.final_image : nullptr);
    if (off != static_cast<std::size_t>(-1)) {
        std::ostringstream os;
        os << "final image after resume diverges from the golden image "
           << "at offset 0x" << std::hex << off << std::dec;
        res.status = CaseStatus::Violation;
        res.detail = os.str();
    }
    return d;
}

/**
 * Crash tick of @p c's armed plan, learned from a full armed profile
 * run of an identical System; nullopt if the plan never fires.
 */
std::optional<Tick>
profileCut(const FuzzerConfig& fc, const FuzzCase& c)
{
    CrashPointRegistry reg;
    reg.arm(c.site, c.hit, c.delta);
    MicroWorkload inner(microParams(fc, c.seed, c.workload));
    RecordingWorkload wl(inner);
    SystemConfig cfg = makeSystemConfig(fc, c.system, c.fast_path,
                                        c.channels);
    cfg.crash_points = &reg;
    System sys(cfg, wl);
    sys.start();
    sys.run(fc.run_limit);
    if (!reg.fired())
        return std::nullopt;
    return reg.crashTick();
}

/** True when @p a and @p b share life 1: same seed, workload, system,
 *  fast-path mode and topology. */
bool
sameLifeOne(const FuzzCase& a, const FuzzCase& b)
{
    return a.seed == b.seed && a.workload == b.workload &&
           a.system == b.system && a.fast_path == b.fast_path &&
           a.channels == b.channels;
}

} // namespace

// ---------------------------------------------------------------------
// One crash case, and one walk.
// ---------------------------------------------------------------------

CaseResult
runCrashCase(const FuzzerConfig& fc, const FuzzCase& c)
{
    CaseResult res;
    res.repro = formatRepro(c);

    // Life 1: run the seeded workload into the armed crash plan.
    MicroWorkload inner1(microParams(fc, c.seed, c.workload));
    RecordingWorkload wl1(inner1);
    SystemConfig cfg = makeSystemConfig(fc, c.system, c.fast_path,
                                        c.channels);
    CrashPointRegistry reg;
    reg.arm(c.site, c.hit, c.delta);
    cfg.crash_points = &reg;
    System sys(cfg, wl1);

    // A multi-channel run executes on the sharded kernel, which cannot
    // be single-stepped against a fired() poll. Instead it learns the
    // crash tick from an armed profile run and replays a fresh machine
    // deterministically up to it.
    std::optional<Tick> cut;
    if (sys.channels() > 1) {
        cut = profileCut(fc, c);
        if (!cut || *cut >= fc.run_limit) {
            res.status = CaseStatus::NotReached;
            return res;
        }
    }
    sys.start();
    const PagedBytes base = capturePaged(sys, fc.phys_size);
    if (!cut) {
        EventQueue& eq = sys.eventq();
        while (!sys.finished() && !reg.fired() && !eq.empty() &&
               eq.now() < fc.run_limit) {
            eq.step();
        }
        if (!reg.fired()) {
            res.status = CaseStatus::NotReached;
            return res;
        }
        cut = reg.crashTick();
    }
    // Land the power failure on a tick boundary: run every event at or
    // before the planned crash tick, then pull the plug.
    sys.runTo(*cut);
    res.crash_tick = sys.eventq().now();
    res.commits_before = sys.controller().completedEpochs();
    recoverAndCheck(fc, c, base, wl1, sys.crash(), true, res);
    return res;
}

WalkResult
runCrashWalk(const FuzzerConfig& fc, std::span<const FuzzCase> cases,
             std::span<const Tick> cuts, bool keep_images)
{
    panic_if(cuts.size() != cases.size(),
             "crash walk: %zu cases but %zu cuts", cases.size(),
             cuts.size());
    WalkResult w;
    w.results.resize(cases.size());
    w.outcomes.resize(cases.size());
    if (cases.empty())
        return w;
    const FuzzCase& c0 = cases.front();
    for (const FuzzCase& c : cases) {
        panic_if(!sameLifeOne(c, c0),
                 "crash walk mixes life-1 combos: %s vs %s",
                 formatRepro(c).c_str(), formatRepro(c0).c_str());
    }
    std::vector<std::size_t> order(cases.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return cuts[a] < cuts[b];
                     });

    // Life 1, once: no registry is attached (the cuts are known, and
    // an unarmed run behaves identically to an armed one).
    MicroWorkload inner(microParams(fc, c0.seed, c0.workload));
    RecordingWorkload wl(inner);
    System sys(makeSystemConfig(fc, c0.system, c0.fast_path, c0.channels),
               wl);
    sys.start();
    const PagedBytes base = capturePaged(sys, fc.phys_size);
    for (std::size_t i : order) {
        CaseResult& res = w.results[i];
        res.repro = formatRepro(cases[i]);
        // runCrashCase's multi-channel rule: a cut at or past the run
        // limit is never reached.
        if (sys.channels() > 1 && cuts[i] >= fc.run_limit) {
            res.status = CaseStatus::NotReached;
            w.outcomes[i] = outcomeWith(res, Digests{});
            continue;
        }
        sys.runTo(cuts[i]);
        res.crash_tick = sys.eventq().now();
        res.commits_before = sys.controller().completedEpochs();
        // Life 2 runs before life 1 moves on, so check B reads the
        // snapshot list as it stood at the cut.
        const Digests d = recoverAndCheck(fc, cases[i], base, wl,
                                          sys.crashImage(), keep_images,
                                          res);
        w.outcomes[i] = outcomeWith(res, d);
    }
    return w;
}

std::uint64_t
imageDigest(const std::vector<std::uint8_t>& image)
{
    // FNV-1a steps over 64-bit words, then the tail bytes: an eighth of
    // the multiplies of the bytewise hash, and each step is still a
    // bijection of the state, so any single-word change shows.
    WordFnv fnv;
    fnv.add(image.data(), image.size());
    return fnv.value();
}

CaseOutcome
outcomeOf(const CaseResult& r)
{
    return outcomeWith(r, Digests{imageDigest(r.recovered_image),
                                  imageDigest(r.final_image)});
}

// ---------------------------------------------------------------------
// Site enumeration and campaigns.
// ---------------------------------------------------------------------

SiteMap
enumerateSites(const FuzzerConfig& fc, std::uint64_t seed,
               const std::string& workload, SystemKind kind,
               bool fast_path, unsigned channels)
{
    CrashPointRegistry reg; // unarmed: counts only
    MicroWorkload inner(microParams(fc, seed, workload));
    RecordingWorkload wl(inner);
    SystemConfig cfg = makeSystemConfig(fc, kind, fast_path, channels);
    cfg.crash_points = &reg;
    System sys(cfg, wl);
    sys.start();
    sys.run(fc.run_limit);
    return reg.sites();
}

CampaignResult
runCampaign(const FuzzerConfig& fc, const CampaignOptions& opts,
            std::ostream* log, unsigned threads)
{
    CampaignResult result;
    std::vector<bool> fp_modes;
    fp_modes.push_back(true);
    if (opts.both_fast_path_modes)
        fp_modes.push_back(false);

    // Phase 1: the (seed, workload, system, mode) combos, in the
    // nested order the serial campaign has always used.
    struct Combo
    {
        std::uint64_t seed;
        std::string workload;
        SystemKind kind;
        bool fp;
    };
    std::vector<Combo> combos;
    for (std::uint64_t seed : opts.seeds) {
        for (const std::string& workload : opts.workloads) {
            for (SystemKind kind : opts.systems) {
                for (bool fp : fp_modes)
                    combos.push_back(Combo{seed, workload, kind, fp});
            }
        }
    }

    // Phase 2: profile runs enumerate each combo's crash sites. Every
    // run owns its System outright, so combos fan across threads; the
    // per-combo result is deterministic, so the fan-out is too.
    std::vector<SiteMap> sites(combos.size());
    parallelFor(
        combos.size(),
        [&](std::size_t i) {
            const Combo& co = combos[i];
            sites[i] = enumerateSites(fc, co.seed, co.workload, co.kind,
                                      co.fp, opts.channels);
        },
        threads);

    // Phase 3: flatten the crash plan, again in the serial order. The
    // plan — and with it every repro string — is a pure function of
    // the options, independent of the thread count. Each case's crash
    // tick comes straight from the enumeration: the combo's run is
    // deterministic, so an armed replay would fire at the planned hit
    // at exactly the tick the enumeration recorded for it.
    std::vector<FuzzCase> plan;
    std::vector<Tick> cuts;
    // Combo i's cases are plan[first_case[i], first_case[i + 1]).
    std::vector<std::size_t> first_case;
    for (std::size_t i = 0; i < combos.size(); ++i) {
        const Combo& co = combos[i];
        first_case.push_back(plan.size());
        auto& reached = result.sites_by_system[systemToken(co.kind)];
        for (const auto& [site, stats] : sites[i]) {
            reached.insert(site);
            std::vector<std::uint64_t> hit_plan = {stats.hits};
            if (opts.first_and_last_hit && stats.hits > 1)
                hit_plan.push_back(1);
            for (std::uint64_t hit : hit_plan) {
                const Tick hit_tick =
                    hit == stats.hits ? stats.last_tick : stats.first_tick;
                for (Tick delta : opts.deltas) {
                    FuzzCase c;
                    c.seed = co.seed;
                    c.workload = co.workload;
                    c.system = co.kind;
                    c.site = site;
                    c.hit = hit;
                    c.delta = delta;
                    c.fast_path = co.fp;
                    c.channels = opts.channels;
                    plan.push_back(std::move(c));
                    cuts.push_back(hit_tick + delta);
                }
            }
        }
    }

    first_case.push_back(plan.size());

    // Phase 4: one walk per combo, fanned across threads. A walk runs
    // its combo's life 1 once, in cut order, and at each cut hands the
    // surviving image to that case's life 2 (runCrashWalk). It keeps
    // digests, never images, so a worker holds at most two Systems and
    // two sparse images at a time.
    std::vector<CaseResult> case_results(plan.size());
    result.outcomes.resize(plan.size());
    parallelFor(
        combos.size(),
        [&](std::size_t i) {
            const std::size_t lo = first_case[i];
            const std::size_t n = first_case[i + 1] - lo;
            WalkResult w =
                runCrashWalk(fc, std::span(plan).subspan(lo, n),
                             std::span(cuts).subspan(lo, n), false);
            for (std::size_t k = 0; k < n; ++k) {
                case_results[lo + k] = std::move(w.results[k]);
                result.outcomes[lo + k] = w.outcomes[k];
            }
        },
        threads);

    // Phase 5: aggregate in plan order, so the summary, the violation
    // list, and the log stream are identical for any thread count.
    for (CaseResult& r : case_results) {
        ++result.cases;
        result.repros.push_back(r.repro);
        if (r.status == CaseStatus::NotReached) {
            ++result.not_reached;
        } else if (r.status == CaseStatus::Violation) {
            if (log) {
                *log << "VIOLATION " << r.repro << "\n  " << r.detail
                     << "\n";
            }
            result.violations.push_back(std::move(r));
        }
    }
    return result;
}

} // namespace fuzz
} // namespace thynvm
