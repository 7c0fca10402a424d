#include "ledger.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef PERFLEDGER_BUILD_TYPE
#define PERFLEDGER_BUILD_TYPE "unknown"
#endif

namespace perfledger {

double
percentile(std::vector<double> xs, double q)
{
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

StatMap
parseStats(const std::string& dump)
{
    StatMap out;
    std::istringstream in(dump);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string name;
        std::string value;
        if (!(ls >> name >> value) || name == "#")
            continue;
        char* end = nullptr;
        const double v = std::strtod(value.c_str(), &end);
        if (end != value.c_str() + value.size())
            continue;
        out[name] = v;
    }
    return out;
}

namespace {

/**
 * Call @p fn with the value of "sys.ctrl.<name>" if present, else with
 * each "sys.ctrl.chN.<name>".
 */
template <typename Fn>
void
forEachCtrlValue(const StatMap& stats, const std::string& name, Fn fn)
{
    const std::string prefix = "sys.ctrl.";
    if (auto it = stats.find(prefix + name); it != stats.end()) {
        fn(it->second);
        return;
    }
    const std::string ch = prefix + "ch";
    for (auto it = stats.lower_bound(ch);
         it != stats.end() && it->first.compare(0, ch.size(), ch) == 0;
         ++it) {
        const std::string& key = it->first;
        std::size_t p = ch.size();
        while (p < key.size() && key[p] >= '0' && key[p] <= '9')
            ++p;
        if (p > ch.size() && p < key.size() && key[p] == '.' &&
            key.compare(p + 1, std::string::npos, name) == 0)
            fn(it->second);
    }
}

} // namespace

double
ctrlStat(const StatMap& stats, const std::string& name)
{
    double sum = 0;
    forEachCtrlValue(stats, name, [&](double v) { sum += v; });
    return sum;
}

double
ctrlHistMean(const StatMap& stats, const std::string& name)
{
    std::vector<double> counts;
    std::vector<double> means;
    forEachCtrlValue(stats, name + "::count",
                     [&](double v) { counts.push_back(v); });
    forEachCtrlValue(stats, name + "::mean",
                     [&](double v) { means.push_back(v); });
    double n = 0;
    double weighted = 0;
    for (std::size_t i = 0; i < counts.size() && i < means.size(); ++i) {
        n += counts[i];
        weighted += counts[i] * means[i];
    }
    return n > 0 ? weighted / n : 0.0;
}

double
statOr0(const StatMap& stats, const std::string& name)
{
    auto it = stats.find(name);
    return it == stats.end() ? 0.0 : it->second;
}

ImageDigest
digestPages(const std::vector<thynvm::Addr>& pages,
            const thynvm::FunctionalView& view)
{
    constexpr std::uint64_t kPrime = 1099511628211ull;
    constexpr std::size_t kPage = 4096;
    ImageDigest d;
    d.hash = 14695981039346656037ull;
    auto mix = [&](const std::uint8_t* p, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
            d.hash = (d.hash ^ p[i]) * kPrime;
    };
    std::vector<std::uint8_t> buf(kPage);
    for (thynvm::Addr a : pages) {
        view(a, buf.data(), kPage);
        if (std::all_of(buf.begin(), buf.end(),
                        [](std::uint8_t b) { return b == 0; }))
            continue;
        std::uint8_t addr_bytes[sizeof(a)];
        std::memcpy(addr_bytes, &a, sizeof(a));
        mix(addr_bytes, sizeof(a));
        mix(buf.data(), kPage);
        ++d.pages;
    }
    return d;
}

bool
digestsAgree(const std::vector<ImageDigest>& digests)
{
    return !digests.empty() &&
           std::all_of(digests.begin(), digests.end(),
                       [&](const ImageDigest& d) {
                           return d == digests.front();
                       });
}

std::uint64_t
failedCases(const thynvm::fuzz::CampaignResult& r)
{
    return r.violations.size() + r.not_reached;
}

void
mergeCampaign(thynvm::fuzz::CampaignResult& into,
              thynvm::fuzz::CampaignResult&& part)
{
    into.cases += part.cases;
    into.not_reached += part.not_reached;
    for (auto& v : part.violations)
        into.violations.push_back(std::move(v));
    for (auto& [system, sites] : part.sites_by_system)
        into.sites_by_system[system].insert(sites.begin(), sites.end());
    for (auto& repro : part.repros)
        into.repros.push_back(std::move(repro));
}

namespace {

std::string
cpuBrand()
{
#if defined(__x86_64__) || defined(__i386__)
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        unsigned regs[12] = {};
        for (unsigned i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        }
        char brand[sizeof(regs) + 1] = {};
        std::memcpy(brand, regs, sizeof(regs));
        std::string s(brand);
        const std::size_t b = s.find_first_not_of(' ');
        const std::size_t e = s.find_last_not_of(' ');
        if (b != std::string::npos)
            return s.substr(b, e - b + 1);
    }
#endif
    return "unknown";
}

} // namespace

Fingerprint
hostFingerprint()
{
    Fingerprint f;
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    f.nproc = n > 0 ? static_cast<unsigned>(n) : 0;
    f.cpu = cpuBrand();
#if defined(__clang__)
    f.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    f.compiler = "gcc " __VERSION__;
#else
    f.compiler = "unknown";
#endif
    f.build_type = PERFLEDGER_BUILD_TYPE;
    return f;
}

Usage
usageNow()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    Usage u;
    u.user_s = secs(ru.ru_utime);
    u.sys_s = secs(ru.ru_stime);
    u.minflt = static_cast<std::uint64_t>(ru.ru_minflt);
    u.nivcsw = static_cast<std::uint64_t>(ru.ru_nivcsw);
    u.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return u;
}

Tracer::Scope::Scope(Tracer* t, const char* name) : t_(t)
{
    if (t_ == nullptr)
        return;
    const int parent = t_->open_.empty() ? -1 : t_->open_.back();
    id_ = t_->add(name, now(), 0, parent);
    t_->open_.push_back(id_);
}

Tracer::Scope::~Scope()
{
    if (t_ == nullptr)
        return;
    t_->spans_[static_cast<std::size_t>(id_)].end = now();
    t_->open_.pop_back();
}

int
Tracer::add(const std::string& name, double start, double end, int parent)
{
    spans_.push_back(Span{name, start, end, parent});
    return static_cast<int>(spans_.size() - 1);
}

double
Tracer::total(const std::string& name) const
{
    double sum = 0;
    for (const Span& s : spans_) {
        if (s.name == name)
            sum += s.end - s.start;
    }
    return sum;
}

bool
Tracer::writeJson(const std::string& path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    os << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        os << "  {\"id\": " << i << ", \"name\": " << jsonString(s.name)
           << ", \"start_s\": " << jsonNumber(s.start - t0)
           << ", \"end_s\": " << jsonNumber(s.end - t0)
           << ", \"parent\": " << s.parent << "}"
           << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    return static_cast<bool>(os);
}

bool
TimedWorkload::next(thynvm::WorkOp& op)
{
    const auto t0 = std::chrono::steady_clock::now();
    const bool more = inner_.next(op);
    seconds_ += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    ++calls_;
    return more;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char esc[8];
            std::snprintf(esc, sizeof(esc), "\\u%04x", c);
            out += esc;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric>& metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        os << (i ? ", " : "") << jsonString(m.name)
           << ": {\"value\": " << jsonNumber(m.value)
           << ", \"unit\": " << jsonString(m.unit) << "}";
    }
    os << "}}";
    return os.str();
}

} // namespace perfledger
