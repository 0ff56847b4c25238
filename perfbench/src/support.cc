#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <numeric>
#include <sstream>

#include "common/random.hh"

// Allocation audit: every operator new of the benchmark binary (the
// repository's libraries included) bumps a per-thread counter, so a
// traced call reports how many allocations it made.  Replacing the
// global operator is why the counter lives in the benchmark's own
// binary and nowhere in the program.
namespace {
thread_local std::uint64_t tl_allocs = 0;

void *
countedAlloc(std::size_t n)
{
    ++tl_allocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace pb {

std::uint64_t
threadAllocs()
{
    return tl_allocs;
}

double
percentile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t i =
        rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::vector<std::size_t>
seededOrder(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    wo::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

std::string
workDir(const Options &opt, const std::string &leaf)
{
    namespace fs = std::filesystem;
    const fs::path p = fs::path(".bench_out") / opt.workload / "work" / leaf;
    std::error_code ec;
    fs::remove_all(p, ec);
    fs::create_directories(p, ec);
    return p.string();
}

// --- expected digests ---------------------------------------------------

Expected::Expected(const std::string &workload, const std::string &size)
    : path_("perfbench/expected/" + workload + ".tsv"), size_(size)
{
    std::ifstream in(path_);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string size, id, digest;
        if (!std::getline(ls, size, '\t') || !std::getline(ls, id, '\t') ||
            !std::getline(ls, digest))
            continue;
        if (size == size_)
            want_[id] = digest;
        else
            other_lines_.push_back(line);
    }
}

const std::string *
Expected::find(const std::string &id) const
{
    auto it = want_.find(id);
    return it == want_.end() ? nullptr : &it->second;
}

bool
Expected::check(const std::string &id, const std::string &digest,
                RunResult &res) const
{
    auto it = want_.find(id);
    if (it != want_.end() && it->second == digest)
        return true;
    res.mismatches.push_back(
        id + ": got " + digest + ", expected " +
        (it == want_.end() ? std::string("<no committed digest>")
                           : it->second));
    return false;
}

void
Expected::put(const std::string &id, const std::string &digest)
{
    recorded_[id] = digest;
}

void
Expected::save() const
{
    std::ofstream out(path_, std::ios::trunc);
    out << "# size\tid\tdigest  (written by: perfbench --record)\n";
    for (const std::string &l : other_lines_)
        out << l << "\n";
    for (const auto &[id, d] : recorded_)
        out << size_ << "\t" << id << "\t" << d << "\n";
}

// --- tracer -------------------------------------------------------------

Tracer::Tracer() : t0_(Clock::now()) { spans_.reserve(1u << 16); }

std::uint64_t
Tracer::nowNs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0_)
            .count());
}

std::uint32_t
Tracer::open(const char *name, std::uint64_t group)
{
    const std::uint32_t parent = stack_.empty() ? no_parent : stack_.back();
    const auto idx = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({name, nowNs(), 0, parent, group});
    stack_.push_back(idx);
    return idx;
}

void
Tracer::close(std::uint32_t idx)
{
    spans_[idx].end_ns = nowNs();
    if (!stack_.empty() && stack_.back() == idx)
        stack_.pop_back();
}

std::map<std::string, double>
Tracer::selfNs(std::size_t from) const
{
    std::vector<double> child(spans_.size(), 0.0);
    for (std::size_t i = from; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.parent != no_parent && s.parent >= from)
            child[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
    std::map<std::string, double> self;
    for (std::size_t i = from; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        self[s.name] += static_cast<double>(s.end_ns - s.start_ns) - child[i];
    }
    return self;
}

bool
Tracer::dump(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (const Span &s : spans_)
        std::fprintf(f,
                     "{\"name\":\"%s\",\"start_ns\":%llu,"
                     "\"end_ns\":%llu,\"parent\":%lld,\"group\":%llu}\n",
                     s.name,
                     static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns),
                     s.parent == no_parent ? -1LL
                                           : static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.group));
    return std::fclose(f) == 0;
}

} // namespace pb
