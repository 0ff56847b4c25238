#include "stats.hh"

#include <algorithm>
#include <cmath>

#include "logging.hh"

namespace wo {

void
Histogram::sample(std::uint64_t v)
{
    ++count_;
    sum_ += v;
    max_ = std::max(max_, v);
    min_ = std::min(min_, v);
    samples_.push_back(v);
    sorted_ = false;
    shown_ = true;
}

double
Histogram::mean() const
{
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
}

std::uint64_t
Histogram::percentile(double p) const
{
    if (samples_.empty())
        return 0;
    p = std::clamp(p, 0.0, 100.0);
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    const std::size_t idx = static_cast<std::size_t>(std::llround(rank));
    return samples_[std::min(idx, samples_.size() - 1)];
}

std::vector<Histogram::Bucket>
Histogram::cumulativeBuckets() const
{
    std::vector<Bucket> out;
    if (samples_.empty())
        return out;
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    std::size_t i = 0;
    for (std::uint64_t le = 1;; le <<= 1) {
        while (i < samples_.size() && samples_[i] <= le)
            ++i;
        out.push_back({le, i});
        if (le >= max_ || le > (~std::uint64_t{0} >> 1))
            break;
    }
    return out;
}

void
Histogram::reset()
{
    count_ = 0;
    sum_ = 0;
    max_ = 0;
    min_ = ~std::uint64_t{0};
    samples_.clear();
    sorted_ = true;
}

void
StatGroup::resetAll()
{
    for (auto &kv : counters_)
        kv.second.reset();
    for (auto &kv : hists_)
        kv.second.reset();
}

void
StatGroup::clear()
{
    for (auto &kv : counters_)
        kv.second = Counter{};
    for (auto &kv : hists_) {
        kv.second.reset(); // keeps the sample storage
        kv.second.shown_ = false;
    }
}

std::string
StatGroup::dump() const
{
    std::string out;
    for (const auto &kv : counters()) {
        out += strprintf("%s.%s %llu\n", name_.c_str(), kv.first.c_str(),
                         static_cast<unsigned long long>(kv.second.value()));
    }
    for (const auto &kv : histograms()) {
        const Histogram &h = kv.second;
        out += strprintf(
            "%s.%s count=%llu mean=%.2f min=%llu max=%llu p50=%llu p99=%llu\n",
            name_.c_str(), kv.first.c_str(),
            static_cast<unsigned long long>(h.count()), h.mean(),
            static_cast<unsigned long long>(h.min()),
            static_cast<unsigned long long>(h.max()),
            static_cast<unsigned long long>(h.percentile(50)),
            static_cast<unsigned long long>(h.percentile(99)));
    }
    return out;
}

} // namespace wo
