/**
 * @file
 * Lightweight statistics collection for the timed simulator and benches.
 *
 * A StatGroup owns a set of named scalar counters and histograms.  The timed
 * components (CPUs, caches, directory, network) register their statistics in
 * a group and the benchmark harness formats them; nothing here is meant to
 * be clever, only uniform and printable.
 */

#ifndef WO_COMMON_STATS_HH
#define WO_COMMON_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace wo {

/** A named monotonically adjustable scalar statistic. */
class Counter
{
  public:
    Counter() = default;

    /** Add @p delta (default 1) to the counter. */
    void inc(std::uint64_t delta = 1) { value_ += delta; }

    /** Overwrite the counter (for sampled gauges). */
    void set(std::uint64_t v) { value_ = v; }

    /** Current value. */
    std::uint64_t value() const { return value_; }

    /** Reset to zero. */
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** A histogram over non-negative samples with mean/max/percentile queries. */
class Histogram
{
  public:
    /** Record one sample. */
    void sample(std::uint64_t v);

    /** Number of samples recorded. */
    std::uint64_t count() const { return count_; }

    /** Sum of all samples. */
    std::uint64_t sum() const { return sum_; }

    /** Arithmetic mean (0 when empty). */
    double mean() const;

    /** Largest sample (0 when empty). */
    std::uint64_t max() const { return max_; }

    /** Smallest sample (0 when empty). */
    std::uint64_t min() const { return count_ ? min_ : 0; }

    /**
     * The p-th percentile (nearest-rank) computed from the stored
     * samples.  The full sample vector is retained; simulations here are
     * small enough that exactness beats a sketch.
     *
     * Contract: 0 when empty; @p p is clamped to [0,100];
     * percentile(0) == min() and percentile(100) == max().
     */
    std::uint64_t percentile(double p) const;

    /** One cumulative bucket of the Prometheus-style export. */
    struct Bucket
    {
        std::uint64_t le;  //!< upper bound (inclusive)
        std::uint64_t cum; //!< samples <= le
    };

    /**
     * Cumulative buckets over a power-of-two ladder (1, 2, 4, ... up
     * to the first bound >= max()), the shape Prometheus histogram
     * exposition wants: bucket[i].cum counts every sample <= le, so
     * the counts are monotonically non-decreasing and the final bucket
     * equals count().  Empty histogram -> empty vector (the renderer
     * emits only the implicit +Inf bucket).
     */
    std::vector<Bucket> cumulativeBuckets() const;

    /** Drop all samples. */
    void reset();

  private:
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t max_ = 0;
    std::uint64_t min_ = ~std::uint64_t{0};
    mutable std::vector<std::uint64_t> samples_;
    mutable bool sorted_ = true;
};

/**
 * A named collection of counters and histograms with a text dump.
 *
 * Lookups are heterogeneous (std::less<>), so `counter("read_hits")`
 * finds an existing statistic without building a std::string key.
 * clear() empties the group but parks the map nodes, so a group
 * cleared between runs re-creates the same statistics without touching
 * the heap.
 */
class StatGroup
{
  public:
    using CounterMap = std::map<std::string, Counter, std::less<>>;
    using HistogramMap = std::map<std::string, Histogram, std::less<>>;

    /** Construct a group labelled @p name (appears in dumps). */
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Find or create the counter @p name. */
    Counter &counter(std::string_view name)
    {
        return findOrAdd(counters_, spare_counters_, name);
    }

    /** Find or create the histogram @p name. */
    Histogram &histogram(std::string_view name)
    {
        return findOrAdd(hists_, spare_hists_, name);
    }

    /** Group label. */
    const std::string &name() const { return name_; }

    /** Reset every statistic in the group (the statistics stay). */
    void resetAll();

    /**
     * Remove every statistic, so the group reads as freshly
     * constructed; the storage is kept for the next run's statistics.
     */
    void clear();

    /**
     * Render all statistics as "group.stat value" lines.
     *
     * Contract: the output is order-stable — statistics appear sorted by
     * name (counters first, then histograms), independent of creation
     * order, so dumps diff cleanly across runs and golden files can rely
     * on line order.
     */
    std::string dump() const;

    /** Read access for formatters. */
    const CounterMap &counters() const { return counters_; }

    /** Read access for formatters. */
    const HistogramMap &histograms() const { return hists_; }

  private:
    /** Lookup, else revive a parked node named @p name, else insert. */
    template <typename Map>
    static typename Map::mapped_type &
    findOrAdd(Map &map, std::vector<typename Map::node_type> &spare,
              std::string_view name)
    {
        auto it = map.find(name);
        if (it != map.end())
            return it->second;
        for (std::size_t i = spare.size(); i-- > 0;) {
            if (spare[i].key() != name)
                continue;
            typename Map::node_type node = std::move(spare[i]);
            spare[i] = std::move(spare.back());
            spare.pop_back();
            return map.insert(std::move(node)).position->second;
        }
        return map.emplace(std::string(name), typename Map::mapped_type{})
            .first->second;
    }

    std::string name_;
    CounterMap counters_;
    HistogramMap hists_;
    std::vector<CounterMap::node_type> spare_counters_;
    std::vector<HistogramMap::node_type> spare_hists_;
};

} // namespace wo

#endif // WO_COMMON_STATS_HH
