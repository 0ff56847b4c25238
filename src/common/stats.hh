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
#include <iterator>
#include <map>
#include <stdexcept>
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
    void inc(std::uint64_t delta = 1)
    {
        value_ += delta;
        shown_ = true;
    }

    /** Overwrite the counter (for sampled gauges). */
    void set(std::uint64_t v)
    {
        value_ = v;
        shown_ = true;
    }

    /** Current value. */
    std::uint64_t value() const { return value_; }

    /** Reset to zero. */
    void reset() { value_ = 0; }

    /** Does it appear in its group's dumps (see StatGroup)? */
    bool shown() const { return shown_; }

  private:
    friend class StatGroup;

    std::uint64_t value_ = 0;
    bool shown_ = false;
};

/** A histogram over non-negative samples with mean/max/percentile queries. */
class Histogram
{
  public:
    /** Record one sample. */
    void sample(std::uint64_t v);

    /** Does it appear in its group's dumps (see StatGroup)? */
    bool shown() const { return shown_; }

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
    bool shown_ = false;

    friend class StatGroup;
};

/**
 * A named collection of counters and histograms with a text dump.
 *
 * A statistic is *shown* -- listed by dump(), counters() and
 * histograms() -- once it has been looked up by name or touched
 * (inc/set/sample) since the group was constructed or clear()ed.
 * Statistics are never removed: clear() zeroes and hides them, so a
 * reference taken once through counterHandle()/histogramHandle() stays
 * valid for the group's lifetime.  Components resolve a handle per call
 * site when they are built and bump it per event, with no name lookup;
 * a machine reused across runs clears its groups with no map traffic,
 * and each dump lists exactly the statistics that run touched.
 */
class StatGroup
{
  public:
    using CounterMap = std::map<std::string, Counter, std::less<>>;
    using HistogramMap = std::map<std::string, Histogram, std::less<>>;

    /**
     * Read-only view of the shown entries of a statistics map, in name
     * order, with the lookups formatters use (find/count/at).
     */
    template <typename Map>
    class Shown
    {
      public:
        class const_iterator
        {
          public:
            using value_type = typename Map::value_type;
            using reference = const value_type &;
            using pointer = const value_type *;

            const_iterator(typename Map::const_iterator it,
                           typename Map::const_iterator end)
                : it_(it), end_(end)
            {
                while (it_ != end_ && !it_->second.shown())
                    ++it_;
            }
            reference operator*() const { return *it_; }
            pointer operator->() const { return &*it_; }
            const_iterator &operator++()
            {
                *this = const_iterator(std::next(it_), end_);
                return *this;
            }
            bool operator==(const const_iterator &o) const
            {
                return it_ == o.it_;
            }

          private:
            typename Map::const_iterator it_, end_;
        };

        explicit Shown(const Map &map) : map_(&map) {}

        const_iterator begin() const { return {map_->begin(), map_->end()}; }
        const_iterator end() const { return {map_->end(), map_->end()}; }

        /** The shown statistic @p name, or end(). */
        const_iterator find(std::string_view name) const
        {
            auto it = map_->find(name);
            return it != map_->end() && it->second.shown()
                       ? const_iterator(it, map_->end())
                       : end();
        }

        /** 1 when @p name is shown, else 0. */
        std::size_t count(std::string_view name) const
        {
            return find(name) != end() ? 1 : 0;
        }

        /** The shown statistic @p name; throws std::out_of_range. */
        const typename Map::mapped_type &at(std::string_view name) const
        {
            auto it = find(name);
            if (it == end())
                throw std::out_of_range("no statistic " + std::string(name));
            return it->second;
        }

      private:
        const Map *map_;
    };

    /** Construct a group labelled @p name (appears in dumps). */
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Find or create the counter @p name; it is shown from now on. */
    Counter &counter(std::string_view name)
    {
        Counter &c = counterHandle(name);
        c.shown_ = true;
        return c;
    }

    /** Find or create the histogram @p name; it is shown from now on. */
    Histogram &histogram(std::string_view name)
    {
        Histogram &h = histogramHandle(name);
        h.shown_ = true;
        return h;
    }

    /**
     * Find or create the counter @p name without showing it: it joins
     * the dumps at its first inc()/set().  The reference stays valid
     * for the group's lifetime.
     */
    Counter &counterHandle(std::string_view name)
    {
        return findOrAdd(counters_, name);
    }

    /** The histogram counterpart of counterHandle(). */
    Histogram &histogramHandle(std::string_view name)
    {
        return findOrAdd(hists_, name);
    }

    /** Group label. */
    const std::string &name() const { return name_; }

    /** Reset every statistic in the group (shown ones stay shown). */
    void resetAll();

    /**
     * Zero and hide every statistic, so the group reads as freshly
     * constructed; storage and handles are kept for the next run.
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

    /** Read access for formatters: the shown counters. */
    Shown<CounterMap> counters() const { return Shown<CounterMap>(counters_); }

    /** Read access for formatters: the shown histograms. */
    Shown<HistogramMap> histograms() const
    {
        return Shown<HistogramMap>(hists_);
    }

  private:
    template <typename Map>
    static typename Map::mapped_type &findOrAdd(Map &map,
                                                std::string_view name)
    {
        auto it = map.find(name);
        if (it != map.end())
            return it->second;
        return map.emplace(std::string(name), typename Map::mapped_type{})
            .first->second;
    }

    std::string name_;
    CounterMap counters_;
    HistogramMap hists_;
};

} // namespace wo

#endif // WO_COMMON_STATS_HH
