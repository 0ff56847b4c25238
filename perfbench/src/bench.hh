/**
 * @file
 * Shared pieces of the repository benchmark: options, the result a
 * run prints, the committed expected digests, the in-memory span
 * tracer and the allocation counter.  The workloads live in
 * run_cells.cc (campaign, fleet, hunt), model_cells.cc (verify,
 * explore) and ledger.cc (the traced per-layer run).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Whether to start pass @p done + 1 after @p elapsed seconds of a run
 * budgeted @p seconds: runs are whole passes, as many as fit with the
 * last one ending within half a pass of the budget.
 */
inline bool
morePasses(std::size_t done, double elapsed, double seconds)
{
    return done == 0 ||
           elapsed + 0.5 * elapsed / static_cast<double>(done) < seconds;
}

/** Command line of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Pool size: "full" for measured runs, "tiny" for the self-test. */
    std::string size = "full";
    /** Re-record the expected digests instead of checking them. */
    bool record = false;
    std::string commit = "unknown";
    std::string src_digest = "unknown";
};

/** What one run reports: the last stdout line plus the result file. */
struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    struct Metric
    {
        std::string name;
        double value = 0;
        std::string unit;
    };
    /** Metrics of the final JSON line (end-to-end or per-layer). */
    std::vector<Metric> metrics;
    /** Workload-specific figures printed and filed, not gated. */
    std::vector<Metric> extra;
    /** One line per mismatch against the expected digests. */
    std::vector<std::string> mismatches;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    void addExtra(const std::string &name, double value,
                  const std::string &unit)
    {
        extra.push_back({name, value, unit});
    }
    /** Count @p n operations, @p bad of them failed. */
    void tally(std::uint64_t n, std::uint64_t bad)
    {
        attempted += n;
        failed += bad;
    }
};

/**
 * Committed expected digests: `<workload>.tsv` under perfbench/expected,
 * one `size<TAB>id<TAB>digest` line per pool item.  In record mode the
 * benchmark writes the file instead of checking against it.
 */
class Expected
{
  public:
    Expected(const std::string &workload, const std::string &size);

    /** The committed digest of @p id, or null. */
    const std::string *find(const std::string &id) const;

    /** Check @p digest for @p id; false (and a mismatch line) if it differs. */
    bool check(const std::string &id, const std::string &digest,
               RunResult &res) const;

    /** Record @p digest for @p id (record mode). */
    void put(const std::string &id, const std::string &digest);

    /** Write the recorded digests back (record mode only). */
    void save() const;

  private:
    std::string path_;
    std::string size_;
    std::map<std::string, std::string> want_;  //!< this size's digests
    std::vector<std::string> other_lines_;      //!< other sizes, kept verbatim
    std::map<std::string, std::string> recorded_;
};

/** Nearest-rank percentile of @p v (sorted in place); 0 when empty. */
double percentile(std::vector<double> &v, double q);

/** Median of @p v (sorted in place). */
double median(std::vector<double> v);

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** Deterministic shuffle of [0, n) from @p seed. */
std::vector<std::size_t> seededOrder(std::size_t n, std::uint64_t seed);

/** Allocations (operator new calls) made by the calling thread so far. */
std::uint64_t threadAllocs();

/**
 * In-memory span tracer of the traced run.  A span has a name, start
 * and end, the index of the span that was open when it started
 * (its parent) and a group id shared by every span of one cell or
 * exploration.  Spans are written out only when the run ends.  A null
 * Tracer* makes every Scope a no-op, which is how the untraced twin
 * of a traced pass runs the same code.
 */
class Tracer
{
  public:
    static constexpr std::uint32_t no_parent = 0xffffffffu;

    struct Span
    {
        const char *name;
        std::uint64_t start_ns;
        std::uint64_t end_ns;
        std::uint32_t parent;
        std::uint64_t group;
    };

    Tracer();

    std::uint32_t open(const char *name, std::uint64_t group);
    void close(std::uint32_t idx);

    /** Self time (duration minus child spans) summed per span name, ns. */
    std::map<std::string, double> selfNs(std::size_t from = 0) const;
    std::size_t size() const { return spans_.size(); }

    /** One JSON object per span (name, start/end ns, parent, group). */
    bool dump(const std::string &path) const;

    class Scope
    {
      public:
        Scope(Tracer *t, const char *name, std::uint64_t group)
            : t_(t), idx_(t ? t->open(name, group) : 0)
        {
        }
        ~Scope() { close(); }
        void close()
        {
            if (t_) {
                t_->close(idx_);
                t_ = nullptr;
            }
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *t_;
        std::uint32_t idx_;
    };

  private:
    std::uint64_t nowNs() const;

    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> stack_;
};

/**
 * Workload entry points: each sets up, measures and checks.  The
 * constructor loads what only the benchmark needs (expected digests,
 * the figures its checks compare against), untimed; setup() does the
 * program's own set-up work and is what setup_s times.
 */
struct Workload
{
    virtual ~Workload() = default;
    /** The program's set-up: build or load the run's inputs (timed). */
    virtual void setup() = 0;
    /** Release what setup() built, so setup can be timed again. */
    virtual void teardown() {}
    /** The untraced measured run: end-to-end metrics. */
    virtual void measure(RunResult &res) = 0;
    /**
     * Called by measure() between rounds, where the workload may be torn
     * down and set up again; main() times set-ups there.
     */
    std::function<void()> between = [] {};
    /** Record the expected digests of the whole pool. */
    virtual void record(RunResult &res) = 0;
};

/** The workload named by @p opt, or null for an unknown name. */
std::unique_ptr<Workload> makeRunCellWorkload(const Options &opt);
std::unique_ptr<Workload> makeModelWorkload(const Options &opt);

/** The traced run: every per-layer metric, spans dumped to @p span_path. */
void runLedger(const Options &opt, RunResult &res,
               const std::string &span_path);

/** Directory for this run's scratch files (created, emptied). */
std::string workDir(const Options &opt, const std::string &leaf);

} // namespace pb

#endif // PERFBENCH_BENCH_HH
