/**
 * @file
 * The campaign result sink: everything a campaign does with a finished
 * cell, shared by both transports.  The in-process engine
 * (scheduler.hh) feeds one sink from its worker threads; the fleet
 * coordinator feeds one per campaign from its pump thread.  The sink
 * owns the journal; tallies verdicts, findings and latency into one
 * cache-line-aligned slot of owner-written relaxed atomics per feeding
 * thread (no lock and no shared line on the hot path); files
 * deduplicated failures; and builds the CampaignSummary both
 * transports write as campaign.summary.json.
 */

#ifndef WO_CAMPAIGN_SINK_HH
#define WO_CAMPAIGN_SINK_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/journal.hh"
#include "obs/json.hh"
#include "obs/monitor.hh"
#include "obs/timeline.hh"

namespace wo {

class HttpServer;

/** One deduplicated hardware failure, as the campaign reports it. */
struct FailureRecord
{
    std::string dedup;        //!< "<kind>:<shrunk-program hash>"
    std::string kind;         //!< violation kind name
    std::string first_cell;   //!< key of the first cell that hit it
    std::string repro_path;   //!< minimized .wo reproducer
    std::size_t instructions = 0;      //!< after shrinking
    std::size_t orig_instructions = 0; //!< before shrinking
    std::uint64_t count = 0;  //!< equivalent failures (dedup hits)
    bool reproduced = false;  //!< shrink predicate held on the minimum
};

/** What a campaign did. */
struct CampaignSummary
{
    std::uint64_t ran = 0;     //!< cells actually simulated
    std::uint64_t skipped = 0; //!< journaled cells skipped on resume
    /** Cells skipped because their key already ran in this run (the
     *  base stream or a frontier mutant repeated it). */
    std::uint64_t duplicate = 0;
    std::uint64_t clean = 0;
    std::uint64_t racy = 0;    //!< software races (contract void)
    std::uint64_t hw = 0;      //!< cells with hardware violations
    std::uint64_t deadlocked = 0;
    std::uint64_t livelocked = 0;
    std::uint64_t errors = 0;  //!< cells whose program failed to build
    std::uint64_t inconclusive = 0; //!< verify cells without a verdict
    std::uint64_t nonsc = 0;   //!< verify cells: hw escaped SC (expected)
    std::uint64_t by_kind[num_violation_kinds] = {};
    std::uint64_t novelty = 0; //!< fuzz-frontier discoveries
    std::vector<FailureRecord> failures; //!< deduplicated
    double wall_s = 0;
    double cells_per_sec = 0;
    double lat_p50_ms = 0; //!< median per-cell wall time (ran cells)
    double lat_p99_ms = 0; //!< tail per-cell wall time

    /**
     * One engine thread's span decomposition: where its wall clock
     * went, by span kind (see obs/timeline.hh).  Lanes are the jobs
     * workers in order plus the journal writer; always populated by
     * the in-process engine, so every campaign explains its own
     * scaling (fleet summaries have none).
     */
    struct LaneSummary
    {
        std::string lane;      //!< "worker<i>" or "journal-writer"
        double wall_ms = 0;    //!< markStart..markEnd of the thread loop
        double span_ms[num_span_kinds] = {};
        std::uint64_t span_count[num_span_kinds] = {};
        double span_max_ms[num_span_kinds] = {};
    };
    std::vector<LaneSummary> lanes;

    // Self-profiler results (zero / empty unless cfg.profile).
    std::uint64_t profile_samples = 0;
    std::uint64_t profile_dropped = 0;
    std::string folded_path;  //!< collapsed stacks written here
    std::string trace_path;   //!< per-lane Chrome trace written here
    Json profiler_json;       //!< Profiler::toJson(); null when off

    /** Exit-0 condition: no hardware violation survived shrinking. */
    bool hardwareClean() const { return failures.empty(); }

    /** The final human-readable summary table. */
    std::string table() const;

    /** Machine-readable form (campaign.summary.json, both transports). */
    Json toJson() const;
};

/** The journal's cell verdict spellings, as tally classes. */
enum class VerdictClass : std::uint8_t
{
    clean,
    race,
    hw,
    deadlock,
    livelock,
    error,
    inconclusive,
    nonsc,
};
inline constexpr int num_verdict_classes = 8;

/**
 * The class of journal verdict @p v (CellResult::verdict()'s
 * spelling; "hw:<kind>" is hw).  An unknown spelling counts as error,
 * so the classes always sum to the cells tallied.
 */
VerdictClass verdictClass(std::string_view v);

/** The non-zero counts of @p by_kind as a {kind name: count} object. */
Json byKindJson(const std::uint64_t (&by_kind)[num_violation_kinds]);

/** Add a byKindJson() object's counts into @p by_kind (unknown names
 *  and non-numbers are ignored). */
void addByKindJson(const Json &j,
                   std::uint64_t (&by_kind)[num_violation_kinds]);

/** The campaign result sink (one per campaign; see the file comment). */
class ResultSink
{
  public:
    /** Live latency buckets: bucket b counts cells whose wall time fell
     *  in (2^(b-1), 2^b] us; the last bucket absorbs overflow. */
    static constexpr int num_lat_buckets = 28; //!< 2^27 us ~ 134 s

    /**
     * One feeding thread's tally.  The atomics are written only by the
     * owning thread (relaxed -- they order nothing) and summed by live
     * readers; lat_ms is read only once the owner is done.
     */
    struct alignas(64) Slot
    {
        std::atomic<std::uint64_t> ran{0};
        std::atomic<std::uint64_t> skipped{0};   //!< journaled before a resume
        std::atomic<std::uint64_t> duplicate{0}; //!< key already run this run
        std::atomic<std::uint64_t> verdicts[num_verdict_classes] = {};
        std::atomic<std::uint64_t> by_kind[num_violation_kinds] = {};
        // Verify-cell explorer totals (zero for run campaigns).
        std::atomic<std::uint64_t> dpor_probes{0};
        std::atomic<std::uint64_t> dpor_memo_hits{0};
        std::atomic<std::uint64_t> lat_count{0};
        std::atomic<std::uint64_t> lat_sum_us{0};
        std::atomic<std::uint64_t> lat_bucket[num_lat_buckets] = {};
        std::vector<double> lat_ms; //!< per-cell wall time

        std::uint64_t
        completed() const
        {
            return ran.load(std::memory_order_relaxed) +
                   skipped.load(std::memory_order_relaxed) +
                   duplicate.load(std::memory_order_relaxed);
        }
    };

    /** A sink journaling to @p journal_path (not yet loaded or
     *  opened), filing reproducers under @p out_dir, with @p slots
     *  tally slots. */
    ResultSink(std::string journal_path, JournalCfg jcfg,
               std::string out_dir, int slots);

    Journal &journal() { return journal_; }
    const Journal &journal() const { return journal_; }

    /** Tally one finished cell on @p slot (its owning thread only):
     *  its journal verdict, wall time and monitor findings per kind. */
    void record(int slot, std::string_view verdict, double wall_ms,
                const std::uint64_t (&by_kind)[num_violation_kinds],
                std::uint64_t dpor_probes = 0,
                std::uint64_t dpor_memo_hits = 0);

    /** Count a cell that did not run: journaled before a resume
     *  (@p resumed) or already run this run. */
    void skip(int slot, bool resumed);

    /**
     * File one hardware failure (@p rec's kind, first cell, sizes and
     * reproduction flag; @p wo_text the shrunk reproducer) under its
     * dedup key "<kind>:<hash of wo_text>".  The first equivalent
     * failure also writes the `.wo` file, counts as unique and joins
     * the /events feed; it returns the reproducer's path stem, a
     * repeat returns "".  Thread-safe.
     */
    std::string fileFailure(FailureRecord rec, const std::string &wo_text);

    // --- live totals (any thread; relaxed reads) ---

    std::uint64_t sum(std::atomic<std::uint64_t> Slot::*f) const;
    std::uint64_t verdicts(VerdictClass c) const;
    std::uint64_t completed() const
    {
        return sum(&Slot::ran) + sum(&Slot::skipped) + sum(&Slot::duplicate);
    }
    std::uint64_t uniqueFailures() const
    {
        return unique_failures_.load(std::memory_order_relaxed);
    }
    const Slot &slot(int i) const { return slots_[i]; }

    /** Merged live latency: count, sum and cumulative buckets. */
    struct LatSnapshot
    {
        std::uint64_t count = 0;
        std::uint64_t sum_us = 0;
        std::uint64_t cum[num_lat_buckets] = {};
    };
    LatSnapshot latency() const;

    /** Bucket-resolution quantile: the smallest bucket bound covering
     *  quantile @p q, in ms. */
    static double latQuantileMs(const LatSnapshot &s, double q);

    /** The live latency histogram as a /metrics subtree (bucket bounds
     *  in us). */
    Json latencyMetricsJson() const;

    /** Mount the /events SSE stream on @p srv: every unique failure
     *  filed so far, then a @p progress document per poll until
     *  @p done reads true (it must outlive the handlers). */
    void mountEvents(HttpServer &srv, std::function<Json()> progress,
                     const std::atomic<bool> &done);

    /** The summary over @p wall_s seconds.  Reads the per-cell
     *  samples: call it once every feeding thread is done, or from the
     *  only one. */
    CampaignSummary summary(double wall_s) const;

    /** Free the per-cell samples once the summary is built (a
     *  long-lived coordinator keeps every campaign's sink). */
    void dropSamples();

  private:
    std::string out_dir_;
    Journal journal_;
    int nslots_;
    std::unique_ptr<Slot[]> slots_;
    std::atomic<std::uint64_t> unique_failures_{0};
    /** First discoveries, in order: the /events feed and the summary's
     *  provenance.  Appended off the hot path and only ever grows, so
     *  stream cursors stay valid. */
    mutable std::mutex feed_mu_;
    std::vector<FailureRecord> feed_;
};

/** Mount /healthz, /metrics (@p metrics as Prometheus text under
 *  @p prefix) and /progress on @p srv, for either transport. */
void mountControlPlane(HttpServer &srv, std::string prefix,
                       std::function<Json()> metrics,
                       std::function<Json()> progress);

} // namespace wo

#endif // WO_CAMPAIGN_SINK_HH
