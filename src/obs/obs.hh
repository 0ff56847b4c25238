/**
 * @file
 * The unified observability hub of the timed simulator.
 *
 * One Obs instance per System collects three kinds of signal from the
 * timed components (event kernel, network, caches, CPUs):
 *
 *  1. A structured trace: every event-queue firing, every coherence
 *     message, and every memory-operation lifecycle transition
 *     (issue -> commit -> globally-performed -> retire).  Exported as
 *     Chrome trace-event JSON (load `chrome://tracing` or
 *     https://ui.perfetto.dev) and as a compact JSONL stream.  Tracing
 *     is off by default; when off, the hooks cost one branch.
 *
 *  2. Stall attribution: every cycle a CPU pipeline spends not
 *     executing is classified into exactly one paper-meaningful bucket
 *     (see StallBucket).  The buckets always sum to the total, so the
 *     Figure-3 "run-ahead" benefit of the new implementation is a
 *     reported number, not an inference.  Attribution is always on;
 *     it only touches counters at stall-interval boundaries.
 *
 *  3. Side-channel facts needed for (2): which requests missed, which
 *     were NACKed or held at a remote reserved line.
 *
 * The hub also fans the same hooks out to two optional attachments:
 * the online invariant Monitor (fed every retired operation and every
 * counter/reserve-bit transition) and the always-on FlightRecorder
 * ring (fed every hook, cheaply, even with tracing off).  See
 * monitor.hh and recorder.hh.
 *
 * Components reach the hub through EventQueue::obs(), which every timed
 * component already holds; a null hub disables everything.  The hub
 * depends only on common/ and the execution record so any layer may
 * call into it.
 */

#ifndef WO_OBS_OBS_HH
#define WO_OBS_OBS_HH

#include <array>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "execution/memory_op.hh"
#include "obs/json.hh"

namespace wo {

class Monitor;
class FlightRecorder;
class Sampler;

/**
 * Where a stalled CPU cycle went.  Every blocked or issue-gated cycle
 * lands in exactly one bucket; `stall.total` is maintained as the sum.
 */
enum class StallBucket : std::uint8_t
{
    reserve_wait,  //!< sync access held off by a remote reserve bit
    counter_drain, //!< waiting for own outstanding accesses to perform
                   //!< (SC issue rule, Definition-1 conditions 2 and 3)
    mlp_limit,     //!< CpuCfg::max_outstanding miss-resource limit
    cache_miss,    //!< waiting for line data of an ordinary miss
    network,       //!< committed but not globally performed: invalidation
                   //!< and acknowledgement traffic in flight
    hit_latency,   //!< local cache hit access time
};

/** Number of StallBucket values (for iteration). */
inline constexpr int num_stall_buckets = 6;

/** Stable printable bucket name (used as the stats key). */
const char *stallBucketName(StallBucket b);

/** Which wait of the in-order pipeline a stall interval belongs to. */
enum class StallPhase : std::uint8_t
{
    issue_counter, //!< gated before issue by an ordering condition
    issue_mlp,     //!< gated before issue by max_outstanding
    commit_wait,   //!< issued, waiting for the local commit
    perform_wait,  //!< committed, waiting for globally-performed
};

/**
 * Which side of a synchronization protocol the stalled operation is on.
 * Figure 3's claim is specifically about the *release* side: the new
 * implementation never stalls the releasing processor.
 */
enum class OpSide : std::uint8_t
{
    data,    //!< ordinary load/store
    release, //!< write-only synchronization (Unset/Set)
    acquire, //!< read or read-modify-write synchronization (Test/TAS)
};

/** Number of OpSide values. */
inline constexpr int num_op_sides = 3;

/** Stable printable side name. */
const char *opSideName(OpSide s);

/** The hub.  Created by System; components receive it via EventQueue. */
class Obs
{
  public:
    /** @param nprocs processor count (sizes the per-CPU stall groups) */
    explicit Obs(ProcId nprocs);

    /**
     * Restore the freshly-constructed state for @p nprocs processors:
     * tracing off, nothing attached, stall groups zeroed, no live
     * operation.  Storage is kept for reuse.
     */
    void reset(ProcId nprocs);

    /**
     * Turn the structured trace on.
     * @param queue_events also record every event-queue firing (noisy;
     *        useful for kernel-level debugging, off for plain runs)
     */
    void enableTrace(bool queue_events);

    /** Is the structured trace recording? */
    bool tracing() const { return trace_enabled_; }

    /**
     * Does the trace want per-firing queue events?  The kernel asks
     * before materializing an event label, so a run that never looks at
     * labels never pays for building them.
     */
    bool wantsQueueEvents() const
    {
        return trace_enabled_ && trace_queue_events_;
    }

    /**
     * Attach the online invariant monitor.  Retired operations and
     * counter/reserve transitions are forwarded to it; violations it
     * raises are mirrored into the flight recorder (when attached).
     * Must outlive the run.
     */
    void attachMonitor(Monitor *m) { monitor_ = m; }

    /** The attached monitor, or nullptr. */
    Monitor *monitor() const { return monitor_; }

    /** Attach the flight recorder.  Must outlive the run. */
    void attachRecorder(FlightRecorder *r) { recorder_ = r; }

    /** The attached flight recorder, or nullptr. */
    FlightRecorder *recorder() const { return recorder_; }

    /**
     * Attach the periodic sampler; its counter-track samples are merged
     * into chromeTraceJson().  Must outlive the export.
     */
    void attachSampler(const Sampler *s) { sampler_ = s; }

    /** The attached sampler, or nullptr. */
    const Sampler *sampler() const { return sampler_; }

    // ---- hooks called by the timed components ------------------------

    /** Event kernel: one event popped and about to execute. */
    void queueFire(Tick now, const std::string &label);

    /** Network: message handed to the wire. */
    void message(Tick sent, Tick deliver, unsigned src, unsigned dst,
                 const char *type, Addr addr, bool is_sync);

    /** CPU: request handed to the cache. */
    void opIssue(ProcId p, std::uint64_t req, const char *kind, Addr addr,
                 Pc pc, Tick reached, Tick issued);

    /** CPU: request committed (value bound / local copy modified). */
    void opCommit(ProcId p, std::uint64_t req, Tick now);

    /** CPU: request globally performed. */
    void opPerform(ProcId p, std::uint64_t req, Tick now);

    /**
     * CPU: request retired into the execution, with the full operation
     * payload so the monitor can replay it into its own execution copy.
     * Retire order is program order per processor and the completion
     * order contract of Execution::append.
     */
    void opRetire(ProcId p, std::uint64_t req, Tick now, Addr addr,
                  AccessKind kind, Value value_read, Value value_written,
                  Tick commit_tick);

    /** Cache: outstanding-access counter of @p p changed to @p value. */
    void counterChanged(ProcId p, int value, Tick now);

    /** Cache: reserve bit set on @p addr by processor @p p. */
    void reserveSet(ProcId p, Addr addr, Tick now);

    /** Cache: all reserve bits of processor @p p cleared. */
    void reserveCleared(ProcId p, Tick now);

    /** Cache: the request left the cache as a miss (GetS/GetX sent). */
    void reqMiss(ProcId p, std::uint64_t req);

    /** Cache: the requester's miss was NACKed at a reserved line. */
    void reqNack(ProcId p, std::uint64_t req);

    /**
     * Cache (queue stall mode): the owner is holding @p requester's
     * forwarded request for @p addr at a reserved line.
     */
    void reserveHold(ProcId requester, Addr addr);

    /**
     * CPU: one stall interval [from, to) ended.  Classified into a
     * bucket using the phase plus the miss/NACK facts recorded for
     * @p req, and charged to @p side.
     */
    void stall(ProcId p, std::uint64_t req, Addr addr, StallPhase phase,
               OpSide side, Tick from, Tick to);

    // ---- results -----------------------------------------------------

    /** Per-CPU stall-attribution statistics (group "cpu<p>.stall"). */
    const StatGroup &stallStats(ProcId p) const;

    /** All per-CPU stall groups, for registration with the metrics. */
    std::vector<const StatGroup *> stallGroups() const;

    /**
     * The full trace as Chrome trace-event JSON: a top-level object
     * with a "traceEvents" array of complete ("X"), instant ("i") and
     * metadata ("M") events.  Timestamps are simulator ticks reported
     * as microseconds, so one Perfetto microsecond == one tick.
     */
    std::string chromeTraceJson() const;

    /** The raw event stream, one compact JSON object per line. */
    std::string traceJsonl() const;

    /** Operations issued but never globally performed (so far). */
    std::uint64_t unfinishedOps() const;

  private:
    /**
     * An issued operation not yet globally performed, with the
     * miss/NACK facts the stall classifier needs for it.
     */
    struct LiveOp
    {
        std::uint64_t req = 0;
        const char *kind = ""; //!< accessKindName: static storage
        Addr addr = invalid_addr;
        Pc pc = 0;
        Tick reached = 0;
        Tick issued = 0;
        Tick committed = 0;
        bool has_committed = false;
        bool missed = false;
        bool nacked = false;
    };

    /** Processor @p p's live operation @p req, or nullptr. */
    LiveOp *findLive(ProcId p, std::uint64_t req);

    /** Append one JSONL record (tracing only). */
    void raw(Json line);

    /** Append one Chrome trace event (tracing only). */
    void chrome(Json ev);

    /** Chrome complete event helper. */
    Json completeEvent(const std::string &name, std::uint64_t tid,
                       Tick start, Tick end) const;

    StallBucket classify(ProcId p, std::uint64_t req, Addr addr,
                         StallPhase phase);

    /** Mirror monitor violations raised since last call into the ring. */
    void mirrorViolations(Tick now);

    /**
     * One processor's stall group ("cpu<p>.stall") and handles to its
     * fixed schema: every bucket plus the total and the per-side sums,
     * all shown from construction so each dump has the full schema and
     * the buckets provably sum to the total even when one never fires.
     */
    struct StallStats
    {
        explicit StallStats(std::size_t p);
        // The handles point into this object's own group.
        StallStats(const StallStats &) = delete;
        StallStats &operator=(const StallStats &) = delete;

        StatGroup group;
        std::array<Counter *, num_stall_buckets> bucket;
        Counter *total;
        std::array<Counter *, num_op_sides> side;
    };

    ProcId nprocs_;
    bool trace_enabled_ = false;
    bool trace_queue_events_ = false;
    Monitor *monitor_ = nullptr;
    FlightRecorder *recorder_ = nullptr;
    const Sampler *sampler_ = nullptr;
    std::uint64_t mirrored_violations_ = 0;

    // Per-processor state, indexed by ProcId.  The vectors only ever
    // grow: entries past nprocs_ are storage kept for a later reset.
    std::deque<StallStats> stall_; //!< deque: handles survive growth
    std::vector<std::vector<LiveOp>> live_; //!< unordered
    /** Lines whose owner holds this processor's forwarded request. */
    std::vector<std::vector<Addr>> reserve_held_;

    std::vector<Json> chrome_events_;
    std::vector<std::string> jsonl_;
};

} // namespace wo

#endif // WO_OBS_OBS_HH
