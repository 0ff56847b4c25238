/**
 * @file
 * The timed full system: processors, private caches, directory/memory and
 * the interconnect, wired per Section 5.2, executing one program under a
 * chosen ordering policy and reporting the execution trace, final outcome,
 * per-operation timing and component statistics.
 */

#ifndef WO_SYS_SYSTEM_HH
#define WO_SYS_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "coherence/cache.hh"
#include "coherence/directory.hh"
#include "coherence/network.hh"
#include "event/event_queue.hh"
#include "execution/execution.hh"
#include "obs/obs.hh"
#include "program/program.hh"
#include "sys/cpu.hh"
#include "sys/policy.hh"

namespace wo {

/** Full-system configuration. */
struct SystemCfg
{
    OrderingPolicy policy = OrderingPolicy::wo_drf0;
    NetworkCfg net;
    CacheCfg cache;
    DirectoryCfg dir;
    CpuCfg cpu;
    /** Event budget; exceeding it marks the run livelocked. */
    std::uint64_t max_events = 20'000'000;
    /**
     * Which event-kernel implementation drives the run.  The legacy
     * heap exists only for the kernel-equivalence golden test (and
     * requires the WO_LEGACY_EVENT_QUEUE build option).
     */
    EventQueueKind queue = EventQueueKind::calendar;
    /** Record the structured trace (Chrome trace JSON + JSONL). */
    bool trace = false;
    /** With trace: also record every event-queue firing (noisy). */
    bool trace_queue_events = true;
    /** Run the online invariant monitor (see obs/monitor.hh). */
    bool monitor = false;
    /** Keep the bounded flight-recorder ring (see obs/recorder.hh). */
    bool flight_recorder = false;
    /** Flight-recorder ring capacity, in events. */
    std::size_t flight_recorder_capacity = 4096;
    /** Period of the time-series sampler, in ticks; 0 = off. */
    Tick sample_interval = 0;
    /**
     * Run the sampling self-profiler (src/obs/profiler.hh) for the
     * duration of the run: the calling thread is registered and
     * sampled at profile_hz, the folded stacks land in profile_out
     * (when non-empty) and the top-N tables mount under "profiler" in
     * the metrics tree.  Campaign fleets profile at the campaign
     * level instead (CampaignCfg::profile), so cells leave this off.
     */
    bool profile = false;
    /** Self-profiler sampling rate, in samples per second. */
    double profile_hz = 97;
    /** Collapsed-stack output path; empty = keep in-memory only. */
    std::string profile_out;
    /**
     * Assemble the full result: execution copy, per-op timings, the
     * stats text dump, the stats_json metrics tree and the rendered
     * monitor report.  Campaign cells turn this off -- they only read
     * the verdict, the outcome and the monitor's numeric summary, and
     * rendering JSON for thousands of tiny runs would dominate the
     * fleet's wall clock.
     */
    bool collect_stats = true;
    /**
     * Suppress the livelock warning and evidence-dump status lines.
     * Campaign workers run thousands of cells concurrently, where a
     * deliberately-stuck machine is a *verdict*, not an anomaly worth
     * a console line per occurrence.
     */
    bool quiet = false;
    /**
     * Largest monitored execution still rendered as a DOT hb witness
     * by the failure dump; beyond it the .hb.dot notes the omission.
     */
    static constexpr std::size_t max_witness_dot_ops = 5000;
    /**
     * On a monitor hardware violation or a deadlocked/livelocked
     * termination, write evidence files `<prefix>.trace.json` (the
     * flight-recorder window, or the full trace when no recorder),
     * `<prefix>.hb.dot` and `<prefix>.monitor.txt` (when the monitor is
     * on).  Empty = never dump.
     */
    std::string dump_on_fail;
};

/** What a run produced. */
struct SystemResult
{
    bool completed = false;  //!< all processors halted, system drained
    bool deadlocked = false; //!< events ran dry with processors blocked
    bool livelocked = false; //!< event budget exhausted
    Tick finish_tick = 0;    //!< time the last processor halted
    Tick drain_tick = 0;     //!< time the system fully quiesced
    Execution execution{0, 0}; //!< retired operations, program order/proc
    Outcome outcome;         //!< final registers + final memory
    OrderingPolicy policy = OrderingPolicy::wo_drf0; //!< policy that ran
    bool weak_sync_read_policy = false; //!< Section-6 refinement active
    std::vector<std::vector<OpTiming>> timings; //!< per processor
    std::string stats;       //!< text dump of all component statistics
    /**
     * The unified metrics tree (run metadata + every component group +
     * stall attribution) rendered as JSON; see docs/OBSERVABILITY.md.
     */
    std::string stats_json;

    // Online monitor results (all zero / empty when the monitor is off).
    std::uint64_t monitor_violations = 0;    //!< total findings
    std::uint64_t monitor_hw_violations = 0; //!< hardware-blaming findings
    std::uint64_t monitor_races = 0;         //!< software races
    std::string monitor_report;              //!< human-readable verdict

    /** Sampler time series as CSV (empty when sampling is off). */
    std::string sampler_csv;

    /** Sum of a named counter over all cpus (convenience for benches). */
    std::uint64_t cpu_stat_total(const std::string &name) const;

    /** Sum of a named stall bucket/summary over all cpus. */
    std::uint64_t stall_stat_total(const std::string &name) const;

    std::vector<std::map<std::string, std::uint64_t>> cpu_counters;
    /** Per-cpu stall attribution (bucket name -> cycles); see Obs. */
    std::vector<std::map<std::string, std::uint64_t>> stall_counters;
};

/** The machine. */
class System
{
  public:
    /**
     * @param prog the program to run (must outlive the system)
     * @param cfg  configuration; cache.sync_reads_as_reads is forced to
     *             match the policy (wo_drf0_ro)
     */
    System(const Program &prog, const SystemCfg &cfg);
    ~System();

    /**
     * Make this machine the one System(prog, cfg) would build: every
     * component (event queue, network, directory, caches, CPUs,
     * execution, observability hub, monitor) returns to its
     * freshly-constructed state -- time, event sequence numbers,
     * request ids, the jitter RNG seed and all statistics included --
     * so a run after reset() is bit-identical to a run on a new
     * machine.  Containers keep their capacity, so a machine reused
     * across similar cells stops allocating.  The constructor does its
     * work through this call.  @p prog must outlive the next run.
     */
    void reset(const Program &prog, const SystemCfg &cfg);

    /** Run to completion (or deadlock/livelock) and collect results. */
    SystemResult run();

    /**
     * Pre-install @p addr as a shared line (its initial value) in the
     * caches of @p procs, as in Figure 1's "both processors initially have
     * X and Y in their caches".  Call before run().
     */
    void warmShared(Addr addr, const std::vector<ProcId> &procs);

    /** Component access for white-box tests. */
    Cache &cache(ProcId p);
    Directory &directory() { return *dir_; }
    Cpu &cpu(ProcId p);
    EventQueue &eventQueue() { return eq_; }

    /** The observability hub (trace export, stall attribution). */
    const Obs &obs() const { return *obs_; }

    /** The online monitor, or nullptr when cfg.monitor is off. */
    const Monitor *monitor() const { return monitor_; }

    /** The flight recorder, or nullptr when cfg.flight_recorder is off. */
    const FlightRecorder *recorder() const { return recorder_.get(); }

    /** The periodic sampler, or nullptr when cfg.sample_interval is 0. */
    const Sampler *sampler() const { return sampler_.get(); }

  private:
    /** Assemble the final memory image from caches and memory. */
    std::vector<Value> finalMemory() const;

    /**
     * Write the evidence files configured by cfg.dump_on_fail (no-op
     * when the prefix is empty or a dump already happened this run).
     */
    void dumpEvidence(const char *why);

    const Program *prog_ = nullptr;
    SystemCfg cfg_;
    ProcId procs_ = 0; //!< processors of the current program
    EventQueue eq_;
    std::unique_ptr<Obs> obs_;
    Monitor *monitor_ = nullptr; //!< monitor_store_ when cfg.monitor
    std::unique_ptr<Monitor> monitor_store_;
    std::unique_ptr<FlightRecorder> recorder_;
    std::unique_ptr<Sampler> sampler_;
    bool evidence_dumped_ = false;
    std::unique_ptr<Network> net_;
    std::unique_ptr<Directory> dir_;
    // One cache/cpu pair per processor.  The pools only grow: pairs
    // past procs_ sit idle until a program with more threads runs.
    std::vector<std::unique_ptr<Cache>> caches_;
    std::vector<std::unique_ptr<Cpu>> cpus_;
    std::unique_ptr<Execution> exec_;
};

} // namespace wo

#endif // WO_SYS_SYSTEM_HH
