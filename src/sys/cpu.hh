/**
 * @file
 * An in-order processor executing one thread of the program IR against its
 * private cache, under a pluggable ordering policy.
 *
 * Timing model: local instructions take one cycle; `delay k` takes k
 * cycles; loads block until their value commits (in-order use of the
 * destination register); stores are fire-and-forget under the weak
 * policies and fully blocking under SC; synchronization operations block
 * per policy (see policy.hh).  The processor retires operations in program
 * order into the shared Execution and records per-operation timing for the
 * Figure-3 analyses.
 */

#ifndef WO_SYS_CPU_HH
#define WO_SYS_CPU_HH

#include <vector>

#include "coherence/cache.hh"
#include "common/fifo.hh"
#include "common/stats.hh"
#include "event/event_queue.hh"
#include "execution/execution.hh"
#include "program/program.hh"
#include "sys/policy.hh"

namespace wo {

/** Timing record of one dynamic memory operation. */
struct OpTiming
{
    ProcId proc;
    Pc pc;                 //!< static instruction
    AccessKind kind;
    Addr addr;
    Tick reached;          //!< processor arrived at the instruction
    Tick issued;           //!< request handed to the cache
    Tick committed;        //!< commit point (paper's definition)
    Tick performed;        //!< globally performed
};

/** Processor configuration. */
struct CpuCfg
{
    /**
     * Memory-level parallelism: maximum accesses outstanding (issued but
     * not globally performed) at once; 0 = unlimited.  Models the finite
     * miss-handling resources (lockup-free cache MSHRs, write buffer
     * depth) whose cost/benefit the paper's introduction discusses.
     */
    int max_outstanding = 0;
};

/** One processor. */
class Cpu : public CacheClient
{
  public:
    /**
     * @param id      processor id
     * @param prog    the program (must outlive the cpu)
     * @param eq      event queue
     * @param policy  ordering policy
     * @param exec    shared execution trace (retired ops appended here)
     * @param cfg     processor knobs
     */
    Cpu(ProcId id, const Program &prog, EventQueue &eq,
        OrderingPolicy policy, Execution *exec, const CpuCfg &cfg = {});

    /**
     * Restore the freshly-constructed state for running thread id() of
     * @p prog (which must outlive the run): pc 0, zeroed registers, no
     * request in flight, statistics cleared.  Storage is kept for
     * reuse.
     */
    void reset(const Program &prog, OrderingPolicy policy,
               const CpuCfg &cfg);

    /** Late-bind the cache (construction order). */
    void attachCache(Cache *cache) { cache_ = cache; }

    /** Schedule the first step. */
    void boot();

    /** Thread finished. */
    bool halted() const { return halted_; }

    /** Tick at which the thread halted. */
    Tick finishTick() const { return finish_tick_; }

    /** Current program counter (the instruction being waited on). */
    Pc pc() const { return pc_; }

    /** Register file (final values once halted). */
    const std::array<Value, num_regs> &regs() const { return regs_; }

    /** Per-operation timing records, in program order. */
    const std::vector<OpTiming> &timings() const { return timings_; }

    /** Statistics (stall cycles by cause, operation counts). */
    const StatGroup &stats() const { return stats_; }

    // CacheClient interface.
    void onCommit(std::uint64_t id, Value read_value) override;
    void onGloballyPerformed(std::uint64_t id) override;

  private:
    /** An issued request the processor still tracks. */
    struct Pending
    {
        Pc pc = 0;
        std::size_t timing_idx = 0;
        bool committed = false;
        bool performed = false;
        bool retired = false;
        bool blocks_pipeline = false; //!< cpu waits on this request
        bool wait_performed = false;  //!< wait extends to globally performed
        bool is_sync = false;
        RegId dst = 0;        //!< register receiving a read value
        bool has_read = false;
        AccessKind kind = AccessKind::data_read;
        Addr addr = invalid_addr;
        Value wvalue = 0;
        Value rvalue = 0;
        bool done = false; //!< committed, performed and retired
    };

    /** Main sequencing step: try to execute the instruction at pc. */
    void step();

    /** Schedule step() if not already scheduled. */
    void wake(Tick delay);

    /** Policy: may the access at the current pc issue now? */
    bool canIssue(const Instruction &inst) const;

    /** Policy: must the cpu block until this access commits/performs? */
    bool blocksUntilCommit(const Instruction &inst) const;
    bool blocksUntilPerformed(const Instruction &inst) const;

    /** Any issued access not yet globally performed? */
    bool anyOutstanding() const;

    /** Number of accesses issued but not yet globally performed. */
    int countOutstanding() const;

    /** Retire committed requests in program order into the execution. */
    void retire();

    /** Drop a request once committed, performed and retired. */
    void cleanup(std::uint64_t id);

    /** The in-flight request @p id, or nullptr once dropped. */
    Pending *findPending(std::uint64_t id);

    /**
     * Drop @p p and slide the window past every dropped request at its
     * front (which may move the remaining ones: re-find after this).
     */
    void dropPending(Pending &p);

    ProcId id_;
    const ThreadCode *code_ = nullptr;
    EventQueue &eq_;
    OrderingPolicy policy_;
    Execution *exec_;
    CpuCfg cfg_;
    Cache *cache_ = nullptr;

    Pc pc_ = 0;
    std::array<Value, num_regs> regs_{};
    bool halted_ = false;
    Tick finish_tick_ = 0;
    bool step_scheduled_ = false;
    bool waiting_issue_ = false;   //!< blocked on a policy issue condition
    bool issue_wait_mlp_ = false;  //!< last failed gate was max_outstanding
    Tick wait_started_ = 0;
    std::uint64_t blocked_on_ = 0; //!< request id the pipeline waits on
    bool blocked_ = false;
    Tick block_started_ = 0;

    std::uint64_t next_req_ = 1;
    // Request ids are handed out in program order, so the requests
    // still tracked form a window [pending_base_, next_req_) that
    // slides forward as the oldest are dropped.
    Fifo<Pending> pending_;
    std::uint64_t pending_base_ = 1;
    std::uint64_t next_retire_ = 1; //!< first request not yet retired
    int outstanding_ = 0;           //!< issued, not globally performed
    std::vector<OpTiming> timings_;
    StatGroup stats_;
    // Handles into stats_, resolved once: per-event increments skip the
    // name lookup.
    Counter &work_cycles_ = stats_.counterHandle("work_cycles");
    Counter &issue_stall_polls_ = stats_.counterHandle("issue_stall_polls");
    Counter &data_issue_stall_ =
        stats_.counterHandle("data_issue_stall_cycles");
    Counter &sync_issue_stall_ =
        stats_.counterHandle("sync_issue_stall_cycles");
    Counter &data_ops_ = stats_.counterHandle("data_ops");
    Counter &sync_ops_ = stats_.counterHandle("sync_ops");
    Counter &read_stall_ = stats_.counterHandle("read_stall_cycles");
    Counter &sync_commit_stall_ =
        stats_.counterHandle("sync_commit_stall_cycles");
    Counter &perform_stall_ = stats_.counterHandle("perform_stall_cycles");
    Counter &sync_perform_stall_ =
        stats_.counterHandle("sync_perform_stall_cycles");
};

} // namespace wo

#endif // WO_SYS_CPU_HH
