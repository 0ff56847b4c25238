/**
 * @file
 * The always-on runtime verifier of the Definition-2 contract.
 *
 * The post-hoc pipeline (run, then `checkSequentialConsistency`,
 * `findRaces`, `checkHbLastWrite` over the finished Execution) answers
 * "was that run correct?" only after the system has drained.  The
 * Monitor answers it *while the system runs*: it is fed every retired
 * memory operation plus the coherence substrate's counter and
 * reserve-bit transitions, maintains the happens-before vector clocks
 * incrementally (the same construction as HbRelation, reusing
 * hb/vector_clock), and raises a violation at the cycle the invariant
 * breaks:
 *
 *  - **drf0_race** -- two conflicting accesses unordered by hb.  A
 *    *software* finding: under Definition 2 a racy program voids the
 *    SC-appearance contract, so races never count against the
 *    hardware, but they are reported with the witness pair.
 *  - **stale_read** -- in a race-free history, a read returned a value
 *    other than its unique hb-last write (Lemma 1 clause 1).  This is
 *    the online SC-appearance check: hardware broke the contract.
 *  - **coherence_order** -- writes to one location retired against
 *    their commit-time order in a race-free history (per-location
 *    serialization broken).
 *  - **counter_negative / counter_undrained** -- the Section-5.3
 *    outstanding-access counter went below zero, or was nonzero when a
 *    completed run quiesced.
 *  - **reserve_leak** -- a reserve bit observed while its processor's
 *    counter read zero ("all reserve bits are reset when the counter
 *    reads zero"), or still set at quiesce.
 *  - **unperformed_op** -- a completed run ended with operations never
 *    globally performed.
 *
 * The monitor keeps its own copy of the execution (ops arrive with
 * full detail), so every violation can be rendered with op witnesses
 * and the surrounding happens-before structure exported as DOT.
 */

#ifndef WO_OBS_MONITOR_HH
#define WO_OBS_MONITOR_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "execution/execution.hh"
#include "hb/dot.hh"
#include "hb/happens_before.hh"
#include "hb/vector_clock.hh"
#include "obs/json.hh"

namespace wo {

/**
 * What broke.  Everything except drf0_race blames the hardware.  The
 * last three kinds are raised by the campaign's dual-engine verify
 * cells (src/campaign/verify.hh), not by the online monitor: they name
 * a disagreement between two independent checking engines (or a broken
 * Definition-2 subset claim), and ride the same shrink / dedup /
 * reproducer pipeline as the monitor's runtime findings.
 */
enum class ViolationKind : std::uint8_t
{
    drf0_race,         //!< conflicting accesses unordered by hb (software)
    stale_read,        //!< read differs from unique hb-last write
    coherence_order,   //!< same-location writes retired out of commit order
    counter_negative,  //!< outstanding-access counter below zero
    counter_undrained, //!< counter nonzero after a completed run
    reserve_leak,      //!< reserve bit held while the counter reads zero
    unperformed_op,    //!< completed run left operations unperformed
    dpor_divergence,   //!< DPOR and BFS explorers disagree on an outcome set
    axiom_divergence,  //!< axiomatic SC set != operational SC explorer set
    def2_subset,       //!< DRF0 program saw non-SC outcomes on a claiming model
};

/** Stable printable kind name (stats key / report label). */
const char *violationKindName(ViolationKind k);

/**
 * Reverse lookup: true and @p out set when @p name is a kind name.
 * Journals, fleet messages and shrink requests all carry kinds by
 * their stable names, so the reverse edge lives next to the forward
 * one.
 */
bool violationKindFromName(const std::string &name, ViolationKind &out);

/** Number of ViolationKind values (for iteration). */
inline constexpr int num_violation_kinds = 10;

/**
 * Does this kind indict the hardware?  Races are the software breaking
 * DRF0; everything else is the machine breaking Definition 2 or its
 * Section-5.3 implementation invariants.
 */
bool violationBlamesHardware(ViolationKind k);

/** One detected violation, with its witness. */
struct MonitorViolation
{
    ViolationKind kind;
    Tick tick = 0;             //!< cycle the invariant broke
    ProcId proc = invalid_proc; //!< processor involved (when meaningful)
    Addr addr = invalid_addr;  //!< location involved (when meaningful)
    OpId op_a = invalid_op;    //!< first witness op (when meaningful)
    OpId op_b = invalid_op;    //!< second witness op (when meaningful)
    Value expected = 0;        //!< stale_read: value the read should return
    Value got = 0;             //!< stale_read: value it returned
    std::string detail;        //!< human-readable witness, built at raise
                               //!< (empty when MonitorCfg::witness_text
                               //!< is off)

    /** e.g. "[stale_read] tick 117: P1 R(x)=0 expected 1 from P0 W(x)=1". */
    std::string toString() const;
};

/** Monitor configuration. */
struct MonitorCfg
{
    /** Synchronization-order flavor (match the policy under test). */
    HbRelation::SyncFlavor flavor = HbRelation::SyncFlavor::drf0;

    /**
     * Violations recorded with full witness detail; further ones only
     * count.  Bounds evidence memory when a broken machine livelocks
     * through the same breach every retry cycle.
     */
    std::size_t max_recorded = 64;

    /**
     * Render MonitorViolation::detail.  Off, violations keep their
     * kind, tick, processor, location and witness ops, and every count
     * stays the same, but no text is formatted: a System turns it off
     * for runs whose report nobody reads (see SystemCfg::collect_stats
     * and dump_on_fail).
     */
    bool witness_text = true;
};

/**
 * Compact value-type snapshot of a monitor's verdict.  The campaign
 * engine runs many Systems concurrently and must capture each cell's
 * verdict without touching shared or global state; everything a worker
 * needs to classify a run is copied out here before the System (and
 * its monitor) is destroyed.
 */
struct MonitorSummary
{
    std::uint64_t total = 0;    //!< all findings ever raised
    std::uint64_t hardware = 0; //!< hardware-blaming findings
    std::uint64_t races = 0;    //!< software races
    std::uint64_t by_kind[num_violation_kinds] = {};
    Tick first_tick = max_tick; //!< first violation (max_tick when none)

    /** No hardware violations. */
    bool clean() const { return hardware == 0; }
};

/** The online invariant monitor.  Fed by Obs; one per System. */
class Monitor
{
  public:
    /**
     * @param nprocs  processor count
     * @param nlocs   shared-location count
     * @param initial initial memory image (empty = all zero)
     * @param cfg     behaviour knobs
     */
    Monitor(ProcId nprocs, Addr nlocs, std::vector<Value> initial,
            const MonitorCfg &cfg = {});

    /**
     * Restore the freshly-constructed state; the arguments mean what
     * the constructor's do.  Clock, location and execution storage is
     * kept for reuse.
     */
    void reset(ProcId nprocs, Addr nlocs, const std::vector<Value> &initial,
               const MonitorCfg &cfg);

    // ---- hooks (via Obs) ---------------------------------------------

    /** One memory operation retired, with full detail. */
    void opRetired(ProcId p, Addr addr, AccessKind kind, Value value_read,
                   Value value_written, Tick commit_tick, Tick now);

    /** Processor @p p's outstanding-access counter changed to @p value. */
    void counterChanged(ProcId p, int value, Tick now);

    /** Processor @p p's cache set the reserve bit on @p addr. */
    void reserveSet(ProcId p, Addr addr, Tick now);

    /** Processor @p p's cache cleared all its reserve bits. */
    void reserveCleared(ProcId p, Tick now);

    /**
     * End of run.  @p completed runs must have drained: counters zero,
     * no reserve bits, no unperformed operations.  Deadlocked and
     * livelocked runs skip those checks (the termination itself is
     * reported by the system; evidence is dumped either way).
     */
    void finalize(Tick now, bool completed, std::uint64_t unperformed_ops);

    // ---- results -----------------------------------------------------

    /** Recorded violations (first max_recorded, in raise order). */
    const std::vector<MonitorViolation> &violations() const
    {
        return violations_;
    }

    /** All violations ever raised (recorded or only counted). */
    std::uint64_t totalViolations() const { return total_; }

    /** Violations that blame the hardware (excludes drf0_race). */
    std::uint64_t hardwareViolations() const { return hardware_; }

    /** Data races detected (software findings). */
    std::uint64_t races() const { return races_; }

    /** Raised count per kind, indexed by ViolationKind. */
    std::uint64_t countOf(ViolationKind k) const
    {
        return by_kind_[static_cast<int>(k)];
    }

    /** No hardware violations so far. */
    bool clean() const { return hardware_ == 0; }

    /** Tick of the first violation (max_tick when none). */
    Tick firstViolationTick() const { return first_tick_; }

    /** The monitored execution so far (append order = retire order). */
    const Execution &execution() const { return exec_; }

    /** Multi-line human-readable report: verdict plus every witness. */
    std::string report() const;

    /**
     * The happens-before structure of the monitored execution as DOT
     * (Figure-2 style, races in red) -- the violation's hb witness,
     * written next to the flight-recorder window on a failure dump.
     */
    std::string witnessDot() const;

    /** The same hb witness rendered directly as self-contained SVG
     *  (no graphviz round-trip) -- the `.hb.svg` evidence artifact
     *  `wotool report` embeds per failure. */
    std::string witnessSvg() const;

    /** Machine-readable summary for the metrics tree. */
    Json toJson() const;

    /** Copy-out verdict snapshot (outlives the monitor; see above). */
    MonitorSummary summary() const;

  private:
    /** Flavor + witness title shared by the DOT and SVG renderings. */
    DotCfg witnessDotCfg() const;

    /** Last write/read of one processor on one location. */
    struct LastOp
    {
        std::uint32_t tick = 0;  //!< issuing proc's clock component
        OpId id = invalid_op;
    };

    /** A write not (yet) hb-dominated by a later write to the location. */
    struct WriteRec
    {
        OpId id;
        ProcId proc;
        Value value;
        VectorClock clock;
    };

    /** Per-location incremental state. */
    struct LocState
    {
        std::vector<LastOp> lastw, lastr; //!< per processor
        /**
         * Non-dominated writes: the first frontier_size entries, in
         * retire order.  Entries past it are dropped records kept so
         * their clocks' storage is reused.
         */
        std::vector<WriteRec> frontier;
        std::size_t frontier_size = 0;
        std::vector<Value> written_values; //!< sorted, every value retired
        VectorClock chan; //!< the location's synchronization channel
        Tick last_write_commit = 0;
        bool raced = false; //!< a race touched this location: the DRF0
                            //!< contract is void here, hardware checks off

        /**
         * Suspected stale reads whose returned value matches no write
         * retired so far.  Such a value can come from an *in-flight*
         * write that has not reached the monitor yet; if that write
         * races with the read, the contract is void and blaming the
         * hardware would be wrong.  Judgment is deferred: a later race
         * on the location drops the suspicion, finalize() of a
         * completed race-free run raises it (every write has retired
         * by then, so the value really came from nowhere or from an
         * hb-ordered *future* write -- hardware either way).
         */
        std::vector<MonitorViolation> pending_stale;
    };

    LocState &loc(Addr a);
    void raise(MonitorViolation v);

    /** Will the next raised violation be recorded with its detail? */
    bool recording() const
    {
        return cfg_.witness_text && violations_.size() < cfg_.max_recorded;
    }

    ProcId nprocs_ = 0;
    Addr nlocs_ = 0;
    MonitorCfg cfg_;
    Execution exec_;
    // proc_clock_ and locs_ only ever grow: entries past nprocs_ /
    // nlocs_ are storage kept for a later reset.
    std::vector<VectorClock> proc_clock_;
    std::vector<LocState> locs_;
    std::vector<int> counter_;               //!< last seen, per proc
    std::vector<std::uint32_t> reserve_bits_; //!< held bits, per proc

    std::vector<MonitorViolation> violations_;
    std::uint64_t total_ = 0;
    std::uint64_t hardware_ = 0;
    std::uint64_t races_ = 0;
    std::uint64_t by_kind_[num_violation_kinds] = {};
    Tick first_tick_ = max_tick;
    bool finalized_ = false;
};

} // namespace wo

#endif // WO_OBS_MONITOR_HH
