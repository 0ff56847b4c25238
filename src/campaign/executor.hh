/**
 * @file
 * The campaign cell executor, shared by both transports: the
 * in-process engine owns one per worker thread, a fleet worker one per
 * job slot.  An executor owns its thread's MaterializeCache and, through
 * it, the reused machine every timed cell runs on.  It runs a cell and,
 * when the result blames the hardware with a nameable kind, shrinks the
 * program (shrink.hh) under the cell's predicate: the dual-engine check
 * for verify cells, the monitored timed run for run cells.  The result
 * then goes to a ResultSink (sink.hh).
 */

#ifndef WO_CAMPAIGN_EXECUTOR_HH
#define WO_CAMPAIGN_EXECUTOR_HH

#include <optional>
#include <string>

#include "campaign/cell.hh"
#include "campaign/scheduler.hh"
#include "campaign/shrink.hh"

namespace wo {

/** One executed cell: the run, plus its shrunk failure if it had one. */
struct ExecutedCell
{
    CellRun run;
    /** Set when the run blamed the hardware with a nameable kind. */
    std::optional<ShrinkOutcome> shrunk;
};

/** Runs and shrinks cells on one thread's reused machine. */
class CellExecutor
{
  public:
    explicit CellExecutor(const CampaignSpec &spec) { configure(spec); }

    /** Adopt @p spec's event budget and shrink settings (a fleet worker
     *  reconfigures per lease; the cache and machine persist). */
    void configure(const CampaignSpec &spec);

    /** Run @p cell (whose key is @p key); on a nameable hardware
     *  failure also shrink it and stamp the result's shrink_us. */
    ExecutedCell execute(const Cell &cell, std::string key);

    /**
     * Write the evidence bundle of a shrunk failure next to its
     * reproducer at @p stem: a verify cell's outcome-set diff report
     * (`.verify.txt`), or a flight-recorder dump of a run cell's
     * minimum re-run.
     */
    void writeEvidence(const Cell &cell, const ShrinkOutcome &shrunk,
                       const std::string &stem) const;

  private:
    std::uint64_t max_events_ = 0;
    std::uint64_t shrink_runs_ = 0; //!< 1 with shrinking off
    MaterializeCache cache_;
};

} // namespace wo

#endif // WO_CAMPAIGN_EXECUTOR_HH
