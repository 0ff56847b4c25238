/**
 * @file
 * Automatic counterexample minimization (delta debugging).
 *
 * When a campaign cell catches the hardware red-handed, the raw
 * witness is whatever program happened to trigger it -- often dozens
 * of instructions across several processors.  The shrinker reduces it
 * while the verdict keeps reproducing, in the ddmin tradition: drop
 * whole processors, drop instruction chunks of halving size (with
 * branch-target fixup), and compact unused shared locations, iterating
 * to a fixed point or a run budget.  The result is a minimal `.wo`
 * reproducer whose hash doubles as the failure's deduplication
 * identity, so a campaign reports each distinct bug once no matter how
 * many cells tripped over it.
 *
 * Every candidate evaluation is one full timed-system run with the
 * online monitor attached, under the exact configuration of the
 * failing cell (policy, network seed, seeded faults), so reduction
 * never chases a different bug than the one it started from.
 */

#ifndef WO_CAMPAIGN_SHRINK_HH
#define WO_CAMPAIGN_SHRINK_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "obs/monitor.hh"
#include "program/program.hh"
#include "sys/system.hh"

namespace wo {

class MaterializeCache;

/** Shrinking knobs. */
struct ShrinkCfg
{
    /** Candidate-evaluation budget (each is one simulated run). */
    std::uint64_t max_runs = 500;
};

/** What the shrinker produced. */
struct ShrinkOutcome
{
    /** The violation still reproduces on the minimized program. */
    bool reproduced = false;
    std::uint64_t runs = 0;         //!< candidate evaluations spent
    std::size_t orig_instructions = 0;
    std::size_t instructions = 0;   //!< static size of the result
    ProcId procs = 0;
    Addr locations = 0;
    std::optional<Program> program; //!< the minimized program
    std::vector<WarmTerm> warm;     //!< surviving warm directives
    std::string wo_text;            //!< assembly reproducer (with warm)
};

/**
 * Does @p kind still reproduce when @p prog runs under @p cfg?  One
 * timed run with the monitor attached; @p warm is applied first.
 * (@p cfg.monitor is forced on and @p cfg.quiet forced true.)  With
 * @p worker the run reuses that worker's machine instead of building
 * one.
 */
bool reproducesViolation(const Program &prog,
                         const std::vector<WarmTerm> &warm, SystemCfg cfg,
                         ViolationKind kind,
                         MaterializeCache *worker = nullptr);

/**
 * "Does the failure still reproduce on this candidate?"  Each call
 * costs whatever the caller's oracle costs -- a timed monitored run
 * for run-cell failures, a full dual-engine verification for verify
 * findings -- so the run budget in ShrinkCfg bounds the total.
 */
using ShrinkPredicate =
    std::function<bool(const Program &, const std::vector<WarmTerm> &)>;

/**
 * Minimize @p prog while @p still_fails keeps holding.  The ddmin core
 * behind both public overloads; when even the input does not satisfy
 * the predicate, the outcome carries the input program with
 * reproduced == false.
 */
ShrinkOutcome shrinkCounterexample(const Program &prog,
                                   const std::vector<WarmTerm> &warm,
                                   const ShrinkPredicate &still_fails,
                                   const ShrinkCfg &cfg = {});

/**
 * Minimize @p prog while @p kind keeps reproducing under @p sys_cfg
 * (the monitored timed-run predicate), on @p worker's machine when
 * given.
 */
ShrinkOutcome shrinkCounterexample(const Program &prog,
                                   const std::vector<WarmTerm> &warm,
                                   const SystemCfg &sys_cfg,
                                   ViolationKind kind,
                                   const ShrinkCfg &cfg = {},
                                   MaterializeCache *worker = nullptr);

} // namespace wo

#endif // WO_CAMPAIGN_SHRINK_HH
