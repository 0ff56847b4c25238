/**
 * @file
 * The campaign engine: a work-stealing worker fleet that turns the
 * generators, the timed simulator and the online monitor into bulk
 * verification of the paper's Definition-2 contract.
 *
 * Each of N workers owns a deque of cells.  Fresh mutants from the
 * fuzz frontier are pushed locally (LIFO, so a bug's neighborhood is
 * explored while it is hot); a worker drains its own deque first, then
 * steals from a random victim's opposite end (FIFO).  Half the global
 * budget is reserved for the deterministic base stream -- even tickets
 * always draw the next base cell -- so a self-sustaining mutant
 * frontier can never starve corpus coverage.  A global ticket counter
 * bounds the campaign at `cells` cells (or the time budget), counting
 * resumed skips, so kill + `--resume` converges instead of re-running
 * history.
 *
 * The engine is the in-process *cell source* of the campaign
 * pipeline: tickets, the base stream and the frontier deques decide
 * which cell runs next.  Running it (and shrinking a hardware failure
 * to a minimal reproducer) is a CellExecutor's job (executor.hh), one
 * per worker; tallying, journaling, deduplicated failure filing and
 * the summary belong to the ResultSink (sink.hh) all workers feed.
 * The fleet (src/fleet/) runs the same executor on remote workers and
 * feeds the same sink on its coordinator.  The first equivalent
 * failure also gets an evidence bundle here, in process.
 *
 * The per-cell hot path carries no serialization point, so throughput
 * scales near-linearly with --jobs: the journal group-commits from a
 * dedicated writer thread (see journal.hh), resume lookups read an
 * immutable snapshot, and each worker owns its executor (cache and
 * machine) and a cache-line-aligned tally slot in the sink.
 */

#ifndef WO_CAMPAIGN_SCHEDULER_HH
#define WO_CAMPAIGN_SCHEDULER_HH

#include <string>
#include <vector>

#include "campaign/cell.hh"
#include "campaign/fuzzer.hh"
#include "campaign/sink.hh"

namespace wo {

class HttpServer;

/**
 * A campaign's cell spec: the base stream's parameters (FuzzerCfg)
 * plus the per-cell budgets and shrink settings.  Everything here
 * means the same on a remote fleet worker, so this is what a fleet
 * lease carries (FleetCampaignSpec, fleet/proto.hh) and what both
 * transports' executors and generators are configured from.
 */
struct CampaignSpec : FuzzerCfg
{
    std::uint64_t cells = 200;    //!< cell budget (includes skips)
    std::uint64_t max_events = 300'000; //!< per-cell livelock budget
    bool shrink = true;           //!< minimize hardware failures
    std::uint64_t shrink_max_runs = 500;
};

/** Campaign configuration (the `wotool campaign` surface). */
struct CampaignCfg : CampaignSpec
{
    int jobs = 1;                 //!< worker threads
    double time_budget_s = 0;     //!< wall-clock cap; 0 = none
    std::string out_dir = "campaign-out";
    std::string journal_path;     //!< default: <out_dir>/campaign.journal.jsonl
    bool resume = false;          //!< replay the journal, skip done cells
    /**
     * Feed novelty-earned mutants back into the fleet (`--no-frontier`
     * turns it off).  With the frontier off every ticket draws the
     * deterministic base stream, so the executed cell *set* is a pure
     * function of (seed, cells) -- the property the distributed fleet
     * (src/fleet/) shards on, and what makes two runs comparable
     * cell-for-cell in the verdict-parity tests.
     */
    bool frontier = true;
    bool progress = false;        //!< live progress line on stderr
    /**
     * Journal group-commit granularity: fwrite+fflush after at most
     * this many buffered records (`--sync-every`; 1 = one flush per
     * cell, the pre-group-commit behavior).  A partial batch is
     * committed within `flush_interval_ms` regardless.
     */
    std::uint64_t sync_every = 64;
    int flush_interval_ms = 5;
    /**
     * Self-profile the fleet (`--profile`): sample every engine thread
     * at profile_hz, write the collapsed stacks and the per-lane
     * Chrome trace under out_dir, and mount the top-N tables in the
     * summary JSON.  Span *aggregates* (the per-lane decomposition in
     * the summary and the live idle%) are always on; --profile adds
     * the sampled stacks and the raw span events.
     */
    bool profile = false;
    /** Self-profiler sampling rate, in samples per second. */
    double profile_hz = 97;
    /** Folded-stack output path; default <out_dir>/campaign.folded.txt. */
    std::string profile_out;
    /**
     * Live control plane (`--serve-port`): an already-started server
     * the caller owns.  runCampaign() mounts /healthz, /metrics,
     * /progress and /events on it for the duration of the run and
     * stops it before returning -- the handlers capture engine state
     * whose lifetime ends with the call.  Binding (and surfacing a
     * port-in-use as a config error) is the caller's job.
     */
    HttpServer *serve = nullptr;
};

/** @p spec as JSON: the journal header of an in-process campaign and
 *  the fleet's wire spec (fleet/proto.hh). */
Json campaignSpecJson(const CampaignSpec &spec);

/** Run a campaign to completion (or its budget). */
CampaignSummary runCampaign(const CampaignCfg &cfg);

} // namespace wo

#endif // WO_CAMPAIGN_SCHEDULER_HH
