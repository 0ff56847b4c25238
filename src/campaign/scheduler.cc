#include "scheduler.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "campaign/executor.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "obs/artifact.hh"
#include "obs/httpd.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"

namespace wo {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Per-worker deques with stealing.  A worker pushes and pops its own
 * back (LIFO keeps a bug's freshly-mutated neighborhood hot in cache
 * and in mind); thieves take from the front, i.e. the oldest, most
 * "different" work, the classic Cilk/Chase-Lev discipline.  Mutexed
 * rather than lock-free: a cell costs a full simulated run, so deque
 * contention is noise.
 */
class StealDeques
{
  public:
    explicit StealDeques(int n)
    {
        for (int i = 0; i < n; ++i)
            slots_.push_back(std::make_unique<Slot>());
    }

    void
    push(int w, Cell c)
    {
        std::lock_guard<std::mutex> lock(slots_[w]->mu);
        slots_[w]->q.push_back(std::move(c));
    }

    bool
    popLocal(int w, Cell &out)
    {
        std::lock_guard<std::mutex> lock(slots_[w]->mu);
        if (slots_[w]->q.empty())
            return false;
        out = std::move(slots_[w]->q.back());
        slots_[w]->q.pop_back();
        return true;
    }

    /** One full round over the victims, starting at a random one. */
    bool
    steal(int thief, Cell &out, Rng &rng)
    {
        const int n = static_cast<int>(slots_.size());
        if (n <= 1)
            return false;
        int victim = static_cast<int>(rng.below(n));
        for (int i = 0; i < n; ++i, victim = (victim + 1) % n) {
            if (victim == thief)
                continue;
            std::lock_guard<std::mutex> lock(slots_[victim]->mu);
            if (slots_[victim]->q.empty())
                continue;
            out = std::move(slots_[victim]->q.front());
            slots_[victim]->q.pop_front();
            return true;
        }
        return false;
    }

  private:
    struct Slot
    {
        std::mutex mu;
        std::deque<Cell> q;
    };
    std::vector<std::unique_ptr<Slot>> slots_;
};

/** Shared campaign state (one per runCampaign call; no globals). */
struct Engine
{
    explicit Engine(const CampaignCfg &c)
        : cfg(c),
          fuzzer(c),
          lanes(new Timeline[static_cast<std::size_t>(c.jobs) + 1]),
          sink(c.journal_path,
               JournalCfg{c.sync_every, c.flush_interval_ms,
                          &lanes[c.jobs]},
               c.out_dir, c.jobs),
          deques(c.jobs)
    {
        // One shared epoch so every lane lines up in the trace.  Raw
        // span events are kept only under --profile; the aggregates
        // behind the summary decomposition are always on.
        const Timeline::Clock::time_point epoch =
            Timeline::Clock::now();
        for (int w = 0; w < c.jobs; ++w)
            lanes[w].configure(strprintf("worker%d", w), epoch,
                               c.profile);
        lanes[c.jobs].configure("journal-writer", epoch, c.profile);
    }

    const CampaignCfg &cfg;
    Fuzzer fuzzer;
    // jobs worker lanes + the journal-writer lane (declared before the
    // sink, whose journal writer thread holds a pointer into it).
    std::unique_ptr<Timeline[]> lanes;
    ResultSink sink;
    StealDeques deques;
    Clock::time_point t0;

    // The only cross-worker atomics on the hot path: the global cell
    // budget and the base-stream cursor.  Both are plain tickets --
    // no ordering is carried through them, so relaxed is enough.
    std::atomic<std::uint64_t> tickets{0};
    std::atomic<std::uint64_t> base_index{0};
    std::atomic<bool> done{false};

    bool
    timeUp() const
    {
        return cfg.time_budget_s > 0 && elapsedS() > cfg.time_budget_s;
    }

    double
    elapsedS() const
    {
        return std::chrono::duration<double>(Clock::now() - t0).count();
    }

    void worker(int w);

    /** Live idle share of worker @p w's lane, in percent. */
    double
    idlePct(int w) const
    {
        const std::uint64_t el = lanes[w].liveElapsedNs();
        const std::uint64_t id = lanes[w].liveNs(SpanKind::idle);
        return el > 0 ? 100.0 * static_cast<double>(id) /
                            static_cast<double>(el)
                      : 0.0;
    }

    // --- Live control plane (every reader below touches only the
    // sink's owner-written relaxed atomics and the lanes' live totals;
    // none stalls the fleet).

    /** Campaign-wide cell counts (/metrics "cells.*", /progress). */
    Json cellsJson() const;

    /** Worker @p w's cell counts. */
    Json workerJson(int w) const;

    /** The live metrics tree (rendered by /metrics as Prometheus
     *  text with prefix "wo_campaign"). */
    Json metricsJson() const;

    /** The /progress JSON document. */
    Json progressJson() const;
};

Json
Engine::cellsJson() const
{
    Json c = Json::object();
    c.set("total", Json(cfg.cells));
    c.set("completed", Json(sink.completed()));
    c.set("ran", Json(sink.sum(&ResultSink::Slot::ran)));
    c.set("skipped", Json(sink.sum(&ResultSink::Slot::skipped)));
    c.set("duplicate", Json(sink.sum(&ResultSink::Slot::duplicate)));
    c.set("hw_failed", Json(sink.verdicts(VerdictClass::hw)));
    return c;
}

Json
Engine::workerJson(int w) const
{
    const ResultSink::Slot &ws = sink.slot(w);
    Json j = Json::object();
    j.set("completed", Json(ws.completed()));
    j.set("ran", Json(ws.ran.load(std::memory_order_relaxed)));
    j.set("skipped", Json(ws.skipped.load(std::memory_order_relaxed)));
    j.set("duplicate", Json(ws.duplicate.load(std::memory_order_relaxed)));
    return j;
}

Json
Engine::metricsJson() const
{
    MetricsRegistry reg;
    const Json cells = cellsJson();
    for (const auto &[k, v] : cells.members())
        reg.set("cells." + k, v);
    reg.set("failures.unique", Json(sink.uniqueFailures()));
    reg.set("explore.commutation_probes",
            Json(sink.sum(&ResultSink::Slot::dpor_probes)));
    reg.set("explore.memo_hits",
            Json(sink.sum(&ResultSink::Slot::dpor_memo_hits)));
    reg.set("frontier.novelty", Json(fuzzer.noveltyCount()));
    reg.set("jobs", Json(static_cast<std::uint64_t>(cfg.jobs)));
    reg.set("done", Json(done.load(std::memory_order_relaxed)));
    reg.set("wall_seconds", Json(elapsedS()));
    for (int w = 0; w < cfg.jobs; ++w) {
        const Json counts = workerJson(w);
        for (const auto &[k, v] : counts.members())
            reg.set(strprintf("worker{worker=\"%d\"}.", w) + k, v);
    }
    // Per-lane span decomposition (workers + the journal writer):
    // where each thread's wall clock is going, right now.
    for (int i = 0; i <= cfg.jobs; ++i) {
        const Timeline &tl = lanes[i];
        const std::string base =
            strprintf("lane{lane=\"%s\"}", tl.lane().c_str());
        reg.set(base + ".elapsed_ns", Json(tl.liveElapsedNs()));
        for (int k = 0; k < num_span_kinds; ++k)
            reg.set(base + strprintf(".span_ns{span=\"%s\"}",
                                     spanKindName(
                                         static_cast<SpanKind>(k))),
                    Json(tl.liveNs(static_cast<SpanKind>(k))));
    }
    reg.set("cell_latency_us", sink.latencyMetricsJson());
    return reg.json();
}

Json
Engine::progressJson() const
{
    Json p = Json::object();
    p.set("cells", cellsJson());
    p.set("unique_failures", Json(sink.uniqueFailures()));
    p.set("novelty", Json(fuzzer.noveltyCount()));
    p.set("wall_s", Json(elapsedS()));
    p.set("done", Json(done.load(std::memory_order_relaxed)));

    const ResultSink::LatSnapshot s = sink.latency();
    Json lat = Json::object();
    lat.set("count", Json(s.count));
    lat.set("mean_ms",
            Json(s.count > 0 ? static_cast<double>(s.sum_us) /
                                   static_cast<double>(s.count) / 1000.0
                             : 0.0));
    lat.set("p50_ms", Json(ResultSink::latQuantileMs(s, 0.50)));
    lat.set("p99_ms", Json(ResultSink::latQuantileMs(s, 0.99)));
    p.set("latency", std::move(lat));

    Json workers = Json::array();
    for (int w = 0; w < cfg.jobs; ++w) {
        Json wj = workerJson(w);
        wj.set("worker", Json(static_cast<std::uint64_t>(w)));
        wj.set("idle_pct", Json(idlePct(w)));
        workers.push(std::move(wj));
    }
    p.set("workers", std::move(workers));
    return p;
}

void
Engine::worker(int w)
{
    // This thread owns lane w: spans opened anywhere below it (cell
    // materialize/run, journal pushes, shrinking) accrue here, and the
    // self-profiler samples it under the same lane name.
    Timeline &tl = lanes[w];
    Timeline::setCurrent(&tl);
    tl.markStart();
    Profiler::ThreadGuard prof_guard(tl.lane());
    // Worker-owned executor (program cache and machine): never
    // synchronized.
    CellExecutor exec(cfg);
    Rng rng(cfg.seed * 7919 + static_cast<std::uint64_t>(w) + 1);
    Journal &journal = sink.journal();
    while (!timeUp()) {
        // idle covers everything between finishing one cell and
        // starting the next: the ticket, deque pop/steal, the resume
        // check and the skip path.
        Timeline::Scope idle_span(&tl, SpanKind::idle);
        const std::uint64_t ticket =
            tickets.fetch_add(1, std::memory_order_relaxed);
        if (ticket >= cfg.cells)
            break;
        // Even tickets always advance the deterministic base stream;
        // only odd ones may take fuzz-frontier work.  A hot mutant
        // neighborhood (every timing mutant of a racy cell tends to
        // show a fresh outcome signature) can therefore never starve
        // base coverage -- at least half the budget walks the stream.
        Cell cell;
        const bool frontier =
            cfg.frontier && (ticket & 1) &&
            (deques.popLocal(w, cell) || deques.steal(w, cell, rng));
        if (!frontier)
            cell = fuzzer.baseCell(
                base_index.fetch_add(1, std::memory_order_relaxed));

        std::string key = cell.key();
        if (journal.done(key)) {
            // A resumed journal's cell, or a key the base stream or a
            // mutant already produced in this run.
            sink.skip(w, journal.resumed(key));
            continue;
        }
        idle_span.close();
        ExecutedCell x = exec.execute(cell, std::move(key));
        CellResult &r = x.run.result;
        sink.record(w, r.verdict(), r.wall_ms, r.by_kind, r.dpor_probes,
                    r.dpor_memo_hits);
        // Novelty is still tracked with the frontier off (the summary
        // reports it), but earned mutants go nowhere: no ticket would
        // ever pop them.
        for (Cell &m : fuzzer.observe(cell, r))
            if (cfg.frontier)
                deques.push(w, std::move(m));
        if (x.shrunk) {
            Timeline::Scope file_span(&tl, SpanKind::shrink);
            const auto f0 = Clock::now();
            FailureRecord rec;
            rec.kind = r.primary_kind;
            rec.first_cell = r.key;
            rec.instructions = x.shrunk->instructions;
            rec.orig_instructions = x.shrunk->orig_instructions;
            rec.reproduced = x.shrunk->reproduced;
            const std::string stem =
                sink.fileFailure(std::move(rec), x.shrunk->wo_text);
            if (!stem.empty())
                exec.writeEvidence(cell, *x.shrunk, stem);
            r.shrink_us += static_cast<std::uint64_t>(
                std::chrono::duration<double, std::micro>(Clock::now() -
                                                          f0)
                    .count());
        }
        // Journaled after shrinking so the cell line carries the full
        // span decomposition; a crash mid-shrink therefore re-runs the
        // cell on resume, which re-discovers the failure -- correct,
        // just not free.
        journal.appendCell(r);
    }
    tl.markEnd();
    Timeline::setCurrent(nullptr);
}

} // namespace

Json
campaignSpecJson(const CampaignSpec &cfg)
{
    Json j = Json::object();
    j.set("seed", Json(cfg.seed));
    j.set("cells", Json(cfg.cells));
    std::vector<std::string> pols;
    for (OrderingPolicy p : cfg.policies)
        pols.push_back(policyFlagName(p));
    j.set("policies", Json(joinCommas(pols)));
    Json files = Json::array();
    for (const auto &f : cfg.program_files)
        files.push(Json(f));
    j.set("programs", std::move(files));
    j.set("max_events", Json(cfg.max_events));
    j.set("shrink", Json(cfg.shrink));
    j.set("shrink_max_runs", Json(cfg.shrink_max_runs));
    if (cfg.inject_reserve_bug)
        j.set("inject_reserve_bug", Json(true));
    if (cfg.verify) {
        j.set("verify", Json(true));
        j.set("verify_models", Json(joinCommas(cfg.verify_models)));
        j.set("max_states", Json(cfg.max_states));
        j.set("explore_jobs",
              Json(static_cast<std::uint64_t>(cfg.explore_jobs)));
        if (cfg.inject_axiom_bug)
            j.set("inject_axiom_bug", Json(true));
    }
    return j;
}

CampaignSummary
runCampaign(const CampaignCfg &user_cfg)
{
    CampaignCfg cfg = user_cfg;
    if (cfg.jobs < 1)
        cfg.jobs = 1;
    if (cfg.policies.empty())
        cfg.policies = {OrderingPolicy::wo_drf0};
    if (cfg.journal_path.empty())
        cfg.journal_path = cfg.out_dir + "/campaign.journal.jsonl";
    std::error_code ec;
    std::filesystem::create_directories(cfg.out_dir, ec);
    if (ec)
        warn("cannot create campaign out dir '%s': %s",
             cfg.out_dir.c_str(), ec.message().c_str());

    Engine eng(cfg);
    Journal &journal = eng.sink.journal();
    if (cfg.resume)
        journal.load();
    // Size the lock-free seen set for this run's appends before any
    // worker can touch it.
    journal.reserveKeys(static_cast<std::size_t>(cfg.cells));
    journal.open(/*fresh=*/!cfg.resume);
    if (!cfg.resume) {
        Json meta = campaignSpecJson(cfg);
        meta.set("jobs", Json(static_cast<std::uint64_t>(cfg.jobs)));
        meta.set("sync_every", Json(cfg.sync_every));
        journal.writeHeader(std::move(meta));
    }

    // Self-profiling: the fleet threads register themselves (worker(),
    // writerLoop()); the coordinating thread registers here so the
    // folded output also shows where the join/report time goes.
    Profiler::ThreadGuard prof_guard("campaign-main");
    std::unique_ptr<Profiler> prof;
    if (cfg.profile) {
        ProfilerCfg pcfg;
        pcfg.hz = cfg.profile_hz;
        prof = std::make_unique<Profiler>(pcfg);
        if (!prof->start()) {
            warn("profiler: another instance is active; sampling off");
            prof.reset();
        }
    }

    eng.t0 = Clock::now();
    // Mount the control plane before the fleet exists: a scrape that
    // races the first cell just reads zeros.
    if (cfg.serve) {
        mountControlPlane(
            *cfg.serve, "wo_campaign", [&eng] { return eng.metricsJson(); },
            [&eng] { return eng.progressJson(); });
        eng.sink.mountEvents(
            *cfg.serve, [&eng] { return eng.progressJson(); }, eng.done);
    }
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(cfg.jobs));
    for (int w = 0; w < cfg.jobs; ++w)
        workers.emplace_back([&eng, w] { eng.worker(w); });

    std::thread reporter;
    if (cfg.progress)
        reporter = std::thread([&eng] {
            // The reporter reads only owner-written per-worker atomics
            // and the unique-failure counter: no lock is taken, so a
            // 200 ms print can never stall the fleet.
            while (!eng.done.load(std::memory_order_relaxed)) {
                const Json c = eng.cellsJson();
                const auto n = [&c](const char *k) {
                    return static_cast<unsigned long long>(
                        c.find(k)->uintValue());
                };
                // Live idle% per worker: one relaxed read of the
                // owner-written idle total against the lane's own
                // elapsed clock.  A starving fleet shows up here
                // mid-run, not in the post-mortem.
                std::string idle;
                for (int w = 0; w < eng.cfg.jobs; ++w)
                    idle += strprintf("%s%.0f", w ? " " : "",
                                      eng.idlePct(w));
                const double secs = eng.elapsedS();
                std::fprintf(
                    stderr,
                    "\r[campaign] %llu/%llu cells  %llu run  %llu "
                    "resumed  %llu dup  %llu hw-fail (%llu unique)  "
                    "%.1f cells/s idle%%[%s] ",
                    n("completed"), n("total"), n("ran"), n("skipped"),
                    n("duplicate"), n("hw_failed"),
                    static_cast<unsigned long long>(
                        eng.sink.uniqueFailures()),
                    secs > 0 ? static_cast<double>(n("completed")) / secs
                             : 0.0,
                    idle.c_str());
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(200));
            }
            std::fputc('\n', stderr);
        });

    for (auto &t : workers)
        t.join();
    eng.done = true;
    if (reporter.joinable())
        reporter.join();
    // Drain and commit the journal before anything reads it back: once
    // close() returns, every appended line is durable.
    journal.close();

    CampaignSummary sum = eng.sink.summary(eng.elapsedS());
    sum.novelty = eng.fuzzer.noveltyCount();

    // Per-lane decomposition: the jobs workers plus the journal
    // writer, each thread's wall clock split by span kind.  This is
    // the campaign explaining its own scaling curve.
    for (int i = 0; i <= cfg.jobs; ++i) {
        const Timeline &tl = eng.lanes[i];
        CampaignSummary::LaneSummary ls;
        ls.lane = tl.lane();
        ls.wall_ms = tl.wallMs();
        for (int k = 0; k < num_span_kinds; ++k) {
            const SpanAgg a = tl.agg(static_cast<SpanKind>(k));
            ls.span_ms[k] = a.total_ms;
            ls.span_count[k] = a.count;
            ls.span_max_ms[k] = a.max_ms;
        }
        sum.lanes.push_back(std::move(ls));
    }

    if (prof) {
        prof->stop();
        sum.profile_samples = prof->samples();
        sum.profile_dropped = prof->dropped();
        sum.profiler_json = prof->toJson();
        sum.folded_path = cfg.profile_out.empty()
                              ? cfg.out_dir + "/campaign.folded.txt"
                              : cfg.profile_out;
        writeFile(sum.folded_path, prof->folded());
        std::vector<const Timeline *> lane_ptrs;
        for (int i = 0; i <= cfg.jobs; ++i)
            lane_ptrs.push_back(&eng.lanes[i]);
        sum.trace_path = cfg.out_dir + "/campaign.trace.json";
        writeFile(sum.trace_path, timelinesChromeJson(lane_ptrs));
    }

    // The machine-readable summary next to the journal: what `wotool
    // report` reads for the outcome matrix and lane decomposition.
    writeFile(cfg.out_dir + "/campaign.summary.json",
              sum.toJson().dump(1) + "\n");
    // Handlers capture the engine on this stack frame: the server must
    // be quiet before it unwinds.  Streams deliver their final
    // progress + done events on the next poll; simple requests served
    // after `done` just read the final totals.
    if (cfg.serve)
        cfg.serve->stop();
    return sum;
}

} // namespace wo
