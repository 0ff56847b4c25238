/**
 * @file
 * The traced run: the per-layer ledger.  Each stage calls the layers'
 * public functions directly, in the order the engine calls them, on
 * one thread, and records a span around every call:
 *
 *   run stage     Fuzzer::baseCell, Cell::key, materializeCell, the
 *                 System ctor + warmShared, System::run, the monitor
 *                 summary reduce, Fuzzer::observe, shrinkCounterexample
 *                 and the failure filing, Journal::appendCell
 *   fleet stage   the RESULT codec and a LineConn loopback round trip;
 *                 the coordination tax (one lattice through a Coordinator
 *                 vs runCampaign) is timed untraced, outside the stage
 *   verify stage  materializeCell, DPOR and BFS exploreOutcomes, the SC
 *                 reference exploration, axiomScOutcomes, checkDrf0, then
 *                 checkDrf0 on seeded spin-lock DRF0 programs
 *   explore stage exploreOutcomes (DPOR, jobs 3 and jobs 1), plus
 *                 Model::hashState / Model::stepLabel micro-timings
 *
 * The stage of the workload named on the command line runs its full
 * committed pool item; the other stages run their tiny pool item, so
 * every per-layer metric is measured on every traced run.  A stage's
 * layer time is the self time of the spans that back a declared
 * per-layer metric; trace.coverage divides it by the traced wall.  Each
 * stage also runs once untraced (a null tracer) on the same inputs, which
 * prices the tracing itself (trace.overhead).  Every stage's outputs
 * are checked against the committed digests like a measured run.
 */

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>
#include <unordered_set>

#include "axiom/axiom_eval.hh"
#include "bench.hh"
#include "campaign/cell.hh"
#include "campaign/fuzzer.hh"
#include "campaign/journal.hh"
#include "campaign/scheduler.hh"
#include "campaign/shrink.hh"
#include "common/logging.hh"
#include "core/drf0_checker.hh"
#include "fleet/coordinator.hh"
#include "fleet/proto.hh"
#include "fleet/worker.hh"
#include "model_cells.hh"
#include "models/explorer.hh"
#include "models/model_registry.hh"
#include "obs/artifact.hh"
#include "pools.hh"
#include "run_cells.hh"
#include "sys/system.hh"

namespace pb {

namespace {

using Scope = Tracer::Scope;

double
ns(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** Span self time of one stage, by span name. */
struct StageTimes
{
    std::map<std::string, double> self_ns;
    double wall_ns = 0;     //!< traced stage wall
    double untraced_ns = 0; //!< the same work with tracing off
    /** The stage's layer spans: each backs a declared per-layer metric. */
    std::vector<std::string> layers;

    /** Self time of the layer spans; the rest of the wall is unattributed. */
    double layerNs() const
    {
        double s = 0;
        for (const std::string &name : layers)
            s += perCall(name, 1);
        return s;
    }
    double perCall(const std::string &name, double div) const
    {
        auto it = self_ns.find(name);
        return it == self_ns.end() || div <= 0 ? 0 : it->second / div;
    }
};

/**
 * Run @p body untraced and traced; collect the traced spans' times.
 * @p layers names the spans whose self time counts as layer time.
 */
template <typename Body>
StageTimes
timeStage(Tracer &tr, const char *stage, std::vector<std::string> layers,
          Body &&body)
{
    // Untraced, traced, untraced: the first pass only warms caches, so
    // the overhead compares two warm passes.
    StageTimes st;
    st.layers = std::move(layers);
    body(nullptr);
    const std::size_t from = tr.size();
    const auto t0 = Clock::now();
    {
        Scope root(&tr, stage, 0);
        body(&tr);
    }
    st.wall_ns = ns(t0, Clock::now());
    const auto u0 = Clock::now();
    body(nullptr);
    st.untraced_ns = ns(u0, Clock::now());
    st.self_ns = tr.selfNs(from);
    return st;
}

// --- run stage ------------------------------------------------------------

struct RunCounts
{
    std::uint64_t indices = 0, ran = 0, dups = 0;
    std::uint64_t events = 0, ticks = 0, misses = 0, dir_requests = 0;
    std::uint64_t build_allocs = 0, run_allocs = 0, journal_allocs = 0;
    std::uint64_t failures = 0, shrink_runs = 0, filed = 0;
    std::uint64_t shrunk_insns = 0, orig_insns = 0;
    std::set<std::string> dedup;
    std::vector<CellLine> lines;
    std::vector<wo::CellResult> results;
};

std::uint64_t
counter(const wo::StatGroup &g, const char *name)
{
    auto it = g.counters().find(name);
    return it == g.counters().end() ? 0 : it->second.value();
}

/** One lattice, cell by cell, the way a campaign worker runs it. */
RunCounts
runLattice(Tracer *tr, const LatticePool &pool, std::uint64_t seed,
           const std::string &dir)
{
    const wo::CampaignCfg cfg = latticeCfg(pool, seed, dir);
    wo::Fuzzer fuzzer(latticeFuzzerCfg(pool, seed));
    wo::MaterializeCache cache;
    wo::Journal journal(journalIn(dir));
    journal.reserveKeys(cfg.cells);
    journal.open(/*fresh=*/true);
    std::unordered_set<std::string> seen;

    RunCounts rc;
    for (std::uint64_t idx = 0; idx < cfg.cells; ++idx) {
        Scope cell_span(tr, "cell", idx);
        ++rc.indices;
        wo::Cell cell;
        {
            Scope s(tr, "campaign.base_cell", idx);
            cell = fuzzer.baseCell(idx);
        }
        std::string key;
        {
            Scope s(tr, "campaign.key", idx);
            key = cell.key();
            if (!seen.insert(key).second) {
                ++rc.dups; // the engine's journal.done() skip
                continue;
            }
        }
        wo::MaterializedCell m;
        {
            Scope s(tr, "program.materialize", idx);
            m = wo::materializeCell(cell, &cache);
        }
        wo::CellResult r;
        r.key = key;
        std::unique_ptr<wo::System> sys;
        if (m.ok()) {
            {
                Scope s(tr, "sys.build", idx);
                const std::uint64_t a0 = threadAllocs();
                sys = std::make_unique<wo::System>(
                    *m.program, cell.systemCfg(cfg.max_events));
                for (const auto &w : m.warm)
                    sys->warmShared(w.addr, w.procs);
                rc.build_allocs += threadAllocs() - a0;
            }
            wo::SystemResult sr;
            {
                Scope s(tr, "sys.run", idx);
                const std::uint64_t a0 = threadAllocs();
                sr = sys->run();
                rc.run_allocs += threadAllocs() - a0;
            }
            rc.events += sys->eventQueue().executed();
            rc.ticks += sr.finish_tick;
            for (wo::ProcId p = 0; p < m.program->numThreads(); ++p) {
                const wo::StatGroup &g = sys->cache(p).stats();
                rc.misses += counter(g, "read_misses") +
                             counter(g, "write_misses");
            }
            rc.dir_requests += counter(sys->directory().stats(), "get_s") +
                               counter(sys->directory().stats(), "get_x");
            {
                // What runCell reduces a run to.
                Scope s(tr, "campaign.reduce", idx);
                r.completed = sr.completed;
                r.deadlocked = sr.deadlocked;
                r.livelocked = sr.livelocked;
                r.finish_tick = sr.finish_tick;
                r.outcome_sig = wo::fnv1aHex(sr.outcome.toString());
                const wo::MonitorSummary ms = sys->monitor()->summary();
                r.hw = ms.hardware;
                r.races = ms.races;
                r.total = ms.total;
                for (int k = 0; k < wo::num_violation_kinds; ++k)
                    r.by_kind[k] = ms.by_kind[k];
                for (const auto &v : sys->monitor()->violations())
                    if (wo::violationBlamesHardware(v.kind)) {
                        r.primary_kind = wo::violationKindName(v.kind);
                        break;
                    }
            }
            Scope s(tr, "sys.destroy", idx);
            sys.reset();
        } else {
            r.primary_kind = "materialize_error";
        }
        {
            Scope s(tr, "campaign.observe", idx);
            fuzzer.observe(cell, r);
        }
        wo::ViolationKind kind;
        if (r.hardwareFailure() && m.ok() &&
            wo::violationKindFromName(r.primary_kind, kind)) {
            wo::ShrinkCfg scfg;
            scfg.max_runs = cfg.shrink ? cfg.shrink_max_runs : 1;
            wo::ShrinkOutcome so;
            {
                Scope s(tr, "shrink.call", idx);
                so = wo::shrinkCounterexample(*m.program, m.warm,
                                              cell.systemCfg(cfg.max_events),
                                              kind, scfg);
            }
            ++rc.failures;
            rc.shrink_runs += so.runs;
            rc.shrunk_insns += so.instructions;
            rc.orig_insns += so.orig_instructions;
            Scope s(tr, "campaign.file_failure", idx);
            ++rc.filed;
            const std::string hash = wo::fnv1aHex(so.wo_text).substr(0, 12);
            const std::string dedup = r.primary_kind + ":" + hash;
            const std::string stem = dir + "/repro-" + r.primary_kind + "-" + hash;
            if (journal.recordFailure(dedup, r.primary_kind, r.key,
                                      stem + ".wo", so.instructions,
                                      so.orig_instructions)) {
                rc.dedup.insert(dedup);
                wo::writeFile(stem + ".wo", so.wo_text);
                // The evidence bundle: the minimum re-run with the
                // flight recorder on, as the engine files it.
                wo::SystemCfg ev = cell.systemCfg(cfg.max_events);
                ev.flight_recorder = true;
                ev.dump_on_fail = stem;
                wo::System esys(*so.program, ev);
                for (const auto &w : so.warm)
                    esys.warmShared(w.addr, w.procs);
                esys.run();
            }
        }
        {
            Scope s(tr, "campaign.journal", idx);
            const std::uint64_t a0 = threadAllocs();
            journal.appendCell(r);
            rc.journal_allocs += threadAllocs() - a0;
        }
        ++rc.ran;
        rc.lines.push_back({r.key, r.verdict(), r.outcome_sig, 0, 0, 0});
        rc.results.push_back(std::move(r));
    }
    {
        Scope s(tr, "campaign.journal", cfg.cells);
        journal.close(); // the writer's final flush, amortized per cell
    }
    return rc;
}

/** obs.monitor_us: System::run with the monitor on minus off. */
double
monitorCostUs(const LatticePool &pool, std::uint64_t seed, std::uint64_t n)
{
    const wo::CampaignCfg cfg = latticeCfg(pool, seed, "");
    const wo::Fuzzer fuzzer(latticeFuzzerCfg(pool, seed));
    wo::MaterializeCache cache;
    double on_ns = 0, off_ns = 0;
    std::uint64_t cells = 0;
    for (std::uint64_t idx = 0; idx < std::min(n, cfg.cells); ++idx) {
        const wo::Cell cell = fuzzer.baseCell(idx);
        const wo::MaterializedCell m = wo::materializeCell(cell, &cache);
        if (!m.ok())
            continue;
        for (bool monitor : {true, false}) {
            wo::SystemCfg sc = cell.systemCfg(cfg.max_events);
            sc.monitor = monitor;
            wo::System sys(*m.program, sc);
            for (const auto &w : m.warm)
                sys.warmShared(w.addr, w.procs);
            const auto t0 = Clock::now();
            sys.run();
            (monitor ? on_ns : off_ns) += ns(t0, Clock::now());
        }
        ++cells;
    }
    return cells ? (on_ns - off_ns) / cells / 1000.0 : 0;
}

// --- fleet stage -----------------------------------------------------------

/** Mean LineConn loopback round trip of @p line, in microseconds. */
double
lineRttUs(const wo::Json &line, int trips)
{
    std::uint16_t port = 0;
    std::string err;
    const int lfd = wo::fleetListen("127.0.0.1", 0, &port, &err);
    if (lfd < 0)
        wo_panic("fleet listen: %s", err.c_str());
    const int cfd = wo::fleetConnect({"127.0.0.1", port}, &err);
    if (cfd < 0)
        wo_panic("fleet connect: %s", err.c_str());
    const int afd = ::accept(lfd, nullptr, nullptr);
    ::close(lfd);
    if (afd < 0)
        wo_panic("fleet accept failed");
    wo::LineConn client(cfd), server(afd);
    std::thread echo([&] {
        std::string got;
        while (server.readLine(got, 10'000) == wo::LineConn::Read::line) {
            const wo::JsonParseResult p = wo::jsonParse(got);
            if (!p.ok || !server.writeLine(p.value))
                break;
        }
    });
    std::string back;
    const auto t0 = Clock::now();
    for (int i = 0; i < trips; ++i)
        if (!client.writeLine(line) ||
            client.readLine(back, 10'000) != wo::LineConn::Read::line)
            wo_panic("fleet loopback round trip failed");
    const double us = ns(t0, Clock::now()) / trips / 1000.0;
    client.shutdownNow();
    echo.join();
    return us;
}

struct FleetFigures
{
    double codec_us = 0, rtt_us = 0, tax_us = 0;
    std::uint64_t reassigned = 0, duplicates = 0;
    std::uint64_t distinct = 0;
    std::string digest;
};

/** The fleet's per-result costs over the cells of @p results (traced). */
void
fleetCalls(Tracer *tr, const std::vector<wo::CellResult> &results,
           FleetFigures &f)
{
    double codec_ns = 0;
    std::uint64_t idx = 0;
    for (const wo::CellResult &r : results) {
        Scope s(tr, "fleet.codec", idx);
        const auto t0 = Clock::now();
        wo::Json msg = wo::fleetMsg("result");
        msg.set("campaign", wo::Json(std::uint64_t{1}));
        msg.set("lease", wo::Json(std::uint64_t{1}));
        msg.set("idx", wo::Json(idx++));
        msg.set("cell", wo::cellResultToJson(r));
        const wo::JsonParseResult p = wo::jsonParse(msg.dump());
        if (!p.ok)
            wo_panic("fleet RESULT line did not parse back");
        codec_ns += ns(t0, Clock::now());
    }
    f.codec_us = results.empty() ? 0 : codec_ns / results.size() / 1000.0;
    wo::Json line = wo::fleetMsg("result");
    if (!results.empty())
        line.set("cell", wo::cellResultToJson(results.front()));
    Scope s(tr, "fleet.line_rtt", 0);
    f.rtt_us = lineRttUs(line, 2000);
}

/**
 * The coordination tax (untraced): one lattice through a coordinator
 * and three workers, against the same lattice in process.
 */
void
fleetTax(const Options &opt, const LatticePool &pool, std::uint64_t seed,
         FleetFigures &f)
{
    const std::string dir = workDir(opt, "ledger-fleet");
    wo::CoordinatorCfg ccfg;
    ccfg.out_dir = dir;
    wo::Coordinator coord(ccfg);
    if (!coord.start())
        wo_panic("coordinator: %s", coord.lastError().c_str());
    std::vector<std::unique_ptr<wo::FleetWorker>> fleet;
    std::vector<std::thread> threads;
    for (int i = 0; i < workers; ++i) {
        wo::WorkerCfg wcfg;
        wcfg.connect = {"127.0.0.1", coord.port()};
        fleet.push_back(std::make_unique<wo::FleetWorker>(wcfg));
        threads.emplace_back([w = fleet.back().get()] { w->connectAndRun(); });
    }
    if (!coord.waitForWorkers(workers, 30'000))
        wo_panic("fleet workers never connected");
    const auto f0 = Clock::now();
    const std::uint64_t id = coord.submitLocal(latticeSpec(pool, seed));
    wo::Json summary;
    if (!coord.waitCampaign(id, 120'000, &summary))
        wo_panic("fleet lattice did not complete");
    const double fleet_ns = ns(f0, Clock::now());
    coord.stop();
    for (auto &t : threads)
        t.join();
    if (const wo::Json *v = summary.find("reassigned_leases"))
        f.reassigned = v->uintValue();
    if (const wo::Json *v = summary.find("duplicate_results"))
        f.duplicates = v->uintValue();
    const LatticeDigest d = digestLattice(readJournalCells(
        journalIn(dir + wo::strprintf("/c%llu",
                                      static_cast<unsigned long long>(id)))));
    f.distinct = d.distinct;
    f.digest = d.digest;

    const std::string local_dir = workDir(opt, "ledger-local");
    const auto l0 = Clock::now();
    wo::runCampaign(latticeCfg(pool, seed, local_dir));
    const double local_ns = ns(l0, Clock::now());
    if (d.distinct > 0)
        f.tax_us = (fleet_ns - local_ns) * workers / d.distinct / 1000.0;
}

// --- verify stage ----------------------------------------------------------

struct VerifyCounts
{
    std::uint64_t cells = 0, judgements = 0;
    std::uint64_t drf0_calls = 0, drf0_steps = 0, exhausted = 0;
    std::set<std::string> programs;
    std::vector<std::pair<std::string, std::string>> digests; //!< key, digest
};

/**
 * The verify cells' engines, called as verifyProgramOnModel calls them,
 * then checkDrf0 on @p drf0_progs, whose spin loops are where the DRF0
 * checker does real work (on the loop-free verify cells it is trivial).
 */
VerifyCounts
runVerifyCells(Tracer *tr, const std::vector<wo::Cell> &cells,
               const std::vector<std::pair<std::string, wo::Program>> &drf0_progs,
               const std::string &dir)
{
    VerifyCounts vc;
    wo::MaterializeCache cache;
    wo::Journal journal(dir + "/verify.journal.jsonl");
    journal.open(true);
    wo::ExploreCfg dpor_cfg, bfs_cfg;
    dpor_cfg.algo = wo::ExploreAlgo::dpor;
    bfs_cfg.algo = wo::ExploreAlgo::bfs;
    for (std::uint64_t i = 0; i < cells.size(); ++i) {
        const wo::Cell &cell = cells[i];
        dpor_cfg.max_states = bfs_cfg.max_states = cell.max_states;
        Scope cell_span(tr, "cell", i);
        wo::MaterializedCell m;
        {
            Scope s(tr, "program.materialize", i);
            m = wo::materializeCell(cell, &cache);
        }
        if (!m.ok())
            wo_panic("verify cell %s did not build", cell.key().c_str());
        const wo::Program &prog = *m.program;
        wo::ExploreResult dpor, bfs, sc;
        wo::withModelByName(prog, cell.model, [&](auto &model) {
            {
                Scope s(tr, "models.dpor", i);
                dpor = wo::exploreOutcomes(model, dpor_cfg);
            }
            Scope s(tr, "models.bfs", i);
            bfs = wo::exploreOutcomes(model, bfs_cfg);
        });
        {
            Scope s(tr, "sc.explore", i);
            wo::ScModel sc_model(prog);
            sc = wo::exploreOutcomes(sc_model, dpor_cfg);
        }
        wo::AxiomResult ax;
        {
            Scope s(tr, "axiom.eval", i);
            ax = wo::axiomScOutcomes(prog, wo::AxiomCfg{});
        }
        wo::SyncModelVerdict v;
        {
            Scope s(tr, "core.drf0", i);
            v = wo::checkDrf0(prog);
        }
        wo::CellResult r;
        {
            // The judge's three checks over the engines' evidence.
            Scope s(tr, "campaign.reduce", i);
            r.key = cell.key();
            r.completed = true;
            r.dpor_states = dpor.states;
            r.bfs_states = bfs.states;
            std::string kind;
            if (!dpor.conclusive() || !bfs.conclusive() ||
                !sc.conclusive() || !ax.conclusive)
                r.inconclusive = true;
            else if (dpor.outcomes != bfs.outcomes)
                kind = "dpor_divergence";
            else if (ax.outcomes != sc.outcomes)
                kind = "axiom_divergence";
            else if (!dpor.minus(sc).empty()) {
                if (wo::modelClaimsConformance(cell.model) && v.exhausted)
                    r.inconclusive = true;
                else if (wo::modelClaimsConformance(cell.model) && v.obeys)
                    kind = "def2_subset";
                else
                    r.nonsc = true;
            }
            if (!kind.empty()) {
                r.hw = 1;
                r.primary_kind = kind;
            }
            std::string sig_src;
            for (const auto &o : dpor.outcomes)
                sig_src += o.toString() + "\n";
            r.outcome_sig = wo::fnv1aHex(sig_src);
        }
        {
            Scope s(tr, "campaign.journal", i);
            journal.appendCell(r);
        }
        ++vc.cells;
        ++vc.drf0_calls;
        vc.drf0_steps += v.steps;
        vc.exhausted += v.exhausted ? 1 : 0;
        vc.judgements += ax.judgements;
        vc.programs.insert(r.key.substr(0, r.key.rfind('|')));
        vc.digests.emplace_back(r.key, verifyDigest(r));
    }
    journal.close();
    for (std::uint64_t i = 0; i < drf0_progs.size(); ++i) {
        const auto &[id, prog] = drf0_progs[i];
        Scope cell_span(tr, "cell", cells.size() + i);
        wo::SyncModelVerdict v;
        {
            Scope s(tr, "core.drf0", cells.size() + i);
            v = wo::checkDrf0(prog);
        }
        ++vc.drf0_calls;
        vc.drf0_steps += v.steps;
        vc.exhausted += v.exhausted ? 1 : 0;
        vc.digests.emplace_back(drf0Id(id), drf0Digest(v));
    }
    return vc;
}

// --- explore stage ----------------------------------------------------------

struct ExploreCounts
{
    std::uint64_t pairs = 0, states = 0, transitions = 0, probes = 0;
    std::uint64_t memo_hits = 0, visited_bytes = 0;
    std::vector<std::pair<std::string, std::string>> digests;
};

ExploreCounts
runExplorePairs(Tracer *tr,
                const std::map<std::string, wo::Program> &programs,
                const std::vector<ExplorePair> &pairs, int jobs)
{
    ExploreCounts ec;
    wo::ExploreCfg cfg;
    cfg.max_states = explore_max_states;
    cfg.algo = wo::ExploreAlgo::dpor;
    cfg.jobs = jobs;
    for (std::uint64_t i = 0; i < pairs.size(); ++i) {
        Scope cell_span(tr, "cell", i);
        wo::ExploreResult r;
        wo::withModelByName(programs.at(pairs[i].program), pairs[i].model,
                            [&](auto &m) {
                                Scope s(tr, "models.explore", i);
                                r = wo::exploreOutcomes(m, cfg);
                            });
        ++ec.pairs;
        ec.states += r.states;
        ec.transitions += r.transitions;
        ec.probes += r.commutation_probes;
        ec.memo_hits += r.memo_hits;
        ec.visited_bytes += r.visited_bytes;
        ec.digests.emplace_back(pairs[i].id, exploreDigest(r));
    }
    return ec;
}

/** Mean Model::hashState and Model::stepLabel cost over a state sample. */
void
hashStepNs(const std::map<std::string, wo::Program> &programs,
           const std::vector<ExplorePair> &pairs, double &hash_ns,
           double &step_ns)
{
    double h_ns = 0, s_ns = 0;
    std::uint64_t h_n = 0, s_n = 0;
    std::uint64_t sink = 0;
    for (const ExplorePair &p : pairs)
        wo::withModelByName(programs.at(p.program), p.model, [&](auto &m) {
            using State = decltype(m.initial());
            // A breadth-first sample of reachable states and their labels.
            std::vector<State> states{m.initial()};
            std::vector<std::pair<std::size_t, wo::TransLabel>> steps;
            for (std::size_t i = 0; i < states.size() && states.size() < 2048;
                 ++i)
                for (auto &succ : m.labeledSuccessors(states[i])) {
                    steps.emplace_back(i, succ.label);
                    states.push_back(std::move(succ.state));
                }
            const auto t0 = Clock::now();
            for (const State &s : states)
                sink += m.hashState(s).lo;
            const auto t1 = Clock::now();
            for (const auto &[i, label] : steps)
                sink += m.stepLabel(states[i], label).has_value();
            const auto t2 = Clock::now();
            h_ns += ns(t0, t1);
            s_ns += ns(t1, t2);
            h_n += states.size();
            s_n += steps.size();
        });
    hash_ns = h_n ? h_ns / h_n : 0;
    step_ns = s_n ? s_ns / s_n : 0;
    asm volatile("" : : "r"(sink)); // the timed calls' results stay live
}

std::string
sizeFor(const Options &opt, bool own)
{
    return own ? opt.size : std::string("tiny");
}

} // namespace

void
runLedger(const Options &opt, RunResult &res, const std::string &span_path)
{
    Tracer tr;
    const std::string &w = opt.workload;
    std::vector<const StageTimes *> own;

    // Run stage: the hunt lattice on hunt, the campaign lattice elsewhere.
    const bool hunt = w == "hunt";
    const std::string camp_size = sizeFor(opt, w == "campaign" || w == "fleet");
    const std::string hunt_size = sizeFor(opt, hunt);
    const LatticePool camp_pool = campaignPool(camp_size);
    const LatticePool hunt_pool = huntPool(hunt_size);
    const std::uint64_t camp_seed = camp_pool.seeds.front();
    const std::uint64_t hunt_seed = hunt_pool.seeds.front();

    auto checkLattice = [&](const char *workload, const std::string &size,
                            const LatticePool &pool, std::uint64_t seed,
                            const RunCounts &rc) {
        const LatticeDigest d =
            digestLattice(rc.lines, pool.inject_reserve_bug, rc.dedup);
        const bool ok =
            Expected(workload, size).check(latticeId(seed), d.digest, res);
        res.tally(d.distinct, ok ? 0 : d.distinct);
    };

    const std::vector<std::string> run_layers = {
        "campaign.base_cell", "campaign.key",     "program.materialize",
        "sys.build",          "sys.run",          "sys.destroy",
        "campaign.reduce",    "campaign.observe", "shrink.call",
        "campaign.file_failure", "campaign.journal"};
    RunCounts camp;
    StageTimes camp_t =
        timeStage(tr, "stage.campaign", run_layers, [&](Tracer *t) {
            camp = runLattice(t, camp_pool, camp_seed,
                              workDir(opt, "ledger-run"));
        });
    checkLattice("campaign", camp_size, camp_pool, camp_seed, camp);
    RunCounts hunted;
    StageTimes hunt_t =
        timeStage(tr, "stage.hunt", run_layers, [&](Tracer *t) {
            hunted = runLattice(t, hunt_pool, hunt_seed,
                                workDir(opt, "ledger-hunt"));
        });
    checkLattice("hunt", hunt_size, hunt_pool, hunt_seed, hunted);

    const RunCounts &rc = hunt ? hunted : camp;
    const StageTimes &rt = hunt ? hunt_t : camp_t;
    const LatticePool &run_pool = hunt ? hunt_pool : camp_pool;
    const double ran = static_cast<double>(rc.ran);
    const double idx = static_cast<double>(rc.indices);
    res.add("campaign.base_cell_us", rt.perCall("campaign.base_cell", idx) / 1e3, "us");
    res.add("campaign.key_us", rt.perCall("campaign.key", idx) / 1e3, "us");
    res.add("campaign.observe_us", rt.perCall("campaign.observe", ran) / 1e3, "us");
    res.add("campaign.reduce_us", rt.perCall("campaign.reduce", ran) / 1e3, "us");
    res.add("campaign.journal_us", rt.perCall("campaign.journal", ran) / 1e3, "us");
    res.add("program.materialize_us", rt.perCall("program.materialize", ran) / 1e3, "us");
    res.add("sys.build_us", rt.perCall("sys.build", ran) / 1e3, "us");
    res.add("sys.run_us", rt.perCall("sys.run", ran) / 1e3, "us");
    res.add("sys.destroy_us", rt.perCall("sys.destroy", ran) / 1e3, "us");
    res.add("sys.ns_per_event",
            rc.events ? rt.perCall("sys.run", 1) / rc.events : 0, "ns");
    res.add("obs.monitor_us",
            monitorCostUs(run_pool, hunt ? hunt_seed : camp_seed, 512), "us");
    res.add("event.events_per_cell", rc.events / ran, "count");
    res.add("sys.sim_ticks_per_cell", rc.ticks / ran, "ticks");
    res.add("coherence.cache_misses_per_cell", rc.misses / ran, "count");
    res.add("coherence.dir_requests_per_cell", rc.dir_requests / ran, "count");
    res.add("sys.build.allocs", rc.build_allocs / ran, "count");
    res.add("sys.run.allocs", rc.run_allocs / ran, "count");
    res.add("campaign.journal.allocs", rc.journal_allocs / ran, "count");
    {
        // Untraced host cost per cell on `workers` threads, as CPU time,
        // minus what the traced layers account for.
        const std::string dir = workDir(opt, "ledger-untraced");
        const auto t0 = Clock::now();
        const wo::CampaignSummary sum = wo::runCampaign(
            latticeCfg(run_pool, hunt ? hunt_seed : camp_seed, dir));
        const double host_ns = ns(t0, Clock::now()) * workers;
        res.add("campaign.unattributed_us",
                sum.ran ? (host_ns - rt.layerNs()) / sum.ran / 1e3 : 0, "us");
    }
    res.add("campaign.dup_share", rc.dups / idx, "ratio");

    // Shrink figures always come from the hunt lattice.
    const double fails = static_cast<double>(hunted.failures);
    res.add("shrink.call_ms", hunt_t.perCall("shrink.call", fails) / 1e6, "ms");
    res.add("shrink.ms_per_run",
            hunted.shrink_runs
                ? hunt_t.perCall("shrink.call", 1) / hunted.shrink_runs / 1e6
                : 0,
            "ms");
    res.add("shrink.runs_per_failure", fails ? hunted.shrink_runs / fails : 0,
            "count");
    res.add("shrink.insns_ratio",
            hunted.orig_insns
                ? static_cast<double>(hunted.shrunk_insns) / hunted.orig_insns
                : 0,
            "ratio");
    res.add("campaign.dedup_ratio",
            fails ? hunted.dedup.size() / fails : 0, "ratio");
    res.add("campaign.file_failure_ms",
            hunt_t.perCall("campaign.file_failure",
                           static_cast<double>(hunted.filed)) / 1e6,
            "ms");

    // Fleet stage over the campaign lattice.
    FleetFigures ff;
    StageTimes fleet_t = timeStage(
        tr, "stage.fleet", {"fleet.codec", "fleet.line_rtt"},
        [&](Tracer *t) { fleetCalls(t, camp.results, ff); });
    fleetTax(opt, camp_pool, camp_seed, ff);
    {
        const bool ok = Expected("campaign", camp_size)
                            .check(latticeId(camp_seed), ff.digest, res);
        const std::uint64_t bad = ff.reassigned + ff.duplicates;
        res.tally(ff.distinct, ok && bad == 0 ? 0 : ff.distinct);
    }
    res.add("fleet.codec_us", ff.codec_us, "us");
    res.add("fleet.line_rtt_us", ff.rtt_us, "us");
    res.add("fleet.tax_us", ff.tax_us, "us");
    res.add("fleet.reassigned_leases", static_cast<double>(ff.reassigned), "count");
    res.add("fleet.duplicate_results", static_cast<double>(ff.duplicates), "count");

    // Verify stage.
    const std::string vsize = sizeFor(opt, w == "verify");
    const std::vector<wo::Cell> vcells = verifyCells(vsize);
    const auto dprogs = drf0Programs(vsize);
    VerifyCounts vc;
    StageTimes ver_t = timeStage(
        tr, "stage.verify",
        {"models.dpor", "models.bfs", "sc.explore", "axiom.eval", "core.drf0"},
        [&](Tracer *t) {
            vc = runVerifyCells(t, vcells, dprogs,
                                workDir(opt, "ledger-verify"));
        });
    {
        const Expected exp("verify", vsize);
        std::uint64_t bad = 0;
        for (const auto &[key, digest] : vc.digests)
            bad += exp.check(key, digest, res) ? 0 : 1;
        res.tally(vc.digests.size(), bad);
    }
    const double vcn = static_cast<double>(vc.cells);
    res.add("models.dpor_ms", ver_t.perCall("models.dpor", vcn) / 1e6, "ms");
    res.add("models.bfs_ms", ver_t.perCall("models.bfs", vcn) / 1e6, "ms");
    res.add("sc.explore_ms", ver_t.perCall("sc.explore", vcn) / 1e6, "ms");
    res.add("axiom.eval_ms", ver_t.perCall("axiom.eval", vcn) / 1e6, "ms");
    const double drf0_calls = static_cast<double>(vc.drf0_calls);
    res.add("core.drf0_ms", ver_t.perCall("core.drf0", drf0_calls) / 1e6, "ms");
    res.add("core.drf0_steps", vc.drf0_steps / drf0_calls, "count");
    res.add("core.drf0_exhausted_share", vc.exhausted / drf0_calls, "ratio");
    res.add("axiom.judgements", vc.judgements / vcn, "count");
    res.add("verify.cells_per_program", vcn / vc.programs.size(), "count");

    // Explore stage: jobs 3 traced (the workload's own call), then jobs 1
    // untraced for the single-thread rate and the parallel speed-up.
    const std::string esize = sizeFor(opt, w == "explore");
    std::map<std::string, wo::Program> eprogs;
    for (auto &[id, prog] : explorePrograms(esize))
        eprogs.emplace(id, std::move(prog));
    const std::vector<ExplorePair> epairs = explorePairs(esize);
    ExploreCounts ec;
    StageTimes exp_t =
        timeStage(tr, "stage.explore", {"models.explore"}, [&](Tracer *t) {
            ec = runExplorePairs(t, eprogs, epairs, workers);
        });
    {
        const Expected exp("explore", esize);
        std::uint64_t bad = 0;
        for (const auto &[id, digest] : ec.digests)
            bad += exp.check(id, digest, res) ? 0 : 1;
        res.tally(ec.digests.size(), bad);
    }
    const auto j0 = Clock::now();
    const ExploreCounts ec1 = runExplorePairs(nullptr, eprogs, epairs, 1);
    const double jobs1_ns = ns(j0, Clock::now());
    double hash_ns = 0, step_ns = 0;
    hashStepNs(eprogs, epairs, hash_ns, step_ns);
    res.add("models.explore_ms",
            exp_t.perCall("models.explore", static_cast<double>(ec.pairs)) / 1e6,
            "ms");
    res.add("models.hash_ns", hash_ns, "ns");
    res.add("models.step_ns", step_ns, "ns");
    res.add("models.jobs1_states_per_s", ec1.states / (jobs1_ns / 1e9), "1/s");
    res.add("models.parallel_speedup", jobs1_ns / exp_t.untraced_ns, "ratio");
    res.add("models.memo_hit_share",
            ec.probes ? static_cast<double>(ec.memo_hits) / ec.probes : 0,
            "ratio");
    res.add("models.visited_bytes",
            static_cast<double>(ec.visited_bytes) / ec.pairs, "bytes");
    res.add("models.states", static_cast<double>(ec.states), "count");
    res.add("models.transitions", static_cast<double>(ec.transitions), "count");
    res.add("models.commutation_probes", static_cast<double>(ec.probes), "count");

    // Coverage and overhead of the workload's own stages.
    if (w == "campaign")
        own = {&camp_t};
    else if (w == "fleet")
        own = {&camp_t, &fleet_t};
    else if (w == "hunt")
        own = {&hunt_t};
    else if (w == "verify")
        own = {&ver_t};
    else
        own = {&exp_t};
    double layer = 0, wall = 0, untraced = 0;
    for (const StageTimes *st : own) {
        layer += st->layerNs();
        wall += st->wall_ns;
        untraced += st->untraced_ns;
    }
    res.add("trace.coverage", wall > 0 ? layer / wall : 0, "ratio");
    res.add("trace.overhead", untraced > 0 ? wall / untraced : 0, "ratio");

    if (!tr.dump(span_path))
        res.mismatches.push_back("could not write " + span_path);
}

} // namespace pb
