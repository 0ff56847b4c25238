/**
 * @file
 * Machine reuse: System::reset() must rebuild exactly the machine the
 * constructor builds.  Every cell of the programs/ and litmus
 * corpora, under every policy and three timing seeds, runs on one
 * machine that has just run a different cell -- predecessors that
 * livelocked, deadlocked or raised a hardware violation, that traced
 * and sampled, or that had a different processor or location count --
 * and must report what a fresh System reports: verdict, outcome,
 * monitor report, stats JSON, executed events and finish tick.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "campaign/cell.hh"
#include "campaign/fuzzer.hh"
#include "obs/recorder.hh"
#include "program/builder.hh"
#include "program/workload.hh"
#include "sys/system.hh"

namespace wo {
namespace {

/** A program with its warm-up directives and the config it runs under. */
struct Subject
{
    std::string name;
    Program prog;
    std::vector<WarmTerm> warm;
    SystemCfg cfg;
};

SystemCfg
cellCfg(OrderingPolicy policy, std::uint64_t seed)
{
    SystemCfg cfg;
    cfg.policy = policy;
    cfg.net.seed = seed;
    cfg.net.hop_latency = 4;
    cfg.net.jitter = 3;
    cfg.monitor = true;
    cfg.quiet = true;
    cfg.max_events = 300'000;
    return cfg;
}

/** The litmus corpus plus every .wo file in programs/, each once. */
std::vector<Subject>
corpus()
{
    std::vector<Subject> out;
    for (const LitmusCorpusEntry &e : litmusCorpus())
        out.push_back({std::string("litmus:") + e.name, e.make(), {}, {}});
    std::vector<std::string> files;
    for (const auto &f :
         std::filesystem::directory_iterator(WO_PROGRAMS_DIR))
        if (f.path().extension() == ".wo")
            files.push_back(f.path().string());
    std::sort(files.begin(), files.end());
    for (const std::string &f : files) {
        AsmResult a = assembleFile(f);
        EXPECT_TRUE(a.ok()) << f;
        if (a.ok())
            out.push_back({f, std::move(*a.program), std::move(a.warm), {}});
    }
    return out;
}

const char *const leak_source = R"(program leak
thread 0
  tas r7 lock
  st data 1
  syncst lock 0
thread 1
  work 300
  tas r7 lock
  syncst lock 0
)";

/** Cells chosen to leave unusual state behind in a reused machine. */
std::vector<Subject>
predecessors()
{
    std::vector<Subject> out;
    {
        // Crossed release/acquire in pure queue stall mode: deadlocks
        // with requests parked in MSHRs and queue-mode stall lists.
        ProgramBuilder b("crossed", 2);
        b.thread(0).store(0, 1).release(2).acquireTasOnly(3).halt();
        b.thread(1).store(1, 1).release(3).acquireTasOnly(2).halt();
        SystemCfg cfg = cellCfg(OrderingPolicy::wo_drf0, 1);
        cfg.cache.stall_mode = ReserveStallMode::queue;
        out.push_back({"deadlock", b.build(), {{0, {1}}, {1, {0}}}, cfg});
    }
    {
        // The dropped reserve clear: a hardware violation, then a NACK
        // livelock that ends with events still queued.
        AsmResult a = assembleString(leak_source);
        EXPECT_TRUE(a.ok());
        SystemCfg cfg = cellCfg(OrderingPolicy::wo_drf0, 2);
        cfg.cache.bug_drop_reserve_clear = true;
        cfg.max_events = 20'000;
        out.push_back({"livelock-hw", std::move(*a.program), {}, cfg});
    }
    {
        // Four processors and a dozen locations, traced and sampled.
        Drf0WorkloadCfg w;
        w.procs = 4;
        w.regions = 2;
        w.locs_per_region = 3;
        w.private_locs = 1;
        w.seed = 99;
        SystemCfg cfg = cellCfg(OrderingPolicy::wo_def1, 3);
        cfg.trace = true;
        cfg.flight_recorder = true;
        cfg.sample_interval = 16;
        out.push_back({"wide-traced", randomDrf0Program(w), {}, cfg});
    }
    {
        // A racy draw: recorded races in the monitor.
        RacyWorkloadCfg w;
        w.procs = 3;
        w.locs = 3;
        w.ops_per_thread = 4;
        w.seed = 7;
        out.push_back({"racy", randomRacyProgram(w), {},
                       cellCfg(OrderingPolicy::wo_drf0_ro, 4)});
    }
    {
        // One processor, one location.
        ProgramBuilder b("tiny", 1);
        b.thread(0).store(0, 3).load(0, 0).halt();
        out.push_back({"tiny", b.build(), {},
                       cellCfg(OrderingPolicy::sc, 5)});
    }
    return out;
}

SystemResult
runOn(System &sys, const Subject &s)
{
    for (const WarmTerm &w : s.warm)
        sys.warmShared(w.addr, w.procs);
    return sys.run();
}

void
expectSame(const SystemResult &fresh, std::uint64_t fresh_events,
           const SystemResult &reused, std::uint64_t reused_events,
           const std::string &what)
{
    EXPECT_EQ(reused.completed, fresh.completed) << what;
    EXPECT_EQ(reused.deadlocked, fresh.deadlocked) << what;
    EXPECT_EQ(reused.livelocked, fresh.livelocked) << what;
    EXPECT_EQ(reused.finish_tick, fresh.finish_tick) << what;
    EXPECT_EQ(reused.drain_tick, fresh.drain_tick) << what;
    EXPECT_EQ(reused_events, fresh_events) << what;
    EXPECT_TRUE(reused.outcome == fresh.outcome)
        << what << ": " << reused.outcome.toString() << " vs "
        << fresh.outcome.toString();
    EXPECT_EQ(reused.monitor_violations, fresh.monitor_violations) << what;
    EXPECT_EQ(reused.monitor_hw_violations, fresh.monitor_hw_violations)
        << what;
    EXPECT_EQ(reused.monitor_races, fresh.monitor_races) << what;
    EXPECT_EQ(reused.monitor_report, fresh.monitor_report) << what;
    EXPECT_EQ(reused.stats, fresh.stats) << what;
    EXPECT_EQ(reused.stats_json, fresh.stats_json) << what;
    EXPECT_EQ(reused.execution.toString(), fresh.execution.toString())
        << what;
}

TEST(MachineReuse, EveryCorpusCellMatchesAFreshMachine)
{
    const std::vector<Subject> cells = corpus();
    const std::vector<Subject> preds = predecessors();
    ASSERT_GE(cells.size(), 20u);
    const OrderingPolicy policies[] = {
        OrderingPolicy::sc, OrderingPolicy::wo_def1,
        OrderingPolicy::wo_drf0, OrderingPolicy::wo_drf0_ro};

    // One machine for the whole sweep: every cell follows another
    // cell, and every predecessor kind precedes every cell shape.
    System machine(preds[0].prog, preds[0].cfg);
    std::size_t n = 0;
    std::size_t pred_kinds_seen[8] = {};
    for (const Subject &c : cells)
        for (OrderingPolicy pol : policies)
            for (std::uint64_t seed : {1u, 17u, 311u}) {
                const Subject &pred = preds[n++ % preds.size()];
                machine.reset(pred.prog, pred.cfg);
                const SystemResult pr = runOn(machine, pred);
                ++pred_kinds_seen[&pred - preds.data()];
                if (pred.name == "deadlock") {
                    ASSERT_TRUE(pr.deadlocked);
                }
                if (pred.name == "livelock-hw") {
                    ASSERT_TRUE(pr.livelocked);
                    ASSERT_GT(pr.monitor_hw_violations, 0u);
                }

                SystemCfg cfg = cellCfg(pol, seed);
                // One seed in three also traces, so the trace buffers
                // and the flight recorder are compared too.
                const bool traced = seed == 311;
                cfg.trace = traced;
                cfg.flight_recorder = traced;
                machine.reset(c.prog, cfg);
                const SystemResult reused = runOn(machine, c);
                const std::uint64_t reused_events =
                    machine.eventQueue().executed();

                System fresh(c.prog, cfg);
                const SystemResult fr = runOn(fresh, c);
                const std::string what = c.name + " " + policyName(pol) +
                                         " seed " + std::to_string(seed) +
                                         " after " + pred.name;
                expectSame(fr, fresh.eventQueue().executed(), reused,
                           reused_events, what);
                if (traced) {
                    EXPECT_EQ(machine.obs().traceJsonl(),
                              fresh.obs().traceJsonl())
                        << what;
                    EXPECT_EQ(machine.obs().chromeTraceJson(),
                              fresh.obs().chromeTraceJson())
                        << what;
                    EXPECT_EQ(machine.recorder()->chromeTraceJson(
                                  c.prog.numThreads()),
                              fresh.recorder()->chromeTraceJson(
                                  c.prog.numThreads()))
                        << what;
                }
            }
    for (std::size_t k = 0; k < preds.size(); ++k)
        EXPECT_GT(pred_kinds_seen[k], 0u) << preds[k].name;
}

TEST(MachineReuse, CampaignCellsMatchOnTheWorkerMachine)
{
    // runCell on a worker's reused machine vs a fresh machine per cell,
    // over a seeded-fault base stream so violations, shrink-worthy
    // failures and livelocks all appear among the predecessors.
    FuzzerCfg fcfg;
    fcfg.seed = 3;
    fcfg.policies = {OrderingPolicy::sc, OrderingPolicy::wo_def1,
                     OrderingPolicy::wo_drf0, OrderingPolicy::wo_drf0_ro};
    fcfg.inject_reserve_bug = true;
    const Fuzzer fuzzer(fcfg);
    MaterializeCache worker;
    std::uint64_t hw_cells = 0;
    for (std::uint64_t i = 0; i < 160; ++i) {
        const Cell cell = fuzzer.baseCell(i);
        const CellResult a = runCell(cell, 50'000).result;
        const CellResult b =
            runCell(cell, 50'000, EventQueueKind::calendar, &worker).result;
        EXPECT_EQ(b.key, a.key);
        EXPECT_EQ(b.verdict(), a.verdict()) << a.key;
        EXPECT_EQ(b.outcome_sig, a.outcome_sig) << a.key;
        EXPECT_EQ(b.finish_tick, a.finish_tick) << a.key;
        EXPECT_EQ(b.total, a.total) << a.key;
        EXPECT_EQ(b.races, a.races) << a.key;
        EXPECT_EQ(b.primary_kind, a.primary_kind) << a.key;
        hw_cells += a.hw > 0;
    }
    EXPECT_GT(hw_cells, 0u) << "the seeded fault never fired";
}

} // namespace
} // namespace wo
