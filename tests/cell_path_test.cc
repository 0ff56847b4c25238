/**
 * @file
 * The timed cell path formats text only for its readers, and what it
 * does format reads the same.
 *
 *  - A cell-configured run (no statistics, no evidence dump) formats no
 *    witness text, yet its monitor verdict -- counts per kind, first
 *    tick, the recorded kinds in order -- equals a full-statistics run
 *    of the same program, policy and timing.
 *  - A run that may dump evidence (dump_on_fail) renders the same
 *    witness text as a full-statistics run.
 *  - The streamed outcome signature equals the digest of the outcome
 *    text spelled with printf, the spelling journals and the
 *    benchmark's expected digests were recorded in.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "asm/assembler.hh"
#include "campaign/cell.hh"
#include "common/logging.hh"
#include "sys/system.hh"

#ifndef WO_PROGRAMS_DIR
#define WO_PROGRAMS_DIR "programs"
#endif

namespace wo {
namespace {

const OrderingPolicy policies[] = {
    OrderingPolicy::sc, OrderingPolicy::wo_def1, OrderingPolicy::wo_drf0,
    OrderingPolicy::wo_drf0_ro};

/** The litmus corpus plus every .wo file in programs/, as cells. */
std::vector<Cell>
corpusCells()
{
    std::vector<Cell> out;
    for (const LitmusCorpusEntry &e : litmusCorpus()) {
        Cell c;
        c.source = CellSource::litmus;
        c.spec = e.name;
        out.push_back(c);
    }
    std::vector<std::string> files;
    for (const auto &f :
         std::filesystem::directory_iterator(WO_PROGRAMS_DIR))
        if (f.path().extension() == ".wo")
            files.push_back(f.path().string());
    std::sort(files.begin(), files.end());
    for (const std::string &f : files) {
        Cell c;
        c.source = CellSource::file;
        c.spec = f;
        out.push_back(c);
    }
    return out;
}

/** Each corpus cell under every policy, jittery, stock and buggy. */
std::vector<Cell>
matrix()
{
    std::vector<Cell> out;
    for (const Cell &base : corpusCells())
        for (OrderingPolicy pol : policies)
            for (bool bug : {false, true}) {
                Cell c = base;
                c.policy = pol;
                c.net_seed = 7;
                c.hop = 4;
                c.jitter = 3;
                c.inject_reserve_bug = bug;
                out.push_back(c);
            }
    return out;
}

/** The monitor's verdict after one run of @p cell under @p cfg. */
struct Verdict
{
    MonitorSummary summary;
    std::vector<ViolationKind> kinds; //!< recorded, in raise order
    std::vector<Tick> ticks;
    std::vector<std::string> detail;  //!< witness text, recorded ones
};

Verdict
runVerdict(const Cell &cell, const SystemCfg &cfg)
{
    MaterializedCell m = materializeCell(cell);
    EXPECT_TRUE(m.ok()) << cell.spec;
    Verdict v;
    if (!m.ok())
        return v;
    System sys(*m.program, cfg);
    for (const WarmTerm &w : m.warm)
        sys.warmShared(w.addr, w.procs);
    sys.run();
    v.summary = sys.monitor()->summary();
    for (const MonitorViolation &mv : sys.monitor()->violations()) {
        v.kinds.push_back(mv.kind);
        v.ticks.push_back(mv.tick);
        v.detail.push_back(mv.detail);
    }
    return v;
}

void
expectSameVerdict(const Verdict &a, const Verdict &b, const Cell &c)
{
    const std::string what = c.key();
    EXPECT_EQ(a.summary.total, b.summary.total) << what;
    EXPECT_EQ(a.summary.hardware, b.summary.hardware) << what;
    EXPECT_EQ(a.summary.races, b.summary.races) << what;
    EXPECT_EQ(a.summary.first_tick, b.summary.first_tick) << what;
    for (int k = 0; k < num_violation_kinds; ++k)
        EXPECT_EQ(a.summary.by_kind[k], b.summary.by_kind[k])
            << what << " kind " << k;
    EXPECT_EQ(a.kinds, b.kinds) << what;
    EXPECT_EQ(a.ticks, b.ticks) << what;
}

TEST(CellPath, CellConfigVerdictMatchesFullStatsRun)
{
    std::uint64_t raised = 0;
    for (const Cell &c : matrix()) {
        const SystemCfg cell_cfg = c.systemCfg(300'000);
        ASSERT_FALSE(cell_cfg.collect_stats);
        ASSERT_TRUE(cell_cfg.dump_on_fail.empty());
        SystemCfg full = cell_cfg;
        full.collect_stats = true;
        const Verdict lean = runVerdict(c, cell_cfg);
        const Verdict rich = runVerdict(c, full);
        expectSameVerdict(lean, rich, c);
        raised += rich.summary.total;
        // The lean run formatted nothing; the full one did.
        for (std::size_t i = 0; i < rich.detail.size(); ++i) {
            EXPECT_EQ(lean.detail[i], "") << c.key();
            EXPECT_NE(rich.detail[i], "") << c.key();
        }
    }
    EXPECT_GT(raised, 0u) << "the matrix must exercise the monitor";
}

TEST(CellPath, DumpOnFailRendersTheFullStatsWitnessText)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("wo_cell_path_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    std::uint64_t dumped = 0;
    int i = 0;
    for (const Cell &c : matrix()) {
        SystemCfg dump_cfg = c.systemCfg(300'000);
        dump_cfg.dump_on_fail = (dir / std::to_string(i++)).string();
        SystemCfg full = c.systemCfg(300'000);
        full.collect_stats = true;
        const Verdict dumping = runVerdict(c, dump_cfg);
        const Verdict rich = runVerdict(c, full);
        expectSameVerdict(dumping, rich, c);
        EXPECT_EQ(dumping.detail, rich.detail) << c.key();
        if (std::filesystem::exists(dump_cfg.dump_on_fail + ".monitor.txt"))
            ++dumped;
    }
    std::filesystem::remove_all(dir);
    EXPECT_GT(dumped, 0u) << "the seeded bug must dump some evidence";
}

/** Outcome text as printf spells it (the recorded signature source). */
std::string
printfOutcome(const Outcome &o)
{
    std::string out;
    for (std::size_t p = 0; p < o.regs.size(); ++p)
        for (std::size_t r = 0; r < o.regs[p].size(); ++r)
            if (o.regs[p][r] != 0)
                out += strprintf("P%zu:r%zu=%lld ", p, r,
                                 static_cast<long long>(o.regs[p][r]));
    out += "| mem:";
    for (std::size_t a = 0; a < o.memory.size(); ++a)
        out += strprintf(" [%zu]=%lld", a,
                         static_cast<long long>(o.memory[a]));
    return out;
}

TEST(CellPath, OutcomeTextMatchesPrintfAtTheExtremes)
{
    Outcome o;
    o.regs = {{0, -5, LLONG_MAX}, {}, {LLONG_MIN, 0, 0, 0, 0, 0, 0, 0,
                                       0, 0, 0, 12}};
    o.memory = {-1, 0, 1234567890123, LLONG_MIN};
    EXPECT_EQ(o.toString(), printfOutcome(o));
    std::string appended = "prefix ";
    o.appendTo(appended);
    EXPECT_EQ(appended, "prefix " + printfOutcome(o));
    EXPECT_EQ(Outcome{}.toString(), "| mem:");
}

TEST(CellPath, StreamedSignatureMatchesPrintfDigest)
{
    MaterializeCache cache;
    for (const Cell &base : corpusCells())
        for (OrderingPolicy pol : policies) {
            Cell c = base;
            c.policy = pol;
            c.net_seed = 3;
            c.hop = 4;
            c.jitter = 3;
            // The campaign path: the worker's reused machine.
            const CellRun run =
                runCell(c, 300'000, EventQueueKind::calendar, &cache);
            ASSERT_TRUE(run.program) << c.key();
            // An independent run for the outcome itself.
            System sys(*run.program, c.systemCfg(300'000));
            for (const WarmTerm &w : run.warm)
                sys.warmShared(w.addr, w.procs);
            const SystemResult sr = sys.run();
            EXPECT_EQ(sr.outcome.toString(), printfOutcome(sr.outcome))
                << c.key();
            EXPECT_EQ(run.result.outcome_sig,
                      fnv1aHex(printfOutcome(sr.outcome)))
                << c.key();
        }
}

} // namespace
} // namespace wo
