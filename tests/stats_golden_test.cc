/**
 * @file
 * Golden digests of everything a full-statistics run renders.
 *
 * For a fixed set of programs x ordering policies x timing setups this
 * runs the timed system with the monitor on and statistics collected,
 * and compares FNV-1a digests of the stats text dump, the stats_json
 * metrics tree and the monitor report with the committed
 * tests/golden/stats_digests.tsv.  A counter that appears, vanishes or
 * changes value, and any change to the witness text, moves a digest.
 * The reuse and kernel-equivalence tests compare two runs of the same
 * code, so they cannot see such a change; this file pins the bytes.
 *
 * On a mismatch the test prints the whole table as it now reads.  A
 * change that means to alter these outputs replaces the file with it
 * and says why in the commit.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "campaign/cell.hh"
#include "sys/system.hh"

#ifndef WO_PROGRAMS_DIR
#define WO_PROGRAMS_DIR "programs"
#endif
#ifndef WO_GOLDEN_DIR
#define WO_GOLDEN_DIR "tests/golden"
#endif

namespace wo {
namespace {

/** Timing setups: the plain machine, a jittery cell, a seeded bug. */
struct Timing
{
    const char *name;
    Tick hop;
    Tick jitter;
    bool bug;
};

constexpr Timing timings[] = {
    {"plain", 10, 0, false},
    {"jitter", 4, 3, false},
    {"bug", 4, 3, true},
};

/** One row of the table: "<program>\t<policy>\t<timing>\t<digests>". */
std::string
row(const std::string &program, OrderingPolicy policy, const Timing &t)
{
    Cell c;
    c.source = CellSource::litmus;
    c.spec = program;
    if (program.size() > 3 &&
        program.compare(program.size() - 3, 3, ".wo") == 0) {
        c.source = CellSource::file;
        c.spec = std::string(WO_PROGRAMS_DIR) + "/" + program;
    }
    c.policy = policy;
    c.net_seed = 5;
    c.hop = t.hop;
    c.jitter = t.jitter;
    c.inject_reserve_bug = t.bug;
    MaterializedCell m = materializeCell(c);
    EXPECT_TRUE(m.ok()) << program;
    if (!m.ok())
        return program + "\tmaterialize_error\n";
    SystemCfg cfg = c.systemCfg(300'000);
    cfg.collect_stats = true;
    System sys(*m.program, cfg);
    for (const WarmTerm &w : m.warm)
        sys.warmShared(w.addr, w.procs);
    const SystemResult r = sys.run();
    return program + "\t" + policyName(policy) + "\t" + t.name + "\t" +
           fnv1aHex(r.stats) + "\t" + fnv1aHex(r.stats_json) + "\t" +
           fnv1aHex(r.monitor_report) + "\n";
}

TEST(StatsGolden, FullStatsRunsMatchCommittedDigests)
{
    const char *programs[] = {"fig1",     "mp_sync",      "fig3",
                              "counter2x2", "racy_counter", "barrier3",
                              "fig3.wo",  "spinlock.wo"};
    const OrderingPolicy policies[] = {
        OrderingPolicy::sc, OrderingPolicy::wo_def1,
        OrderingPolicy::wo_drf0, OrderingPolicy::wo_drf0_ro};
    std::string actual;
    for (const char *prog : programs)
        for (OrderingPolicy pol : policies)
            for (const Timing &t : timings)
                actual += row(prog, pol, t);

    std::ifstream in(std::string(WO_GOLDEN_DIR) + "/stats_digests.tsv");
    ASSERT_TRUE(in) << "missing golden file";
    std::string expected;
    for (std::string line; std::getline(in, line);)
        if (!line.empty() && line[0] != '#')
            expected += line + "\n";
    EXPECT_EQ(actual, expected)
        << "program\tpolicy\ttiming\tstats\tstats_json\tmonitor_report\n"
        << actual;
}

} // namespace
} // namespace wo
