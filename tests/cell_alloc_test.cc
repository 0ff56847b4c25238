/**
 * @file
 * Steady-state allocation audit of a whole timed cell.
 *
 * A campaign worker reuses one machine across its cells
 * (System::reset), and every component keeps its container capacity,
 * so once a cell has run, re-running it -- reset, warm-up, run --
 * allocates only the outcome vectors of the SystemResult it returns:
 * a fixed count per processor, independent of how many events the
 * cell executes or of the violations its monitor raises.  Like
 * event_alloc_test, this binary replaces the global operator new with
 * a counting version, which is why the audit lives in its own
 * executable.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "asm/assembler.hh"
#include "campaign/cell.hh"
#include "program/builder.hh"
#include "program/litmus.hh"
#include "sys/system.hh"

namespace {

std::uint64_t g_allocs = 0;

} // namespace

void *
operator new(std::size_t size)
{
    ++g_allocs;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    ++g_allocs;
    return std::malloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace wo {
namespace {

/** A campaign cell's configuration (monitor on, no stats rendering). */
SystemCfg
cellCfg(OrderingPolicy policy)
{
    Cell c;
    c.policy = policy;
    c.net_seed = 5;
    c.hop = 4;
    c.jitter = 3;
    return c.systemCfg(300'000);
}

struct Rerun
{
    std::uint64_t allocs = 0;
    std::uint64_t events = 0;
    SystemResult result;
};

/** Warm @p machine on @p prog twice, then count one more run. */
Rerun
rerun(System &machine, const Program &prog, const SystemCfg &cfg,
      const std::vector<WarmTerm> &warm = {})
{
    auto once = [&] {
        machine.reset(prog, cfg);
        for (const WarmTerm &w : warm)
            machine.warmShared(w.addr, w.procs);
        return machine.run();
    };
    once();
    once();
    Rerun r;
    const std::uint64_t a0 = g_allocs;
    r.result = once();
    r.allocs = g_allocs - a0;
    r.events = machine.eventQueue().executed();
    return r;
}

/** What SystemResult::outcome costs: the register-file vector, one
 *  register vector per processor, and the memory image. */
std::uint64_t
outcomeAllocs(const Program &prog)
{
    return prog.numThreads() + 2u;
}

TEST(CellAlloc, WarmedCellAllocatesOnlyTheOutcome)
{
    const Program programs[] = {
        litmus::messagePassingSync(), litmus::fig3Scenario(2),
        litmus::fig3ScenarioTestAndTas(2), litmus::lockedCounter(2, 2),
        litmus::lockedCounter(2, 2, true), litmus::barrier(3),
        litmus::pingPong(3)};
    const OrderingPolicy policies[] = {
        OrderingPolicy::sc, OrderingPolicy::wo_def1,
        OrderingPolicy::wo_drf0, OrderingPolicy::wo_drf0_ro};
    // Race-free programs; RacyCellAllocatesOnlyTheOutcome covers a
    // run that raises violations.
    System machine(programs[0], cellCfg(OrderingPolicy::sc));
    for (const Program &prog : programs)
        for (OrderingPolicy pol : policies) {
            const Rerun r = rerun(machine, prog, cellCfg(pol));
            ASSERT_TRUE(r.result.completed) << prog.name();
            ASSERT_EQ(r.result.monitor_violations, 0u) << prog.name();
            EXPECT_EQ(r.allocs, outcomeAllocs(prog))
                << prog.name() << " under " << policyName(pol) << " ("
                << r.events << " events)";
        }
}

TEST(CellAlloc, RacyCellAllocatesOnlyTheOutcome)
{
    // A cell reads the monitor's counts, not its witness text, so a
    // raised drf0_race formats nothing: the racy program allocates as
    // little as the race-free ones.
    const Program prog = litmus::racyCounter(2, 2);
    System machine(prog, cellCfg(OrderingPolicy::wo_drf0));
    for (OrderingPolicy pol :
         {OrderingPolicy::sc, OrderingPolicy::wo_def1,
          OrderingPolicy::wo_drf0, OrderingPolicy::wo_drf0_ro}) {
        const Rerun r = rerun(machine, prog, cellCfg(pol));
        ASSERT_TRUE(r.result.completed) << policyName(pol);
        ASSERT_GT(r.result.monitor_races, 0u) << policyName(pol);
        ASSERT_GT(machine.monitor()->countOf(ViolationKind::drf0_race), 0u);
        EXPECT_EQ(r.allocs, outcomeAllocs(prog))
            << policyName(pol) << " (" << r.events << " events)";
    }
}

TEST(CellAlloc, BoundDoesNotGrowWithTheEventCount)
{
    // The same two-thread lock loop at 2 and 64 critical sections per
    // thread: ~30x the events, the same allocation count.
    System machine(litmus::lockedCounter(2, 2),
                   cellCfg(OrderingPolicy::wo_drf0));
    const Program small = litmus::lockedCounter(2, 2);
    const Program large = litmus::lockedCounter(2, 64);
    const Rerun s = rerun(machine, small, cellCfg(OrderingPolicy::wo_drf0));
    const Rerun l = rerun(machine, large, cellCfg(OrderingPolicy::wo_drf0));
    ASSERT_TRUE(s.result.completed);
    ASSERT_TRUE(l.result.completed);
    EXPECT_GT(l.events, 10 * s.events);
    EXPECT_EQ(s.allocs, outcomeAllocs(small));
    EXPECT_EQ(l.allocs, outcomeAllocs(large));
}

TEST(CellAlloc, WarmDirectivesStayAllocationFree)
{
    // programs/fig3.wo carries a 'warm' directive: the directory's
    // sharer lists and the caches' lines are re-warmed in place.
    AsmResult a = assembleFile(std::string(WO_PROGRAMS_DIR) + "/fig3.wo");
    ASSERT_TRUE(a.ok());
    ASSERT_FALSE(a.warm.empty());
    System machine(*a.program, cellCfg(OrderingPolicy::wo_drf0));
    const Rerun r =
        rerun(machine, *a.program, cellCfg(OrderingPolicy::wo_drf0), a.warm);
    ASSERT_TRUE(r.result.completed);
    EXPECT_EQ(r.allocs, outcomeAllocs(*a.program));
}

TEST(CellAlloc, JournalLineFormatsWithoutAllocating)
{
    CellResult r;
    r.key = "litmus:fig1|drf0|n7|h4|j3";
    r.completed = true;
    r.outcome_sig = "0123456789abcdef";
    r.finish_tick = 118;
    r.wall_ms = 0.0421;
    r.mat_us = 3;
    r.run_us = 41;
    std::string line;
    appendCellResultJson(line, r); // grows the buffer once
    line.clear();
    const std::uint64_t a0 = g_allocs;
    appendCellResultJson(line, r);
    EXPECT_EQ(g_allocs - a0, 0u);
    EXPECT_EQ(line, cellResultToJson(r).dump());
}

} // namespace
} // namespace wo
