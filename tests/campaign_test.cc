/**
 * @file
 * Tests for the campaign engine: generator determinism, the fuzz
 * frontier's reproducible base stream, the crash-safe journal, the
 * counterexample shrinker, and the work-stealing scheduler end to end
 * (including the seeded-fault hunt and `--resume` semantics).
 */

#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "campaign/cell.hh"
#include "campaign/fuzzer.hh"
#include "campaign/journal.hh"
#include "campaign/scheduler.hh"
#include "campaign/shrink.hh"
#include "campaign/verify.hh"
#include "common/random.hh"
#include "obs/json.hh"
#include "program/workload.hh"

namespace wo {
namespace {

std::string
slurp(const std::string &path)
{
    std::string out;
    FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

/** One journaled cell line plus where it ends in the file. */
struct JournalCellLine
{
    std::string key;
    std::string verdict;
    std::size_t end; //!< byte offset just past the line's newline
};

/** The type=="cell" lines of a journal, in file order. */
std::vector<JournalCellLine>
journalCells(const std::string &path)
{
    std::vector<JournalCellLine> out;
    const std::string text = slurp(path);
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            break;
        const std::string_view line(text.data() + pos, eol - pos);
        pos = eol + 1;
        JsonParseResult p = jsonParse(line);
        if (!p.ok || !p.value.isObject())
            continue;
        const Json *type = p.value.find("type");
        if (!type || !type->isString() || type->stringValue() != "cell")
            continue;
        const Json *key = p.value.find("key");
        const Json *verdict = p.value.find("verdict");
        out.push_back({key && key->isString() ? key->stringValue() : "",
                       verdict && verdict->isString()
                           ? verdict->stringValue()
                           : "",
                       pos});
    }
    return out;
}

// ------------------------------------------------ generator determinism

TEST(GeneratorDeterminism, SameSeedSameDrf0Program)
{
    Drf0WorkloadCfg cfg;
    cfg.procs = 3;
    cfg.regions = 2;
    cfg.seed = 42;
    Program a = randomDrf0Program(cfg);
    Program b = randomDrf0Program(cfg);
    EXPECT_EQ(disassemble(a), disassemble(b));
}

TEST(GeneratorDeterminism, DifferentSeedDifferentDrf0Program)
{
    Drf0WorkloadCfg cfg;
    cfg.procs = 3;
    cfg.regions = 2;
    cfg.seed = 42;
    Program a = randomDrf0Program(cfg);
    cfg.seed = 43;
    Program b = randomDrf0Program(cfg);
    EXPECT_NE(disassemble(a), disassemble(b));
}

TEST(GeneratorDeterminism, SameSeedSameRacyProgram)
{
    RacyWorkloadCfg cfg;
    cfg.procs = 3;
    cfg.ops_per_thread = 5;
    cfg.seed = 7;
    EXPECT_EQ(disassemble(randomRacyProgram(cfg)),
              disassemble(randomRacyProgram(cfg)));
    RacyWorkloadCfg other = cfg;
    other.seed = 8;
    EXPECT_NE(disassemble(randomRacyProgram(cfg)),
              disassemble(randomRacyProgram(other)));
}

// ------------------------------------------------------- mutation hooks

TEST(MutationHooks, Drf0MutantsStayInBoundsAndRedrawSeed)
{
    Drf0WorkloadCfg base;
    Rng rng(1);
    for (int i = 0; i < 500; ++i) {
        Drf0WorkloadCfg m = mutateDrf0Cfg(base, rng);
        EXPECT_GE(m.procs, 2u);
        EXPECT_LE(m.procs, 4u);
        EXPECT_GE(m.regions, 1u);
        EXPECT_LE(m.regions, 3u);
        EXPECT_GE(m.sections, 1);
        EXPECT_LE(m.sections, 3);
        EXPECT_GE(m.ops_per_section, 1);
        EXPECT_LE(m.ops_per_section, 4);
        EXPECT_NE(m.seed, base.seed); // fresh generator draw
        // Every mutant must still describe a buildable program.
        Program p = randomDrf0Program(m);
        EXPECT_GT(p.staticSize(), 0u);
    }
}

TEST(MutationHooks, EqualRngStreamsDeriveEqualMutants)
{
    Drf0WorkloadCfg base;
    Rng a(99), b(99);
    for (int i = 0; i < 50; ++i) {
        Drf0WorkloadCfg ma = mutateDrf0Cfg(base, a);
        Drf0WorkloadCfg mb = mutateDrf0Cfg(base, b);
        EXPECT_EQ(disassemble(randomDrf0Program(ma)),
                  disassemble(randomDrf0Program(mb)));
    }
}

TEST(MutationHooks, RacyMutantsStayInBounds)
{
    RacyWorkloadCfg base;
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
        RacyWorkloadCfg m = mutateRacyCfg(base, rng);
        EXPECT_GE(m.procs, 2u);
        EXPECT_LE(m.procs, 4u);
        EXPECT_GE(m.locs, 1u);
        EXPECT_LE(m.locs, 3u);
        EXPECT_GE(m.ops_per_thread, 1);
        EXPECT_LE(m.ops_per_thread, 6);
        Program p = randomRacyProgram(m);
        EXPECT_GT(p.staticSize(), 0u);
    }
}

// ------------------------------------------------- fuzzer base stream

TEST(Fuzzer, BaseStreamIsAPureFunctionOfSeedAndIndex)
{
    FuzzerCfg cfg;
    cfg.seed = 1234;
    Fuzzer a(cfg), b(cfg);
    for (std::uint64_t i = 0; i < 200; ++i)
        EXPECT_EQ(a.baseCell(i).key(), b.baseCell(i).key()) << i;
    // Out-of-order queries see the same cells: no hidden stream state.
    EXPECT_EQ(a.baseCell(7).key(), b.baseCell(7).key());
}

TEST(Fuzzer, DifferentCampaignSeedsShiftTheStream)
{
    FuzzerCfg a_cfg, b_cfg;
    a_cfg.seed = 1;
    b_cfg.seed = 2;
    Fuzzer a(a_cfg), b(b_cfg);
    int differing = 0;
    for (std::uint64_t i = 0; i < 100; ++i)
        differing += a.baseCell(i).key() != b.baseCell(i).key();
    EXPECT_GT(differing, 0);
}

TEST(Fuzzer, BaseCellsMaterializeAndRun)
{
    FuzzerCfg cfg;
    Fuzzer f(cfg);
    for (std::uint64_t i = 0; i < 12; ++i) {
        Cell c = f.baseCell(i);
        auto run = runCell(c, 200'000);
        EXPECT_EQ(run.result.key, c.key());
        EXPECT_TRUE(run.program.has_value()) << c.key();
        // A conforming machine never trips a hardware invariant.
        EXPECT_EQ(run.result.hw, 0u) << c.key();
    }
}

// -------------------------------------------- the materialization cache

TEST(MaterializeCache, LitmusCellsHitAcrossTimingAndPolicy)
{
    ASSERT_FALSE(litmusCorpus().empty());
    Cell c;
    c.source = CellSource::litmus;
    c.spec = litmusCorpus().front().name;

    MaterializeCache cache;
    MaterializedCell a = materializeCell(c, &cache);
    // Same program family, different timing/policy coordinates: the
    // cache serves the parse, the run still differs.
    Cell c2 = c;
    c2.net_seed = 99;
    c2.policy = OrderingPolicy::sc;
    MaterializedCell b = materializeCell(c2, &cache);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(disassemble(*a.program), disassemble(*b.program));
    // The cached copy is byte-identical to an uncached build.
    MaterializedCell plain = materializeCell(c);
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ(disassemble(*plain.program), disassemble(*a.program));
}

TEST(MaterializeCache, RandomDrawsBypassAndErrorsAreCached)
{
    MaterializeCache cache;
    // Every random draw embeds its own generator seed: caching one
    // would replay it forever, so the cache must pass them through.
    Cell r;
    r.source = CellSource::drf0_rand;
    r.drf0.seed = 5;
    EXPECT_TRUE(materializeCell(r, &cache).ok());
    Cell r2 = r;
    r2.drf0.seed = 6;
    EXPECT_TRUE(materializeCell(r2, &cache).ok());
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 0u);

    // A broken corpus file costs one parse attempt, not one per cell.
    Cell bad;
    bad.source = CellSource::file;
    bad.spec = testing::TempDir() + "missing_corpus.wo";
    MaterializedCell e1 = materializeCell(bad, &cache);
    MaterializedCell e2 = materializeCell(bad, &cache);
    EXPECT_FALSE(e1.ok());
    EXPECT_FALSE(e2.ok());
    EXPECT_EQ(e1.error, e2.error);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.size(), 1u);
}

// --------------------------------------------------------- the journal

TEST(Journal, RoundTripAndResumeState)
{
    const std::string path = testing::TempDir() + "journal_rt.jsonl";
    std::remove(path.c_str());
    {
        Journal j(path);
        j.load(); // missing file: fresh start
        ASSERT_TRUE(j.open(/*fresh=*/true));
        j.writeHeader(Json::object());
        CellResult r;
        r.key = "litmus:iriw|WO-DRF0|n7|h10|j2";
        r.completed = true;
        r.outcome_sig = "abcd";
        j.appendCell(r);
        EXPECT_TRUE(j.done(r.key));
        EXPECT_TRUE(j.recordFailure("reserve_leak:123abc",
                                    "reserve_leak", r.key, "x.wo", 4, 24));
        // An equivalent failure only bumps the count.
        EXPECT_FALSE(j.recordFailure("reserve_leak:123abc",
                                     "reserve_leak", r.key, "x.wo", 4, 24));
    }
    Journal j2(path);
    j2.load();
    EXPECT_TRUE(j2.done("litmus:iriw|WO-DRF0|n7|h10|j2"));
    EXPECT_FALSE(j2.done("litmus:mp|WO-DRF0|n7|h10|j2"));
    EXPECT_EQ(j2.doneCells(), 1u);
    auto fails = j2.failures();
    ASSERT_EQ(fails.size(), 1u);
    EXPECT_EQ(fails.begin()->second.kind, "reserve_leak");
    EXPECT_EQ(fails.begin()->second.count, 2u);
    EXPECT_EQ(fails.begin()->second.insns, 4u);
}

TEST(Journal, TruncatedTrailingLineIsIgnored)
{
    const std::string path = testing::TempDir() + "journal_trunc.jsonl";
    std::remove(path.c_str());
    {
        Journal j(path);
        ASSERT_TRUE(j.open(true));
        CellResult r;
        r.key = "k1";
        j.appendCell(r);
    }
    // Simulate a crash mid-append: a torn, unterminated JSON line.
    FILE *f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"type\":\"cell\",\"key\":\"k2", f);
    std::fclose(f);

    Journal j2(path);
    j2.load();
    EXPECT_TRUE(j2.done("k1"));
    EXPECT_FALSE(j2.done("k2"));
    EXPECT_EQ(j2.doneCells(), 1u);
}

TEST(Journal, SeenSetInsertContainsAndOverflowSpill)
{
    SeenSet s;
    s.reserve(100);
    EXPECT_TRUE(s.insert(fnv1a64("a")));
    EXPECT_FALSE(s.insert(fnv1a64("a"))); // second claim loses
    EXPECT_TRUE(s.contains(fnv1a64("a")));
    EXPECT_FALSE(s.contains(fnv1a64("b")));
    EXPECT_EQ(s.size(), 1u);

    // Spill far past the default table's half-load watermark: the
    // mutexed overflow set must keep every key, and duplicates must
    // still be rejected across the table/overflow boundary.
    SeenSet t; // default-sized: 4096 slots, spills past 2048
    const std::uint64_t stride = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t i = 1; i <= 5000; ++i)
        EXPECT_TRUE(t.insert(i * stride)) << i;
    EXPECT_EQ(t.size(), 5000u);
    for (std::uint64_t i = 1; i <= 5000; ++i)
        EXPECT_TRUE(t.contains(i * stride)) << i;
    EXPECT_FALSE(t.insert(42 * stride));
    EXPECT_FALSE(t.insert(4999 * stride));
}

TEST(Journal, SyncEveryOneFlushesEveryRecord)
{
    const std::string path = testing::TempDir() + "journal_sync1.jsonl";
    std::remove(path.c_str());
    JournalCfg jcfg;
    jcfg.sync_every = 1; // the pre-group-commit contract
    Journal j(path, jcfg);
    ASSERT_TRUE(j.open(/*fresh=*/true));
    for (int i = 0; i < 20; ++i) {
        CellResult r;
        r.key = "k" + std::to_string(i);
        r.completed = true;
        j.appendCell(r);
    }
    j.close();
    // One commit (fflush) per record, not per drained batch.
    EXPECT_GE(j.commitBatches(), 20u);

    Journal j2(path);
    j2.load();
    EXPECT_EQ(j2.doneCells(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_TRUE(j2.done("k" + std::to_string(i))) << i;
}

TEST(Journal, GroupCommitIsDurableAfterClose)
{
    const std::string path = testing::TempDir() + "journal_group.jsonl";
    std::remove(path.c_str());
    JournalCfg jcfg;
    jcfg.sync_every = 1000;      // never reach the batch threshold...
    jcfg.flush_interval_ms = 1000; // ...and outlive the interval too
    Journal j(path, jcfg);
    ASSERT_TRUE(j.open(/*fresh=*/true));
    for (int i = 0; i < 100; ++i) {
        CellResult r;
        r.key = "g" + std::to_string(i);
        j.appendCell(r);
        EXPECT_TRUE(j.done(r.key)); // done immediately, pre-durability
    }
    j.close(); // the final drain commits whatever is still queued
    EXPECT_GE(j.commitBatches(), 1u);

    Journal j2(path);
    j2.load();
    EXPECT_EQ(j2.doneCells(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(j2.done("g" + std::to_string(i))) << i;
}

TEST(Journal, DirectCellLineMatchesTheJsonTree)
{
    // appendCell formats its line without a Json tree; every optional
    // member, every verdict and awkward key bytes must come out exactly
    // as cellResultToJson(r) + "type":"cell" dumps them.
    std::vector<CellResult> rs;
    CellResult run;
    run.key = "litmus:iriw|drf0|n7|h4|j2";
    run.completed = true;
    run.races = 2;
    run.total = 2;
    run.outcome_sig = "00ff00ff00ff00ff";
    run.finish_tick = 1234;
    run.wall_ms = 0.056789012345678901;
    run.mat_us = 7;
    run.run_us = 56;
    rs.push_back(run);

    CellResult fail = run;
    fail.key = "drf0:p2r1l2v1s2o2q1t1w0g42|drf0ro|n1|h3|j0|BUG";
    fail.hw = 3;
    fail.total = 5;
    fail.primary_kind = "counter_undrained";
    fail.livelocked = true;
    fail.shrink_us = 98765;
    rs.push_back(fail);

    CellResult verify;
    verify.key = "verify:litmus:mp|sc";
    verify.completed = true;
    verify.inconclusive = true;
    verify.dpor_states = 200001;
    verify.bfs_states = 12;
    verify.dpor_probes = 3;
    verify.dpor_memo_hits = 1;
    verify.wall_ms = 12.5;
    rs.push_back(verify);

    CellResult nonsc = verify;
    nonsc.inconclusive = false;
    nonsc.nonsc = true;
    nonsc.hw = 1;
    nonsc.primary_kind = "";
    rs.push_back(nonsc);

    CellResult odd;
    odd.key = std::string("q\"uote\\back\x01\x1f\n\t\r\b\f|\x7f");
    odd.primary_kind = "materialize_error";
    odd.wall_ms = 1e300 * 1e300; // not finite: rendered as null
    rs.push_back(odd);

    CellResult dead;
    dead.key = "file:programs/a_b.wo|sc|n2|h5|j1";
    dead.deadlocked = true;
    dead.wall_ms = 3.0;
    rs.push_back(dead);

    const std::string path = testing::TempDir() + "journal_direct.jsonl";
    std::remove(path.c_str());
    Journal j(path);
    ASSERT_TRUE(j.open(/*fresh=*/true));
    std::string expected;
    for (const CellResult &r : rs) {
        std::string direct;
        appendCellResultJson(direct, r);
        EXPECT_EQ(direct, cellResultToJson(r).dump()) << r.key;
        j.appendCell(r);
        Json line = cellResultToJson(r);
        line.set("type", Json("cell"));
        expected += line.dump() + "\n";
    }
    j.close();
    EXPECT_EQ(slurp(path), expected);
}

TEST(Journal, HeaderStampsSchemaVersionAndHwThreads)
{
    const std::string path = testing::TempDir() + "journal_schema.jsonl";
    std::remove(path.c_str());
    {
        Journal j(path);
        ASSERT_TRUE(j.open(/*fresh=*/true));
        Json meta = Json::object();
        meta.set("seed", Json(std::uint64_t{7}));
        j.writeHeader(std::move(meta));
    }
    Journal j2(path);
    j2.load();
    EXPECT_EQ(j2.loadedSchemaVersion(), journal_schema_version);
    EXPECT_FALSE(j2.schemaMismatch());
    const Json &h = j2.header();
    ASSERT_TRUE(h.isObject());
    EXPECT_EQ(h.find("seed")->uintValue(), 7u);
    EXPECT_EQ(h.find("schema_version")->uintValue(),
              journal_schema_version);
    // The run's hardware parallelism, for apples-to-apples perf
    // comparisons across journals.
    EXPECT_GE(h.find("hw_threads")->uintValue(), 1u);
}

TEST(Journal, HeaderMembersAlreadyPresentWin)
{
    // Merged/replayed headers are forwarded verbatim: the stamps must
    // not overwrite members the caller provided.
    const std::string path = testing::TempDir() + "journal_verb.jsonl";
    std::remove(path.c_str());
    {
        Journal j(path);
        ASSERT_TRUE(j.open(true));
        Json meta = Json::object();
        meta.set("hw_threads", Json(std::uint64_t{99}));
        j.writeHeader(std::move(meta));
    }
    Journal j2(path);
    j2.load();
    EXPECT_EQ(j2.header().find("hw_threads")->uintValue(), 99u);
}

TEST(Journal, SchemaMismatchIsFlaggedButStillReplays)
{
    const std::string path = testing::TempDir() + "journal_old.jsonl";
    FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"type\":\"campaign\",\"schema_version\":1}\n", f);
    std::fputs("{\"type\":\"cell\",\"key\":\"old1\"}\n", f);
    std::fclose(f);

    Journal j(path);
    j.load(); // warns on the version skew, then replays anyway
    EXPECT_TRUE(j.schemaMismatch());
    EXPECT_EQ(j.loadedSchemaVersion(), 1u);
    EXPECT_TRUE(j.done("old1"));
}

TEST(Journal, FleetIdxLinesBuildTheResumeIndexSet)
{
    const std::string path = testing::TempDir() + "journal_idx.jsonl";
    std::remove(path.c_str());
    {
        Journal j(path);
        ASSERT_TRUE(j.open(true));
        j.writeHeader(Json::object());
        for (std::uint64_t i : {0ull, 3ull, 17ull}) {
            Json line = Json::object();
            line.set("type", Json("cell"));
            line.set("key", Json("k" + std::to_string(i)));
            line.set("idx", Json(i));
            j.appendRaw(line.dump() + "\n");
        }
        // A single-process line (no idx) marks its key done but adds
        // no resume index.
        CellResult r;
        r.key = "plain";
        j.appendCell(r);
    }
    Journal j2(path);
    j2.load();
    EXPECT_EQ(j2.doneCells(), 4u);
    const auto &idx = j2.resumeIndices();
    EXPECT_EQ(idx.size(), 3u);
    EXPECT_TRUE(idx.count(0) && idx.count(3) && idx.count(17));
    EXPECT_TRUE(j2.done("plain"));
}

// -------------------------------------------------------- the shrinker

/** The seeded-fault witness from the monitor suite, plus dead weight
 *  the shrinker should strip. */
const char *const fat_leak_source = R"(program fatleak
thread 0
  ld r1 pad0
  st pad1 7
  tas r7 lock
  st data 1
  st data2 2
  syncst lock 0
  ld r2 pad0
  st pad1 9
thread 1
  work 300
  ld r3 pad2
  tas r7 lock
  syncst lock 0
  st pad2 5
thread 2
  ld r4 pad3
  st pad3 1
  ld r5 pad3
)";

TEST(Shrinker, MinimizesSeededReserveLeak)
{
    AsmResult a = assembleString(fat_leak_source);
    ASSERT_TRUE(a.ok());
    SystemCfg cfg;
    cfg.policy = OrderingPolicy::wo_drf0;
    cfg.cache.bug_drop_reserve_clear = true;
    cfg.max_events = 60'000;

    ASSERT_TRUE(reproducesViolation(*a.program, a.warm, cfg,
                                    ViolationKind::reserve_leak));

    ShrinkCfg scfg;
    scfg.max_runs = 300;
    auto out = shrinkCounterexample(*a.program, a.warm, cfg,
                                    ViolationKind::reserve_leak, scfg);
    EXPECT_TRUE(out.reproduced);
    EXPECT_LT(out.instructions, out.orig_instructions);
    EXPECT_LE(out.instructions, 12u); // the minimal witness is tiny
    ASSERT_TRUE(out.program.has_value());

    // The emitted .wo text must reassemble into a program that still
    // triggers the same verdict -- that is what makes it a reproducer.
    AsmResult re = assembleString(out.wo_text);
    ASSERT_TRUE(re.ok()) << out.wo_text;
    EXPECT_TRUE(reproducesViolation(*re.program, re.warm, cfg,
                                    ViolationKind::reserve_leak))
        << out.wo_text;
}

TEST(Shrinker, NonReproducingInputIsReportedNotMangled)
{
    AsmResult a = assembleString(fat_leak_source);
    ASSERT_TRUE(a.ok());
    SystemCfg cfg; // no fault injected: nothing to reproduce
    cfg.policy = OrderingPolicy::wo_drf0;
    cfg.max_events = 60'000;
    auto out = shrinkCounterexample(*a.program, a.warm, cfg,
                                    ViolationKind::reserve_leak);
    EXPECT_FALSE(out.reproduced);
    EXPECT_EQ(out.instructions, out.orig_instructions);
}

// ------------------------------------------------------- the scheduler

TEST(Campaign, SmallFleetRunsCleanOnConformingHardware)
{
    CampaignCfg cfg;
    cfg.jobs = 2;
    cfg.cells = 40;
    cfg.out_dir = testing::TempDir() + "camp_clean";
    cfg.max_events = 200'000;
    cfg.seed = 11;
    auto sum = runCampaign(cfg);
    EXPECT_EQ(sum.ran + sum.skipped, 40u);
    EXPECT_EQ(sum.skipped, 0u);
    EXPECT_TRUE(sum.hardwareClean());
    EXPECT_EQ(sum.hw, 0u);
    EXPECT_GT(sum.clean + sum.racy, 0u);
    // The journal exists and replays to the same done-set size.
    Journal j(cfg.out_dir + "/campaign.journal.jsonl");
    j.load();
    EXPECT_EQ(j.doneCells(), sum.ran);
}

TEST(Campaign, ResumeSkipsJournaledCells)
{
    CampaignCfg cfg;
    cfg.jobs = 2;
    cfg.cells = 30;
    cfg.out_dir = testing::TempDir() + "camp_resume";
    cfg.max_events = 200'000;
    cfg.seed = 21;
    auto first = runCampaign(cfg);
    EXPECT_EQ(first.ran, 30u);

    cfg.resume = true;
    auto second = runCampaign(cfg);
    // The budget counts skips, so resume converges instead of
    // re-running history; the deterministic base stream guarantees the
    // journaled keys are re-encountered.
    EXPECT_EQ(second.ran + second.skipped, 30u);
    EXPECT_GT(second.skipped, 0u);
}

TEST(Campaign, DuplicateKeysAreCountedApartFromResumedCells)
{
    // A verify base stream repeats its deterministic programs after one
    // lap of the corpus, so a fresh run meets keys it already ran:
    // those are duplicates, not resumed cells.  Only --resume skips
    // count as resumed.
    CampaignCfg cfg;
    cfg.jobs = 1;
    cfg.cells = 40;
    cfg.out_dir = testing::TempDir() + "camp_dup";
    cfg.seed = 71;
    cfg.frontier = false;
    cfg.verify = true;
    cfg.verify_models = {"sc"};
    cfg.max_states = 500;
    const CampaignSummary first = runCampaign(cfg);
    EXPECT_EQ(first.skipped, 0u);
    EXPECT_GT(first.duplicate, 0u);
    EXPECT_EQ(first.ran + first.duplicate, cfg.cells);
    EXPECT_NE(first.table().find(
                  "(" + std::to_string(first.ran) + " run, 0 resumed, " +
                  std::to_string(first.duplicate) + " duplicate)"),
              std::string::npos)
        << first.table();
    const Json sj = first.toJson();
    ASSERT_NE(sj.find("duplicate"), nullptr);
    EXPECT_EQ(sj.find("duplicate")->uintValue(), first.duplicate);
    EXPECT_EQ(sj.find("skipped")->uintValue(), 0u);

    // Resumed counts every cell whose key the replayed journal holds,
    // repeats of the stream included.
    cfg.resume = true;
    const CampaignSummary second = runCampaign(cfg);
    EXPECT_EQ(second.ran, 0u);
    EXPECT_EQ(second.skipped, cfg.cells);
    EXPECT_EQ(second.duplicate, 0u);
}

TEST(Campaign, MidBatchTruncationResumesExactlyTheCommittedCells)
{
    // A crash between group commits tears the journal inside a batch.
    // The committed prefix (the whole lines) must be skipped on
    // --resume and the torn tail re-run.
    CampaignCfg cfg;
    cfg.jobs = 1; // processing order == journal order
    cfg.cells = 24;
    cfg.out_dir = testing::TempDir() + "camp_midbatch";
    cfg.max_events = 200'000;
    cfg.seed = 51;
    cfg.sync_every = 8;
    auto first = runCampaign(cfg);
    ASSERT_EQ(first.ran, 24u);

    const std::string jpath = cfg.out_dir + "/campaign.journal.jsonl";
    auto lines = journalCells(jpath);
    // close() drained the queue: every cell is durable despite batching.
    ASSERT_EQ(lines.size(), 24u);

    // Cut so the torn cell is a *base-stream* cell: the resumed run is
    // then guaranteed to re-encounter it (frontier mutants bred by
    // skipped parents are legitimately never re-bred).  Even tickets
    // always draw from the base stream, so the window below has one.
    FuzzerCfg pcfg;
    pcfg.seed = cfg.seed;
    Fuzzer probe(pcfg);
    std::unordered_set<std::string> base_keys;
    for (std::uint64_t i = 0; i < cfg.cells; ++i)
        base_keys.insert(probe.baseCell(i).key());
    std::size_t committed = 0;
    for (std::size_t i = 4; i <= 11; ++i)
        if (base_keys.count(lines[i].key))
            committed = i;
    ASSERT_GT(committed, 0u) << "no base cell in the cuttable window";

    // Keep `committed` whole lines plus half of the next one.
    const std::size_t line_start = lines[committed - 1].end;
    const std::size_t line_end = lines[committed].end;
    ASSERT_GT(line_end - line_start, 2u);
    std::filesystem::resize_file(jpath,
                                 line_start + (line_end - line_start) / 2);

    // The journal layer resumes exactly the committed prefix.
    std::unordered_set<std::string> committed_keys;
    for (std::size_t i = 0; i < committed; ++i)
        committed_keys.insert(lines[i].key);
    {
        Journal j(jpath);
        j.load();
        EXPECT_EQ(j.doneCells(), committed);
        for (std::size_t i = 0; i < committed; ++i)
            EXPECT_TRUE(j.done(lines[i].key)) << i;
        for (std::size_t i = committed; i < lines.size(); ++i)
            if (!committed_keys.count(lines[i].key)) {
                EXPECT_FALSE(j.done(lines[i].key)) << i;
            }
    }

    // The resumed campaign skips the committed cells within the same
    // budget.  Every committed base cell sits in the first few base
    // draws and a 24-ticket run draws at least 12, so each one is
    // re-encountered -- and must be skipped, not re-run.
    cfg.resume = true;
    auto second = runCampaign(cfg);
    EXPECT_EQ(second.ran + second.skipped, 24u);
    std::size_t base_committed = 0;
    for (std::size_t i = 0; i < committed; ++i)
        base_committed += base_keys.count(lines[i].key) != 0;
    EXPECT_GT(base_committed, 0u);
    EXPECT_GE(second.skipped, base_committed);

    // Committed cells were never re-journaled (exactly one line each);
    // the torn cell was re-run and re-journaled.
    auto after = journalCells(jpath);
    std::unordered_map<std::string, int> times;
    for (const auto &l : after)
        ++times[l.key];
    for (std::size_t i = 0; i < committed; ++i)
        EXPECT_EQ(times[lines[i].key], 1) << lines[i].key;
    EXPECT_GE(times[lines[committed].key], 1) << lines[committed].key;
}

TEST(Campaign, SingleWorkerRunIsAPureFunctionOfTheSeed)
{
    // --seed N --jobs 1 must journal the same cells with the same
    // verdicts run over run: the materialization cache, the sharded
    // novelty sets and the group-commit writer may not perturb the
    // cell stream.
    CampaignCfg cfg;
    cfg.jobs = 1;
    cfg.cells = 30;
    cfg.max_events = 200'000;
    cfg.seed = 17;
    cfg.out_dir = testing::TempDir() + "camp_det_a";
    auto a = runCampaign(cfg);
    cfg.out_dir = testing::TempDir() + "camp_det_b";
    auto b = runCampaign(cfg);
    EXPECT_EQ(a.ran, b.ran);

    auto la = journalCells(testing::TempDir() +
                           "camp_det_a/campaign.journal.jsonl");
    auto lb = journalCells(testing::TempDir() +
                           "camp_det_b/campaign.journal.jsonl");
    ASSERT_EQ(la.size(), lb.size());
    ASSERT_GT(la.size(), 0u);
    for (std::size_t i = 0; i < la.size(); ++i) {
        EXPECT_EQ(la[i].key, lb[i].key) << i;
        EXPECT_EQ(la[i].verdict, lb[i].verdict) << i;
    }
}

TEST(Campaign, SeededFaultIsFoundDedupedAndShrunk)
{
    // Plant a leak-shaped witness in the file corpus so the hunt is
    // deterministic, and pin the policy: the reserve-bit fault is only
    // reachable under WO-DRF0 (sc/def1 never leave the lock line
    // reserved across the release).
    const std::string wo_path = testing::TempDir() + "fatleak.wo";
    FILE *f = std::fopen(wo_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs(fat_leak_source, f);
    std::fclose(f);

    CampaignCfg cfg;
    cfg.jobs = 2;
    cfg.cells = 30;
    cfg.out_dir = testing::TempDir() + "camp_fault";
    cfg.max_events = 60'000; // buggy cells livelock; keep them cheap
    cfg.shrink_max_runs = 200;
    cfg.inject_reserve_bug = true;
    cfg.policies = {OrderingPolicy::wo_drf0};
    cfg.program_files = {wo_path};
    cfg.seed = 31;
    auto sum = runCampaign(cfg);
    EXPECT_FALSE(sum.hardwareClean());
    EXPECT_GT(sum.hw, 0u);
    ASSERT_GE(sum.failures.size(), 1u);
    // Many cells trip the same fault; dedup must collapse them.
    std::uint64_t hits = 0;
    for (const auto &f : sum.failures) {
        hits += f.count;
        EXPECT_EQ(f.kind, "reserve_leak");
        EXPECT_TRUE(f.reproduced) << f.dedup;
        EXPECT_LE(f.instructions, 12u) << f.dedup;
        // The reproducer bundle is on disk and reassembles.
        AsmResult re = assembleString(slurp(f.repro_path));
        ASSERT_TRUE(re.ok()) << f.repro_path;
        SystemCfg scfg;
        scfg.policy = OrderingPolicy::wo_drf0;
        scfg.cache.bug_drop_reserve_clear = true;
        scfg.max_events = 60'000;
        EXPECT_TRUE(reproducesViolation(*re.program, re.warm, scfg,
                                        ViolationKind::reserve_leak))
            << f.repro_path;
    }
    EXPECT_EQ(hits, sum.hw); // every hw cell folded into a record
    EXPECT_LT(sum.failures.size(), sum.hw);
}

TEST(Campaign, SummaryJsonCarriesTheVerdictCounts)
{
    CampaignCfg cfg;
    cfg.jobs = 1;
    cfg.cells = 10;
    cfg.out_dir = testing::TempDir() + "camp_json";
    cfg.seed = 41;
    auto sum = runCampaign(cfg);
    std::string js = sum.toJson().dump();
    EXPECT_NE(js.find("\"ran\""), std::string::npos);
    EXPECT_NE(js.find("\"cells_per_sec\""), std::string::npos);
    EXPECT_NE(js.find("\"failures\""), std::string::npos);
    EXPECT_NE(js.find("\"lat_p50_ms\""), std::string::npos);
    EXPECT_NE(js.find("\"lat_p99_ms\""), std::string::npos);
    EXPECT_GE(sum.lat_p99_ms, sum.lat_p50_ms);
    EXPECT_GT(sum.lat_p99_ms, 0.0);
    EXPECT_FALSE(sum.table().empty());
}

TEST(CampaignTimeline, LanesDecomposeEachWorkersWallClock)
{
    // Enough cells that the second worker is up and running cells
    // before the first has drained the budget alone.
    CampaignCfg cfg;
    cfg.jobs = 2;
    cfg.cells = 400;
    cfg.out_dir = testing::TempDir() + "camp_lanes";
    cfg.max_events = 200'000;
    cfg.seed = 11;
    auto sum = runCampaign(cfg);
    ASSERT_EQ(sum.ran + sum.duplicate, 400u);

    // Lanes are stable: the jobs workers in order, then the writer.
    ASSERT_EQ(sum.lanes.size(), 3u);
    EXPECT_EQ(sum.lanes[0].lane, "worker0");
    EXPECT_EQ(sum.lanes[1].lane, "worker1");
    EXPECT_EQ(sum.lanes[2].lane, "journal-writer");

    const int run_k = static_cast<int>(SpanKind::run);
    const int flush_k = static_cast<int>(SpanKind::writer_flush);
    std::uint64_t run_count = 0;
    for (int w = 0; w < 2; ++w) {
        const auto &l = sum.lanes[static_cast<std::size_t>(w)];
        ASSERT_GT(l.wall_ms, 0.0) << l.lane;
        double span_sum = 0;
        for (int k = 0; k < num_span_kinds; ++k)
            span_sum += l.span_ms[k];
        // The spans tile the worker's loop: their sum explains the
        // thread's wall clock.  The in-tree bound is loose (a loaded
        // CI box can preempt a worker between spans); on an idle box
        // the decomposition lands within a few percent.
        EXPECT_GT(span_sum, 0.5 * l.wall_ms) << l.lane;
        EXPECT_LT(span_sum, 1.1 * l.wall_ms) << l.lane;
        EXPECT_GT(l.span_ms[run_k], 0.0) << l.lane;
        EXPECT_GE(l.span_max_ms[run_k], 0.0) << l.lane;
        run_count += l.span_count[run_k];
    }
    // Every ran cell opened exactly one run span on some worker.
    EXPECT_EQ(run_count, sum.ran);
    // The writer lane flushed at least one batch and did so on its own
    // lane, not a worker's.
    EXPECT_GT(sum.lanes[2].span_count[flush_k], 0u);
    EXPECT_EQ(sum.lanes[0].span_count[flush_k], 0u);
    EXPECT_EQ(sum.lanes[1].span_count[flush_k], 0u);

    // Summary JSON mounts the decomposition.
    const std::string js = sum.toJson().dump();
    EXPECT_NE(js.find("\"lanes\""), std::string::npos);
    EXPECT_NE(js.find("\"journal-writer\""), std::string::npos);

    // Without --profile there is no sampled profile and no trace file.
    EXPECT_EQ(sum.profile_samples, 0u);
    EXPECT_TRUE(sum.folded_path.empty());
    EXPECT_FALSE(
        std::filesystem::exists(cfg.out_dir + "/campaign.trace.json"));
}

TEST(CampaignTimeline, ProfileEmitsFoldedStacksAndOneTraceLanePerThread)
{
    CampaignCfg cfg;
    cfg.jobs = 2;
    cfg.cells = 60;
    cfg.out_dir = testing::TempDir() + "camp_profile";
    cfg.max_events = 200'000;
    cfg.seed = 11;
    cfg.profile = true;
    // The pacer's first sample falls one period after the start, and
    // 60 cells take about a millisecond: sample every 100 us, and run
    // again (the same fresh campaign) until a run has drawn a sample.
    cfg.profile_hz = 10'000;
    CampaignSummary sum;
    for (int run = 0; run < 100 && sum.profile_samples == 0; ++run) {
        sum = runCampaign(cfg);
        ASSERT_EQ(sum.ran, 60u);
    }

    // The folded artifact exists, is non-empty, and every line is
    // `lane;frames... count`.
    ASSERT_EQ(sum.folded_path, cfg.out_dir + "/campaign.folded.txt");
    const std::string folded = slurp(sum.folded_path);
    ASSERT_FALSE(folded.empty());
    EXPECT_GT(sum.profile_samples, 0u);
    for (std::size_t pos = 0; pos < folded.size();) {
        const std::size_t eol = folded.find('\n', pos);
        ASSERT_NE(eol, std::string::npos);
        const std::string_view line(folded.data() + pos, eol - pos);
        EXPECT_NE(line.find(';'), std::string_view::npos) << line;
        EXPECT_NE(line.rfind(' '), std::string_view::npos) << line;
        pos = eol + 1;
    }

    // The Chrome trace has one named lane per engine thread.
    ASSERT_EQ(sum.trace_path, cfg.out_dir + "/campaign.trace.json");
    JsonParseResult p = jsonParse(slurp(sum.trace_path));
    ASSERT_TRUE(p.ok) << p.error;
    const Json *events = p.value.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::vector<std::string> lane_names;
    std::uint64_t x_events = 0;
    for (const Json &e : events->items()) {
        if (e.find("ph")->stringValue() == "M")
            lane_names.push_back(
                e.find("args")->find("name")->stringValue());
        else if (e.find("ph")->stringValue() == "X")
            ++x_events;
    }
    ASSERT_EQ(lane_names.size(), 3u);
    EXPECT_EQ(lane_names[0], "worker0");
    EXPECT_EQ(lane_names[1], "worker1");
    EXPECT_EQ(lane_names[2], "journal-writer");
    EXPECT_GT(x_events, 0u);

    // The summary JSON carries the profiler block.
    const std::string js = sum.toJson().dump();
    EXPECT_NE(js.find("\"profiler\""), std::string::npos);
    EXPECT_NE(js.find("\"folded\""), std::string::npos);
}

// ---------------------------------------------------- verify campaigns

TEST(Campaign, VerifyCellsRunCleanWithoutASeededBug)
{
    // With no seeded fault the three checking engines agree on every
    // cell: loop-bearing programs may honestly report inconclusive and
    // counterexample escapes report nonsc, but nothing may blame the
    // hardware and nothing may file a reproducer.
    CampaignCfg cfg;
    cfg.jobs = 2;
    cfg.cells = 10;
    cfg.out_dir = testing::TempDir() + "camp_verify_clean";
    cfg.seed = 61;
    cfg.verify = true;
    cfg.verify_models = {"sc"};
    cfg.max_states = 20'000;
    auto sum = runCampaign(cfg);
    EXPECT_EQ(sum.ran + sum.skipped, 10u);
    EXPECT_TRUE(sum.hardwareClean());
    EXPECT_EQ(sum.hw, 0u);
    EXPECT_GT(sum.clean, 0u);

    // The journal records verify cells under the untimed key scheme
    // with verify-specific verdicts only.
    auto lines =
        journalCells(cfg.out_dir + "/campaign.journal.jsonl");
    ASSERT_EQ(lines.size(), sum.ran);
    for (const auto &l : lines) {
        EXPECT_TRUE(l.verdict == "clean" || l.verdict == "racy" ||
                    l.verdict == "nonsc" ||
                    l.verdict == "inconclusive")
            << l.key << ": " << l.verdict;
    }
}

TEST(Campaign, SeededAxiomBugIsFoundShrunkAndReproducible)
{
    // The acceptance path: a seeded axiomatic-vs-operational
    // disagreement must flow through the campaign as an auto-filed,
    // shrunk reproducer with a .verify.txt evidence report, and the
    // emitted minimum must still reproduce under the dual-engine
    // predicate when reassembled from disk.
    CampaignCfg cfg;
    cfg.jobs = 2;
    cfg.cells = 12;
    cfg.out_dir = testing::TempDir() + "camp_verify_bug";
    cfg.seed = 71;
    cfg.verify = true;
    cfg.verify_models = {"sc"};
    cfg.max_states = 20'000;
    cfg.inject_axiom_bug = true;
    cfg.shrink_max_runs = 60;
    auto sum = runCampaign(cfg);
    EXPECT_FALSE(sum.hardwareClean());
    EXPECT_GT(sum.hw, 0u);
    ASSERT_GE(sum.failures.size(), 1u);
    for (const auto &f : sum.failures) {
        EXPECT_EQ(f.kind, "axiom_divergence") << f.dedup;
        EXPECT_TRUE(f.reproduced) << f.dedup;
        EXPECT_LE(f.instructions, f.orig_instructions) << f.dedup;

        // The reproducer reassembles and still diverges.
        AsmResult re = assembleString(slurp(f.repro_path));
        ASSERT_TRUE(re.ok()) << f.repro_path;
        VerifyCfg vcfg;
        vcfg.max_states = 20'000;
        vcfg.axiom.inject_bug = true;
        EXPECT_TRUE(verifyReproduces(*re.program, "sc",
                                     ViolationKind::axiom_divergence,
                                     vcfg))
            << f.repro_path;

        // The evidence report sits next to the .wo and names the
        // disagreement.
        std::string ev_path = f.repro_path;
        ev_path.replace(ev_path.size() - 3, 3, ".verify.txt");
        const std::string ev = slurp(ev_path);
        ASSERT_FALSE(ev.empty()) << ev_path;
        EXPECT_NE(ev.find("verdict=hw:axiom_divergence"),
                  std::string::npos)
            << ev;
        EXPECT_NE(ev.find("axiomatic and operational SC disagree"),
                  std::string::npos)
            << ev;
    }
}

TEST(CampaignTimeline, ProfiledRunMatchesUnprofiledVerdicts)
{
    // --profile must observe, not perturb: same seed, same cells, same
    // verdict counts with sampling on and off.
    CampaignCfg cfg;
    cfg.jobs = 1;
    cfg.cells = 20;
    cfg.max_events = 200'000;
    cfg.seed = 17;
    cfg.out_dir = testing::TempDir() + "camp_prof_a";
    auto plain = runCampaign(cfg);
    cfg.profile = true;
    cfg.out_dir = testing::TempDir() + "camp_prof_b";
    auto profiled = runCampaign(cfg);
    EXPECT_EQ(plain.ran, profiled.ran);
    EXPECT_EQ(plain.clean, profiled.clean);
    EXPECT_EQ(plain.racy, profiled.racy);
    EXPECT_EQ(plain.hw, profiled.hw);
}

} // namespace
} // namespace wo
