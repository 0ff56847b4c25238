/**
 * @file
 * Tests for the fleet subsystem: the wire protocol (framing, results
 * frames, spec round-trips, endpoint parsing), verdict parity between
 * a two-worker fleet and the single-process campaign on the same
 * seeds, byte identity of merged journal lines, and the fault paths --
 * hostile frames are dropped whole, a SIGKILLed worker's leases are
 * reassigned with zero lost cells, a silent worker times out, a
 * coordinator stops cleanly while peers dial in, and a killed
 * coordinator resumes from its merged journal re-leasing only
 * uncommitted cells.
 */

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/journal.hh"
#include "campaign/scheduler.hh"
#include "common/logging.hh"
#include "fleet/client.hh"
#include "fleet/coordinator.hh"
#include "fleet/proto.hh"
#include "fleet/worker.hh"
#include "obs/httpd.hh"
#include "obs/json.hh"
#include "obs/monitor.hh"
#include "obs/report.hh"

#ifndef WO_GOLDEN_DIR
#define WO_GOLDEN_DIR "tests/golden"
#endif

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

/** key -> (verdict, outcome signature) for a journal's cell lines. */
std::map<std::string, std::pair<std::string, std::string>>
journalVerdicts(const std::string &path)
{
    std::map<std::string, std::pair<std::string, std::string>> out;
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
        if (!type || !type->isString() ||
            type->stringValue() != "cell")
            continue;
        const Json *key = p.value.find("key");
        const Json *verdict = p.value.find("verdict");
        const Json *sig = p.value.find("sig");
        if (!key || !key->isString())
            continue;
        out[key->stringValue()] = {
            verdict && verdict->isString() ? verdict->stringValue()
                                           : "",
            sig && sig->isString() ? sig->stringValue() : ""};
    }
    return out;
}

/** The base-stream indices a fleet journal's cell lines carry. */
std::set<std::uint64_t>
journalIndices(const std::string &path)
{
    std::set<std::uint64_t> out;
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
        const Json *idx = p.value.find("idx");
        if (idx && idx->isNumber())
            out.insert(idx->uintValue());
    }
    return out;
}

std::string
freshDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + name;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return dir;
}

/** An in-process worker on its own thread (joined on destruction). */
struct WorkerThread
{
    FleetWorker worker;
    std::thread thread;

    explicit WorkerThread(WorkerCfg cfg) : worker(std::move(cfg))
    {
        thread = std::thread([this] { worker.connectAndRun(); });
    }

    ~WorkerThread()
    {
        worker.kill();
        if (thread.joinable())
            thread.join();
    }
};

/** A hand-rolled worker connection, handshaken as @p name. */
std::unique_ptr<LineConn>
rawWorker(std::uint16_t port, const std::string &name)
{
    std::string err;
    const int fd = fleetConnect({"127.0.0.1", port}, &err);
    EXPECT_GE(fd, 0) << err;
    auto conn = std::make_unique<LineConn>(fd);
    Json hello = fleetMsg("hello");
    hello.set("role", Json("worker"));
    hello.set("name", Json(name));
    hello.set("jobs", Json(std::uint64_t{1}));
    EXPECT_TRUE(fleetHello(*conn, std::move(hello), nullptr, &err)) << err;
    return conn;
}

/** The lines of @p path, without their '\n'. */
std::vector<std::string>
fileLines(const std::string &path)
{
    std::vector<std::string> out;
    const std::string text = slurp(path);
    std::size_t pos = 0;
    for (std::size_t eol; (eol = text.find('\n', pos)) != std::string::npos;
         pos = eol + 1)
        out.push_back(text.substr(pos, eol - pos));
    return out;
}

/** The "type":"cell" lines of the journal at @p path. */
std::vector<std::string>
journalCellLines(const std::string &path)
{
    std::vector<std::string> out;
    for (std::string &line : fileLines(path))
        if (fleetMsgType(jsonParse(line).value) == "cell")
            out.push_back(std::move(line));
    return out;
}

/**
 * Cell results spelling every member of a journal cell line: each
 * verdict class, verify counters, shrink time, escapes and UTF-8 in
 * the key, and wall times that print as integers, fractions and
 * exponents.
 */
std::vector<CellResult>
goldenResults()
{
    const char *const keys[] = {
        "litmus:mp|sc|n1|h4|j3", "file:programs/fig3.wo|drf0|n7|h10|j0",
        "quote\"back\\slash", "tab\tnewline\nctl\x01", "utf8 \xc3\xa9"};
    const double wall_ms[] = {0, 0.0123, 1.5, 2, 1234.5678, 1e-9, 3e21};
    std::vector<CellResult> out;
    for (int i = 0; i < 24; ++i) {
        CellResult r;
        r.key = std::string(keys[i % 5]) + "#" + std::to_string(i);
        r.completed = true;
        r.outcome_sig = strprintf(
            "%016llx", static_cast<unsigned long long>(
                           0x9e3779b97f4a7c15ull * (i + 1)));
        r.finish_tick = 1000 + 37 * static_cast<Tick>(i);
        r.wall_ms = wall_ms[i % 7];
        r.mat_us = 3 * static_cast<std::uint64_t>(i);
        r.run_us = 40 + static_cast<std::uint64_t>(i);
        const auto find = [&](ViolationKind k, std::uint64_t n) {
            r.by_kind[static_cast<int>(k)] += n;
            r.total += n;
        };
        switch (i % 8) {
          case 0: // clean
            break;
          case 1:
            r.races = 2;
            find(ViolationKind::drf0_race, 2);
            break;
          case 2:
            r.hw = 1;
            r.primary_kind = "stale_read";
            find(ViolationKind::stale_read, 1);
            find(ViolationKind::drf0_race, 3);
            r.shrink_us = 777 + static_cast<std::uint64_t>(i);
            break;
          case 3:
            r.completed = false;
            r.deadlocked = true;
            break;
          case 4:
            r.completed = false;
            r.livelocked = true;
            break;
          case 5:
            r.completed = false;
            r.primary_kind = "materialize_error";
            break;
          case 6:
            r.inconclusive = true;
            r.dpor_states = 10;
            r.bfs_states = 20;
            r.dpor_probes = 5;
            r.dpor_memo_hits = 1;
            break;
          case 7:
            r.nonsc = true;
            r.dpor_states = 3;
            r.bfs_states = 3;
            r.dpor_probes = 0;
            r.dpor_memo_hits = 0;
            break;
        }
        out.push_back(std::move(r));
    }
    return out;
}

// --- protocol --------------------------------------------------------

TEST(FleetProto, ParseHostPortIsStrict)
{
    HostPort hp;
    EXPECT_TRUE(parseHostPort("127.0.0.1:9000", hp));
    EXPECT_EQ(hp.host, "127.0.0.1");
    EXPECT_EQ(hp.port, 9000);
    EXPECT_TRUE(parseHostPort("example.test:1", hp));
    EXPECT_EQ(hp.port, 1);
    EXPECT_TRUE(parseHostPort("host:65535", hp));

    for (const char *bad :
         {"", "host", "host:", ":9000", "host:0", "host:65536",
          "host:12x4", "host:-1", "host: 80"}) {
        HostPort out{"untouched", 42};
        EXPECT_FALSE(parseHostPort(bad, out)) << bad;
        EXPECT_EQ(out.host, "untouched") << bad;
        EXPECT_EQ(out.port, 42) << bad;
    }
}

TEST(FleetProto, SpecRoundTrips)
{
    FleetCampaignSpec spec;
    spec.seed = 42;
    spec.cells = 123;
    spec.policies = {OrderingPolicy::sc, OrderingPolicy::wo_drf0};
    spec.program_files = {"a.wo", "b.wo"};
    spec.max_events = 77'000;
    spec.shrink = false;
    spec.shrink_max_runs = 9;
    spec.inject_reserve_bug = true;
    spec.verify = true;
    spec.verify_models = {"sc", "stale"};
    spec.max_states = 5'000;
    spec.explore_jobs = 4;
    spec.inject_axiom_bug = true;

    FleetCampaignSpec back;
    std::string err;
    ASSERT_TRUE(fleetSpecFromJson(fleetSpecToJson(spec), back, &err))
        << err;
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_EQ(back.cells, spec.cells);
    EXPECT_EQ(back.policies, spec.policies);
    EXPECT_EQ(back.program_files, spec.program_files);
    EXPECT_EQ(back.max_events, spec.max_events);
    EXPECT_EQ(back.shrink, spec.shrink);
    EXPECT_EQ(back.shrink_max_runs, spec.shrink_max_runs);
    EXPECT_EQ(back.inject_reserve_bug, spec.inject_reserve_bug);
    EXPECT_EQ(back.verify, spec.verify);
    EXPECT_EQ(back.verify_models, spec.verify_models);
    EXPECT_EQ(back.max_states, spec.max_states);
    EXPECT_EQ(back.explore_jobs, spec.explore_jobs);
    EXPECT_EQ(back.inject_axiom_bug, spec.inject_axiom_bug);
}

TEST(FleetProto, SpecRejectsUnknownVerifyModel)
{
    // Model names travel verbatim in the spec; the codec must reject
    // a name the registry does not know before any worker burns a
    // lease discovering it.
    FleetCampaignSpec spec;
    std::string err;
    EXPECT_FALSE(fleetSpecFromJson(
        jsonParse(R"({"verify": true, "verify_models": "sc,tso"})")
            .value,
        spec, &err));
    EXPECT_NE(err.find("tso"), std::string::npos);
    EXPECT_FALSE(fleetSpecFromJson(
        jsonParse(R"({"max_states": 0})").value, spec, &err));
    EXPECT_FALSE(fleetSpecFromJson(
        jsonParse(R"({"explore_jobs": 0})").value, spec, &err));
}

TEST(FleetProto, SpecDefaultsEmptyPoliciesToCampaignTrio)
{
    // A spec without policies must never produce an empty vector (the
    // base stream crosses every cell with a policy).
    FleetCampaignSpec spec;
    std::string err;
    ASSERT_TRUE(
        fleetSpecFromJson(jsonParse(R"({"cells": 10})").value, spec,
                          &err))
        << err;
    const std::vector<OrderingPolicy> trio = {OrderingPolicy::sc,
                                              OrderingPolicy::wo_def1,
                                              OrderingPolicy::wo_drf0};
    EXPECT_EQ(spec.policies, trio);
}

TEST(FleetProto, SpecRejectsMalformedMembers)
{
    FleetCampaignSpec spec;
    std::string err;
    EXPECT_FALSE(fleetSpecFromJson(Json(), spec, &err));
    EXPECT_FALSE(fleetSpecFromJson(
        jsonParse(R"({"cells": 0})").value, spec, &err));
    EXPECT_FALSE(fleetSpecFromJson(
        jsonParse(R"({"policies": "sc,bogus"})").value, spec, &err));
    EXPECT_NE(err.find("bogus"), std::string::npos);
    EXPECT_FALSE(fleetSpecFromJson(
        jsonParse(R"({"max_events": 0})").value, spec, &err));
}

TEST(FleetProto, MsgHelpers)
{
    const Json msg = fleetMsg("heartbeat");
    EXPECT_EQ(fleetMsgType(msg), "heartbeat");
    EXPECT_EQ(fleetMsgType(Json()), "");
    EXPECT_EQ(fleetMsgType(jsonParse(R"({"type": 7})").value), "");
}

TEST(FleetProto, LineConnFramesAndSevers)
{
    std::string err;
    std::uint16_t port = 0;
    const int lfd = fleetListen("127.0.0.1", 0, &port, &err);
    ASSERT_GE(lfd, 0) << err;
    ASSERT_NE(port, 0);

    const int cfd = fleetConnect({"127.0.0.1", port}, &err);
    ASSERT_GE(cfd, 0) << err;
    const int afd = ::accept(lfd, nullptr, nullptr);
    ASSERT_GE(afd, 0);
    LineConn client(cfd), server(afd);

    // Two lines written back to back arrive as two framed messages.
    Json a = fleetMsg("heartbeat");
    Json b = fleetMsg("lease_done");
    b.set("lease", Json(std::uint64_t{7}));
    ASSERT_TRUE(client.writeLine(a));
    ASSERT_TRUE(client.writeLine(b));
    std::string line;
    ASSERT_EQ(server.readLine(line, 5'000), LineConn::Read::line);
    EXPECT_EQ(fleetMsgType(jsonParse(line).value), "heartbeat");
    ASSERT_EQ(server.readLine(line, 5'000), LineConn::Read::line);
    const Json second = jsonParse(line).value;
    EXPECT_EQ(fleetMsgType(second), "lease_done");
    EXPECT_EQ(second.find("lease")->uintValue(), 7u);

    // Nothing pending: a bounded read times out rather than blocking.
    EXPECT_EQ(server.readLine(line, 50), LineConn::Read::timeout);

    // Severing one end unblocks the peer with `closed`.
    client.shutdownNow();
    EXPECT_EQ(server.readLine(line, 5'000), LineConn::Read::closed);
    ::close(lfd);
}

/**
 * A results frame decodes to what the worker put in: per cell its
 * index, verdict, wall time and findings per kind, the failure
 * evidence of a shrunk cell, and the exact in-process journal line.
 */
TEST(FleetProto, ResultsFrameRoundTrips)
{
    const std::vector<CellResult> results = goldenResults();
    ShrinkOutcome shrunk;
    shrunk.reproduced = true;
    shrunk.instructions = 2;
    shrunk.orig_instructions = 9;
    shrunk.wo_text = "program p\nthread 0\n  st x 1\n";
    ResultsFrame frame;
    for (std::size_t i = 0; i < results.size(); ++i)
        frame.add(100 + i, results[i],
                  results[i].hw > 0 ? &shrunk : nullptr);
    ASSERT_EQ(frame.cells(), results.size());

    const std::string text(frame.text(7, 9));
    std::vector<std::string> lines;
    std::size_t pos = 0;
    for (std::size_t eol; (eol = text.find('\n', pos)) != std::string::npos;
         pos = eol + 1)
        lines.push_back(text.substr(pos, eol - pos));
    ASSERT_EQ(pos, text.size()) << "the frame ends mid-line";
    ASSERT_EQ(lines.size(), results.size() + 1);

    const JsonParseResult header = jsonParse(lines[0]);
    ASSERT_TRUE(header.ok) << header.error;
    EXPECT_EQ(fleetMsgType(header.value), "results");
    Frame in;
    std::string why;
    ASSERT_TRUE(decodeResultsHeader(header.value, in, why)) << why;
    EXPECT_EQ(in.campaign, 7u);
    EXPECT_EQ(in.lease, 9u);
    ASSERT_EQ(in.cells.size(), results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        const CellResult &r = results[i];
        const FrameCell &c = in.cells[i];
        EXPECT_EQ(c.idx, 100 + i);
        EXPECT_EQ(c.verdict, r.verdict());
        EXPECT_EQ(c.ms, r.wall_ms);
        for (int k = 0; k < num_violation_kinds; ++k)
            EXPECT_EQ(c.by_kind[k], r.by_kind[k]) << i << " kind " << k;
        EXPECT_EQ(c.failure.isObject(), r.hw > 0);
        if (r.hw > 0) {
            EXPECT_EQ(fleetString(c.failure, "cell"), r.key);
            EXPECT_EQ(fleetString(c.failure, "kind"), r.primary_kind);
            EXPECT_EQ(fleetString(c.failure, "wo_text"), shrunk.wo_text);
            EXPECT_EQ(fleetUint(c.failure, "insns"), 2u);
            EXPECT_EQ(fleetUint(c.failure, "orig_insns"), 9u);
        }
        std::string want;
        appendJournalCellLine(want, r);
        want.pop_back();
        EXPECT_EQ(lines[i + 1], want);
        EXPECT_TRUE(isJournalCellLine(lines[i + 1])) << lines[i + 1];
    }

    // clear() starts the next frame empty.
    frame.clear();
    EXPECT_EQ(frame.cells(), 0u);
    EXPECT_EQ(frame.text(1, 2),
              "{\"type\":\"results\",\"campaign\":1,\"lease\":2,"
              "\"cells\":[]}\n");
}

/**
 * The coordinator vets a raw cell line without parsing it into a
 * tree: jsonValid() accepts exactly what jsonParse() accepts, and a
 * cell line must be one object opening with "key" and closing with
 * "type":"cell".
 */
TEST(FleetProto, CellLineVetting)
{
    for (const char *doc :
         {"{}", "[]", "null", "true", "false", "0", "-1.5e+3", "1.",
          "\"a\\u00e9\\n\"", "{\"a\":[1,{\"b\":null}],\"c\":\"\"}",
          " { \"a\" : 1 } ", "", "{", "}", "{\"a\"}", "{\"a\":}",
          "{\"a\":1,}", "[1,]", "[1 2]", "{\"a\":1}x", "{\"a\":1}{}",
          "\"unterminated", "\"bad \\q escape\"", "\"\\u12g4\"", "-",
          "+1", "nul", "tru", "{a:1}", "[[[[]]]]", "{\"a\":\"\\\"\"}"}) {
        EXPECT_EQ(jsonValid(doc), jsonParse(doc).ok) << doc;
    }
    std::string deep(300, '[');
    deep += std::string(300, ']');
    EXPECT_EQ(jsonValid(deep), jsonParse(deep).ok);

    CellResult r;
    r.key = "k\"}{";
    std::string good;
    appendJournalCellLine(good, r);
    good.pop_back();
    EXPECT_TRUE(isJournalCellLine(good)) << good;
    for (const char *bad :
         {"", "{\"key\":\"x\",\"type\":\"campaign\"}",
          "{\"key\":\"x\"}garbage,\"type\":\"cell\"}",
          "{\"key\":\"x\",,\"type\":\"cell\"}",
          "{\"type\":\"cell\",\"key\":\"x\"}",
          "{\"key\":\"x\",\"type\":\"cell\"", "[\"key\",\"type\",\"cell\"]",
          "{\"key\":,\"type\":\"cell\"}"})
        EXPECT_FALSE(isJournalCellLine(bad)) << bad;
}

// --- fleet end to end ------------------------------------------------

/**
 * A merged fleet cell line is the in-process journal line
 * (Journal::appendCell) with `"idx":N,"shard":S,"worker":"W"` appended
 * inside its closing brace, and byte for byte the line the per-cell
 * `result` path of protocol v2 journaled for the same results
 * (tests/golden/fleet_cell_lines.jsonl, captured from that code).
 */
TEST(Fleet, MergedCellLinesMatchGolden)
{
    const std::vector<CellResult> results = goldenResults();
    const std::string worker = "gold\"en\\w";
    const std::uint64_t shard_size = 8;
    std::vector<std::string> golden;
    for (std::string &line :
         fileLines(std::string(WO_GOLDEN_DIR) + "/fleet_cell_lines.jsonl"))
        if (!line.empty() && line[0] != '#')
            golden.push_back(std::move(line));
    ASSERT_EQ(golden.size(), results.size());

    const std::string inproc_path = testing::TempDir() + "golden_inproc.jsonl";
    {
        Journal j(inproc_path);
        ASSERT_TRUE(j.open(true));
        for (const CellResult &r : results)
            j.appendCell(r);
    }
    const std::vector<std::string> inproc = fileLines(inproc_path);
    ASSERT_EQ(inproc.size(), results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        std::string want = inproc[i];
        want.pop_back();
        want += strprintf(",\"idx\":%zu,\"shard\":%zu,\"worker\":"
                          "\"gold\\\"en\\\\w\"}",
                          i, i / shard_size);
        EXPECT_EQ(want, golden[i]) << i;
    }

    CoordinatorCfg ccfg;
    ccfg.out_dir = freshDir("fleet_golden");
    ccfg.shard_size = shard_size;
    ccfg.sync_every = 1;
    Coordinator coord(ccfg);
    ASSERT_TRUE(coord.start()) << coord.lastError();
    const std::unique_ptr<LineConn> conn = rawWorker(coord.port(), worker);
    FleetCampaignSpec spec;
    spec.seed = 1;
    spec.cells = results.size();
    spec.shrink = false;
    const std::uint64_t id = coord.submitLocal(spec);
    ShrinkOutcome shrunk;
    shrunk.reproduced = true;
    shrunk.instructions = 2;
    shrunk.orig_instructions = 9;
    shrunk.wo_text = "program golden\nthread 0\n  st x 1\n";
    ResultsFrame frame;
    for (std::size_t i = 0; i < results.size(); ++i) {
        frame.add(i, results[i], results[i].hw > 0 ? &shrunk : nullptr);
        if (frame.cells() == 5 || i + 1 == results.size()) {
            ASSERT_TRUE(conn->writeText(frame.text(id, 0)));
            frame.clear();
        }
    }
    Json summary;
    ASSERT_TRUE(coord.waitCampaign(id, 30'000, &summary));
    coord.stop();

    EXPECT_EQ(journalCellLines(ccfg.out_dir + "/c1/campaign.journal.jsonl"),
              golden);
    // The tuples fed the tallies and the failure filing.
    EXPECT_EQ(summary.find("ran")->uintValue(), results.size());
    EXPECT_EQ(summary.find("hw")->uintValue(), 3u);
    EXPECT_EQ(summary.find("race")->uintValue(), 3u);
    EXPECT_EQ(summary.find("by_kind")->dump(),
              R"({"drf0_race":15,"stale_read":3})");
    const Json &failures = *summary.find("failures");
    ASSERT_EQ(failures.items().size(), 1u);
    EXPECT_EQ(fleetString(failures.items()[0], "first_cell"), results[2].key);
    EXPECT_EQ(fleetUint(failures.items()[0], "count"), 3u);
}

/** The header of a results frame for campaign @p id announcing clean
 *  cells @p idxs. */
std::string
resultsHeader(std::uint64_t id, const std::vector<std::uint64_t> &idxs)
{
    std::string h = strprintf("{\"type\":\"results\",\"campaign\":%llu,"
                              "\"lease\":0,\"cells\":[",
                              static_cast<unsigned long long>(id));
    for (std::size_t i = 0; i < idxs.size(); ++i)
        h += strprintf("%s[%llu,\"clean\",0,{}]", i ? "," : "",
                       static_cast<unsigned long long>(idxs[i]));
    return h + "]}";
}

/** A well-formed journal cell line for a stand-in cell at @p idx. */
std::string
hostileLine(std::uint64_t idx)
{
    CellResult r;
    r.key = "hostile#" + std::to_string(idx);
    r.completed = true;
    std::string line;
    appendJournalCellLine(line, r);
    line.pop_back();
    return line;
}

/** @p lines joined, each '\n'-terminated, as one write. */
std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string out;
    for (const std::string &l : lines)
        out += l + "\n";
    return out;
}

/**
 * Fleet JSONL is outside input.  A frame whose header and lines
 * disagree, that carries a line which is not a journal cell object,
 * or that a closing connection cuts off is dropped whole; an index
 * outside the lattice is dropped; a repeated index counts as a
 * duplicate.  The journal gains no partial or foreign line, the
 * dropped cells are re-leased, and the coordinator keeps serving.
 */
TEST(Fleet, HostileFramesAreDroppedWhole)
{
    const std::uint64_t cells = 24;
    CoordinatorCfg ccfg;
    ccfg.out_dir = freshDir("fleet_hostile");
    ccfg.shard_size = 4;
    ccfg.sync_every = 1;
    Coordinator coord(ccfg);
    ASSERT_TRUE(coord.start()) << coord.lastError();
    std::unique_ptr<LineConn> bad = rawWorker(coord.port(), "hostile");
    FleetCampaignSpec spec;
    spec.seed = 4;
    spec.cells = cells;
    spec.shrink = false;
    // The hostile worker holds the leases of shards 0 and 1 (indices
    // 0-7) until it disconnects, so nobody else can run them first.
    const std::uint64_t id = coord.submitLocal(spec);

    const std::uint64_t outside = cells + 5;
    const std::vector<std::string> script = {
        // Announces three cells, sends two, then a heartbeat.
        resultsHeader(id, {2, 3, 9}), hostileLine(2), hostileLine(3),
        R"({"type":"heartbeat"})",
        // Announces one cell, sends two: 4 merges, the extra line drops.
        resultsHeader(id, {4}), hostileLine(4), hostileLine(5),
        // Lines that are not journal cell objects.
        resultsHeader(id, {6, 10}), hostileLine(6),
        R"({"key":"x","type":"campaign"})",
        resultsHeader(id, {11}), R"({"key":"x"}garbage,"type":"cell"})",
        resultsHeader(id, {11}), R"({"key":"x",,"type":"cell"})",
        // An index outside the lattice drops; 7 merges.
        resultsHeader(id, {7, outside}), hostileLine(7), hostileLine(outside),
        // Repeated indices: two duplicates.
        resultsHeader(id, {0}), hostileLine(0),
        resultsHeader(id, {0, 1, 1}), hostileLine(0), hostileLine(1),
        hostileLine(1),
        // Malformed headers.
        strprintf(R"({"type":"results","campaign":%llu,"cells":[["bad"]]})",
                  static_cast<unsigned long long>(id)),
        hostileLine(12), R"({"type":"results"})", "[1,2]",
        // Cut off by the connection closing.
        resultsHeader(id, {8, 13, 14}), hostileLine(8)};
    ASSERT_TRUE(bad->writeText(joinLines(script)));
    bad->shutdownNow();

    WorkerCfg wcfg;
    wcfg.connect = {"127.0.0.1", coord.port()};
    wcfg.name = "real";
    wcfg.heartbeat_ms = 100;
    WorkerThread real(wcfg);
    Json summary;
    ASSERT_TRUE(coord.waitCampaign(id, 60'000, &summary));
    ASSERT_TRUE(coord.waitForWorkers(1, 10'000)) << "the fleet stopped serving";
    coord.stop();

    EXPECT_EQ(summary.find("ran")->uintValue(), cells);
    EXPECT_EQ(summary.find("duplicate_results")->uintValue(), 2u);
    EXPECT_GE(summary.find("reassigned_leases")->uintValue(), 1u);
    std::set<std::uint64_t> merged, hostile;
    for (const std::string &line :
         fileLines(ccfg.out_dir + "/c1/campaign.journal.jsonl")) {
        const JsonParseResult p = jsonParse(line);
        ASSERT_TRUE(p.ok && p.value.isObject()) << line;
        const std::string type = fleetMsgType(p.value);
        if (type == "campaign")
            continue;
        ASSERT_EQ(type, "cell") << line;
        const std::uint64_t idx = fleetUint(p.value, "idx");
        EXPECT_TRUE(merged.insert(idx).second) << "merged twice: " << line;
        EXPECT_EQ(fleetUint(p.value, "shard"), idx / ccfg.shard_size);
        const std::string key = fleetString(p.value, "key");
        if (key.rfind("hostile#", 0) == 0) {
            EXPECT_EQ(key, "hostile#" + std::to_string(idx));
            EXPECT_EQ(fleetString(p.value, "worker"), "hostile");
            hostile.insert(idx);
        } else {
            EXPECT_EQ(fleetString(p.value, "worker"), "real") << line;
        }
    }
    EXPECT_EQ(merged.size(), cells);
    EXPECT_EQ(*merged.rbegin(), cells - 1);
    EXPECT_EQ(hostile, (std::set<std::uint64_t>{0, 1, 4, 7}));
}

/**
 * The acceptance bar: a two-worker fleet on a fixed seed produces the
 * same per-cell verdicts, outcome signatures and deduplicated failure
 * set as the single-process campaign.  `frontier = false` makes the
 * executed cell set a pure function of (seed, cells) on both sides.
 */
TEST(Fleet, VerdictParityWithSingleProcess)
{
    const std::uint64_t seed = 7, cells = 60;

    CampaignCfg sp;
    sp.jobs = 2;
    sp.cells = cells;
    sp.seed = seed;
    sp.frontier = false;
    sp.inject_reserve_bug = true;
    sp.shrink_max_runs = 200;
    sp.out_dir = freshDir("fleet_parity_sp");
    const CampaignSummary local = runCampaign(sp);
    ASSERT_EQ(local.ran, cells);

    CoordinatorCfg ccfg;
    ccfg.out_dir = freshDir("fleet_parity_fl");
    ccfg.shard_size = 8;
    ccfg.sync_every = 1;
    Coordinator coord(ccfg);
    ASSERT_TRUE(coord.start()) << coord.lastError();
    WorkerCfg wcfg;
    wcfg.connect = {"127.0.0.1", coord.port()};
    wcfg.heartbeat_ms = 100;
    WorkerThread w0(wcfg), w1(wcfg);
    ASSERT_TRUE(coord.waitForWorkers(2, 10'000));

    FleetCampaignSpec spec;
    spec.seed = seed;
    spec.cells = cells;
    spec.inject_reserve_bug = true;
    spec.shrink_max_runs = 200;
    const std::uint64_t id = coord.submitLocal(spec);
    Json summary;
    ASSERT_TRUE(coord.waitCampaign(id, 180'000, &summary));
    coord.stop();

    // Both workers did real work (the lattice was actually sharded).
    EXPECT_GT(w0.worker.cellsRun(), 0u);
    EXPECT_GT(w1.worker.cellsRun(), 0u);

    const auto sp_cells =
        journalVerdicts(sp.out_dir + "/campaign.journal.jsonl");
    const auto fl_cells = journalVerdicts(
        ccfg.out_dir + "/c1/campaign.journal.jsonl");
    ASSERT_EQ(sp_cells.size(), cells);
    // Same key set, same verdict and same outcome signature per key.
    EXPECT_EQ(fl_cells, sp_cells);

    // Verdict tallies agree with the single-process summary.
    EXPECT_EQ(summary.find("clean")->uintValue(), local.clean);
    EXPECT_EQ(summary.find("race")->uintValue(), local.racy);
    EXPECT_EQ(summary.find("hw")->uintValue(), local.hw);
    ASSERT_GT(local.hw, 0u) << "seeded fault never fired; the parity "
                               "test lost its teeth";
    EXPECT_FALSE(summary.find("hardware_clean")->boolValue());

    // Deduplicated failure identity (kind + shrunk-program hash)
    // matches, so fleet shrinking reproduced the same minima.
    std::set<std::string> sp_dedup, fl_dedup;
    for (const FailureRecord &f : local.failures)
        sp_dedup.insert(f.dedup);
    for (const Json &f : summary.find("failures")->items())
        fl_dedup.insert(f.find("dedup")->stringValue());
    EXPECT_EQ(fl_dedup, sp_dedup);

    // Shrink provenance and monitor findings agree too: the fleet's
    // by_kind counts findings per kind, exactly like the campaign's.
    std::map<std::string, bool> sp_repro, fl_repro;
    for (const FailureRecord &f : local.failures)
        sp_repro[f.dedup] = f.reproduced;
    for (const Json &f : summary.find("failures")->items())
        fl_repro[f.find("dedup")->stringValue()] =
            f.find("reproduced")->boolValue();
    EXPECT_EQ(fl_repro, sp_repro);
    EXPECT_EQ(summary.find("by_kind")->dump(),
              local.toJson().find("by_kind")->dump());

    // The coordinator wrote a repro beside the merged journal.
    for (const Json &f : summary.find("failures")->items()) {
        const std::string path =
            ccfg.out_dir + "/c1/repro-" +
            f.find("kind")->stringValue() + "-" +
            f.find("dedup")->stringValue().substr(
                f.find("dedup")->stringValue().find(':') + 1) +
            ".wo";
        EXPECT_FALSE(slurp(path).empty()) << path;
    }
}

/** Run @p spec on a loopback coordinator with one worker; the
 *  campaign summary JSON. */
Json
runOnFleet(const FleetCampaignSpec &spec, const std::string &out_dir)
{
    CoordinatorCfg ccfg;
    ccfg.out_dir = out_dir;
    ccfg.shard_size = 8;
    Coordinator coord(ccfg);
    EXPECT_TRUE(coord.start()) << coord.lastError();
    WorkerCfg wcfg;
    wcfg.connect = {"127.0.0.1", coord.port()};
    wcfg.heartbeat_ms = 100;
    WorkerThread w(wcfg);
    EXPECT_TRUE(coord.waitForWorkers(1, 10'000));
    Json summary;
    EXPECT_TRUE(coord.waitCampaign(coord.submitLocal(spec), 180'000,
                                   &summary));
    coord.stop();
    return summary;
}

/** A small verify campaign: budget-tripped and non-SC cells included. */
FleetCampaignSpec
verifySpec(std::uint64_t cells)
{
    FleetCampaignSpec spec;
    spec.seed = 5;
    spec.cells = cells;
    spec.verify = true;
    spec.verify_models = {"sc", "wb"};
    spec.max_states = 2000;
    return spec;
}

/**
 * Both transports classify verdicts the same way: a verify campaign's
 * fleet summary counts its clean, inconclusive and non-SC cells like
 * the in-process summary does, and every cell that ran lands in
 * exactly one verdict class.
 */
TEST(Fleet, VerifyTalliesMatchSingleProcess)
{
    const FleetCampaignSpec spec = verifySpec(32);
    CampaignCfg sp;
    static_cast<CampaignSpec &>(sp) = spec;
    sp.jobs = 2;
    sp.frontier = false;
    sp.out_dir = freshDir("fleet_verify_sp");
    const CampaignSummary local = runCampaign(sp);
    ASSERT_EQ(local.ran, spec.cells);
    ASSERT_GT(local.inconclusive, 0u) << "no budget-tripped cell";
    ASSERT_GT(local.nonsc, 0u) << "no non-SC cell";

    const Json summary = runOnFleet(spec, freshDir("fleet_verify_fl"));
    const auto count = [&](const char *key) {
        const Json *v = summary.find(key);
        return v && v->isNumber() ? v->uintValue() : ~std::uint64_t{0};
    };
    EXPECT_EQ(count("clean"), local.clean);
    EXPECT_EQ(count("inconclusive"), local.inconclusive);
    EXPECT_EQ(count("nonsc"), local.nonsc);
    std::uint64_t classes = 0;
    for (const char *k : {"clean", "race", "hw", "deadlock", "livelock",
                          "error", "inconclusive", "nonsc"})
        classes += count(k);
    EXPECT_EQ(classes, count("ran"));
    EXPECT_EQ(count("ran"), spec.cells);
}

/**
 * A fleet campaign directory reports like an in-process one: its
 * summary carries throughput and latency quantiles, so the dashboard
 * shows a cells/s tile and a non-zero cell p50.
 */
TEST(Fleet, ReportOfAFleetDirectoryShowsLatency)
{
    const std::string dir = freshDir("fleet_report");
    const Json summary = runOnFleet(verifySpec(16), dir);
    ASSERT_GT(summary.find("lat_p50_ms")->numberValue(), 0.0);
    ASSERT_GT(summary.find("cells_per_sec")->numberValue(), 0.0);

    ReportCfg rcfg;
    rcfg.out_dir = dir + "/c1";
    std::string error;
    const std::string path = writeCampaignReport(rcfg, &error);
    ASSERT_FALSE(path.empty()) << error;
    const std::string html = slurp(path);
    EXPECT_NE(html.find("cells / s"), std::string::npos);
    EXPECT_NE(html.find("cell p50 / p99 ms"), std::string::npos);
    EXPECT_EQ(html.find(">0.00 / 0.00<"), std::string::npos);
}

/** GET @p path from 127.0.0.1:@p port; the whole response ("" when
 *  the connection fails). */
std::string
httpGet(std::uint16_t port, const std::string &path)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in sa = {};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    std::string out;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&sa), sizeof sa) == 0) {
        const std::string req = "GET " + path + " HTTP/1.1\r\n\r\n";
        ::send(fd, req.data(), req.size(), 0);
        char buf[4096];
        ssize_t n;
        while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
            out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return out;
}

/**
 * Both transports mount the same control plane, scraped here while
 * their cells run: the in-process engine serves wo_campaign_* series,
 * the coordinator wo_fleet_* ones, and both answer /healthz and
 * /progress.
 */
TEST(Fleet, BothTransportsServeTheControlPlane)
{
    HttpServer local_srv;
    ASSERT_TRUE(local_srv.start()) << local_srv.lastError();
    CampaignCfg sp;
    sp.jobs = 2;
    sp.cells = 20'000;
    sp.shrink = false;
    sp.out_dir = freshDir("fleet_cp_sp");
    sp.serve = &local_srv;
    std::string local_metrics, local_health;
    std::thread scraper([&] {
        // Retry until the routes are mounted and a cell has run; the
        // campaign stops the server when it returns.
        for (int i = 0; i < 5'000; ++i) {
            local_metrics = httpGet(local_srv.port(), "/metrics");
            if (local_metrics.find("wo_campaign_cells_ran") !=
                std::string::npos)
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        local_health = httpGet(local_srv.port(), "/healthz");
    });
    runCampaign(sp);
    scraper.join();
    EXPECT_NE(local_metrics.find("wo_campaign_cells_ran"),
              std::string::npos);
    EXPECT_NE(local_metrics.find("wo_campaign_cell_latency_us_bucket"),
              std::string::npos);

    HttpServer fleet_srv;
    ASSERT_TRUE(fleet_srv.start()) << fleet_srv.lastError();
    CoordinatorCfg ccfg;
    ccfg.out_dir = freshDir("fleet_cp_fl");
    ccfg.serve = &fleet_srv;
    Coordinator coord(ccfg);
    ASSERT_TRUE(coord.start()) << coord.lastError();
    WorkerCfg wcfg;
    wcfg.connect = {"127.0.0.1", coord.port()};
    WorkerThread w(wcfg);
    ASSERT_TRUE(coord.waitForWorkers(1, 10'000));
    FleetCampaignSpec spec;
    spec.cells = 2'000;
    spec.shrink = false;
    const std::uint64_t id = coord.submitLocal(spec);
    const std::string fleet_metrics = httpGet(fleet_srv.port(), "/metrics");
    const std::string progress = httpGet(fleet_srv.port(), "/progress");
    const std::string fleet_health = httpGet(fleet_srv.port(), "/healthz");
    ASSERT_TRUE(coord.waitCampaign(id, 180'000));
    coord.stop();
    EXPECT_NE(fleet_metrics.find("wo_fleet_campaign_ran{campaign=\"1\"}"),
              std::string::npos)
        << fleet_metrics;
    EXPECT_NE(progress.find("\"campaigns\""), std::string::npos);
    EXPECT_NE(local_health.find("ok\n"), std::string::npos);
    EXPECT_NE(fleet_health.find("ok\n"), std::string::npos);
}

/**
 * Start and tear down coordinators back to back while clients dial in
 * and another thread churns file descriptors.  Teardown joins the
 * acceptor before it closes the listener, so accept() never races the
 * close (or a recycled descriptor number); clean under TSan.
 */
TEST(Fleet, CoordinatorStartStopCycles)
{
    std::atomic<bool> churning{true};
    std::thread churn([&] {
        while (churning.load(std::memory_order_relaxed)) {
            const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
            if (fd >= 0)
                ::close(fd);
        }
    });
    for (int i = 0; i < 12; ++i) {
        CoordinatorCfg ccfg;
        ccfg.out_dir = freshDir("fleet_cycles");
        Coordinator coord(ccfg);
        ASSERT_TRUE(coord.start()) << coord.lastError();
        if (i % 3 == 1) {
            WorkerCfg wcfg;
            wcfg.connect = {"127.0.0.1", coord.port()};
            wcfg.heartbeat_ms = 50;
            WorkerThread w(wcfg);
            ASSERT_TRUE(coord.waitForWorkers(1, 10'000));
            coord.stop();
        } else {
            // A bare dial racing the teardown.
            const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
            ASSERT_GE(fd, 0);
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_port = htons(coord.port());
            addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            ::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr);
            if (i % 2)
                coord.kill();
            else
                coord.stop();
            ::close(fd);
        }
    }
    churning = false;
    churn.join();
}

/**
 * Stop (or kill) coordinators while dialers are still connecting, over
 * many cycles.  A reader the acceptor spawned just before the shutdown
 * may not have run yet; readers take no fleet lock and teardown joins
 * them with none held, so the join cannot wait on a reader that waits
 * on teardown.  Dialers introduce themselves as clients, so a stray
 * connection to another coordinator reusing the port is harmless.
 */
TEST(Fleet, StopWhileDialersConnect)
{
    for (int cycle = 0; cycle < 40; ++cycle) {
        CoordinatorCfg ccfg;
        ccfg.out_dir = freshDir("fleet_dialers");
        Coordinator coord(ccfg);
        ASSERT_TRUE(coord.start()) << coord.lastError();
        const std::uint16_t port = coord.port();
        std::atomic<bool> dialing{true};
        std::vector<std::thread> dialers;
        for (int d = 0; d < 3; ++d)
            dialers.emplace_back([&dialing, port] {
                sockaddr_in addr{};
                addr.sin_family = AF_INET;
                addr.sin_port = htons(port);
                addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
                // Bound connect(): once the acceptor is gone a full
                // backlog would park it in SYN retries for a second.
                const timeval bound{0, 20'000};
                while (dialing.load(std::memory_order_relaxed)) {
                    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
                    ASSERT_GE(fd, 0);
                    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &bound,
                                 sizeof bound);
                    LineConn conn(fd);
                    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                                  sizeof addr) != 0)
                        continue; // the listener is gone already
                    Json hello = fleetMsg("hello");
                    hello.set("proto", Json(fleet_proto_version));
                    hello.set("role", Json("client"));
                    conn.writeLine(hello);
                }
            });
        std::this_thread::sleep_for(
            std::chrono::microseconds(250 * (cycle % 8)));
        if (cycle % 2)
            coord.kill();
        else
            coord.stop();
        dialing = false;
        for (std::thread &t : dialers)
            t.join();
    }
}

/**
 * Kill one of two workers mid-campaign: its leases are reassigned and
 * the lattice still completes with every base index merged exactly
 * once (the idempotent-merge half of the crash contract).
 */
TEST(Fleet, WorkerKillReassignsLeases)
{
    const std::uint64_t cells = 4000;

    CoordinatorCfg ccfg;
    ccfg.out_dir = freshDir("fleet_kill_worker");
    ccfg.shard_size = 16;
    ccfg.sync_every = 1;
    Coordinator coord(ccfg);
    ASSERT_TRUE(coord.start()) << coord.lastError();
    WorkerCfg wcfg;
    wcfg.connect = {"127.0.0.1", coord.port()};
    wcfg.heartbeat_ms = 100;
    WorkerThread w0(wcfg), w1(wcfg);
    ASSERT_TRUE(coord.waitForWorkers(2, 10'000));

    FleetCampaignSpec spec;
    spec.seed = 3;
    spec.cells = cells;
    spec.shrink = false;
    const std::uint64_t id = coord.submitLocal(spec);

    // SIGKILL stand-in: sever w0's socket once it is demonstrably
    // mid-lease (it has completed cells, the campaign has not).
    for (int i = 0; i < 20'000 && w0.worker.cellsRun() < 64; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_GE(w0.worker.cellsRun(), 64u)
        << "w0 never ran; cannot exercise reassignment";
    w0.worker.kill();

    Json summary;
    ASSERT_TRUE(coord.waitCampaign(id, 180'000, &summary));
    coord.stop();

    // Zero lost cells: every base index merged, exactly once each
    // (stale duplicates from the dead worker's lease are dropped, not
    // journaled twice).
    const auto idx = journalIndices(
        ccfg.out_dir + "/c1/campaign.journal.jsonl");
    EXPECT_EQ(idx.size(), cells);
    EXPECT_EQ(*idx.begin(), 0u);
    EXPECT_EQ(*idx.rbegin(), cells - 1);
    EXPECT_EQ(summary.find("ran")->uintValue(), cells);
    EXPECT_GE(summary.find("reassigned_leases")->uintValue(), 1u);
    EXPECT_TRUE(summary.find("hardware_clean")->boolValue());
}

/**
 * A worker that stops heartbeating without closing its socket (a hung
 * host, a dropped route) forfeits its leases after lease_timeout_ms
 * and the surviving worker finishes the campaign.
 */
TEST(Fleet, SilentWorkerForfeitsLeases)
{
    CoordinatorCfg ccfg;
    ccfg.out_dir = freshDir("fleet_silent_worker");
    ccfg.shard_size = 8;
    ccfg.lease_timeout_ms = 600;
    Coordinator coord(ccfg);
    ASSERT_TRUE(coord.start()) << coord.lastError();

    // A hand-rolled worker that handshakes, accepts leases, and then
    // never says another word.
    std::string err;
    const int fd = fleetConnect({"127.0.0.1", coord.port()}, &err);
    ASSERT_GE(fd, 0) << err;
    LineConn mute(fd);
    Json hello = fleetMsg("hello");
    hello.set("proto", Json(fleet_proto_version));
    hello.set("role", Json("worker"));
    hello.set("name", Json("mute"));
    hello.set("jobs", Json(std::uint64_t{1}));
    ASSERT_TRUE(mute.writeLine(hello));
    std::string line;
    ASSERT_EQ(mute.readLine(line, 10'000), LineConn::Read::line);
    ASSERT_EQ(fleetMsgType(jsonParse(line).value), "hello_ok");

    WorkerCfg wcfg;
    wcfg.connect = {"127.0.0.1", coord.port()};
    wcfg.heartbeat_ms = 100;
    WorkerThread live(wcfg);
    ASSERT_TRUE(coord.waitForWorkers(2, 10'000));

    FleetCampaignSpec spec;
    spec.seed = 11;
    spec.cells = 96;
    spec.shrink = false;
    const std::uint64_t id = coord.submitLocal(spec);

    Json summary;
    ASSERT_TRUE(coord.waitCampaign(id, 60'000, &summary));
    coord.stop();

    EXPECT_EQ(summary.find("ran")->uintValue(), 96u);
    EXPECT_GE(summary.find("reassigned_leases")->uintValue(), 1u);
    EXPECT_EQ(journalIndices(
                  ccfg.out_dir + "/c1/campaign.journal.jsonl")
                  .size(),
              96u);
}

/**
 * Kill the coordinator mid-campaign, then start a fresh one with
 * --resume on the same out-dir: the merged journal's header rebuilds
 * the spec, its cell lines rebuild the done set, and exactly the
 * uncommitted indices run -- resumed + ran == cells with no rerun.
 */
TEST(Fleet, CoordinatorRestartResumes)
{
    const std::uint64_t cells = 3000;
    const std::string out_dir = freshDir("fleet_resume");

    FleetCampaignSpec spec;
    spec.seed = 5;
    spec.cells = cells;
    spec.shrink = false;

    std::uint64_t committed = 0;
    {
        CoordinatorCfg ccfg;
        ccfg.out_dir = out_dir;
        ccfg.shard_size = 16;
        ccfg.sync_every = 1; // commit point == applied record
        Coordinator first(ccfg);
        ASSERT_TRUE(first.start()) << first.lastError();
        WorkerCfg wcfg;
        wcfg.connect = {"127.0.0.1", first.port()};
        wcfg.heartbeat_ms = 100;
        WorkerThread w(wcfg);
        ASSERT_TRUE(first.waitForWorkers(1, 10'000));
        first.submitLocal(spec);

        for (int i = 0; i < 20'000 && w.worker.cellsRun() < 64; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ASSERT_GE(w.worker.cellsRun(), 64u);
        first.kill(); // SIGKILL stand-in: no drain, no graceful close
        ASSERT_EQ(first.campaignsCompleted(), 0)
            << "campaign finished before the kill; nothing to resume";
        w.worker.kill();

        committed = journalIndices(
                        out_dir + "/c1/campaign.journal.jsonl")
                        .size();
        ASSERT_GT(committed, 0u);
        ASSERT_LT(committed, cells);
    }

    CoordinatorCfg rcfg;
    rcfg.out_dir = out_dir;
    rcfg.shard_size = 16;
    rcfg.sync_every = 1;
    rcfg.resume = true;
    Coordinator second(rcfg);
    ASSERT_TRUE(second.start()) << second.lastError();
    WorkerCfg wcfg;
    wcfg.connect = {"127.0.0.1", second.port()};
    wcfg.heartbeat_ms = 100;
    WorkerThread w(wcfg);

    Json summary;
    ASSERT_TRUE(second.waitCampaign(1, 180'000, &summary));
    second.stop();

    // Only the complement re-ran; the journaled prefix was honored.
    EXPECT_EQ(summary.find("skipped")->uintValue(), committed);
    EXPECT_EQ(summary.find("ran")->uintValue(), cells - committed);
    EXPECT_LE(w.worker.cellsRun(), cells - committed);
    EXPECT_EQ(journalIndices(out_dir + "/c1/campaign.journal.jsonl")
                  .size(),
              cells);
    EXPECT_TRUE(summary.find("hardware_clean")->boolValue());
}

/**
 * A fully-journaled campaign resumes to completion without any
 * workers at all: resume alone reconstructs the verdict.
 */
TEST(Fleet, ResumeOfCompleteJournalNeedsNoWorkers)
{
    const std::string out_dir = freshDir("fleet_resume_complete");

    FleetCampaignSpec spec;
    spec.seed = 13;
    spec.cells = 48;
    spec.shrink = false;

    {
        CoordinatorCfg ccfg;
        ccfg.out_dir = out_dir;
        ccfg.sync_every = 1;
        Coordinator coord(ccfg);
        ASSERT_TRUE(coord.start()) << coord.lastError();
        WorkerCfg wcfg;
        wcfg.connect = {"127.0.0.1", coord.port()};
        WorkerThread w(wcfg);
        const std::uint64_t id = coord.submitLocal(spec);
        ASSERT_TRUE(coord.waitCampaign(id, 120'000));
        coord.kill(); // die *after* completion; summary file exists
    }

    CoordinatorCfg rcfg;
    rcfg.out_dir = out_dir;
    rcfg.resume = true;
    Coordinator second(rcfg);
    ASSERT_TRUE(second.start()) << second.lastError();
    Json summary;
    ASSERT_TRUE(second.waitCampaign(1, 10'000, &summary));
    second.stop();
    EXPECT_EQ(summary.find("skipped")->uintValue(), 48u);
    EXPECT_EQ(summary.find("ran")->uintValue(), 0u);
}

} // namespace
} // namespace wo
