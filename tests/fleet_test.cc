/**
 * @file
 * Tests for the fleet subsystem: the wire protocol (framing, spec
 * round-trips, endpoint parsing), verdict parity between a two-worker
 * fleet and the single-process campaign on the same seeds, and the
 * fault paths -- a SIGKILLed worker's leases are reassigned with zero
 * lost cells, a silent worker times out, and a killed coordinator
 * resumes from its merged journal re-leasing only uncommitted cells.
 */

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/journal.hh"
#include "campaign/scheduler.hh"
#include "fleet/client.hh"
#include "fleet/coordinator.hh"
#include "fleet/proto.hh"
#include "fleet/worker.hh"
#include "obs/httpd.hh"
#include "obs/json.hh"
#include "obs/report.hh"

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

// --- fleet end to end ------------------------------------------------

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
