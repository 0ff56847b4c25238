#include "worker.hh"

#include <algorithm>
#include <chrono>

#include "campaign/fuzzer.hh"
#include "common/logging.hh"

namespace wo {

FleetWorker::FleetWorker(WorkerCfg cfg) : cfg_(std::move(cfg))
{
    if (cfg_.jobs < 1)
        cfg_.jobs = 1;
    executors_.reserve(static_cast<std::size_t>(cfg_.jobs));
    for (int i = 0; i < cfg_.jobs; ++i)
        executors_.emplace_back(CampaignSpec{});
}

FleetWorker::~FleetWorker()
{
    kill();
    if (heartbeat_.joinable())
        heartbeat_.join();
}

void
FleetWorker::requestStop()
{
    stop_.store(true, std::memory_order_relaxed);
    hb_cv_.notify_all();
}

void
FleetWorker::kill()
{
    stop_.store(true, std::memory_order_relaxed);
    hb_cv_.notify_all();
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (conn_)
        conn_->shutdownNow();
}

void
FleetWorker::heartbeatLoop()
{
    std::unique_lock<std::mutex> lock(hb_mu_);
    for (;;) {
        hb_cv_.wait_for(lock,
                        std::chrono::milliseconds(cfg_.heartbeat_ms),
                        [&] {
                            return stop_.load(std::memory_order_relaxed);
                        });
        if (stop_.load(std::memory_order_relaxed))
            return;
        if (!conn_->writeLine(fleetMsg("heartbeat")))
            return; // the coordinator is gone; the reader notices too
    }
}

bool
FleetWorker::connectAndRun()
{
    const int fd = fleetConnect(cfg_.connect, &error_);
    if (fd < 0)
        return false;
    {
        std::lock_guard<std::mutex> lock(conn_mu_);
        conn_ = std::make_unique<LineConn>(fd);
    }

    Json hello = fleetMsg("hello");
    hello.set("role", Json("worker"));
    hello.set("name", Json(cfg_.name));
    hello.set("jobs", Json(cfg_.jobs));
    Json reply;
    if (!fleetHello(*conn_, std::move(hello), &reply, &error_))
        return false;
    if (const std::string name = fleetString(reply, "name"); !name.empty())
        cfg_.name = name;
    if (cfg_.verbose)
        inform("fleet worker '%s': connected to %s:%u", cfg_.name.c_str(),
               cfg_.connect.host.c_str(),
               static_cast<unsigned>(cfg_.connect.port));

    heartbeat_ = std::thread([this] { heartbeatLoop(); });

    std::string line;
    bool drained = false;
    while (!stop_.load(std::memory_order_relaxed)) {
        const LineConn::Read r = conn_->readLine(line, 500);
        if (r == LineConn::Read::closed)
            break;
        if (r == LineConn::Read::timeout)
            continue;
        JsonParseResult p = jsonParse(line);
        if (!p.ok || !p.value.isObject())
            continue;
        const std::string type = fleetMsgType(p.value);
        if (type == "lease") {
            executeLease(p.value);
        } else if (type == "drain") {
            drained = true;
            break;
        } else if (type == "error") {
            error_ = fleetString(p.value, "text");
            if (error_.empty())
                error_ = "coordinator error";
            warn("fleet worker '%s': %s", cfg_.name.c_str(),
                 error_.c_str());
            break;
        }
    }
    requestStop();
    if (cfg_.verbose)
        inform("fleet worker '%s': leaving (%llu cells run%s)",
               cfg_.name.c_str(),
               static_cast<unsigned long long>(cellsRun()),
               drained ? ", drained" : "");
    return true;
}

void
FleetWorker::executeLease(const Json &msg)
{
    const Json *spec_j = msg.find("spec");
    const Json *indices_j = msg.find("indices");
    FleetCampaignSpec spec;
    std::string why;
    if (!spec_j || !fleetSpecFromJson(*spec_j, spec, &why) ||
        !indices_j || !indices_j->isArray()) {
        warn("fleet worker '%s': unusable lease (%s)", cfg_.name.c_str(),
             why.empty() ? "bad indices" : why.c_str());
        return;
    }
    const std::uint64_t campaign = fleetUint(msg, "campaign");
    const std::uint64_t lease = fleetUint(msg, "lease");

    std::vector<std::uint64_t> indices;
    indices.reserve(indices_j->items().size());
    for (const Json &i : indices_j->items())
        if (i.isNumber())
            indices.push_back(i.uintValue());

    const Fuzzer fuzzer(spec);
    for (CellExecutor &exec : executors_)
        exec.configure(spec);

    std::atomic<std::size_t> cursor{0};
    auto slot_fn = [&](int slot) {
        CellExecutor &exec = executors_[static_cast<std::size_t>(slot)];
        for (;;) {
            if (stop_.load(std::memory_order_relaxed))
                return;
            const std::size_t at =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (at >= indices.size())
                return;
            const std::uint64_t idx = indices[at];
            const Cell cell = fuzzer.baseCell(idx);
            // Shrinking happens here, where the evidence is: only the
            // minimized text travels, and the coordinator's dedup hash
            // is computed over exactly this text.
            const ExecutedCell x = exec.execute(cell, cell.key());
            const CellResult &r = x.run.result;

            Json result = fleetMsg("result");
            result.set("campaign", Json(campaign));
            result.set("lease", Json(lease));
            result.set("idx", Json(idx));
            result.set("cell", cellResultToJson(r));
            if (r.total > 0)
                result.set("by_kind", byKindJson(r.by_kind));
            if (x.shrunk) {
                Json failure = Json::object();
                failure.set("kind", Json(r.primary_kind));
                failure.set("wo_text", Json(x.shrunk->wo_text));
                failure.set("insns", Json(static_cast<std::uint64_t>(
                                         x.shrunk->instructions)));
                failure.set("orig_insns",
                            Json(static_cast<std::uint64_t>(
                                x.shrunk->orig_instructions)));
                failure.set("reproduced", Json(x.shrunk->reproduced));
                result.set("failure", std::move(failure));
            }
            if (!conn_->writeLine(result))
                return; // severed mid-lease; the lease gets reassigned
            cells_run_.fetch_add(1, std::memory_order_relaxed);
        }
    };

    if (cfg_.verbose)
        inform("fleet worker '%s': lease %llu (%zu cells)",
               cfg_.name.c_str(), static_cast<unsigned long long>(lease),
               indices.size());
    if (cfg_.jobs == 1) {
        slot_fn(0);
    } else {
        std::vector<std::thread> slots;
        slots.reserve(static_cast<std::size_t>(cfg_.jobs));
        for (int s = 0; s < cfg_.jobs; ++s)
            slots.emplace_back(slot_fn, s);
        for (auto &t : slots)
            t.join();
    }
    if (stop_.load(std::memory_order_relaxed))
        return;
    Json done = fleetMsg("lease_done");
    done.set("campaign", Json(campaign));
    done.set("lease", Json(lease));
    conn_->writeLine(done);
}

} // namespace wo
