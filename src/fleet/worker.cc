#include "worker.hh"

#include <algorithm>
#include <chrono>

#include "campaign/fuzzer.hh"
#include "common/logging.hh"

namespace wo {

namespace {

using Clock = std::chrono::steady_clock;

/** A job slot sends its buffered cells once it holds this many... */
constexpr std::size_t frame_cells = 16;
/** ...or once the oldest of them started this long ago, so slow cells
 *  (verify, shrinking) still reach /progress one by one. */
constexpr auto frame_age = std::chrono::milliseconds(50);

} // namespace

FleetWorker::FleetWorker(WorkerCfg cfg) : cfg_(std::move(cfg))
{
    if (cfg_.jobs < 1)
        cfg_.jobs = 1;
    slots_.reserve(static_cast<std::size_t>(cfg_.jobs));
    for (int i = 0; i < cfg_.jobs; ++i)
        slots_.push_back({CellExecutor(CampaignSpec{}), {}});
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
    for (Slot &s : slots_)
        s.exec.configure(spec);

    std::atomic<std::size_t> cursor{0};
    auto slot_fn = [&](int slot) {
        Slot &s = slots_[static_cast<std::size_t>(slot)];
        Clock::time_point first_start;
        // Send the buffered cells as one frame; false when severed
        // (the lease gets reassigned).
        auto flush = [&] {
            const std::size_t n = s.frame.cells();
            if (n == 0)
                return true;
            const bool sent =
                conn_->writeText(s.frame.text(campaign, lease));
            s.frame.clear();
            if (sent)
                cells_run_.fetch_add(n, std::memory_order_relaxed);
            return sent;
        };
        while (!stop_.load(std::memory_order_relaxed)) {
            const std::size_t at =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (at >= indices.size())
                break;
            const std::uint64_t idx = indices[at];
            const Cell cell = fuzzer.baseCell(idx);
            if (s.frame.cells() == 0)
                first_start = Clock::now();
            // Shrinking happens here, where the evidence is: only the
            // minimized text travels, and the coordinator's dedup hash
            // is computed over exactly this text.
            const ExecutedCell x = s.exec.execute(cell, cell.key());
            s.frame.add(idx, x.run.result,
                        x.shrunk ? &*x.shrunk : nullptr);
            if ((s.frame.cells() >= frame_cells ||
                 Clock::now() - first_start >= frame_age) &&
                !flush())
                return;
        }
        flush();
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
