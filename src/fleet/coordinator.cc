#include "coordinator.hh"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "obs/artifact.hh"
#include "obs/httpd.hh"

namespace wo {

namespace {

std::string
campaignDir(const CoordinatorCfg &cfg, std::uint64_t id)
{
    return cfg.out_dir +
           strprintf("/c%llu", static_cast<unsigned long long>(id));
}

/** A campaign's sink: journal and repros under @p dir, one tally slot
 *  (the pump thread). */
std::unique_ptr<ResultSink>
newSink(const CoordinatorCfg &cfg, const std::string &dir)
{
    JournalCfg jcfg;
    jcfg.sync_every = cfg.sync_every;
    jcfg.flush_interval_ms = cfg.flush_interval_ms;
    return std::make_unique<ResultSink>(dir + "/campaign.journal.jsonl",
                                        jcfg, dir, 1);
}

} // namespace

Coordinator::Coordinator(CoordinatorCfg cfg) : cfg_(std::move(cfg))
{
    if (cfg_.shard_size == 0)
        cfg_.shard_size = 1;
    if (cfg_.max_outstanding < 1)
        cfg_.max_outstanding = 1;
}

Coordinator::~Coordinator()
{
    stop();
}

bool
Coordinator::start()
{
    std::error_code ec;
    std::filesystem::create_directories(cfg_.out_dir, ec);
    if (ec) {
        error_ = cfg_.out_dir + ": " + ec.message();
        return false;
    }
    listen_fd_ = fleetListen(cfg_.addr, cfg_.port, &port_, &error_);
    if (listen_fd_ < 0)
        return false;

    if (cfg_.resume)
        resumeFromOutDir();

    if (cfg_.serve)
        mountControlPlane(
            *cfg_.serve, "wo_fleet", [this] { return metricsJson(); },
            [this] { return progressJson(); });

    started_ = true;
    acceptor_ = std::thread([this] { acceptLoop(); });
    pump_ = std::thread([this] { pumpLoop(); });

    // A fully-journaled campaign needs no fleet at all to finish.
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &camp : camps_)
            maybeCompleteCampaign(*camp);
    }
    return true;
}

void
Coordinator::stop()
{
    teardown(true);
}

void
Coordinator::kill()
{
    teardown(false);
}

void
Coordinator::teardown(bool drain)
{
    if (!started_)
        return;
    if (stopping_.exchange(true))
        return;

    if (drain) {
        std::lock_guard<std::mutex> lock(mu_);
        const Json msg = fleetMsg("drain");
        for (auto &[id, c] : conns_)
            if (c->role == Role::worker && !c->dead)
                c->sock->writeLine(msg);
    }

    // Unblock the acceptor and join it before the listener is closed:
    // acceptLoop reads listen_fd_, and a closed descriptor number can
    // be handed to another thread's open() while accept() still
    // names it.  Then unblock every reader.
    if (listen_fd_ >= 0)
        ::shutdown(listen_fd_, SHUT_RDWR);
    if (acceptor_.joinable())
        acceptor_.join();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    std::vector<std::thread> readers;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &[id, c] : conns_) {
            c->sock->shutdownNow();
            readers.push_back(std::move(c->reader));
        }
    }
    ev_cv_.notify_all();
    if (pump_.joinable())
        pump_.join();
    // Readers take no fleet lock, and they are joined with none held:
    // a reader the acceptor spawned just before the shutdown may not
    // have run yet.
    for (std::thread &t : readers)
        if (t.joinable())
            t.join();
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &[id, c] : conns_)
            c->sock->closeNow();
        // Commit every merged record; in-flight campaigns stay
        // resumable from exactly this journal state.
        for (auto &camp : camps_)
            camp->sink->journal().close();
    }
    if (cfg_.serve)
        cfg_.serve->stop();
    state_cv_.notify_all();
    started_ = false;
}

// --- accept / read threads -------------------------------------------

void
Coordinator::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (stopping_.load(std::memory_order_relaxed))
                return;
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            return; // listener gone
        }
        if (stopping_.load(std::memory_order_relaxed)) {
            ::close(fd);
            return;
        }
        std::lock_guard<std::mutex> lock(mu_);
        const std::uint64_t id = next_conn_++;
        auto conn = std::make_unique<Conn>();
        conn->id = id;
        conn->sock = std::make_unique<LineConn>(fd);
        conn->last_seen = std::chrono::steady_clock::now();
        LineConn *sock = conn->sock.get();
        Conn *raw = conn.get();
        conns_.emplace(id, std::move(conn));
        raw->reader =
            std::thread([this, id, sock] { readerLoop(id, sock); });
    }
}

void
Coordinator::readerLoop(std::uint64_t conn_id, LineConn *sock)
{
    const auto who = static_cast<unsigned long long>(conn_id);
    std::string line;
    bool pending = false; // line holds the next message already
    for (;;) {
        if (!pending) {
            const LineConn::Read r = sock->readLine(line, 500);
            if (r == LineConn::Read::closed)
                break;
            if (r == LineConn::Read::timeout) {
                if (stopping_.load(std::memory_order_relaxed))
                    break;
                continue;
            }
        }
        pending = false;
        if (line.compare(0, cell_line_head.size(), cell_line_head) == 0) {
            warn("fleet: conn %llu sent a cell line outside a results "
                 "frame; dropping it",
                 who);
            continue;
        }
        JsonParseResult p = jsonParse(line);
        if (!p.ok || !p.value.isObject()) {
            warn("fleet: conn %llu sent a malformed line (%s); dropping it",
                 who, p.ok ? "not an object" : p.error.c_str());
            continue;
        }
        Event ev;
        ev.conn = conn_id;
        if (fleetMsgType(p.value) != "results") {
            ev.kind = Event::Kind::message;
            ev.msg = std::move(p.value);
            pushEvent(std::move(ev));
            continue;
        }
        ev.kind = Event::Kind::frame;
        const FrameRead fr =
            readFrame(conn_id, *sock, p.value, ev.frame, line);
        if (fr == FrameRead::ok)
            pushEvent(std::move(ev));
        else if (fr == FrameRead::cut_short)
            pending = true;
        else if (fr == FrameRead::closed)
            break;
    }
    Event ev;
    ev.kind = Event::Kind::closed;
    ev.conn = conn_id;
    pushEvent(std::move(ev));
}

Coordinator::FrameRead
Coordinator::readFrame(std::uint64_t conn_id, LineConn &sock,
                       const Json &header, Frame &frame, std::string &line)
{
    const auto who = static_cast<unsigned long long>(conn_id);
    std::string why;
    bool ok = decodeResultsHeader(header, frame, why);
    // Consume all n lines even when the frame is already lost, so the
    // line after them is read as the next message.
    const long n = static_cast<long>(frame.cells.size());
    for (long i = 0; i < n; ++i) {
        LineConn::Read r;
        while ((r = sock.readLine(line, 500)) == LineConn::Read::timeout)
            if (stopping_.load(std::memory_order_relaxed))
                return FrameRead::closed;
        if (r == LineConn::Read::closed) {
            warn("fleet: conn %llu closed after %ld of a results "
                 "frame's %ld lines; dropping the frame",
                 who, i, n);
            return FrameRead::closed;
        }
        if (line.compare(0, cell_line_head.size(), cell_line_head) != 0) {
            warn("fleet: conn %llu's results frame announced %ld lines "
                 "but sent %ld; dropping the frame",
                 who, n, i);
            return FrameRead::cut_short;
        }
        if (ok && !isJournalCellLine(line)) {
            ok = false;
            why = strprintf("line %ld is not a journal cell line", i);
        }
        if (ok) {
            std::string &keep =
                frame.cells[static_cast<std::size_t>(i)].line;
            // Room for the provenance the merge appends.
            keep.reserve(line.size() + 96);
            keep.assign(line);
        }
    }
    if (!ok) {
        warn("fleet: conn %llu sent a malformed results frame (%s); "
             "dropping it",
             who, why.c_str());
        return FrameRead::dropped;
    }
    return FrameRead::ok;
}

void
Coordinator::pushEvent(Event ev)
{
    {
        std::lock_guard<std::mutex> lock(ev_mu_);
        events_.push_back(std::move(ev));
    }
    ev_cv_.notify_one();
}

// --- the pump: all fleet-state mutation happens here -----------------

void
Coordinator::pumpLoop()
{
    std::vector<Event> batch;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(ev_mu_);
            ev_cv_.wait_for(lock, std::chrono::milliseconds(100), [&] {
                return !events_.empty() ||
                       stopping_.load(std::memory_order_relaxed);
            });
            if (events_.empty() &&
                stopping_.load(std::memory_order_relaxed))
                return;
            batch.swap(events_);
        }
        std::lock_guard<std::mutex> lock(mu_);
        for (Event &ev : batch) {
            if (ev.kind == Event::Kind::closed) {
                dropConn(ev.conn, "connection closed");
                continue;
            }
            Conn *c = liveConn(ev.conn);
            if (!c)
                continue;
            if (ev.kind == Event::Kind::message)
                handleMessage(*c, ev.msg);
            else if (c->role == Role::worker)
                handleFrame(*c, ev.frame);
            else
                reject(*c, "results from a non-worker", "not a worker");
        }
        batch.clear();
        expireSilentWorkers();
        grantLeases();
        sendClientProgress();
    }
}

Coordinator::Conn *
Coordinator::liveConn(std::uint64_t conn_id)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end() || it->second->dead)
        return nullptr;
    it->second->last_seen = std::chrono::steady_clock::now();
    return it->second.get();
}

void
Coordinator::handleMessage(Conn &c, Json &msg)
{
    const std::string type = fleetMsgType(msg);
    if (type == "hello") {
        handleHello(c, msg);
    } else if (c.role == Role::unknown) {
        reject(c, "expected hello, got '" + type + "'", "no hello");
    } else if (type == "heartbeat") {
        // liveConn() refreshed last_seen already.
    } else if (type == "submit") {
        handleSubmit(c, msg);
    } else if (type == "lease_done") {
        handleLeaseDone(c, msg);
    } else {
        warn("fleet: conn %llu (%s) sent unknown message type '%s'",
             static_cast<unsigned long long>(c.id), c.name.c_str(),
             type.c_str());
    }
}

void
Coordinator::handleHello(Conn &c, const Json &msg)
{
    const std::uint64_t proto = fleetUint(msg, "proto");
    if (proto != fleet_proto_version) {
        reject(c,
               strprintf("fleet protocol mismatch: peer speaks v%llu, "
                         "this coordinator v%llu",
                         static_cast<unsigned long long>(proto),
                         static_cast<unsigned long long>(
                             fleet_proto_version)),
               "protocol mismatch");
        return;
    }
    const std::string role = fleetString(msg, "role");
    if (role == "worker") {
        c.role = Role::worker;
    } else if (role == "client") {
        c.role = Role::client;
    } else {
        reject(c, "unknown role '" + role + "'", "unknown role");
        return;
    }
    c.name = fleetString(msg, "name");
    if (c.name.empty())
        c.name = strprintf("%s%llu", role.c_str(),
                           static_cast<unsigned long long>(c.id));
    c.name_json.clear();
    jsonEscape(c.name_json, c.name);
    c.jobs = std::max(1, static_cast<int>(fleetUint(msg, "jobs")));

    Json ok = fleetMsg("hello_ok");
    ok.set("proto", Json(fleet_proto_version));
    ok.set("name", Json(c.name));
    c.sock->writeLine(ok);

    if (c.role == Role::worker) {
        if (cfg_.verbose)
            inform("fleet: worker '%s' joined (jobs %d)", c.name.c_str(),
                   c.jobs);
        state_cv_.notify_all();
    }
}

void
Coordinator::handleSubmit(Conn &c, const Json &msg)
{
    const Json *spec_j = msg.find("spec");
    FleetCampaignSpec spec;
    std::string why;
    if (!spec_j || !fleetSpecFromJson(*spec_j, spec, &why)) {
        reject(c, "bad campaign spec: " + (why.empty() ? "missing" : why),
               "bad spec");
        return;
    }
    const std::uint64_t id = enqueueCampaign(std::move(spec), c.id);
    Json acc = fleetMsg("accepted");
    acc.set("campaign", Json(id));
    c.sock->writeLine(acc);
}

void
Coordinator::handleFrame(Conn &c, Frame &frame)
{
    Camp *camp = findCampaign(frame.campaign);
    if (!camp)
        return;
    for (FrameCell &cell : frame.cells) {
        if (cell.idx >= camp->spec.cells) {
            warn("fleet: worker '%s' sent base index %llu, outside "
                 "campaign %llu's %llu cells; dropping it",
                 c.name.c_str(), static_cast<unsigned long long>(cell.idx),
                 static_cast<unsigned long long>(camp->id),
                 static_cast<unsigned long long>(camp->spec.cells));
        } else if (camp->completed || camp->done[cell.idx]) {
            // A reassigned lease's original holder reported late: the
            // merge is idempotent, the duplicate only counts.
            ++camp->duplicate_results;
        } else {
            mergeCell(*camp, c, cell);
        }
    }
    maybeCompleteCampaign(*camp);
}

void
Coordinator::mergeCell(Camp &camp, Conn &c, FrameCell &cell)
{
    const std::uint64_t idx = cell.idx;
    camp.done[idx] = 1;
    ++c.cells_done;
    camp.sink->record(0, cell.verdict, cell.ms, cell.by_kind);

    const std::size_t shard_i =
        static_cast<std::size_t>(idx / cfg_.shard_size);
    Shard &shard = camp.shards[shard_i];
    if (shard.remaining > 0)
        --shard.remaining;

    // Journal the worker's line verbatim, with the fleet provenance a
    // resumed coordinator needs appended inside its closing brace.
    std::string &line = cell.line;
    line.pop_back();
    line += ",\"idx\":";
    appendDecimal(line, idx);
    line += ",\"shard\":";
    appendDecimal(line, shard_i);
    line += ",\"worker\":\"";
    line += c.name_json;
    line += "\"}\n";
    camp.sink->journal().appendRaw(std::move(line));

    if (const Json &f = cell.failure; f.isObject()) {
        FailureRecord fr;
        fr.kind = fleetString(f, "kind");
        fr.first_cell = fleetString(f, "cell");
        fr.instructions = static_cast<std::size_t>(fleetUint(f, "insns"));
        fr.orig_instructions =
            static_cast<std::size_t>(fleetUint(f, "orig_insns"));
        const Json *rep = f.find("reproduced");
        fr.reproduced = rep && rep->isBool() && rep->boolValue();
        const std::string stem =
            camp.sink->fileFailure(std::move(fr), fleetString(f, "wo_text"));
        if (!stem.empty() && cfg_.verbose)
            inform("fleet: campaign %llu failure %s.wo (from '%s')",
                   static_cast<unsigned long long>(camp.id), stem.c_str(),
                   c.name.c_str());
    }

    if (shard.remaining == 0) {
        if (shard.state == Shard::State::leased)
            releaseLease(shard.lease);
        else
            shard.state = Shard::State::done;
    }
}

void
Coordinator::handleLeaseDone(Conn &c, const Json &msg)
{
    const std::uint64_t lease_id = fleetUint(msg, "lease");
    auto it = leases_.find(lease_id);
    if (it == leases_.end() || it->second.conn != c.id)
        return; // stale: the lease was reassigned while this ran
    releaseLease(lease_id);
}

void
Coordinator::reject(Conn &c, const std::string &text, const char *why)
{
    Json err = fleetMsg("error");
    err.set("text", Json(text));
    c.sock->writeLine(err);
    dropConn(c.id, why);
}

void
Coordinator::dropConn(std::uint64_t conn_id, const char *why)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end() || it->second->dead)
        return;
    Conn &c = *it->second;
    c.dead = true;
    c.sock->shutdownNow();
    if (cfg_.verbose && c.role != Role::unknown)
        inform("fleet: %s '%s' gone (%s)",
               c.role == Role::worker ? "worker" : "client",
               c.name.c_str(), why);

    const std::vector<std::uint64_t> held = c.leases;
    for (std::uint64_t lease : held) {
        auto lit = leases_.find(lease);
        if (lit == leases_.end())
            continue;
        if (Camp *cp = findCampaign(lit->second.campaign))
            ++cp->reassigned_leases;
        releaseLease(lease);
    }
    if (c.role == Role::client)
        for (auto &cp : camps_)
            if (cp->client_conn == conn_id)
                cp->client_conn = 0;
    state_cv_.notify_all();
}

void
Coordinator::releaseLease(std::uint64_t lease_id)
{
    auto it = leases_.find(lease_id);
    if (it == leases_.end())
        return;
    const Lease lease = it->second;
    leases_.erase(it);

    auto cit = conns_.find(lease.conn);
    if (cit != conns_.end()) {
        auto &held = cit->second->leases;
        held.erase(std::remove(held.begin(), held.end(), lease_id),
                   held.end());
    }
    Camp *cp = findCampaign(lease.campaign);
    if (!cp || cp->shards[lease.shard].lease != lease_id)
        return; // already re-leased
    Shard &shard = cp->shards[lease.shard];
    shard.lease = 0;
    // Whatever the holder managed before the lease ended is merged
    // already; the remainder goes back to the pending pool.
    shard.state = shard.remaining == 0 ? Shard::State::done
                                       : Shard::State::pending;
}

Coordinator::Camp *
Coordinator::findCampaign(std::uint64_t id)
{
    for (auto &cp : camps_)
        if (cp->id == id)
            return cp.get();
    return nullptr;
}

Coordinator::Camp *
Coordinator::activeCampaign()
{
    for (auto &cp : camps_)
        if (!cp->completed)
            return cp.get();
    return nullptr;
}

void
Coordinator::grantLeases()
{
    Camp *camp = activeCampaign();
    if (!camp)
        return;
    for (auto &[id, c] : conns_) {
        if (c->role != Role::worker || c->dead || c->draining)
            continue;
        while (static_cast<int>(c->leases.size()) < cfg_.max_outstanding) {
            Shard *shard = nullptr;
            std::size_t shard_i = 0;
            for (std::size_t i = 0; i < camp->shards.size(); ++i)
                if (camp->shards[i].state == Shard::State::pending) {
                    shard = &camp->shards[i];
                    shard_i = i;
                    break;
                }
            if (!shard)
                return; // the lattice is fully leased or done

            const std::uint64_t lease_id = next_lease_++;
            Json msg = fleetMsg("lease");
            msg.set("campaign", Json(camp->id));
            msg.set("lease", Json(lease_id));
            msg.set("shard", Json(static_cast<std::uint64_t>(shard_i)));
            msg.set("spec", campaignSpecJson(camp->spec));
            Json indices = Json::array();
            for (std::uint64_t i = shard->lo; i < shard->hi; ++i)
                if (!camp->done[i])
                    indices.push(Json(i));
            msg.set("indices", std::move(indices));
            if (!c->sock->writeLine(msg)) {
                dropConn(id, "lease write failed");
                break;
            }
            shard->state = Shard::State::leased;
            shard->lease = lease_id;
            leases_.emplace(lease_id,
                            Lease{lease_id, camp->id, shard_i, id});
            c->leases.push_back(lease_id);
            if (cfg_.verbose)
                inform("fleet: lease %llu (campaign %llu shard %zu, "
                       "%llu cells) -> '%s'",
                       static_cast<unsigned long long>(lease_id),
                       static_cast<unsigned long long>(camp->id), shard_i,
                       static_cast<unsigned long long>(shard->remaining),
                       c->name.c_str());
        }
    }
}

void
Coordinator::expireSilentWorkers()
{
    const auto now = std::chrono::steady_clock::now();
    std::vector<std::uint64_t> expired;
    for (auto &[id, c] : conns_) {
        if (c->role != Role::worker || c->dead || c->leases.empty())
            continue;
        const auto silent =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - c->last_seen)
                .count();
        if (silent > cfg_.lease_timeout_ms)
            expired.push_back(id);
    }
    for (std::uint64_t id : expired)
        dropConn(id, "heartbeat timeout");
}

void
Coordinator::sendClientProgress()
{
    const auto now = std::chrono::steady_clock::now();
    if (now - last_progress_push_ < std::chrono::milliseconds(500))
        return;
    last_progress_push_ = now;
    for (auto &cp : camps_) {
        if (cp->completed || cp->client_conn == 0)
            continue;
        auto it = conns_.find(cp->client_conn);
        if (it == conns_.end() || it->second->dead)
            continue;
        Json msg = fleetMsg("progress");
        msg.set("campaign", Json(cp->id));
        msg.set("cells", campaignProgressJson(*cp));
        it->second->sock->writeLine(msg);
    }
}

void
Coordinator::maybeCompleteCampaign(Camp &camp)
{
    if (camp.completed || camp.sink->completed() < camp.spec.cells)
        return;
    camp.completed = true;
    camp.sink->journal().close();
    // One summary schema for both transports, plus the fleet's own
    // members.
    const CampaignSummary sum = camp.sink->summary(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      camp.t0)
            .count());
    camp.sink->dropSamples();
    camp.summary = sum.toJson();
    camp.summary.set("campaign", Json(camp.id));
    camp.summary.set("cells", Json(camp.spec.cells));
    camp.summary.set("unique_failures",
                     Json(static_cast<std::uint64_t>(sum.failures.size())));
    camp.summary.set("hardware_clean", Json(sum.hardwareClean()));
    camp.summary.set("duplicate_results", Json(camp.duplicate_results));
    camp.summary.set("reassigned_leases", Json(camp.reassigned_leases));
    writeFile(camp.dir + "/campaign.summary.json",
              camp.summary.dump(1) + "\n");
    ++completed_campaigns_;
    if (cfg_.verbose)
        inform("fleet: campaign %llu complete (%llu ran, %llu resumed, "
               "%llu unique failures)",
               static_cast<unsigned long long>(camp.id),
               static_cast<unsigned long long>(sum.ran),
               static_cast<unsigned long long>(sum.skipped),
               static_cast<unsigned long long>(sum.failures.size()));

    if (camp.client_conn != 0) {
        auto it = conns_.find(camp.client_conn);
        if (it != conns_.end() && !it->second->dead) {
            Json msg = fleetMsg("done");
            msg.set("campaign", Json(camp.id));
            msg.set("hardware_clean", Json(sum.hardwareClean()));
            msg.set("summary", camp.summary);
            it->second->sock->writeLine(msg);
        }
    }

    if (cfg_.max_campaigns > 0 &&
        completed_campaigns_ >= cfg_.max_campaigns) {
        serving_done_ = true;
        const Json msg = fleetMsg("drain");
        for (auto &[id, c] : conns_)
            if (c->role == Role::worker && !c->dead) {
                c->draining = true;
                c->sock->writeLine(msg);
            }
    }
    state_cv_.notify_all();
}

// --- campaign setup / resume -----------------------------------------

Coordinator::Camp &
Coordinator::addCampaign(std::uint64_t id, FleetCampaignSpec spec,
                         std::unique_ptr<ResultSink> sink)
{
    auto camp = std::make_unique<Camp>();
    camp->id = id;
    camp->spec = std::move(spec);
    camp->dir = campaignDir(cfg_, id);
    camp->t0 = std::chrono::steady_clock::now();
    camp->sink = std::move(sink);
    // A replayed journal's indices are done already; exactly the
    // complement is (re-)leased.
    camp->done.assign(camp->spec.cells, 0);
    for (std::uint64_t idx : camp->sink->journal().resumeIndices())
        if (idx < camp->spec.cells && !camp->done[idx]) {
            camp->done[idx] = 1;
            camp->sink->skip(0, /*resumed=*/true);
        }
    const std::size_t nshards = static_cast<std::size_t>(
        (camp->spec.cells + cfg_.shard_size - 1) / cfg_.shard_size);
    camp->shards.resize(nshards);
    for (std::size_t i = 0; i < nshards; ++i) {
        Shard &s = camp->shards[i];
        s.lo = i * cfg_.shard_size;
        s.hi = std::min<std::uint64_t>(s.lo + cfg_.shard_size,
                                       camp->spec.cells);
        for (std::uint64_t idx = s.lo; idx < s.hi; ++idx)
            s.remaining += !camp->done[idx];
        if (s.remaining == 0)
            s.state = Shard::State::done;
    }
    next_campaign_ = std::max(next_campaign_, id + 1);
    camps_.push_back(std::move(camp));
    return *camps_.back();
}

std::uint64_t
Coordinator::enqueueCampaign(FleetCampaignSpec spec,
                             std::uint64_t client_conn)
{
    const std::uint64_t id = next_campaign_;
    const std::string dir = campaignDir(cfg_, id);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    Camp &camp = addCampaign(id, std::move(spec), newSink(cfg_, dir));
    camp.client_conn = client_conn;
    Journal &journal = camp.sink->journal();
    journal.open(true);
    Json meta = Json::object();
    meta.set("fleet", Json(true));
    meta.set("campaign_id", Json(id));
    meta.set("spec", campaignSpecJson(camp.spec));
    journal.writeHeader(std::move(meta));
    return id;
}

void
Coordinator::resumeFromOutDir()
{
    // Journals live at <out_dir>/c<N>/campaign.journal.jsonl; replay
    // them in campaign order so ids survive the restart.
    std::vector<std::uint64_t> ids;
    std::error_code ec;
    for (const auto &ent :
         std::filesystem::directory_iterator(cfg_.out_dir, ec)) {
        const std::string name = ent.path().filename().string();
        const char *end = name.data() + name.size();
        std::uint64_t id = 0;
        if (name.size() > 1 && name[0] == 'c' &&
            std::from_chars(name.data() + 1, end, id).ptr == end &&
            id > 0 &&
            std::filesystem::exists(ent.path() / "campaign.journal.jsonl"))
            ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());

    for (std::uint64_t id : ids) {
        const std::string dir = campaignDir(cfg_, id);
        std::unique_ptr<ResultSink> sink = newSink(cfg_, dir);
        sink->journal().load();
        const Json *spec_j = sink->journal().header().find("spec");
        FleetCampaignSpec spec;
        std::string why;
        if (!spec_j || !fleetSpecFromJson(*spec_j, spec, &why)) {
            warn("fleet: %s: cannot rebuild campaign spec from the "
                 "journal header (%s); skipping",
                 dir.c_str(), why.empty() ? "missing" : why.c_str());
            continue;
        }
        Camp &camp = addCampaign(id, std::move(spec), std::move(sink));
        camp.sink->journal().open(false);
        if (cfg_.verbose)
            inform("fleet: resumed campaign %llu (%llu/%llu cells "
                   "journaled)",
                   static_cast<unsigned long long>(id),
                   static_cast<unsigned long long>(camp.sink->completed()),
                   static_cast<unsigned long long>(camp.spec.cells));
    }
}

// --- the public, lock-taking surface ---------------------------------

std::uint64_t
Coordinator::submitLocal(const FleetCampaignSpec &spec)
{
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t id = enqueueCampaign(spec, 0);
    maybeCompleteCampaign(*camps_.back());
    // Lease now, not at the pump's next tick.
    grantLeases();
    return id;
}

bool
Coordinator::waitCampaign(std::uint64_t id, int timeout_ms, Json *summary)
{
    std::unique_lock<std::mutex> lock(mu_);
    Camp *camp = findCampaign(id);
    if (!camp)
        return false;
    const auto pred = [&] {
        return camp->completed || stopping_.load(std::memory_order_relaxed);
    };
    if (timeout_ms <= 0)
        state_cv_.wait(lock, pred);
    else if (!state_cv_.wait_for(
                 lock, std::chrono::milliseconds(timeout_ms), pred))
        return false;
    if (!camp->completed)
        return false;
    if (summary)
        *summary = camp->summary;
    return true;
}

bool
Coordinator::waitForWorkers(int n, int timeout_ms)
{
    std::unique_lock<std::mutex> lock(mu_);
    const auto pred = [&] {
        return aliveWorkers() >= n ||
               stopping_.load(std::memory_order_relaxed);
    };
    return state_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                              pred) &&
           !stopping_.load(std::memory_order_relaxed);
}

void
Coordinator::waitDone()
{
    std::unique_lock<std::mutex> lock(mu_);
    state_cv_.wait(lock, [&] {
        return serving_done_ || stopping_.load(std::memory_order_relaxed);
    });
}

int
Coordinator::campaignsCompleted() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return completed_campaigns_;
}

int
Coordinator::aliveWorkers() const
{
    int alive = 0;
    for (const auto &[id, c] : conns_)
        alive += c->role == Role::worker && !c->dead;
    return alive;
}

Json
Coordinator::campaignProgressJson(const Camp &camp) const
{
    Json j = Json::object();
    const ResultSink &sink = *camp.sink;
    j.set("cells", Json(camp.spec.cells));
    j.set("done", Json(sink.completed()));
    j.set("ran", Json(sink.sum(&ResultSink::Slot::ran)));
    j.set("resumed", Json(sink.sum(&ResultSink::Slot::skipped)));
    j.set("hw", Json(sink.verdicts(VerdictClass::hw)));
    j.set("unique_failures", Json(sink.uniqueFailures()));
    std::uint64_t pending = 0, leased = 0, done = 0;
    for (const Shard &s : camp.shards) {
        if (s.state == Shard::State::pending)
            ++pending;
        else if (s.state == Shard::State::leased)
            ++leased;
        else
            ++done;
    }
    Json shards = Json::object();
    shards.set("pending", Json(pending));
    shards.set("leased", Json(leased));
    shards.set("done", Json(done));
    j.set("shards", std::move(shards));
    return j;
}

Json
Coordinator::progressJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Json j = Json::object();
    j.set("proto", Json(fleet_proto_version));
    Json workers = Json::array();
    for (const auto &[id, c] : conns_) {
        if (c->role != Role::worker || c->dead)
            continue;
        Json w = Json::object();
        w.set("name", Json(c->name));
        w.set("jobs", Json(c->jobs));
        w.set("cells_done", Json(c->cells_done));
        w.set("leases",
              Json(static_cast<std::uint64_t>(c->leases.size())));
        workers.push(std::move(w));
    }
    j.set("workers_connected", Json(aliveWorkers()));
    j.set("workers", std::move(workers));
    j.set("campaigns_completed", Json(completed_campaigns_));
    Json camps = Json::array();
    for (const auto &cp : camps_) {
        Json c = campaignProgressJson(*cp);
        c.set("campaign", Json(cp->id));
        c.set("completed", Json(cp->completed));
        camps.push(std::move(c));
    }
    j.set("campaigns", std::move(camps));
    return j;
}

Json
Coordinator::metricsJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Json j = Json::object();
    j.set("workers_connected", Json(aliveWorkers()));
    j.set("campaigns_completed", Json(completed_campaigns_));
    j.set("leases_outstanding",
          Json(static_cast<std::uint64_t>(leases_.size())));
    for (const auto &[id, c] : conns_) {
        if (c->role != Role::worker || c->dead)
            continue;
        Json w = Json::object();
        w.set("cells_done", Json(c->cells_done));
        w.set("leases",
              Json(static_cast<std::uint64_t>(c->leases.size())));
        j.set("worker{worker=\"" + c->name + "\"}", std::move(w));
    }
    for (const auto &cp : camps_) {
        Json c = Json::object();
        const ResultSink &sink = *cp->sink;
        c.set("cells", Json(cp->spec.cells));
        c.set("done_cells", Json(sink.completed()));
        c.set("ran", Json(sink.sum(&ResultSink::Slot::ran)));
        c.set("resumed", Json(sink.sum(&ResultSink::Slot::skipped)));
        c.set("hw", Json(sink.verdicts(VerdictClass::hw)));
        c.set("unique_failures", Json(sink.uniqueFailures()));
        c.set("duplicate_results", Json(cp->duplicate_results));
        c.set("reassigned_leases", Json(cp->reassigned_leases));
        c.set("completed", Json(cp->completed ? 1 : 0));
        // Per-shard series are bounded by the operator's shard-size
        // choice; cap the cardinality anyway so a million-cell
        // campaign cannot flood a scrape.
        if (cp->shards.size() <= 256)
            for (std::size_t i = 0; i < cp->shards.size(); ++i) {
                Json s = Json::object();
                s.set("state",
                      Json(static_cast<int>(cp->shards[i].state)));
                s.set("remaining", Json(cp->shards[i].remaining));
                c.set(strprintf("shard{shard=\"%zu\"}", i),
                      std::move(s));
            }
        c.set("client_attached", Json(cp->client_conn != 0 ? 1 : 0));
        j.set(strprintf("campaign{campaign=\"%llu\"}",
                        static_cast<unsigned long long>(cp->id)),
              std::move(c));
    }
    return j;
}

} // namespace wo
