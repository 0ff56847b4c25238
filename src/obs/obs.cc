#include "obs.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/monitor.hh"
#include "obs/recorder.hh"
#include "obs/sampler.hh"

namespace wo {

const char *
stallBucketName(StallBucket b)
{
    switch (b) {
      case StallBucket::reserve_wait:
        return "reserve_wait";
      case StallBucket::counter_drain:
        return "counter_drain";
      case StallBucket::mlp_limit:
        return "mlp_limit";
      case StallBucket::cache_miss:
        return "cache_miss";
      case StallBucket::network:
        return "network";
      case StallBucket::hit_latency:
        return "hit_latency";
    }
    return "?";
}

const char *
opSideName(OpSide s)
{
    switch (s) {
      case OpSide::data:
        return "data";
      case OpSide::release:
        return "release";
      case OpSide::acquire:
        return "acquire";
    }
    return "?";
}

Obs::StallStats::StallStats(std::size_t p)
    : group(strprintf("cpu%zu.stall", p)), total(&group.counter("total"))
{
    for (int b = 0; b < num_stall_buckets; ++b)
        bucket[b] =
            &group.counter(stallBucketName(static_cast<StallBucket>(b)));
    for (int d = 0; d < num_op_sides; ++d)
        side[d] = &group.counter(opSideName(static_cast<OpSide>(d)));
}

Obs::Obs(ProcId nprocs)
{
    reset(nprocs);
}

void
Obs::reset(ProcId nprocs)
{
    nprocs_ = nprocs;
    trace_enabled_ = false;
    trace_queue_events_ = false;
    monitor_ = nullptr;
    recorder_ = nullptr;
    sampler_ = nullptr;
    mirrored_violations_ = 0;
    while (stall_.size() < nprocs)
        stall_.emplace_back(stall_.size());
    if (live_.size() < nprocs) {
        live_.resize(nprocs);
        reserve_held_.resize(nprocs);
    }
    for (ProcId p = 0; p < nprocs; ++p) {
        stall_[p].group.resetAll(); // the fixed schema stays shown
        live_[p].clear();
        reserve_held_[p].clear();
    }
    chrome_events_.clear();
    jsonl_.clear();
}

std::uint64_t
Obs::unfinishedOps() const
{
    std::uint64_t n = 0;
    for (ProcId p = 0; p < nprocs_; ++p)
        n += live_[p].size();
    return n;
}

Obs::LiveOp *
Obs::findLive(ProcId p, std::uint64_t req)
{
    wo_assert(p < nprocs_, "operation of unknown cpu %u", p);
    for (LiveOp &op : live_[p])
        if (op.req == req)
            return &op;
    return nullptr;
}

void
Obs::enableTrace(bool queue_events)
{
    trace_enabled_ = true;
    trace_queue_events_ = queue_events;
}

void
Obs::raw(Json line)
{
    jsonl_.push_back(line.dump(0));
}

void
Obs::chrome(Json ev)
{
    chrome_events_.push_back(std::move(ev));
}

Json
Obs::completeEvent(const std::string &name, std::uint64_t tid, Tick start,
                   Tick end) const
{
    Json ev = Json::object();
    ev.set("name", name);
    ev.set("ph", "X");
    ev.set("ts", start);
    ev.set("dur", end - start);
    ev.set("pid", std::uint64_t{0});
    ev.set("tid", tid);
    return ev;
}

void
Obs::queueFire(Tick now, const std::string &label)
{
    if (!trace_enabled_ || !trace_queue_events_)
        return;
    Json r = Json::object();
    r.set("t", now);
    r.set("ev", "fire");
    r.set("label", label);
    raw(std::move(r));

    Json ev = Json::object();
    ev.set("name", label);
    ev.set("ph", "i");
    ev.set("ts", now);
    ev.set("pid", std::uint64_t{0});
    ev.set("tid", std::uint64_t{2u * nprocs_ + 1});
    ev.set("s", "t");
    chrome(std::move(ev));
}

void
Obs::mirrorViolations(Tick now)
{
    if (!monitor_)
        return;
    const std::uint64_t total = monitor_->totalViolations();
    if (!recorder_) {
        mirrored_violations_ = total;
        return;
    }
    const auto &rec = monitor_->violations();
    while (mirrored_violations_ < total) {
        FlightEvent e;
        e.kind = FlightKind::violation;
        e.t = now;
        if (mirrored_violations_ < rec.size()) {
            const MonitorViolation &v = rec[mirrored_violations_];
            e.t = v.tick;
            e.proc = v.proc == invalid_proc ? 0 : v.proc;
            e.addr = v.addr;
            e.label = violationKindName(v.kind);
        } else {
            e.label = "unrecorded";
        }
        recorder_->record(e);
        ++mirrored_violations_;
    }
}

void
Obs::message(Tick sent, Tick deliver, unsigned src, unsigned dst,
             const char *type, Addr addr, bool is_sync)
{
    if (recorder_) {
        FlightEvent e;
        e.kind = FlightKind::msg;
        e.t = sent;
        e.t2 = deliver;
        e.proc = static_cast<ProcId>(src);
        e.addr = addr;
        e.label = type;
        e.a = dst;
        recorder_->record(e);
    }
    if (!trace_enabled_)
        return;
    Json r = Json::object();
    r.set("t", sent);
    r.set("ev", "msg");
    r.set("type", type);
    r.set("src", std::uint64_t{src});
    r.set("dst", std::uint64_t{dst});
    if (addr != invalid_addr)
        r.set("addr", std::uint64_t{addr});
    r.set("deliver", deliver);
    if (is_sync)
        r.set("sync", true);
    raw(std::move(r));

    Json ev = completeEvent(strprintf("%s %u>%u", type, src, dst),
                            2u * nprocs_, sent, deliver);
    Json args = Json::object();
    args.set("addr", std::uint64_t{addr});
    args.set("sync", is_sync);
    ev.set("args", std::move(args));
    chrome(std::move(ev));
}

void
Obs::opIssue(ProcId p, std::uint64_t req, const char *kind, Addr addr,
             Pc pc, Tick reached, Tick issued)
{
    wo_assert(p < nprocs_, "operation of unknown cpu %u", p);
    LiveOp &op = live_[p].emplace_back();
    op.req = req;
    op.kind = kind;
    op.addr = addr;
    op.pc = pc;
    op.reached = reached;
    op.issued = issued;
    if (recorder_) {
        FlightEvent e;
        e.kind = FlightKind::issue;
        e.t = issued;
        e.proc = p;
        e.addr = addr;
        e.req = req;
        e.label = kind; // accessKindName: static storage
        recorder_->record(e);
    }
    if (!trace_enabled_)
        return;
    Json r = Json::object();
    r.set("t", issued);
    r.set("ev", "issue");
    r.set("cpu", std::uint64_t{p});
    r.set("req", req);
    r.set("kind", kind);
    r.set("addr", std::uint64_t{addr});
    r.set("pc", std::uint64_t{pc});
    r.set("reached", reached);
    raw(std::move(r));
}

void
Obs::opCommit(ProcId p, std::uint64_t req, Tick now)
{
    if (LiveOp *op = findLive(p, req)) {
        op->committed = now;
        op->has_committed = true;
    }
    if (recorder_) {
        FlightEvent e;
        e.kind = FlightKind::commit;
        e.t = now;
        e.proc = p;
        e.req = req;
        recorder_->record(e);
    }
    if (!trace_enabled_)
        return;
    Json r = Json::object();
    r.set("t", now);
    r.set("ev", "commit");
    r.set("cpu", std::uint64_t{p});
    r.set("req", req);
    raw(std::move(r));
}

void
Obs::opPerform(ProcId p, std::uint64_t req, Tick now)
{
    if (LiveOp *live = findLive(p, req)) {
        if (trace_enabled_) {
            const LiveOp &op = *live;
            Json ev = completeEvent(strprintf("%s a%u", op.kind, op.addr),
                                    2u * p, op.issued, now);
            Json args = Json::object();
            args.set("req", req);
            args.set("pc", std::uint64_t{op.pc});
            args.set("addr", std::uint64_t{op.addr});
            args.set("reached", op.reached);
            args.set("issued", op.issued);
            if (op.has_committed)
                args.set("committed", op.committed);
            args.set("performed", now);
            ev.set("args", std::move(args));
            chrome(std::move(ev));
        }
        // Unordered: the last entry fills the hole.
        *live = live_[p].back();
        live_[p].pop_back();
    }
    if (recorder_) {
        FlightEvent e;
        e.kind = FlightKind::perform;
        e.t = now;
        e.proc = p;
        e.req = req;
        recorder_->record(e);
    }
    if (!trace_enabled_)
        return;
    Json r = Json::object();
    r.set("t", now);
    r.set("ev", "perform");
    r.set("cpu", std::uint64_t{p});
    r.set("req", req);
    raw(std::move(r));
}

void
Obs::opRetire(ProcId p, std::uint64_t req, Tick now, Addr addr,
              AccessKind kind, Value value_read, Value value_written,
              Tick commit_tick)
{
    if (recorder_) {
        FlightEvent e;
        e.kind = FlightKind::retire;
        e.t = now;
        e.proc = p;
        e.addr = addr;
        e.req = req;
        e.label = accessKindName(kind);
        recorder_->record(e);
    }
    if (monitor_) {
        monitor_->opRetired(p, addr, kind, value_read, value_written,
                            commit_tick, now);
        mirrorViolations(now);
    }
    if (!trace_enabled_)
        return;
    Json r = Json::object();
    r.set("t", now);
    r.set("ev", "retire");
    r.set("cpu", std::uint64_t{p});
    r.set("req", req);
    r.set("addr", std::uint64_t{addr});
    raw(std::move(r));
}

void
Obs::counterChanged(ProcId p, int value, Tick now)
{
    if (recorder_) {
        FlightEvent e;
        e.kind = FlightKind::counter;
        e.t = now;
        e.proc = p;
        e.a = value;
        recorder_->record(e);
    }
    if (monitor_) {
        monitor_->counterChanged(p, value, now);
        mirrorViolations(now);
    }
}

void
Obs::reserveSet(ProcId p, Addr addr, Tick now)
{
    if (recorder_) {
        FlightEvent e;
        e.kind = FlightKind::reserve;
        e.t = now;
        e.proc = p;
        e.addr = addr;
        e.label = "set";
        e.a = 1;
        recorder_->record(e);
    }
    if (monitor_) {
        monitor_->reserveSet(p, addr, now);
        mirrorViolations(now);
    }
}

void
Obs::reserveCleared(ProcId p, Tick now)
{
    if (recorder_) {
        FlightEvent e;
        e.kind = FlightKind::reserve;
        e.t = now;
        e.proc = p;
        e.label = "clear";
        e.a = 0;
        recorder_->record(e);
    }
    if (monitor_) {
        monitor_->reserveCleared(p, now);
        mirrorViolations(now);
    }
}

void
Obs::reqMiss(ProcId p, std::uint64_t req)
{
    if (LiveOp *op = findLive(p, req))
        op->missed = true;
}

void
Obs::reqNack(ProcId p, std::uint64_t req)
{
    if (LiveOp *op = findLive(p, req))
        op->nacked = true;
}

void
Obs::reserveHold(ProcId requester, Addr addr)
{
    wo_assert(requester < nprocs_, "reserve hold for unknown cpu %u",
              requester);
    std::vector<Addr> &held = reserve_held_[requester];
    if (std::find(held.begin(), held.end(), addr) == held.end())
        held.push_back(addr);
}

StallBucket
Obs::classify(ProcId p, std::uint64_t req, Addr addr, StallPhase phase)
{
    switch (phase) {
      case StallPhase::issue_counter:
        return StallBucket::counter_drain;
      case StallPhase::issue_mlp:
        return StallBucket::mlp_limit;
      case StallPhase::perform_wait:
        return StallBucket::network;
      case StallPhase::commit_wait:
        break;
    }
    const LiveOp *f = findLive(p, req);
    std::vector<Addr> &held_lines = reserve_held_[p];
    auto h = std::find(held_lines.begin(), held_lines.end(), addr);
    const bool held = h != held_lines.end();
    if (held) {
        *h = held_lines.back();
        held_lines.pop_back();
    }
    if ((f && f->nacked) || held)
        return StallBucket::reserve_wait;
    if (f && f->missed)
        return StallBucket::cache_miss;
    return StallBucket::hit_latency;
}

void
Obs::stall(ProcId p, std::uint64_t req, Addr addr, StallPhase phase,
           OpSide side, Tick from, Tick to)
{
    if (to <= from)
        return;
    wo_assert(p < nprocs_, "stall for unknown cpu %u", p);
    const StallBucket bucket = classify(p, req, addr, phase);
    const Tick cycles = to - from;
    StallStats &st = stall_[p];
    st.bucket[static_cast<int>(bucket)]->inc(cycles);
    st.total->inc(cycles);
    st.side[static_cast<int>(side)]->inc(cycles);

    if (recorder_) {
        FlightEvent e;
        e.kind = FlightKind::stall;
        e.t = from;
        e.t2 = to;
        e.proc = p;
        e.addr = addr;
        e.req = req;
        e.label = stallBucketName(bucket);
        recorder_->record(e);
    }

    if (!trace_enabled_)
        return;
    Json r = Json::object();
    r.set("t", from);
    r.set("ev", "stall");
    r.set("cpu", std::uint64_t{p});
    r.set("req", req);
    r.set("bucket", stallBucketName(bucket));
    r.set("side", opSideName(side));
    r.set("cycles", cycles);
    raw(std::move(r));

    Json ev = completeEvent(
        strprintf("stall:%s", stallBucketName(bucket)), 2u * p + 1, from,
        to);
    Json args = Json::object();
    args.set("side", opSideName(side));
    args.set("req", req);
    ev.set("args", std::move(args));
    chrome(std::move(ev));
}

const StatGroup &
Obs::stallStats(ProcId p) const
{
    wo_assert(p < nprocs_, "no stall stats for cpu %u", p);
    return stall_[p].group;
}

std::vector<const StatGroup *>
Obs::stallGroups() const
{
    std::vector<const StatGroup *> out;
    out.reserve(nprocs_);
    for (ProcId p = 0; p < nprocs_; ++p)
        out.push_back(&stall_[p].group);
    return out;
}

std::string
Obs::chromeTraceJson() const
{
    Json root = Json::object();
    Json events = Json::array();

    // Named lanes so Perfetto shows "cpu0", "cpu0 stalls", "network",
    // "event kernel" instead of bare tids.
    auto thread_name = [](std::uint64_t tid, const std::string &name) {
        Json ev = Json::object();
        ev.set("name", "thread_name");
        ev.set("ph", "M");
        ev.set("pid", std::uint64_t{0});
        ev.set("tid", tid);
        Json args = Json::object();
        args.set("name", name);
        ev.set("args", std::move(args));
        return ev;
    };
    for (ProcId p = 0; p < nprocs_; ++p) {
        events.push(thread_name(2u * p, strprintf("cpu%u ops", p)));
        events.push(thread_name(2u * p + 1, strprintf("cpu%u stalls", p)));
    }
    events.push(thread_name(2u * nprocs_, "network"));
    if (trace_queue_events_)
        events.push(thread_name(2u * nprocs_ + 1, "event kernel"));

    for (const Json &ev : chrome_events_)
        events.push(ev);
    if (sampler_)
        sampler_->appendCounterEvents(events);
    root.set("traceEvents", std::move(events));
    root.set("displayTimeUnit", "ns");
    Json other = Json::object();
    other.set("source", "wotool");
    other.set("unfinished_ops", unfinishedOps());
    root.set("otherData", std::move(other));
    return root.dump(1);
}

std::string
Obs::traceJsonl() const
{
    std::string out;
    for (const std::string &line : jsonl_) {
        out += line;
        out += '\n';
    }
    return out;
}

} // namespace wo
