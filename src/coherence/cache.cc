#include "cache.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/obs.hh"

namespace wo {

Cache::Cache(NodeId id, NodeId dir, ProcId procs, EventQueue &eq,
             Network &net, CacheClient *client, Addr n_locs,
             const CacheCfg &cfg)
    : id_(id), eq_(eq), net_(net), client_(client),
      stats_(strprintf("cache%u", id))
{
    (void)procs;
    reset(dir, n_locs, cfg);
}

void
Cache::reset(NodeId dir, Addr n_locs, const CacheCfg &cfg)
{
    dir_ = dir;
    cfg_ = cfg;
    lines_.assign(n_locs, Line{});
    if (mshrs_.size() < n_locs)
        mshrs_.resize(n_locs);
    for (Mshr &m : mshrs_) {
        m.live = false;
        m.queued_reqs.clear();
        m.queued_fwds.clear();
    }
    live_mshrs_ = 0;
    mem_ack_wait_.assign(n_locs, no_mem_ack);
    reserved_.clear();
    counter_ = 0;
    misses_in_flight_ = 0;
    reserved_window_misses_ = 0;
    deferred_.clear();
    stalled_.clear();
    stats_.clear();
}

bool
Cache::isReserved(Addr addr) const
{
    return std::find(reserved_.begin(), reserved_.end(), addr) !=
           reserved_.end();
}

Value
Cache::lineValue(Addr addr) const
{
    wo_assert(addr < lines_.size(), "addr %u out of range", addr);
    wo_assert(lines_[addr].st != LineState::invalid,
              "reading invalid line %u", addr);
    return lines_[addr].value;
}

bool
Cache::holdsModified(Addr addr) const
{
    wo_assert(addr < lines_.size(), "addr %u out of range", addr);
    return lines_[addr].st == LineState::modified;
}

void
Cache::warmShared(Addr addr, Value v)
{
    wo_assert(addr < lines_.size(), "addr %u out of range", addr);
    wo_assert(lines_[addr].st == LineState::invalid && live_mshrs_ == 0,
              "warming a live cache");
    lines_[addr] = Line{LineState::shared, v};
}

void
Cache::access(const CacheReq &req)
{
    Mshr &m = mshrs_[req.addr];
    if (m.live) {
        // A transaction for this address is in flight: keep same-address
        // program order by queueing behind it.
        m.queued_reqs.push_back(req);
        return;
    }
    // Once the bounded-miss throttle has deferred anything, every later
    // request defers behind it -- including hits and synchronization
    // operations.  Otherwise a synchronization HIT could commit while
    // po-earlier writes sit invisible in the deferral queue (counter
    // zero, no reserve bit), breaking condition 5.  Found by the
    // randomized soak; see tests/soak_test.cc.
    if (!deferred_.empty()) {
        deferred_.push_back(req);
        return;
    }
    start(req);
}

void
Cache::start(const CacheReq &req)
{
    Line &line = lines_[req.addr];
    const bool as_write =
        req.write || (req.is_sync && !cfg_.sync_reads_as_reads);

    if (!as_write) {
        if (line.st != LineState::invalid) {
            read_hits_.inc();
            commit(req, cfg_.hit_latency, /*performed_now=*/true);
        } else {
            sendMiss(req, /*exclusive=*/false);
        }
        return;
    }
    if (line.st == LineState::modified ||
        line.st == LineState::exclusive_clean) {
        // MESI silent upgrade: an exclusive-clean line becomes modified
        // with no protocol traffic.
        if (line.st == LineState::exclusive_clean)
            silent_upgrades_.inc();
        line.st = LineState::modified;
        write_hits_.inc();
        commit(req, cfg_.hit_latency, /*performed_now=*/true);
        return;
    }
    sendMiss(req, /*exclusive=*/true);
}

void
Cache::commit(const CacheReq &req, Tick delay, bool performed_now)
{
    Line &line = lines_[req.addr];
    const Value read_value = line.value;
    if (req.write) {
        wo_assert(line.st == LineState::modified,
                  "write commit on non-modified line %u", req.addr);
        line.value = req.wvalue;
    }
    // Section 5.3: at a synchronization commit with outstanding accesses,
    // reserve the line.  (Sync reads on the read path -- the Section-6
    // refinement -- never reserve.)
    const bool write_path =
        req.write || (req.is_sync && !cfg_.sync_reads_as_reads);
    if (req.is_sync && write_path && counter_ > 0) {
        if (!isReserved(req.addr))
            reserved_.push_back(req.addr);
        reservations_.inc();
        if (Obs *obs = eq_.obs())
            obs->reserveSet(id_, req.addr, eq_.now());
    }
    CacheClient *client = client_;
    const std::uint64_t rid = req.id;
    eq_.schedule(delay,
                 [this, rid] {
                     return strprintf("c%u.commit#%llu", id_,
                                      static_cast<unsigned long long>(rid));
                 },
                 [client, rid, read_value] {
                     client->onCommit(rid, read_value);
                 });
    if (performed_now) {
        eq_.schedule(delay,
                     [this, rid] {
                         return strprintf(
                             "c%u.perf#%llu", id_,
                             static_cast<unsigned long long>(rid));
                     },
                     [client, rid] { client->onGloballyPerformed(rid); });
    }
}

void
Cache::sendMiss(const CacheReq &req, bool exclusive)
{
    // Bounded-miss throttle while reserved (the paper's refinement).
    if (cfg_.reserved_miss_limit >= 0 && !reserved_.empty() &&
        reserved_window_misses_ >= cfg_.reserved_miss_limit) {
        deferred_.push_back(req);
        throttled_misses_.inc();
        return;
    }
    if (!reserved_.empty())
        ++reserved_window_misses_;
    Mshr &m = mshrs_[req.addr];
    wo_assert(!m.live, "second MSHR for line %u at cache %u", req.addr,
              id_);
    m.live = true;
    m.req = req;
    m.want_exclusive = exclusive;
    m.issued = eq_.now();
    ++live_mshrs_;
    ++counter_;
    ++misses_in_flight_;
    (exclusive ? write_misses_ : read_misses_).inc();
    if (Obs *obs = eq_.obs()) {
        obs->reqMiss(id_, req.id);
        obs->counterChanged(id_, counter_, eq_.now());
    }

    Message msg;
    msg.type = exclusive ? MsgType::get_x : MsgType::get_s;
    msg.src = id_;
    msg.dst = dir_;
    msg.addr = req.addr;
    msg.requester = id_;
    msg.is_sync = req.is_sync;
    net_.send(msg);
}

void
Cache::decrementCounter()
{
    wo_assert(counter_ > 0, "counter underflow at cache %u", id_);
    if (--counter_ == 0) {
        // "All reserve bits are reset when the counter reads zero."  The
        // clear (and its hook) precedes the counter hook so the monitor
        // sees the invariant already restored when zero becomes
        // observable -- unless the seeded fault drops the clear.
        if (!reserved_.empty()) {
            if (cfg_.bug_drop_reserve_clear) {
                dropped_reserve_clears_.inc();
            } else {
                reserved_.clear();
                reserve_clears_.inc();
                if (Obs *obs = eq_.obs())
                    obs->reserveCleared(id_, eq_.now());
            }
        }
        if (Obs *obs = eq_.obs())
            obs->counterChanged(id_, counter_, eq_.now());
        reserved_window_misses_ = 0;
        // Queue-mode stalled requests are serviced now.
        stalled_scratch_.swap(stalled_);
        for (const Message &m : stalled_scratch_)
            serveForward(m);
        stalled_scratch_.clear();
    } else if (Obs *obs = eq_.obs()) {
        obs->counterChanged(id_, counter_, eq_.now());
    }
    drainDeferred();
}

void
Cache::drainDeferred()
{
    while (!deferred_.empty()) {
        const bool throttled =
            cfg_.reserved_miss_limit >= 0 && !reserved_.empty() &&
            reserved_window_misses_ >= cfg_.reserved_miss_limit;
        if (throttled)
            return;
        CacheReq req = deferred_.front();
        deferred_.pop_front();
        // Re-enter through access() so MSHR queueing stays correct.
        Mshr &m = mshrs_[req.addr];
        if (m.live)
            m.queued_reqs.push_back(req);
        else
            start(req);
    }
}

bool
Cache::mustStall(const Message &msg) const
{
    // A reserved line is never given away; see the file comment.  Only
    // synchronization requests are expected here in DRF0 programs, but the
    // conservative rule also protects against racy data traffic.
    return isReserved(msg.addr);
}

void
Cache::serveForward(const Message &msg)
{
    Mshr &m = mshrs_[msg.addr];
    if (m.live) {
        // Our own data has not arrived yet (cross-channel race); serve the
        // forward once it does.
        m.queued_fwds.push_back(msg);
        return;
    }
    if (mustStall(msg)) {
        reserve_stalls_.inc();
        // The requester's pending miss is now reserve-blocked; let the
        // profiler attribute that processor's wait to the reserve bit.
        if (Obs *obs = eq_.obs())
            obs->reserveHold(msg.requester, msg.addr);
        if (cfg_.stall_mode == ReserveStallMode::queue) {
            stalled_.push_back(msg);
        } else {
            Message n;
            n.type = MsgType::nack;
            n.src = id_;
            n.dst = dir_;
            n.addr = msg.addr;
            n.requester = msg.requester;
            net_.send(n);
        }
        return;
    }
    Line &line = lines_[msg.addr];
    wo_assert(line.st == LineState::modified ||
                  line.st == LineState::exclusive_clean,
              "forward for line %u not exclusive at cache %u (state %d)",
              msg.addr, id_, static_cast<int>(line.st));
    if (msg.type == MsgType::fwd_get_s) {
        line.st = LineState::shared;
        Message wb;
        wb.type = MsgType::wb_data;
        wb.src = id_;
        wb.dst = dir_;
        wb.addr = msg.addr;
        wb.value = line.value;
        wb.requester = msg.requester;
        net_.send(wb);
    } else {
        wo_assert(msg.type == MsgType::fwd_get_x, "unexpected forward %s",
                  msg.toString().c_str());
        const Value v = line.value;
        line.st = LineState::invalid;
        Message data;
        data.type = MsgType::data_x;
        data.src = id_;
        data.dst = msg.requester;
        data.addr = msg.addr;
        data.value = v;
        data.ack_count = 0;
        data.from_exclusive = true;
        net_.send(data);
        Message ta;
        ta.type = MsgType::transfer_ack;
        ta.src = id_;
        ta.dst = dir_;
        ta.addr = msg.addr;
        ta.requester = msg.requester;
        net_.send(ta);
    }
}

void
Cache::handleData(const Message &msg)
{
    Mshr &m = mshrs_[msg.addr];
    wo_assert(m.live, "data for %u with no MSHR at cache %u", msg.addr,
              id_);
    // Retire the MSHR before anything below can open a new one for the
    // same line; its queues move to the drain buffers.
    m.live = false;
    --live_mshrs_;
    const CacheReq req = m.req;
    queued_scratch_.swap(m.queued_reqs);
    fwds_scratch_.swap(m.queued_fwds);
    --misses_in_flight_;
    (m.want_exclusive ? write_miss_latency_ : read_miss_latency_)
        .sample(eq_.now() - m.issued);

    Line &line = lines_[msg.addr];
    line.value = msg.value;
    bool performed_now;
    if (msg.type == MsgType::data_s || msg.type == MsgType::data_e) {
        line.st = msg.type == MsgType::data_e
                      ? LineState::exclusive_clean
                      : LineState::shared;
        performed_now = true; // a read is performed when its value binds
        decrementCounter();
    } else {
        line.st = LineState::modified;
        if (msg.from_exclusive || msg.ack_count == 0) {
            performed_now = true;
            decrementCounter();
        } else {
            performed_now = false;
            wo_assert(mem_ack_wait_[msg.addr] == no_mem_ack,
                      "two pending MemAcks for line %u", msg.addr);
            mem_ack_wait_[msg.addr] = req.id;
        }
    }
    commit(req, 0, performed_now);

    // Same-address requests queued behind the miss run now, as hits (or a
    // fresh upgrade miss if we only obtained a shared copy).
    for (const CacheReq &r : queued_scratch_)
        access(r);
    queued_scratch_.clear();

    // Forwards that raced ahead of our data are served last.
    for (const Message &f : fwds_scratch_)
        serveForward(f);
    fwds_scratch_.clear();
}

void
Cache::handleMemAck(const Message &msg)
{
    const std::uint64_t rid = mem_ack_wait_[msg.addr];
    wo_assert(rid != no_mem_ack,
              "unexpected MemAck for line %u at cache %u", msg.addr, id_);
    mem_ack_wait_[msg.addr] = no_mem_ack;
    decrementCounter();
    CacheClient *client = client_;
    eq_.schedule(0,
                 [this, rid] {
                     return strprintf("c%u.memack#%llu", id_,
                                      static_cast<unsigned long long>(rid));
                 },
                 [client, rid] { client->onGloballyPerformed(rid); });
}

void
Cache::handleInv(const Message &msg)
{
    Line &line = lines_[msg.addr];
    wo_assert(line.st != LineState::modified &&
                  line.st != LineState::exclusive_clean,
              "invalidation for exclusive line %u at cache %u", msg.addr,
              id_);
    line.st = LineState::invalid;
    invalidations_.inc();
    Message ack;
    ack.type = MsgType::inv_ack;
    ack.src = id_;
    ack.dst = dir_;
    ack.addr = msg.addr;
    ack.requester = msg.requester;
    net_.send(ack);
}

void
Cache::handleNack(const Message &msg)
{
    Mshr &m = mshrs_[msg.addr];
    wo_assert(m.live, "nack for %u with no MSHR at cache %u", msg.addr,
              id_);
    nacks_.inc();
    if (Obs *obs = eq_.obs())
        obs->reqNack(id_, m.req.id);
    // The miss failed for now: it no longer counts as outstanding, which
    // lets this processor's own reserve bits clear (avoiding the crossed
    // release/acquire deadlock); retry after a backoff.
    decrementCounter();
    --misses_in_flight_;
    const Addr addr = msg.addr;
    const bool exclusive = m.want_exclusive;
    const bool is_sync = m.req.is_sync;
    eq_.schedule(cfg_.retry_delay,
                 [this, addr] {
                     return strprintf("c%u.retry[%u]", id_, addr);
                 },
                 [this, addr, exclusive, is_sync] {
                     // The MSHR is still allocated; re-send the request.
                     wo_assert(mshrs_[addr].live,
                               "retry without MSHR for %u", addr);
                     ++counter_;
                     ++misses_in_flight_;
                     if (Obs *obs = eq_.obs())
                         obs->counterChanged(id_, counter_, eq_.now());
                     Message r;
                     r.type = exclusive ? MsgType::get_x : MsgType::get_s;
                     r.src = id_;
                     r.dst = dir_;
                     r.addr = addr;
                     r.requester = id_;
                     r.is_sync = is_sync;
                     net_.send(r);
                 });
}

void
Cache::receive(const Message &msg)
{
    switch (msg.type) {
      case MsgType::data_s:
      case MsgType::data_e:
      case MsgType::data_x:
        handleData(msg);
        break;
      case MsgType::mem_ack:
        handleMemAck(msg);
        break;
      case MsgType::inv:
        handleInv(msg);
        break;
      case MsgType::fwd_get_s:
      case MsgType::fwd_get_x:
        serveForward(msg);
        break;
      case MsgType::nack:
        handleNack(msg);
        break;
      default:
        wo_panic("cache %u cannot handle %s", id_, msg.toString().c_str());
    }
}

} // namespace wo
