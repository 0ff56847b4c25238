#include "obs/monitor.hh"

#include <algorithm>

#include "common/logging.hh"
#include "hb/dot.hh"

namespace wo {

const char *violationKindName(ViolationKind k)
{
    switch (k) {
    case ViolationKind::drf0_race: return "drf0_race";
    case ViolationKind::stale_read: return "stale_read";
    case ViolationKind::coherence_order: return "coherence_order";
    case ViolationKind::counter_negative: return "counter_negative";
    case ViolationKind::counter_undrained: return "counter_undrained";
    case ViolationKind::reserve_leak: return "reserve_leak";
    case ViolationKind::unperformed_op: return "unperformed_op";
    case ViolationKind::dpor_divergence: return "dpor_divergence";
    case ViolationKind::axiom_divergence: return "axiom_divergence";
    case ViolationKind::def2_subset: return "def2_subset";
    }
    return "?";
}

bool
violationKindFromName(const std::string &name, ViolationKind &out)
{
    for (int k = 0; k < num_violation_kinds; ++k)
        if (name == violationKindName(static_cast<ViolationKind>(k))) {
            out = static_cast<ViolationKind>(k);
            return true;
        }
    return false;
}

bool violationBlamesHardware(ViolationKind k)
{
    return k != ViolationKind::drf0_race;
}

std::string MonitorViolation::toString() const
{
    return strprintf("[%s] tick %llu: %s", violationKindName(kind),
                     static_cast<unsigned long long>(tick), detail.c_str());
}

Monitor::Monitor(ProcId nprocs, Addr nlocs, std::vector<Value> initial,
                 const MonitorCfg &cfg)
    : exec_(nprocs, nlocs, std::move(initial))
{
    reset(nprocs, nlocs, exec_.initialMemory(), cfg);
}

void Monitor::reset(ProcId nprocs, Addr nlocs,
                    const std::vector<Value> &initial,
                    const MonitorCfg &cfg)
{
    nprocs_ = nprocs;
    nlocs_ = nlocs;
    cfg_ = cfg;
    exec_.reset(nprocs, nlocs, initial);
    if (proc_clock_.size() < nprocs)
        proc_clock_.resize(nprocs);
    for (ProcId p = 0; p < nprocs; ++p)
        proc_clock_[p].reset(nprocs);
    if (locs_.size() < nlocs)
        locs_.resize(nlocs);
    for (Addr a = 0; a < nlocs; ++a) {
        LocState &l = locs_[a];
        l.lastw.assign(nprocs, LastOp{});
        l.lastr.assign(nprocs, LastOp{});
        l.frontier_size = 0;
        l.written_values.clear();
        l.chan.reset(nprocs);
        l.last_write_commit = 0;
        l.raced = false;
        l.pending_stale.clear();
    }
    counter_.assign(nprocs, 0);
    reserve_bits_.assign(nprocs, 0);
    violations_.clear();
    total_ = 0;
    hardware_ = 0;
    races_ = 0;
    std::fill(std::begin(by_kind_), std::end(by_kind_), 0);
    first_tick_ = max_tick;
    finalized_ = false;
}

Monitor::LocState &Monitor::loc(Addr a)
{
    wo_assert(a < nlocs_, "monitor: location %u out of range", a);
    return locs_[a];
}

void Monitor::raise(MonitorViolation v)
{
    ++total_;
    ++by_kind_[static_cast<int>(v.kind)];
    if (violationBlamesHardware(v.kind))
        ++hardware_;
    else
        ++races_;
    first_tick_ = std::min(first_tick_, v.tick);
    if (violations_.size() < cfg_.max_recorded)
        violations_.push_back(std::move(v));
}

void Monitor::opRetired(ProcId p, Addr addr, AccessKind kind,
                        Value value_read, Value value_written,
                        Tick commit_tick, Tick now)
{
    const OpId id =
        exec_.append(p, addr, kind, value_read, value_written, commit_tick);
    const MemoryOp &op = exec_.op(id);

    LocState &l = loc(addr);

    // The HbRelation construction, one op at a time: tick the issuer's
    // clock, then receive/publish through the location's sync channel.
    // Nothing below reads the issuer's previous clock, so it advances
    // in place.
    VectorClock &vc = proc_clock_[p];
    vc[p] += 1;
    if (op.isSync()) {
        vc.join(l.chan);
        if (cfg_.flavor == HbRelation::SyncFlavor::drf0 ||
            kind != AccessKind::sync_read)
            l.chan.join(vc);
    }

    // Race check first: a conflicting earlier op a races with this op
    // iff a is not hb-before it, i.e. a's own clock component exceeds
    // vc[a.proc].  Per processor the latest read/write suffices -- any
    // older unordered op implies the latest one is unordered too.
    // Under weak_sync_read, sync-sync pairs are the synchronization
    // mechanism itself and are exempt (RaceDetectorCfg::ignore_sync_pairs).
    const bool ignore_sync_pairs =
        cfg_.flavor == HbRelation::SyncFlavor::weak_sync_read;
    auto checkRace = [&](const LastOp &prev) {
        if (prev.id == invalid_op || prev.tick <= vc[exec_.op(prev.id).proc])
            return;
        const MemoryOp &a = exec_.op(prev.id);
        if (ignore_sync_pairs && a.isSync() && op.isSync())
            return;
        MonitorViolation v;
        v.kind = ViolationKind::drf0_race;
        v.tick = now;
        v.proc = p;
        v.addr = addr;
        v.op_a = a.id;
        v.op_b = id;
        if (recording())
            v.detail = a.toString() + " races with " + op.toString();
        l.raced = true;
        // The contract is void here: any stale-read suspicion held
        // against this location was (or may have been) the race's own
        // in-flight value, not the hardware's fault.
        l.pending_stale.clear();
        raise(std::move(v));
    };
    for (ProcId q = 0; q < nprocs_; ++q) {
        if (q == p)
            continue;
        checkRace(l.lastw[q]); // write vs read or write: always a conflict
        if (op.isWrite())
            checkRace(l.lastr[q]);
    }

    // SC-appearance value check (Lemma 1 clause 1): in a race-free
    // history every read returns its unique hb-last write.  A raced
    // location voids the contract, and the race was raised above at
    // this same op, so suppression here never hides a hardware fault.
    if (op.isRead() && !l.raced) {
        const WriteRec *best = nullptr;
        bool ambiguous = false;
        for (std::size_t i = 0; i < l.frontier_size; ++i) {
            const WriteRec &w = l.frontier[i];
            if (w.clock[w.proc] > vc[w.proc])
                continue; // not hb-before this read
            if (best)
                ambiguous = true; // frontier writes are mutually concurrent
            best = &w;
        }
        const Value expected = best ? best->value : exec_.initialValue(addr);
        if (!ambiguous && value_read != expected) {
            MonitorViolation v;
            v.kind = ViolationKind::stale_read;
            v.tick = now;
            v.proc = p;
            v.addr = addr;
            v.op_a = best ? best->id : invalid_op;
            v.op_b = id;
            v.expected = expected;
            v.got = value_read;
            // A value no retired write ever produced may belong to an
            // *in-flight* write racing with this read (the write's
            // retire hook simply has not fired yet) -- blaming the
            // hardware now would be unsound.  Defer: a later race on
            // the location drops the suspicion, finalize() of a
            // completed race-free run confirms it.  A value the
            // location's history does know is the classic stale read
            // and is raised at the violating cycle.
            const bool known_value =
                value_read == exec_.initialValue(addr) ||
                std::binary_search(l.written_values.begin(),
                                   l.written_values.end(), value_read);
            // A deferred suspicion keeps its text: whether it gets
            // recorded is known only once finalize() confirms it.
            if (known_value ? recording() : cfg_.witness_text)
                v.detail = strprintf(
                    "%s returned %lld, hb-last write %s expected %lld",
                    op.toString().c_str(),
                    static_cast<long long>(value_read),
                    best ? exec_.op(best->id).toString().c_str()
                         : "(initial)",
                    static_cast<long long>(expected));
            if (known_value)
                raise(std::move(v));
            else
                l.pending_stale.push_back(std::move(v));
        }
    }

    // Per-location coherence: writes must retire in commit-tick order.
    if (op.isWrite()) {
        if (!l.raced && commit_tick < l.last_write_commit) {
            MonitorViolation v;
            v.kind = ViolationKind::coherence_order;
            v.tick = now;
            v.proc = p;
            v.addr = addr;
            v.op_b = id;
            if (recording())
                v.detail = strprintf("%s committed @%llu retired after a "
                                     "write committed @%llu",
                                     op.toString().c_str(),
                                     static_cast<unsigned long long>(
                                         commit_tick),
                                     static_cast<unsigned long long>(
                                         l.last_write_commit));
            raise(std::move(v));
        }
        l.last_write_commit = std::max(l.last_write_commit, commit_tick);
    }

    // Fold the op into the incremental state.
    if (op.isRead())
        l.lastr[p] = {vc[p], id};
    if (op.isWrite()) {
        auto wv = std::lower_bound(l.written_values.begin(),
                                   l.written_values.end(), value_written);
        if (wv == l.written_values.end() || *wv != value_written)
            l.written_values.insert(wv, value_written);
        l.lastw[p] = {vc[p], id};
        // Drop the writes the new one dominates, keeping the survivors
        // in order; the dropped records move past frontier_size with
        // their clock storage, and the new write reuses the first.
        std::size_t keep = 0;
        for (std::size_t i = 0; i < l.frontier_size; ++i) {
            if (l.frontier[i].clock.leq(vc))
                continue;
            if (i != keep)
                std::swap(l.frontier[i], l.frontier[keep]);
            ++keep;
        }
        if (keep == l.frontier.size())
            l.frontier.emplace_back();
        WriteRec &w = l.frontier[keep];
        w.id = id;
        w.proc = p;
        w.value = value_written;
        w.clock = vc;
        l.frontier_size = keep + 1;
    }
}

void Monitor::counterChanged(ProcId p, int value, Tick now)
{
    wo_assert(p < nprocs_, "monitor: processor %u out of range", p);
    counter_[p] = value;
    if (value < 0) {
        MonitorViolation v;
        v.kind = ViolationKind::counter_negative;
        v.tick = now;
        v.proc = p;
        if (recording())
            v.detail = strprintf("P%u outstanding-access counter fell to %d",
                                 p, value);
        raise(std::move(v));
    }
    // "All reserve bits are reset when the counter reads zero" (S5.3):
    // the clear must already have happened when zero becomes observable.
    if (value == 0 && reserve_bits_[p] > 0) {
        MonitorViolation v;
        v.kind = ViolationKind::reserve_leak;
        v.tick = now;
        v.proc = p;
        if (recording())
            v.detail = strprintf(
                "P%u counter reads zero with %u reserve bit(s) still set",
                p, reserve_bits_[p]);
        raise(std::move(v));
    }
}

void Monitor::reserveSet(ProcId p, Addr addr, Tick now)
{
    wo_assert(p < nprocs_, "monitor: processor %u out of range", p);
    ++reserve_bits_[p];
    if (counter_[p] <= 0) {
        MonitorViolation v;
        v.kind = ViolationKind::reserve_leak;
        v.tick = now;
        v.proc = p;
        v.addr = addr;
        if (recording())
            v.detail = strprintf(
                "P%u set a reserve bit on location %u with counter at %d",
                p, addr, counter_[p]);
        raise(std::move(v));
    }
}

void Monitor::reserveCleared(ProcId p, Tick /*now*/)
{
    wo_assert(p < nprocs_, "monitor: processor %u out of range", p);
    reserve_bits_[p] = 0;
}

void Monitor::finalize(Tick now, bool completed,
                       std::uint64_t unperformed_ops)
{
    if (finalized_)
        return;
    finalized_ = true;
    if (!completed)
        return; // deadlock/livelock is reported by the system itself;
                // pending stale reads die with it (the write that
                // produced the unknown value may be stuck in flight)
    // A completed run has retired every write, so a still-unexplained
    // read value on a race-free location really came from nowhere (or
    // from an hb-ordered future write): confirm the deferred verdicts.
    for (Addr a = 0; a < nlocs_; ++a) {
        LocState &l = locs_[a];
        if (!l.raced)
            for (MonitorViolation &v : l.pending_stale)
                raise(std::move(v));
        l.pending_stale.clear();
    }
    for (ProcId p = 0; p < nprocs_; ++p) {
        if (counter_[p] != 0) {
            MonitorViolation v;
            v.kind = ViolationKind::counter_undrained;
            v.tick = now;
            v.proc = p;
            if (recording())
                v.detail = strprintf(
                    "P%u counter reads %d after the run completed", p,
                    counter_[p]);
            raise(std::move(v));
        }
        if (reserve_bits_[p] > 0) {
            MonitorViolation v;
            v.kind = ViolationKind::reserve_leak;
            v.tick = now;
            v.proc = p;
            if (recording())
                v.detail = strprintf("P%u holds %u reserve bit(s) after "
                                     "the run completed",
                                     p, reserve_bits_[p]);
            raise(std::move(v));
        }
    }
    if (unperformed_ops > 0) {
        MonitorViolation v;
        v.kind = ViolationKind::unperformed_op;
        v.tick = now;
        if (recording())
            v.detail = strprintf("%llu operation(s) never globally "
                                 "performed in a completed run",
                                 static_cast<unsigned long long>(
                                     unperformed_ops));
        raise(std::move(v));
    }
}

std::string Monitor::report() const
{
    std::string out = strprintf(
        "monitor: %llu violation(s) -- %llu hardware, %llu race(s)\n",
        static_cast<unsigned long long>(total_),
        static_cast<unsigned long long>(hardware_),
        static_cast<unsigned long long>(races_));
    if (hardware_ == 0)
        out += races_ == 0
                   ? "verdict: CLEAN (hardware appears SC, program race-free)\n"
                   : "verdict: RACY PROGRAM (contract void per Definition 2; "
                     "no hardware violation)\n";
    else
        out += "verdict: HARDWARE VIOLATION (Definition 2 contract broken)\n";
    for (const MonitorViolation &v : violations_)
        out += "  " + v.toString() + "\n";
    if (total_ > violations_.size())
        out += strprintf("  ... %llu more not recorded\n",
                         static_cast<unsigned long long>(
                             total_ - violations_.size()));
    return out;
}

DotCfg Monitor::witnessDotCfg() const
{
    DotCfg dc;
    dc.flavor = cfg_.flavor;
    dc.mark_races = true;
    dc.title = violations_.empty()
                   ? "monitor witness (no violation)"
                   : strprintf("monitor witness: first %s at tick %llu",
                               violationKindName(violations_.front().kind),
                               static_cast<unsigned long long>(
                                   violations_.front().tick));
    return dc;
}

std::string Monitor::witnessDot() const
{
    return executionToDot(exec_, witnessDotCfg());
}

std::string Monitor::witnessSvg() const
{
    return executionToSvg(exec_, witnessDotCfg());
}

MonitorSummary
Monitor::summary() const
{
    MonitorSummary s;
    s.total = total_;
    s.hardware = hardware_;
    s.races = races_;
    for (int k = 0; k < num_violation_kinds; ++k)
        s.by_kind[k] = by_kind_[k];
    s.first_tick = first_tick_;
    return s;
}

Json Monitor::toJson() const
{
    Json j = Json::object();
    j.set("total", Json(total_));
    j.set("hardware", Json(hardware_));
    j.set("races", Json(races_));
    j.set("clean", Json(hardware_ == 0));
    if (first_tick_ != max_tick)
        j.set("first_tick", Json(first_tick_));
    Json by = Json::object();
    for (int k = 0; k < num_violation_kinds; ++k)
        if (by_kind_[k] > 0)
            by.set(violationKindName(static_cast<ViolationKind>(k)),
                   Json(by_kind_[k]));
    j.set("by_kind", std::move(by));
    Json rec = Json::array();
    for (const MonitorViolation &v : violations_) {
        Json r = Json::object();
        r.set("kind", Json(violationKindName(v.kind)));
        r.set("tick", Json(v.tick));
        if (v.proc != invalid_proc)
            r.set("proc", Json(static_cast<std::uint64_t>(v.proc)));
        if (v.addr != invalid_addr)
            r.set("addr", Json(static_cast<std::uint64_t>(v.addr)));
        r.set("detail", Json(v.detail));
        rec.push(std::move(r));
    }
    j.set("recorded", std::move(rec));
    return j;
}

} // namespace wo
