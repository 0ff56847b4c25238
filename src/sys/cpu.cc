#include "cpu.hh"

#include <algorithm>

#include "common/logging.hh"
#include "models/thread_ctx.hh" // accessKindOf
#include "obs/obs.hh"

namespace wo {

namespace {

/** Which synchronization side a stalled access charges (see OpSide). */
OpSide
sideOf(AccessKind k)
{
    switch (k) {
      case AccessKind::sync_write:
        return OpSide::release;
      case AccessKind::sync_read:
      case AccessKind::sync_rmw:
        return OpSide::acquire;
      case AccessKind::data_read:
      case AccessKind::data_write:
        break;
    }
    return OpSide::data;
}

} // namespace

Cpu::Cpu(ProcId id, const Program &prog, EventQueue &eq,
         OrderingPolicy policy, Execution *exec, const CpuCfg &cfg)
    : id_(id), eq_(eq), exec_(exec), stats_(strprintf("cpu%u", id))
{
    reset(prog, policy, cfg);
}

void
Cpu::reset(const Program &prog, OrderingPolicy policy, const CpuCfg &cfg)
{
    code_ = &prog.thread(id_);
    policy_ = policy;
    cfg_ = cfg;
    pc_ = 0;
    regs_ = {};
    halted_ = false;
    finish_tick_ = 0;
    step_scheduled_ = false;
    waiting_issue_ = false;
    issue_wait_mlp_ = false;
    wait_started_ = 0;
    blocked_on_ = 0;
    blocked_ = false;
    block_started_ = 0;
    next_req_ = 1;
    pending_.clear();
    pending_base_ = 1;
    next_retire_ = 1;
    outstanding_ = 0;
    timings_.clear();
    stats_.clear();
}

Cpu::Pending *
Cpu::findPending(std::uint64_t id)
{
    if (id < pending_base_ || id - pending_base_ >= pending_.size())
        return nullptr;
    Pending &p = pending_[id - pending_base_];
    return p.done ? nullptr : &p;
}

void
Cpu::dropPending(Pending &p)
{
    p.done = true;
    while (!pending_.empty() && pending_.front().done) {
        pending_.pop_front();
        ++pending_base_;
    }
}

int
Cpu::countOutstanding() const
{
    return outstanding_;
}

void
Cpu::boot()
{
    wake(0);
}

void
Cpu::wake(Tick delay)
{
    if (step_scheduled_ || halted_)
        return;
    step_scheduled_ = true;
    eq_.schedule(delay, [this] { return strprintf("cpu%u.step", id_); },
                 [this] {
        step_scheduled_ = false;
        step();
    });
}

bool
Cpu::anyOutstanding() const
{
    return outstanding_ > 0;
}

bool
Cpu::canIssue(const Instruction &inst) const
{
    // Finite miss-handling resources gate every policy alike.
    if (cfg_.max_outstanding > 0 &&
        countOutstanding() >= cfg_.max_outstanding)
        return false;
    switch (policy_) {
      case OrderingPolicy::sc:
        return !anyOutstanding();
      case OrderingPolicy::wo_def1:
        // Definition 1, condition 2: a synchronization operation may not
        // issue until every previous access is globally performed.
        return inst.isSync() ? !anyOutstanding() : true;
      case OrderingPolicy::wo_drf0:
      case OrderingPolicy::wo_drf0_ro:
        // The new implementation never stalls the issuing processor here.
        return true;
    }
    return true;
}

bool
Cpu::blocksUntilPerformed(const Instruction &inst) const
{
    switch (policy_) {
      case OrderingPolicy::sc:
        return true;
      case OrderingPolicy::wo_def1:
        // Definition 1, condition 3: nothing issues until a previous
        // synchronization operation is globally performed.
        return inst.isSync();
      case OrderingPolicy::wo_drf0:
      case OrderingPolicy::wo_drf0_ro:
        return false;
    }
    return false;
}

bool
Cpu::blocksUntilCommit(const Instruction &inst) const
{
    // Loads block for their value under every policy (in-order register
    // use); synchronization blocks until commit under the new
    // implementation ("no new accesses are generated until the line is
    // procured in exclusive state and the operation performed on it").
    if (inst.readsMemory())
        return true;
    if (inst.isSync())
        return true;
    return false;
}

void
Cpu::step()
{
    if (halted_)
        return;
    if (blocked_)
        return; // a callback will wake us
    const Instruction &i = code_->at(pc_);
    switch (i.op) {
      case Opcode::mov_imm:
        regs_[i.dst] = i.imm;
        ++pc_;
        wake(1);
        return;
      case Opcode::add:
        regs_[i.dst] = regs_[i.src] + regs_[i.src2];
        ++pc_;
        wake(1);
        return;
      case Opcode::add_imm:
        regs_[i.dst] = regs_[i.src] + i.imm;
        ++pc_;
        wake(1);
        return;
      case Opcode::branch_eq:
        pc_ = (regs_[i.src] == i.imm) ? i.target : pc_ + 1;
        wake(1);
        return;
      case Opcode::branch_ne:
        pc_ = (regs_[i.src] != i.imm) ? i.target : pc_ + 1;
        wake(1);
        return;
      case Opcode::jump:
        pc_ = i.target;
        wake(1);
        return;
      case Opcode::delay:
        ++pc_;
        work_cycles_.inc(static_cast<std::uint64_t>(i.imm));
        wake(static_cast<Tick>(i.imm) + 1);
        return;
      case Opcode::halt:
        halted_ = true;
        finish_tick_ = eq_.now();
        return;
      default:
        break; // a memory access, handled below
    }

    // Memory access.
    if (!waiting_issue_) {
        waiting_issue_ = true;
        wait_started_ = eq_.now();
    }
    if (!canIssue(i)) {
        issue_stall_polls_.inc();
        // Remember which gate failed so the stall profiler can bucket
        // the wait when it finally ends.
        issue_wait_mlp_ = cfg_.max_outstanding > 0 &&
                          countOutstanding() >= cfg_.max_outstanding;
        return; // onCommit/onGloballyPerformed will wake us
    }
    const Tick reached = wait_started_;
    (i.isSync() ? sync_issue_stall_ : data_issue_stall_)
        .inc(eq_.now() - reached);
    if (Obs *obs = eq_.obs()) {
        obs->stall(id_, 0, i.addr,
                   issue_wait_mlp_ ? StallPhase::issue_mlp
                                   : StallPhase::issue_counter,
                   sideOf(accessKindOf(i.op)), reached, eq_.now());
    }
    waiting_issue_ = false;
    issue_wait_mlp_ = false;

    CacheReq req;
    req.id = next_req_++;
    req.addr = i.addr;
    req.read = i.readsMemory();
    req.write = i.writesMemory();
    req.is_sync = i.isSync();
    if (req.write)
        req.wvalue = (i.op == Opcode::test_and_set)
                         ? 1
                         : (i.use_imm ? i.imm : regs_[i.src]);

    Pending p;
    p.pc = pc_;
    p.is_sync = req.is_sync;
    p.has_read = req.read;
    p.dst = i.dst;
    p.kind = accessKindOf(i.op);
    p.addr = i.addr;
    p.wvalue = req.wvalue;
    p.timing_idx = timings_.size();
    timings_.push_back(OpTiming{id_, pc_, p.kind, i.addr, reached,
                                eq_.now(), 0, 0});
    (i.isSync() ? sync_ops_ : data_ops_).inc();

    const bool wait_perf = blocksUntilPerformed(i);
    const bool wait_commit = blocksUntilCommit(i) || wait_perf;
    p.blocks_pipeline = wait_commit;
    p.wait_performed = wait_perf;

    pending_.push_back(p);
    ++outstanding_;
    if (Obs *obs = eq_.obs())
        obs->opIssue(id_, req.id, accessKindName(p.kind), i.addr, pc_,
                     reached, eq_.now());
    cache_->access(req);

    ++pc_;
    if (wait_commit) {
        blocked_ = true;
        blocked_on_ = req.id;
        block_started_ = eq_.now();
    } else {
        wake(1);
    }
}

void
Cpu::retire()
{
    while (next_retire_ < next_req_) {
        const std::uint64_t id = next_retire_;
        Pending *p = findPending(id);
        wo_assert(p, "retire window out of sync");
        if (!p->committed)
            return;
        if (exec_) {
            exec_->append(id_, p->addr, p->kind,
                          p->has_read ? p->rvalue : 0, p->wvalue,
                          timings_[p->timing_idx].committed);
        }
        if (Obs *obs = eq_.obs())
            obs->opRetire(id_, id, eq_.now(), p->addr, p->kind,
                          p->has_read ? p->rvalue : 0, p->wvalue,
                          timings_[p->timing_idx].committed);
        p->retired = true;
        ++next_retire_;
        if (p->performed)
            dropPending(*p);
    }
}

void
Cpu::onCommit(std::uint64_t id, Value read_value)
{
    Pending *pp = findPending(id);
    wo_assert(pp, "commit for unknown request");
    Pending &p = *pp;
    wo_assert(!p.committed, "double commit for request");
    p.committed = true;
    p.rvalue = read_value;
    timings_[p.timing_idx].committed = eq_.now();
    if (p.has_read)
        regs_[p.dst] = read_value;
    if (Obs *obs = eq_.obs())
        obs->opCommit(id_, id, eq_.now());
    // Unblock decisions read p before retire(), which may erase it.
    if (blocked_ && blocked_on_ == id && !p.wait_performed) {
        blocked_ = false;
        (p.is_sync ? sync_commit_stall_ : read_stall_)
            .inc(eq_.now() - block_started_);
        if (Obs *obs = eq_.obs())
            obs->stall(id_, id, p.addr, StallPhase::commit_wait,
                       sideOf(p.kind), block_started_, eq_.now());
        wake(1);
    } else if (waiting_issue_ && !blocked_) {
        wake(0);
    }
    retire();
    cleanup(id);
}

void
Cpu::onGloballyPerformed(std::uint64_t id)
{
    Pending *pp = findPending(id);
    wo_assert(pp, "perform for unknown request");
    Pending &p = *pp;
    wo_assert(!p.performed, "double perform for request");
    p.performed = true;
    --outstanding_;
    timings_[p.timing_idx].performed = eq_.now();
    if (blocked_ && blocked_on_ == id && p.wait_performed) {
        blocked_ = false;
        (p.is_sync ? sync_perform_stall_ : perform_stall_)
            .inc(eq_.now() - block_started_);
        if (Obs *obs = eq_.obs()) {
            // Split the blocked interval at the commit point: up to the
            // commit the processor waited for the line (miss/reserve);
            // after it, for invalidation acks in flight (network).
            const Tick commit_t =
                p.committed
                    ? std::max(block_started_,
                               timings_[p.timing_idx].committed)
                    : eq_.now();
            obs->stall(id_, id, p.addr, StallPhase::commit_wait,
                       sideOf(p.kind), block_started_, commit_t);
            obs->stall(id_, id, p.addr, StallPhase::perform_wait,
                       sideOf(p.kind), commit_t, eq_.now());
        }
        wake(1);
    } else if (waiting_issue_ && !blocked_) {
        wake(0);
    }
    // After any stall classification: opPerform retires this request's
    // profiler facts.
    if (Obs *obs = eq_.obs())
        obs->opPerform(id_, id, eq_.now());
    cleanup(id);
}

void
Cpu::cleanup(std::uint64_t id)
{
    Pending *p = findPending(id);
    if (p && p->committed && p->performed && p->retired)
        dropPending(*p);
}

} // namespace wo
