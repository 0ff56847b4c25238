#include "execution.hh"

#include <set>
#include <tuple>

#include "common/logging.hh"

namespace wo {

Execution::Execution(ProcId num_procs, Addr num_locations,
                     std::vector<Value> initial)
    : initial_(std::move(initial))
{
    reset(num_procs, num_locations, initial_);
}

void
Execution::reset(ProcId num_procs, Addr num_locations,
                 const std::vector<Value> &initial)
{
    ops_.clear();
    nprocs_ = num_procs;
    if (per_proc_.size() < num_procs)
        per_proc_.resize(num_procs);
    for (auto &ids : per_proc_)
        ids.clear();
    if (initial.empty())
        initial_.assign(num_locations, 0);
    else if (&initial != &initial_)
        initial_ = initial;
    wo_assert(initial_.size() == num_locations,
              "initial image size %zu != %u locations", initial_.size(),
              num_locations);
}

OpId
Execution::append(ProcId proc, Addr addr, AccessKind kind, Value value_read,
                  Value value_written, Tick commit_tick)
{
    wo_assert(proc < nprocs_, "proc %u out of range", proc);
    wo_assert(addr < initial_.size(), "addr %u out of range", addr);
    MemoryOp op;
    op.id = static_cast<OpId>(ops_.size());
    op.proc = proc;
    op.addr = addr;
    op.kind = kind;
    op.value_read = value_read;
    op.value_written = value_written;
    op.po_index = static_cast<std::uint32_t>(per_proc_[proc].size());
    op.commit_tick = commit_tick;
    ops_.push_back(op);
    per_proc_[proc].push_back(op.id);
    return op.id;
}

const std::vector<OpId> &
Execution::procOps(ProcId p) const
{
    wo_assert(p < nprocs_, "proc %u out of range", p);
    return per_proc_[p];
}

const MemoryOp &
Execution::op(OpId id) const
{
    wo_assert(id < ops_.size(), "op %u out of range", id);
    return ops_[id];
}

Value
Execution::initialValue(Addr a) const
{
    wo_assert(a < initial_.size(), "addr %u out of range", a);
    return initial_[a];
}

bool
Execution::valuesPlausible(std::string *why) const
{
    // Collect the values written per location.
    std::set<std::pair<Addr, Value>> written;
    for (const auto &op : ops_)
        if (op.isWrite())
            written.insert({op.addr, op.value_written});
    for (const auto &op : ops_) {
        if (!op.isRead())
            continue;
        if (op.value_read == initial_[op.addr])
            continue;
        if (!written.count({op.addr, op.value_read})) {
            if (why)
                *why = strprintf("read %s returns a value no write stored",
                                 op.toString().c_str());
            return false;
        }
    }
    return true;
}

std::string
Execution::toString() const
{
    std::string out;
    for (const auto &op : ops_)
        out += op.toString() + "\n";
    return out;
}

bool
Outcome::operator<(const Outcome &other) const
{
    return std::tie(regs, memory) < std::tie(other.regs, other.memory);
}

void
Outcome::appendTo(std::string &out) const
{
    for (std::size_t p = 0; p < regs.size(); ++p) {
        for (std::size_t r = 0; r < regs[p].size(); ++r) {
            if (regs[p][r] == 0)
                continue;
            out += 'P';
            appendDecimal(out, p);
            out += ":r";
            appendDecimal(out, r);
            out += '=';
            appendDecimal(out, regs[p][r]);
            out += ' ';
        }
    }
    out += "| mem:";
    for (std::size_t a = 0; a < memory.size(); ++a) {
        out += " [";
        appendDecimal(out, a);
        out += "]=";
        appendDecimal(out, memory[a]);
    }
}

std::string
Outcome::toString() const
{
    std::string out;
    appendTo(out);
    return out;
}

} // namespace wo
