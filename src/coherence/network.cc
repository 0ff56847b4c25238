#include "network.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/obs.hh"

namespace wo {

Network::Network(EventQueue &eq, const NetworkCfg &cfg)
    : eq_(eq), stats_("net")
{
    for (int t = 0; t < num_msg_types; ++t)
        by_type_[t] = &stats_.counterHandle(
            std::string("msg.") + msgTypeName(static_cast<MsgType>(t)));
    reset(cfg);
}

void
Network::reset(const NetworkCfg &cfg)
{
    cfg_ = cfg;
    rng_ = Rng(cfg.seed);
    handlers_.clear();
    for (auto &row : last_delivery_)
        row.clear();
    in_flight_ = 0;
    stats_.clear();
}

void
Network::attach(NodeId id, MsgHandler *handler)
{
    if (handlers_.size() <= id)
        handlers_.resize(id + 1, nullptr);
    wo_assert(handlers_[id] == nullptr, "node %u attached twice", id);
    handlers_[id] = handler;
}

Tick
Network::nextDepartureSlot(NodeId src, NodeId dst, Tick earliest)
{
    if (last_delivery_.size() <= src)
        last_delivery_.resize(src + 1);
    std::vector<Tick> &row = last_delivery_[src];
    if (row.size() <= dst)
        row.resize(dst + 1, 0);
    Tick &last = row[dst];
    Tick slot = std::max(earliest, last + 1);
    last = slot;
    return slot;
}

void
Network::send(Message msg)
{
    wo_assert(msg.dst < handlers_.size() && handlers_[msg.dst],
              "message to unattached node %u: %s", msg.dst,
              msg.toString().c_str());
    messages_.inc();
    by_type_[static_cast<int>(msg.type)]->inc();
    Tick delay = cfg_.hop_latency;
    if (cfg_.jitter > 0)
        delay += rng_.below(cfg_.jitter + 1);
    const Tick when =
        nextDepartureSlot(msg.src, msg.dst, eq_.now() + delay);
    if (Obs *obs = eq_.obs())
        obs->message(eq_.now(), when, msg.src, msg.dst,
                     msgTypeName(msg.type), msg.addr, msg.is_sync);
    MsgHandler *handler = handlers_[msg.dst];
    ++in_flight_;
    eq_.scheduleAt(when, [msg] { return msg.toString(); },
                   [this, handler, msg] {
        --in_flight_;
        handler->receive(msg);
    });
}

} // namespace wo
