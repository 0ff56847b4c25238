#include "message.hh"

#include "common/logging.hh"

namespace wo {

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::get_s: return "GetS";
      case MsgType::get_x: return "GetX";
      case MsgType::data_s: return "DataS";
      case MsgType::data_e: return "DataE";
      case MsgType::data_x: return "DataX";
      case MsgType::fwd_get_s: return "FwdGetS";
      case MsgType::fwd_get_x: return "FwdGetX";
      case MsgType::inv: return "Inv";
      case MsgType::inv_ack: return "InvAck";
      case MsgType::mem_ack: return "MemAck";
      case MsgType::wb_data: return "WbData";
      case MsgType::transfer_ack: return "TransferAck";
      case MsgType::nack: return "Nack";
    }
    return "?";
}

std::string
Message::toString() const
{
    return strprintf("%s %u->%u [%u] v=%lld acks=%d req=%u%s%s",
                     msgTypeName(type), src, dst, addr,
                     static_cast<long long>(value), ack_count, requester,
                     is_sync ? " sync" : "",
                     from_exclusive ? " fromX" : "");
}

} // namespace wo
