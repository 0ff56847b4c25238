/**
 * @file
 * Protocol messages of the directory-based write-back invalidation
 * protocol of Section 5.2.  One memory word per line; the directory is
 * co-located with memory.  The protocol deliberately allows the requested
 * line to be forwarded to a writer in parallel with the sending of
 * invalidations; the directory's ack for "all invalidations acknowledged"
 * (MemAck) arrives later and marks the write globally performed.
 */

#ifndef WO_COHERENCE_MESSAGE_HH
#define WO_COHERENCE_MESSAGE_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace wo {

/** Network node id: caches are [0, procs), the directory is procs. */
using NodeId = std::uint16_t;

/** Message types. */
enum class MsgType : std::uint8_t
{
    get_s,        //!< cache -> dir: read request (shared)
    get_x,        //!< cache -> dir: write/upgrade request (exclusive)
    data_s,       //!< dir -> cache: line data, shared grant
    data_e,       //!< dir -> cache: exclusive-clean grant (MESI option)
    data_x,       //!< dir or owner -> cache: line data, exclusive grant
    fwd_get_s,    //!< dir -> owner: forward a read request
    fwd_get_x,    //!< dir -> owner: forward a write request
    inv,          //!< dir -> sharer: invalidate
    inv_ack,      //!< sharer -> dir: invalidation done
    mem_ack,      //!< dir -> writer: all invalidations acknowledged
    wb_data,      //!< owner -> dir: downgrade data (response to fwd_get_s)
    transfer_ack, //!< old owner -> dir: exclusive ownership handed over
    nack,         //!< owner -> requester: reserved line, retry later
};

/** Number of MsgType values (for iteration). */
inline constexpr int num_msg_types = static_cast<int>(MsgType::nack) + 1;

/** Printable message-type name. */
const char *msgTypeName(MsgType t);

/** One protocol message. */
struct Message
{
    MsgType type = MsgType::get_s;
    NodeId src = 0;
    NodeId dst = 0;
    Addr addr = invalid_addr;
    Value value = 0;      //!< line data where applicable
    int ack_count = 0;    //!< data_x: invalidations the writer must await
    NodeId requester = 0; //!< original requester on forwarded messages
    bool is_sync = false; //!< request belongs to a synchronization op
    bool from_exclusive = false; //!< data_x sourced from an exclusive owner

    /** Short rendering for traces. */
    std::string toString() const;
};

} // namespace wo

#endif // WO_COHERENCE_MESSAGE_HH
