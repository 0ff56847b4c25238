/**
 * @file
 * The fleet wire protocol: versioned JSONL over TCP.
 *
 * A fleet is one long-running coordinator (`wotool serve`), any number
 * of worker processes (`wotool worker --connect host:port`) and any
 * number of submitting clients (`wotool submit`).  Every peer speaks
 * the same framing: one JSON object per '\n'-terminated line, in both
 * directions, reusing the obs/json document model.  The first line on
 * any connection is a `hello` carrying `proto`; a version mismatch is
 * answered with an `error` line and a close, so mixed-build fleets
 * fail loudly instead of mis-parsing each other.
 *
 * Message types (all objects carry `"type"`):
 *
 *   hello      peer -> coord   {proto, role:"worker"|"client", name,
 *                               jobs}
 *   hello_ok   coord -> peer   {proto, name}
 *   error      coord -> peer   {text}; the connection closes after it
 *   submit     client -> coord {spec:{...campaign spec...}}
 *   accepted   coord -> client {campaign}
 *   lease      coord -> worker {campaign, lease, shard, spec,
 *                               indices:[...]}
 *   results    worker -> coord {campaign, lease, cells:[[idx, verdict,
 *                               ms, by_kind:{kind: findings},
 *                               failure?:{cell, kind, wo_text, insns,
 *                                         orig_insns, reproduced}],
 *                               ...]}, then one journal cell line per
 *                               tuple (a results frame, below)
 *   lease_done worker -> coord {campaign, lease}
 *   heartbeat  worker -> coord {}
 *   progress   coord -> client {campaign, cells:{...}, ...}
 *   done       coord -> client {campaign, hardware_clean, summary}
 *   drain      coord -> worker {}; finish in-flight work and exit
 *
 * A *results frame* is the one message longer than a line: the
 * `results` header, then for each of its tuples, in order, the cell's
 * journal line exactly as the in-process journal writes it
 * (appendJournalCellLine).  The coordinator parses only the header;
 * it vets each raw line (a well-formed `{"key":...,"type":"cell"}`
 * object) and journals its bytes with the fleet provenance appended.
 * A worker sends a frame in one write, so no heartbeat or other job
 * slot interleaves inside it.
 *
 * The campaign *spec* is the portable subset of CampaignCfg: the
 * deterministic base stream (fuzzer.hh) is a pure function of
 * (seed, index), so a lease only needs the spec plus a list of base
 * indices -- workers regenerate the exact cells the coordinator
 * sharded, and a resumed coordinator can re-lease precisely the
 * uncommitted indices recorded in its journal.
 */

#ifndef WO_FLEET_PROTO_HH
#define WO_FLEET_PROTO_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/scheduler.hh"
#include "campaign/shrink.hh"
#include "obs/json.hh"
#include "sys/policy.hh"

namespace wo {

/** Bump on any wire-visible change; hello carries it both ways. */
constexpr std::uint64_t fleet_proto_version = 3;

/** A parsed `host:port` endpoint (the `--connect` surface). */
struct HostPort
{
    std::string host;
    std::uint16_t port = 0;
};

/**
 * Parse "host:port".  Strict: a non-empty host, a decimal port in
 * 1..65535, nothing else.  False (with @p out untouched) otherwise.
 */
bool parseHostPort(const std::string &text, HostPort &out);

/**
 * The portable campaign description a client submits and a lease
 * carries: the campaign's cell spec (campaign/scheduler.hh).  No
 * out-dir, serve pointer or journal tuning -- those belong to the
 * coordinator.
 */
using FleetCampaignSpec = CampaignSpec;

/** Encode @p spec as the wire/journal-header JSON object (the name
 *  pairs with fleetSpecFromJson; the encoder is campaignSpecJson). */
inline Json
fleetSpecToJson(const FleetCampaignSpec &spec)
{
    return campaignSpecJson(spec);
}

/**
 * Decode a spec object (tolerates absent optional members).  False
 * with @p error set when a present member is malformed (unknown
 * policy name, zero cells, ...).
 */
bool fleetSpecFromJson(const Json &j, FleetCampaignSpec &out,
                       std::string *error);

/** A fresh `{"type": type}` message skeleton. */
Json fleetMsg(const char *type);

/** The message's "type" member ("" when absent/malformed). */
std::string fleetMsgType(const Json &j);

/** Member @p key of @p msg as a number (0 when absent or not one). */
std::uint64_t fleetUint(const Json &msg, const char *key);

/** Member @p key of @p msg as a string ("" when absent or not one). */
std::string fleetString(const Json &msg, const char *key);

// --- results frames --------------------------------------------------

/**
 * A worker's results frame under construction (see the file comment).
 * add() formats each cell's tuple and journal line as it finishes;
 * text() seals the frame for one LineConn::writeText.
 */
class ResultsFrame
{
  public:
    /** Add base index @p idx's result @p r; @p shrunk is the failure
     *  evidence when the executor shrank a hardware failure. */
    void add(std::uint64_t idx, const CellResult &r,
             const ShrinkOutcome *shrunk);

    /** Cells added since the last clear(). */
    std::size_t cells() const { return cells_; }

    /** The whole frame (header, then the lines) of @p lease in
     *  campaign @p campaign; valid until the next add() or clear(). */
    std::string_view text(std::uint64_t campaign, std::uint64_t lease);

    void clear();

  private:
    std::string tuples_; //!< the header's "cells" items, comma-joined
    std::string lines_;  //!< the journal lines, '\n'-terminated
    std::string text_;
    std::size_t cells_ = 0;
};

/** One cell of a received results frame. */
struct FrameCell
{
    std::uint64_t idx = 0;
    std::string verdict;
    double ms = 0;
    std::uint64_t by_kind[num_violation_kinds] = {};
    Json failure;     //!< the failure evidence object, or null
    std::string line; //!< the worker's journal line, without '\n'
};

/** A received results frame. */
struct Frame
{
    std::uint64_t campaign = 0;
    std::uint64_t lease = 0;
    std::vector<FrameCell> cells;
};

/**
 * Decode a `results` header into @p out (cells without their lines).
 * False with @p why set when the header is malformed; out.cells still
 * holds one entry per tuple, so the caller knows how many lines to
 * skip.
 */
bool decodeResultsHeader(const Json &header, Frame &out, std::string &why);

/** How every journal cell line opens (its first member is "key"). */
inline constexpr std::string_view cell_line_head = "{\"key\":";

/** Is @p line a well-formed journal cell line as a worker sends it:
 *  one JSON object opening with cell_line_head and closing with
 *  "type":"cell"? */
bool isJournalCellLine(std::string_view line);

// --- transport -------------------------------------------------------

/**
 * Bind and listen on @p addr:@p port (dotted IPv4; port 0 picks an
 * ephemeral one).  Returns the listening fd, or -1 with @p error set.
 * @p bound_port receives the resolved port.
 */
int fleetListen(const std::string &addr, std::uint16_t port,
                std::uint16_t *bound_port, std::string *error);

/** Connect to @p hp.  Returns the fd, or -1 with @p error set. */
int fleetConnect(const HostPort &hp, std::string *error);

/**
 * One line-framed connection.  Reads are buffered and poll-bounded;
 * writes are whole lines (or whole frames) under an internal mutex, so
 * any thread of a peer may send (worker heartbeats race results frames
 * by design).  Owns the fd; the destructor closes it.
 */
class LineConn
{
  public:
    explicit LineConn(int fd) : fd_(fd) {}
    ~LineConn() { closeNow(); }

    LineConn(const LineConn &) = delete;
    LineConn &operator=(const LineConn &) = delete;

    enum class Read : std::uint8_t
    {
        line,    //!< @p out holds one complete line (no '\n')
        timeout, //!< nothing arrived within the window
        closed,  //!< EOF or a socket error; no more lines will come
    };

    /** Next line, waiting at most @p timeout_ms (-1 = forever). */
    Read readLine(std::string &out, int timeout_ms);

    /** Send @p msg as one line.  False when the peer is gone. */
    bool writeLine(const Json &msg);

    /** Send @p text, whole '\n'-terminated lines, in one write that no
     *  other writer interleaves.  False when the peer is gone. */
    bool writeText(std::string_view text);

    /**
     * Abruptly shut the socket down both ways (a blocked reader or
     * writer unblocks with `closed`).  Thread-safe; used to sever a
     * dead worker and by the tests' SIGKILL stand-in.
     */
    void shutdownNow();

    /** Close the fd (idempotent). */
    void closeNow();

  private:
    int fd_;
    std::string buf_;      //!< bytes received, from rpos_ on unread
    std::size_t rpos_ = 0; //!< start of the unread bytes in buf_
    std::mutex write_mu_;
};

/**
 * Introduce this peer on @p conn: send @p hello (its `proto` stamped
 * here) and wait for the coordinator's answer.  True on `hello_ok`
 * (copied to @p reply when non-null); false with @p error set to the
 * coordinator's reason, or to what went wrong on the wire.
 */
bool fleetHello(LineConn &conn, Json hello, Json *reply,
                std::string *error);

} // namespace wo

#endif // WO_FLEET_PROTO_HH
