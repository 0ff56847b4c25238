/**
 * @file
 * The directory / memory controller of the Section-5.2 implementation
 * model: a straightforward full-map, write-back, invalidation directory
 * (in the style of [ASH88]) that forwards the requested line to a writer
 * *in parallel* with the invalidations it sends to sharers, and later
 * acknowledges the writer (MemAck) once every invalidation has been
 * acknowledged -- the point at which the write is globally performed.
 *
 * The directory serializes transactions per line: while one is in flight
 * (awaiting a downgrade, an ownership transfer, or invalidation acks),
 * subsequent requests for the same line queue here.  Requests for other
 * lines proceed independently, which is what lets the reserve-bit
 * mechanism overlap one processor's pending data misses with another's
 * synchronization attempt.
 */

#ifndef WO_COHERENCE_DIRECTORY_HH
#define WO_COHERENCE_DIRECTORY_HH

#include <vector>

#include "coherence/message.hh"
#include "coherence/network.hh"
#include "common/fifo.hh"
#include "common/stats.hh"

namespace wo {

/** Directory behaviour knobs. */
struct DirectoryCfg
{
    /**
     * Section 5.2's design point: "Our protocol allows the line requested
     * by the write to be forwarded to the requesting processor in
     * parallel with the sending of these invalidations."  When false, the
     * directory instead collects every invalidation ack before granting
     * the line (the conservative alternative) -- the ablation of
     * bench/ablation_parallel_inv.
     */
    bool forward_line_with_invs = true;

    /**
     * MESI option: grant a read of an uncached line in exclusive-clean
     * state, so a subsequent write by the same processor upgrades
     * silently (no GetX).  The matching cache must run with
     * CacheCfg::mesi.  Ablated in bench/ablation_mesi.
     */
    bool grant_exclusive_clean = false;
};

/** The directory plus memory. */
class Directory : public MsgHandler
{
  public:
    /**
     * @param id      network node id of the directory
     * @param net     interconnect
     * @param initial initial memory image (one word per line)
     * @param cfg     behaviour knobs
     */
    Directory(NodeId id, Network &net, std::vector<Value> initial,
              const DirectoryCfg &cfg = {});

    /**
     * Restore the freshly-constructed state as node @p id over memory
     * image @p initial: every line uncached and idle, statistics
     * cleared.  Line storage is kept for reuse.
     */
    void reset(NodeId id, const std::vector<Value> &initial,
               const DirectoryCfg &cfg);

    /** Protocol entry point. */
    void receive(const Message &msg) override;

    /** Pre-register @p node as a sharer of @p addr (warm-up). */
    void warmSharer(Addr addr, NodeId node);

    /** Memory word @p addr (only current when no cache holds it M). */
    Value memoryValue(Addr addr) const;

    /** Current exclusive owner of @p addr, or invalid_proc. */
    NodeId ownerOf(Addr addr) const;

    /** True when no transaction is in flight anywhere. */
    bool quiescent() const;

    /** Lines with a transaction in flight (busy, collecting or waiting). */
    std::uint64_t busyLines() const;

    /** Statistics. */
    const StatGroup &stats() const { return stats_; }

  private:
    enum class LineState : std::uint8_t { uncached, shared, exclusive };

    struct DirLine
    {
        LineState st = LineState::uncached;
        std::vector<NodeId> sharers; //!< ascending, no duplicates
        NodeId owner = invalid_proc;
        Value mem = 0;
        bool busy = false;
        // Invalidation-collection state.
        bool collecting = false;
        int acks_needed = 0;
        int acks_got = 0;
        NodeId writer = invalid_proc;
        bool data_deferred = false; //!< grant withheld until acks collected
        Fifo<Message> waiting;
    };

    void handleGetS(const Message &msg);
    void handleGetX(const Message &msg);
    void handleWbData(const Message &msg);
    void handleTransferAck(const Message &msg);
    void handleInvAck(const Message &msg);
    void handleNack(const Message &msg);

    /** Finish a transaction on @p line and replay queued requests. */
    void unblock(Addr addr);

    DirLine &line(Addr addr);

    /** Add @p node to the line's sharer set. */
    static void addSharer(DirLine &l, NodeId node);

    NodeId id_;
    Network &net_;
    DirectoryCfg cfg_;
    Addr nlines_ = 0; //!< lines of the current memory image
    /** Only grows: lines past nlines_ are storage kept for a reset. */
    std::vector<DirLine> lines_;
    StatGroup stats_;
    // Handles into stats_, resolved once: per-event increments skip the
    // name lookup.
    Counter &get_s_ = stats_.counterHandle("get_s");
    Counter &get_x_ = stats_.counterHandle("get_x");
    Counter &nacks_relayed_ = stats_.counterHandle("nacks_relayed");
};

} // namespace wo

#endif // WO_COHERENCE_DIRECTORY_HH
