/**
 * @file
 * A private write-back cache with the Section-5.3 machinery: the
 * outstanding-access counter, per-line reserve bits, and the stall/NACK
 * treatment of synchronization requests that arrive for reserved lines.
 *
 * Modelling choices (documented in DESIGN.md):
 *  - one memory word per line, and no capacity evictions: the paper's rule
 *    that a reserved line is never flushed is then vacuous, and eviction
 *    traffic is orthogonal to every reproduced claim;
 *  - the counter counts cache misses and is decremented per the paper:
 *    on data for a read, on data for a write sourced from an exclusive
 *    owner (or needing no invalidations), and on the directory's MemAck
 *    for writes to previously shared lines;
 *  - a synchronization operation is treated as a write by the protocol
 *    (exclusive ownership) unless the Section-6 read-only-sync refinement
 *    is enabled, in which case sync reads use the shared-read path;
 *  - at a synchronization commit with a positive counter the line's
 *    reserve bit is set; all reserve bits clear when the counter reads 0;
 *  - a forwarded request for a reserved line is either queued at the owner
 *    until the counter reads zero (the paper's footnote-2 first option) or
 *    NACKed back through the directory for retry (the second option).
 *    The queue option can deadlock on crossed release/acquire pairs unless
 *    new misses are throttled while a line is reserved (the paper's
 *    bounded-miss refinement); the configuration exposes all of it.
 */

#ifndef WO_COHERENCE_CACHE_HH
#define WO_COHERENCE_CACHE_HH

#include <vector>

#include "coherence/message.hh"
#include "coherence/network.hh"
#include "common/fifo.hh"
#include "common/stats.hh"
#include "event/event_queue.hh"

namespace wo {

/** A CPU-side memory request handed to the cache. */
struct CacheReq
{
    std::uint64_t id = 0; //!< CPU-chosen identifier, echoed in callbacks
    Addr addr = invalid_addr;
    bool read = false;    //!< has a read component
    bool write = false;   //!< has a write component
    bool is_sync = false; //!< synchronization operation
    Value wvalue = 0;     //!< value stored when write
};

/** Callbacks from the cache to its processor. */
class CacheClient
{
  public:
    virtual ~CacheClient() = default;

    /**
     * Request @p id committed: a read's value is bound (@p read_value), a
     * write has modified the local copy.
     */
    virtual void onCommit(std::uint64_t id, Value read_value) = 0;

    /** Request @p id is globally performed. */
    virtual void onGloballyPerformed(std::uint64_t id) = 0;
};

/** How incoming synchronization requests meet a reserved line. */
enum class ReserveStallMode
{
    nack, //!< abort through the directory; requester retries later
    queue //!< hold at the owner until the counter reads zero
};

/** Cache configuration. */
struct CacheCfg
{
    Tick hit_latency = 1;      //!< cycles for a local hit to commit
    Tick retry_delay = 25;     //!< backoff before re-sending a NACKed miss
    ReserveStallMode stall_mode = ReserveStallMode::nack;
    bool sync_reads_as_reads = false; //!< Section-6 refinement
    /**
     * The paper's bounded-miss refinement: at most this many new misses
     * may be sent while any line is reserved; further ones are deferred
     * until the counter reads zero.  -1 = unthrottled.  Only 0 (defer all
     * new misses) guarantees deadlock freedom in queue stall mode, since
     * any post-reservation synchronization miss may itself stall at a
     * remote reserved line.
     */
    int reserved_miss_limit = -1;

    /**
     * Seeded hardware fault, test-only: when the counter reads zero the
     * reserve bits are NOT cleared, breaking the Section-5.3 invariant
     * ("all reserve bits are reset when the counter reads zero").  Used
     * to prove the online monitor reports the breach at the violating
     * cycle; never enable outside fault-injection tests.
     */
    bool bug_drop_reserve_clear = false;
};

/** One processor's private cache. */
class Cache : public MsgHandler
{
  public:
    /**
     * @param id       network node id (== processor id)
     * @param dir      directory node id
     * @param procs    processor count (for statistics labels only)
     * @param eq       event queue
     * @param net      interconnect
     * @param client   the processor to notify
     * @param n_locs   number of memory words
     * @param cfg      behaviour knobs
     */
    Cache(NodeId id, NodeId dir, ProcId procs, EventQueue &eq, Network &net,
          CacheClient *client, Addr n_locs, const CacheCfg &cfg);

    /**
     * Restore the freshly-constructed state for a machine whose
     * directory is node @p dir and whose memory has @p n_locs words:
     * every line invalid, no miss in flight, counter zero, statistics
     * cleared.  Line and MSHR storage is kept for reuse.
     */
    void reset(NodeId dir, Addr n_locs, const CacheCfg &cfg);

    /** CPU entry point: start a memory request. */
    void access(const CacheReq &req);

    /**
     * Pre-install a shared copy of @p addr with value @p v (cache warm-up
     * before the run starts; the directory must be warmed to match).
     */
    void warmShared(Addr addr, Value v);

    /** Protocol entry point. */
    void receive(const Message &msg) override;

    /** The Section-5.3 counter: outstanding misses of this processor. */
    int counter() const { return counter_; }

    /** Is @p addr currently reserved here? */
    bool isReserved(Addr addr) const;

    /** Local line value (for final-state assembly); line must be valid. */
    Value lineValue(Addr addr) const;

    /** Does this cache hold @p addr in modified state? */
    bool holdsModified(Addr addr) const;

    /** Statistics. */
    const StatGroup &stats() const { return stats_; }

  private:
    enum class LineState : std::uint8_t
    {
        invalid,
        shared,
        exclusive_clean, // MESI E: sole copy, clean; writes upgrade silently
        modified
    };

    struct Line
    {
        LineState st = LineState::invalid;
        Value value = 0;
    };

    /**
     * Miss bookkeeping for one address, one slot per memory word.  The
     * MSHR is live from the first GetS/GetX until the data arrives
     * (surviving NACK/retry cycles); the wait for a MemAck after the
     * data is tracked separately in mem_ack_wait_ because the line is
     * already usable then.  The queues are empty whenever the slot is
     * not live and keep their capacity across misses.
     */
    struct Mshr
    {
        bool live = false;
        CacheReq req;
        bool want_exclusive = false;
        Tick issued = 0;                   //!< first GetS/GetX send time
        std::vector<CacheReq> queued_reqs; //!< same-address CPU requests
        std::vector<Message> queued_fwds;  //!< forwards pending our data
    };

    /** mem_ack_wait_ entry of a line with no MemAck pending. */
    static constexpr std::uint64_t no_mem_ack = ~std::uint64_t{0};

    /** Dispatch a request against the current line state. */
    void start(const CacheReq &req);

    /**
     * Commit @p req locally (hit or data arrival): state changes happen
     * now, client callbacks fire after @p delay; @p performed_now also
     * reports the request globally performed.
     */
    void commit(const CacheReq &req, Tick delay, bool performed_now);

    /** The miss path: allocate an MSHR and send GetS/GetX. */
    void sendMiss(const CacheReq &req, bool exclusive);

    /** Counter decrement + reserve clearing + deferred work. */
    void decrementCounter();

    /** Handle a forwarded request we are the owner for. */
    void serveForward(const Message &msg);

    /** True if the forward must stall on a reserve bit. */
    bool mustStall(const Message &msg) const;

    /** Issue deferred misses once the throttle window opens. */
    void drainDeferred();

    void handleData(const Message &msg);
    void handleMemAck(const Message &msg);
    void handleInv(const Message &msg);
    void handleNack(const Message &msg);

    NodeId id_;
    NodeId dir_;
    EventQueue &eq_;
    Network &net_;
    CacheClient *client_;
    CacheCfg cfg_;
    std::vector<Line> lines_;
    std::vector<Mshr> mshrs_;                 //!< per address (only grows)
    std::size_t live_mshrs_ = 0;
    std::vector<std::uint64_t> mem_ack_wait_; //!< per address: req id
    std::vector<Addr> reserved_;              //!< reserved lines, unique
    int counter_ = 0;
    int misses_in_flight_ = 0;
    int reserved_window_misses_ = 0; //!< misses sent while reserved
    Fifo<CacheReq> deferred_;       //!< throttled misses awaiting issue
    std::vector<Message> stalled_;  //!< queue-mode stalled forwards
    // Drain buffers swapped with the queues above while they are
    // replayed, so replay never allocates and new arrivals land in
    // the (emptied) original.
    std::vector<CacheReq> queued_scratch_;
    std::vector<Message> fwds_scratch_;
    std::vector<Message> stalled_scratch_;
    StatGroup stats_;
    // Handles into stats_, resolved once: per-event increments skip the
    // name lookup.
    Counter &read_hits_ = stats_.counterHandle("read_hits");
    Counter &write_hits_ = stats_.counterHandle("write_hits");
    Counter &silent_upgrades_ = stats_.counterHandle("silent_upgrades");
    Counter &read_misses_ = stats_.counterHandle("read_misses");
    Counter &write_misses_ = stats_.counterHandle("write_misses");
    Counter &throttled_misses_ = stats_.counterHandle("throttled_misses");
    Counter &reservations_ = stats_.counterHandle("reservations");
    Counter &reserve_clears_ = stats_.counterHandle("reserve_clears");
    Counter &dropped_reserve_clears_ =
        stats_.counterHandle("dropped_reserve_clears");
    Counter &reserve_stalls_ = stats_.counterHandle("reserve_stalls");
    Counter &invalidations_ = stats_.counterHandle("invalidations");
    Counter &nacks_ = stats_.counterHandle("nacks");
    Histogram &read_miss_latency_ =
        stats_.histogramHandle("read_miss_latency");
    Histogram &write_miss_latency_ =
        stats_.histogramHandle("write_miss_latency");
};

} // namespace wo

#endif // WO_COHERENCE_CACHE_HH
