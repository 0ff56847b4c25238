/**
 * @file
 * The fleet coordinator: the long-running heart of `wotool serve`.
 *
 * One coordinator owns a TCP endpoint speaking the fleet protocol
 * (proto.hh), a queue of submitted campaigns, and the merged campaign
 * journal of whichever campaign is running.  Campaigns execute
 * serially in submission order; each one's program x policy x seed
 * lattice -- the deterministic base stream of fuzzer.hh, a pure
 * function of (seed, index) -- is cut into fixed-size *shards* of
 * consecutive base indices, and shards are handed to workers as
 * *leases*.  Backpressure is the lease count: a worker never holds
 * more than `max_outstanding` leases, so a slow worker bounds its own
 * queue instead of hoarding the lattice.
 *
 * Workers send their cells as results frames (proto.hh).  A
 * connection's reader thread parses only a frame's header and vets its
 * raw journal lines; the pump thread, which owns all fleet state,
 * drains every queued event on each wake and merges each cell by
 * lookup: the done check, the tally, the shard bookkeeping, then the
 * worker's line journaled verbatim with `idx`, `shard` and `worker`
 * appended.  A frame that is malformed, or cut short by a closing
 * connection, is dropped whole; its cells are re-leased, never
 * half-merged.  A submitted campaign's first leases go out before
 * submitLocal() returns.
 *
 * Fault tolerance is lease reassignment + an idempotent merge:
 *
 *  - every cell is applied at most once per base index (a stale
 *    result from a lease that was already reassigned and re-run is
 *    dropped), then appended to the campaign journal through the
 *    group-commit writer (journal.hh), annotated with its shard,
 *    index and worker -- the commit point is the flushed batch, same
 *    crash contract as the single-process campaign;
 *  - a worker that dies (socket EOF) or goes silent past
 *    `lease_timeout_ms` (heartbeats count) has its leases' shards
 *    returned to the pending pool and re-leased, minus the indices
 *    already merged, so a SIGKILLed worker loses zero cells;
 *  - a restarted coordinator (`--resume`) replays the journals under
 *    its out-dir: the header line rebuilds each campaign's spec, the
 *    cell lines' `idx` members rebuild the done set, and exactly the
 *    uncommitted indices are re-leased (Journal::resumeIndices()).
 *
 * The coordinator is the fleet's *lease source*: remote workers run
 * the campaign's CellExecutor (campaign/executor.hh), shrinking a
 * violation where they caught it, and each campaign's results feed a
 * ResultSink (campaign/sink.hh), the same one the in-process engine
 * feeds, which tallies them and deduplicates failures fleet-wide.  The
 * optional control plane mounts /healthz, /metrics and /progress with
 * per-worker, per-campaign and per-shard series.
 */

#ifndef WO_FLEET_COORDINATOR_HH
#define WO_FLEET_COORDINATOR_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/sink.hh"
#include "fleet/proto.hh"

namespace wo {

class HttpServer;

/** Coordinator configuration (the `wotool serve` surface). */
struct CoordinatorCfg
{
    std::string addr = "127.0.0.1"; //!< fleet-protocol bind address
    std::uint16_t port = 0;         //!< 0 = ephemeral (see port())
    std::string out_dir = "fleet-out"; //!< journals + repros, per campaign
    /** Base indices per shard (= per lease); the unit of reassignment. */
    std::uint64_t shard_size = 32;
    /** A worker silent this long forfeits its leases. */
    int lease_timeout_ms = 10'000;
    /** Max leases in flight per worker (the backpressure bound). */
    int max_outstanding = 2;
    /** Journal group-commit granularity (see JournalCfg). */
    std::uint64_t sync_every = 64;
    int flush_interval_ms = 5;
    /** Replay out_dir's journals; re-lease only uncommitted cells. */
    bool resume = false;
    /** Exit waitDone() after this many completed campaigns (0 = run
     *  until stop()); finished fleets DRAIN their workers. */
    int max_campaigns = 0;
    /** Already-started control-plane server to mount /healthz,
     *  /metrics, /progress on (caller binds; stop() stops it). */
    HttpServer *serve = nullptr;
    bool verbose = false; //!< log lease traffic on stderr
};

/** The fleet coordinator (one per `wotool serve`). */
class Coordinator
{
  public:
    explicit Coordinator(CoordinatorCfg cfg);
    ~Coordinator();

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /**
     * Bind, replay journals when resuming, and start the acceptor +
     * pump threads.  False when the endpoint cannot be bound
     * (lastError() says why).
     */
    bool start();

    /**
     * Shut down: DRAIN connected workers, sever every connection,
     * join all threads, close the journal (committing its tail) and
     * stop the mounted control plane.  Idempotent; the destructor
     * calls it.  In-flight campaigns stay resumable on disk.
     */
    void stop();

    /**
     * The tests' SIGKILL stand-in: sever every socket and join
     * threads *without* draining workers or closing campaigns
     * gracefully.  The journal writer is still joined (its committed
     * batches are exactly what a real SIGKILL would have made
     * durable; sync_every=1 makes every applied record committed).
     */
    void kill();

    /** The bound fleet-protocol port (resolves ephemeral 0). */
    std::uint16_t port() const { return port_; }

    const std::string &lastError() const { return error_; }

    /**
     * Enqueue a campaign without a client connection (benches, tests,
     * and the resume path).  Returns its campaign id.
     */
    std::uint64_t submitLocal(const FleetCampaignSpec &spec);

    /**
     * Block until campaign @p id completes (@p timeout_ms <= 0 waits
     * forever).  @p summary, when non-null, receives the campaign
     * summary JSON.  False on timeout or unknown id.
     */
    bool waitCampaign(std::uint64_t id, int timeout_ms,
                      Json *summary = nullptr);

    /** Block until @p n workers are connected (test convenience). */
    bool waitForWorkers(int n, int timeout_ms);

    /**
     * Block until `max_campaigns` campaigns have completed (or until
     * stop()); the `wotool serve` main loop.
     */
    void waitDone();

    int campaignsCompleted() const;

    /** The /progress JSON document (also useful headless). */
    Json progressJson() const;

    /** The /metrics tree (rendered as Prometheus "wo_fleet_..."). */
    Json metricsJson() const;

  private:
    enum class Role : std::uint8_t { unknown, worker, client };

    struct Conn
    {
        std::uint64_t id = 0;
        std::unique_ptr<LineConn> sock;
        std::thread reader;
        bool dead = false;

        // Worker state (meaningful once role == worker).
        Role role = Role::unknown;
        std::string name;
        std::string name_json; //!< name, JSON-escaped for merged lines
        int jobs = 1;
        std::chrono::steady_clock::time_point last_seen;
        std::vector<std::uint64_t> leases; //!< outstanding lease ids
        std::uint64_t cells_done = 0;
        bool draining = false;
    };

    struct Shard
    {
        enum class State : std::uint8_t { pending, leased, done };
        std::uint64_t lo = 0, hi = 0; //!< base-index range [lo, hi)
        State state = State::pending;
        std::uint64_t lease = 0;    //!< current lease id when leased
        std::uint64_t remaining = 0; //!< indices not yet merged
    };

    struct Camp
    {
        std::uint64_t id = 0;
        FleetCampaignSpec spec;
        std::string dir;
        /** Journal, tallies and failure filing (one slot: the pump). */
        std::unique_ptr<ResultSink> sink;
        std::vector<std::uint8_t> done; //!< per base index
        std::vector<Shard> shards;
        std::uint64_t duplicate_results = 0; //!< stale-lease drops
        std::uint64_t reassigned_leases = 0;
        std::uint64_t client_conn = 0; //!< 0 = detached/local submit
        bool completed = false;
        Json summary;
        std::chrono::steady_clock::time_point t0;
    };

    struct Lease
    {
        std::uint64_t id = 0;
        std::uint64_t campaign = 0;
        std::size_t shard = 0;
        std::uint64_t conn = 0;
    };

    struct Event
    {
        enum class Kind : std::uint8_t { message, frame, closed };
        Kind kind = Kind::message;
        std::uint64_t conn = 0;
        Json msg;    //!< Kind::message
        Frame frame; //!< Kind::frame
    };

    /** How reading a results frame's lines ended. */
    enum class FrameRead : std::uint8_t
    {
        ok,      //!< every line arrived and passed: merge the frame
        dropped, //!< malformed: dropped with a warning
        cut_short, //!< a non-cell line came early: dropped, and that
                   //!< line is the next message
        closed,  //!< the connection ended mid-frame: dropped
    };

    void acceptLoop();
    /** One connection's reader; touches no fleet state (takes no mu_). */
    void readerLoop(std::uint64_t conn_id, LineConn *sock);
    FrameRead readFrame(std::uint64_t conn_id, LineConn &sock,
                        const Json &header, Frame &frame,
                        std::string &line);
    void pumpLoop();
    void pushEvent(Event ev);

    // All of the below run on the pump thread with mu_ held.
    /** The live connection @p conn_id (its last_seen refreshed), or
     *  null once it is gone. */
    Conn *liveConn(std::uint64_t conn_id);
    void handleMessage(Conn &c, Json &msg);
    void handleHello(Conn &c, const Json &msg);
    void handleSubmit(Conn &c, const Json &msg);
    void handleFrame(Conn &c, Frame &frame);
    void mergeCell(Camp &camp, Conn &c, FrameCell &cell);
    void handleLeaseDone(Conn &c, const Json &msg);
    /** Send @p text as an error line, then drop the connection. */
    void reject(Conn &c, const std::string &text, const char *why);
    void dropConn(std::uint64_t conn_id, const char *why);
    void releaseLease(std::uint64_t lease_id);
    void grantLeases();
    void expireSilentWorkers();
    void sendClientProgress();
    void maybeCompleteCampaign(Camp &camp);
    Camp &addCampaign(std::uint64_t id, FleetCampaignSpec spec,
                      std::unique_ptr<ResultSink> sink);
    std::uint64_t enqueueCampaign(FleetCampaignSpec spec,
                                  std::uint64_t client_conn);
    void resumeFromOutDir();
    Camp *findCampaign(std::uint64_t id);
    Camp *activeCampaign();
    int aliveWorkers() const;
    Json campaignProgressJson(const Camp &camp) const;
    void teardown(bool drain);

    CoordinatorCfg cfg_;
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::string error_;
    bool started_ = false;

    mutable std::mutex mu_;            //!< fleet state (everything below)
    std::condition_variable state_cv_; //!< completion / worker-count waits
    std::map<std::uint64_t, std::unique_ptr<Conn>> conns_;
    std::map<std::uint64_t, Lease> leases_;
    std::vector<std::unique_ptr<Camp>> camps_; //!< submission order
    std::uint64_t next_conn_ = 1;
    std::uint64_t next_lease_ = 1;
    std::uint64_t next_campaign_ = 1;
    int completed_campaigns_ = 0;
    bool serving_done_ = false;
    std::chrono::steady_clock::time_point last_progress_push_;

    std::mutex ev_mu_;
    std::condition_variable ev_cv_;
    std::vector<Event> events_; //!< the pump takes them all per wake
    std::atomic<bool> stopping_{false};

    std::thread acceptor_;
    std::thread pump_;
};

} // namespace wo

#endif // WO_FLEET_COORDINATOR_HH
