/**
 * @file
 * A point-to-point interconnection network with configurable latency and
 * optional per-message jitter.  Delivery between a given (source,
 * destination) pair is FIFO -- the protocol relies on it -- but messages on
 * different pairs race freely, which is the "general interconnection
 * network" of the paper's implementation model: no global ordering and no
 * atomicity of transactions.
 */

#ifndef WO_COHERENCE_NETWORK_HH
#define WO_COHERENCE_NETWORK_HH

#include <array>
#include <vector>

#include "coherence/message.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "event/event_queue.hh"

namespace wo {

/** Anything that can receive protocol messages. */
class MsgHandler
{
  public:
    virtual ~MsgHandler() = default;

    /** Deliver @p msg to this node. */
    virtual void receive(const Message &msg) = 0;
};

/** Network configuration. */
struct NetworkCfg
{
    Tick hop_latency = 10;  //!< base one-way latency
    Tick jitter = 0;        //!< uniform extra delay in [0, jitter]
    std::uint64_t seed = 1; //!< jitter RNG seed
};

/** The interconnect. */
class Network
{
  public:
    /**
     * @param eq   the event queue driving the simulation
     * @param cfg  latency parameters
     */
    Network(EventQueue &eq, const NetworkCfg &cfg);

    /**
     * Restore the freshly-constructed state under @p cfg: no handlers,
     * empty pair history, the jitter RNG reseeded, statistics cleared.
     * Table and statistics storage is kept for reuse.
     */
    void reset(const NetworkCfg &cfg);

    /** Register the handler for node @p id (must outlive the network). */
    void attach(NodeId id, MsgHandler *handler);

    /** Send @p msg from msg.src to msg.dst after the configured latency. */
    void send(Message msg);

    /** Messages currently on the wire (sent, not yet delivered). */
    std::uint64_t inFlight() const { return in_flight_; }

    /** Messages sent so far, in total and per type ("msg.<type>"). */
    const StatGroup &stats() const { return stats_; }

  private:
    /** FIFO delivery within a pair despite jitter. */
    Tick nextDepartureSlot(NodeId src, NodeId dst, Tick earliest);

    EventQueue &eq_;
    NetworkCfg cfg_;
    Rng rng_;
    std::vector<MsgHandler *> handlers_;
    // Last scheduled delivery tick per (src,dst) pair, to keep FIFO
    // order: last_delivery_[src][dst], rows grown on first use.
    std::vector<std::vector<Tick>> last_delivery_;
    std::uint64_t in_flight_ = 0; //!< sent, not yet delivered
    StatGroup stats_;
    // Handles into stats_, resolved once: per-message increments skip
    // the name lookup.
    Counter &messages_ = stats_.counterHandle("messages");
    std::array<Counter *, num_msg_types> by_type_{};
};

} // namespace wo

#endif // WO_COHERENCE_NETWORK_HH
