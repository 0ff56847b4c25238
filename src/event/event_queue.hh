/**
 * @file
 * The discrete-event simulation kernel.
 *
 * The timed substrate (network, caches, directory, CPUs) advances simulated
 * time by scheduling callbacks on a single EventQueue.  Events scheduled for
 * the same tick execute in FIFO order of scheduling (stable), which keeps
 * runs deterministic for a given seed.
 *
 * The kernel is the hot path of the verification fleet -- every campaign
 * cell is a full timed simulation -- so it is built for throughput:
 *
 *  - Callbacks live in a small-buffer-optimized slot (EventCallback),
 *    labels are lazy (EventLabel): scheduling an event performs no heap
 *    allocation and no string formatting.
 *  - Events are keyed on (tick, seq) in a two-level calendar queue: a
 *    bucket wheel covering a window of upcoming ticks, with one
 *    append-only bucket per tick (same-tick FIFO is the bucket's
 *    insertion order, by construction), plus an overflow min-heap for
 *    events beyond the window.  Bucket vectors keep their capacity when
 *    drained, so steady-state simulation recycles storage instead of
 *    allocating (see docs/PERF.md for the determinism contract).
 *  - The pre-overhaul binary-heap kernel is retained behind the
 *    WO_LEGACY_EVENT_QUEUE build option as EventQueueKind::legacy_heap;
 *    the kernel-equivalence golden test drives both and proves
 *    bit-identical behaviour until the legacy path is retired.
 */

#ifndef WO_EVENT_EVENT_QUEUE_HH
#define WO_EVENT_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/types.hh"
#include "event/callback.hh"
#include "event/label.hh"

namespace wo {

class Obs;

/** A scheduled callback with a firing time and a debugging label. */
struct Event
{
    Tick when;          //!< absolute firing time
    std::uint64_t seq;  //!< tie-break: schedule order
    EventCallback fn;   //!< the action
    EventLabel label;   //!< debugging aid, rendered on demand
};

/** Which kernel implementation backs an EventQueue. */
enum class EventQueueKind
{
    calendar,    //!< the bucket-wheel + overflow-heap kernel (default)
    legacy_heap, //!< the pre-overhaul std::priority_queue kernel
};

/**
 * A single-threaded event queue ordered by (tick, schedule sequence).
 *
 * The queue is run either to exhaustion (runAll) or until a caller-supplied
 * predicate holds (runUntil).  Components capture `this` in their callbacks;
 * all components must therefore outlive the queue drain.
 */
class EventQueue
{
  public:
    explicit EventQueue(EventQueueKind kind = EventQueueKind::calendar);

    /**
     * Drop every pending event and restore the freshly-constructed
     * state (time 0, sequence 0, no hub) under kernel @p kind.  The
     * bucket arena keeps its capacity, so a reused queue schedules
     * without allocating from its first event on.
     */
    void reset(EventQueueKind kind);

    /** The kernel implementation backing this queue. */
    EventQueueKind kind() const { return kind_; }

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Attach the observability hub.  Every timed component holds the
     * event queue, so the queue doubles as the hub's distribution
     * point; a null hub (the default) disables all instrumentation.
     * The hub must outlive the queue drain.
     */
    void setObs(Obs *obs) { obs_ = obs; }

    /** The attached observability hub, or nullptr. */
    Obs *obs() const { return obs_; }

    /**
     * Schedule @p fn to run @p delay ticks from now.
     * @param delay  relative delay (0 runs later in the current tick)
     * @param label  debugging label, rendered only if someone looks
     * @param fn     the callback
     */
    void schedule(Tick delay, EventLabel label, EventCallback fn);

    /** Schedule at an absolute tick, which must not be in the past. */
    void scheduleAt(Tick when, EventLabel label, EventCallback fn);

    /** True when no events remain. */
    bool empty() const { return pending_ == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return pending_; }

    /** Pop and execute a single event; returns false if none remain. */
    bool step();

    /**
     * Drain the queue.
     * @param max_events safety valve: panic after this many events, which
     *        turns an accidental simulator livelock into a loud failure.
     * @return number of events executed
     */
    std::uint64_t runAll(std::uint64_t max_events = 50'000'000);

    /**
     * Drain until @p done returns true (checked after every event) or the
     * queue empties.  @return number of events executed.
     */
    std::uint64_t runUntil(const std::function<bool()> &done,
                           std::uint64_t max_events = 50'000'000);

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executed() const { return executed_; }

  private:
    /** Ticks covered by the bucket wheel (one bucket per tick). */
    static constexpr std::size_t wheel_bits = 7;
    static constexpr std::size_t wheel_size = std::size_t{1} << wheel_bits;
    static constexpr Tick wheel_mask = wheel_size - 1;
    static constexpr std::size_t npos = ~std::size_t{0};

    /**
     * All events of one tick, in schedule order.  Draining advances
     * `pos` instead of erasing, and a fully drained bucket clears but
     * keeps its capacity -- the wheel doubles as the event arena.
     */
    struct Bucket
    {
        std::vector<Event> events;
        std::size_t pos = 0;
    };

    /** Heap order for the overflow: earliest (when, seq) on top. */
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Remove the next event in (when, seq) order; false when empty. */
    bool popNext(Event &out);

    /** First occupied bucket index >= @p from, or npos. */
    std::size_t findOccupied(std::size_t from) const;

    /**
     * Slide the wheel window forward to the earliest overflow event and
     * migrate every overflow event inside the new window into its
     * bucket.  Pre: the wheel is empty, the overflow is not.
     */
    void refillWheel();

    void markOccupied(std::size_t idx);
    void clearOccupied(std::size_t idx);

    /** Materialize the label / notify obs around one firing. */
    void observeFire(const Event &ev);

    EventQueueKind kind_;
    Tick now_ = 0;
    Obs *obs_ = nullptr;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t pending_ = 0;

    // -- calendar backend ---------------------------------------------
    Tick wheel_base_ = 0; //!< window start, aligned to wheel_size
    std::size_t wheel_pending_ = 0;
    std::vector<Bucket> wheel_;          //!< wheel_size buckets
    std::vector<std::uint64_t> occupied_; //!< bitmap over the buckets
    std::vector<Event> overflow_;        //!< min-heap beyond the window

#ifdef WO_HAVE_LEGACY_EVENT_QUEUE
    // -- legacy backend -----------------------------------------------
    std::priority_queue<Event, std::vector<Event>, Later> pq_;
#endif
};

} // namespace wo

#endif // WO_EVENT_EVENT_QUEUE_HH
