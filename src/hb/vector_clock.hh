/**
 * @file
 * Vector clocks over processors, the workhorse representation of the
 * happens-before partial order.  A clock maps each processor to the number
 * of its operations known to causally precede the clock's owner.
 */

#ifndef WO_HB_VECTOR_CLOCK_HH
#define WO_HB_VECTOR_CLOCK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace wo {

/** A fixed-width vector clock. */
class VectorClock
{
  public:
    VectorClock() = default;

    /** An all-zero clock over @p procs processors. */
    explicit VectorClock(ProcId procs) : c_(procs, 0) {}

    /** Become the all-zero clock over @p procs (storage is kept). */
    void reset(ProcId procs) { c_.assign(procs, 0); }

    /** Component for processor @p p. */
    std::uint32_t operator[](ProcId p) const { return c_[p]; }

    /** Mutable component for processor @p p. */
    std::uint32_t &operator[](ProcId p) { return c_[p]; }

    /** Component-wise maximum with @p other (in place). */
    void join(const VectorClock &other);

    /** True iff every component of this is <= the matching one of other. */
    bool leq(const VectorClock &other) const;

    /** Number of components. */
    ProcId size() const { return static_cast<ProcId>(c_.size()); }

    bool operator==(const VectorClock &other) const = default;

    /** e.g. "<1,0,2>". */
    std::string toString() const;

  private:
    std::vector<std::uint32_t> c_;
};

} // namespace wo

#endif // WO_HB_VECTOR_CLOCK_HH
