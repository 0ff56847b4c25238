/**
 * @file
 * A parallel program: one instruction sequence per processor plus the shape
 * of shared memory.  Programs are immutable once built (see builder.hh) and
 * are consumed by the abstract model explorer, the happens-before/DRF0
 * machinery, and the timed full-system simulator alike.
 */

#ifndef WO_PROGRAM_PROGRAM_HH
#define WO_PROGRAM_PROGRAM_HH

#include <string>
#include <vector>

#include "program/instruction.hh"

namespace wo {

/** The code of one thread. */
struct ThreadCode
{
    std::vector<Instruction> code;

    /** Instruction at @p pc; pc must be in range. */
    const Instruction &at(Pc pc) const;

    /** Number of instructions. */
    Pc size() const { return static_cast<Pc>(code.size()); }
};

/** An immutable parallel program. */
class Program
{
  public:
    /**
     * Construct and validate.
     * @param name          label used in reports
     * @param threads       per-processor code (every thread ends in halt)
     * @param num_locations shared locations are addresses [0, num_locations)
     * @param initial       initial value of every shared location
     */
    Program(std::string name, std::vector<ThreadCode> threads,
            Addr num_locations, Value initial = 0);

    /** Label for reports. */
    const std::string &name() const { return name_; }

    /** Number of threads / processors. */
    ProcId numThreads() const
    {
        return static_cast<ProcId>(threads_.size());
    }

    /** Code of thread @p p. */
    const ThreadCode &thread(ProcId p) const;

    /** Number of shared memory locations. */
    Addr numLocations() const { return num_locations_; }

    /** Initial value of location @p a. */
    Value initialValue(Addr a) const;

    /** Override the initial value of location @p a. */
    void setInitial(Addr a, Value v);

    /** Initial memory image, indexed by address. */
    const std::vector<Value> &initialMemory() const { return initials_; }

    /** Give location @p a a name for pretty-printing (e.g. "x"). */
    void nameLocation(Addr a, std::string name);

    /** Pretty name of location @p a ("[a]" when unnamed). */
    std::string locationName(Addr a) const;

    /** Total static instruction count over all threads. */
    std::size_t staticSize() const;

    /** Multi-line disassembly of the whole program. */
    std::string toString() const;

  private:
    /** Panic on out-of-range registers, addresses or branch targets. */
    void validate() const;

    std::string name_;
    std::vector<ThreadCode> threads_;
    Addr num_locations_;
    std::vector<Value> initials_;
    std::vector<std::string> loc_names_;
};

} // namespace wo

#endif // WO_PROGRAM_PROGRAM_HH
