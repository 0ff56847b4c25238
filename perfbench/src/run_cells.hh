/**
 * @file
 * Journal read-back and lattice digests shared by the run-cell
 * workloads and the traced ledger.
 */

#ifndef PERFBENCH_RUN_CELLS_HH
#define PERFBENCH_RUN_CELLS_HH

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace pb {

/** One journaled cell line, as the benchmark checks and times it. */
struct CellLine
{
    std::string key;
    std::string verdict;
    std::string sig;
    double ms = 0;        //!< System build + run
    double mat_us = 0;    //!< materialize
    double shrink_us = 0; //!< shrink + evidence (failing cells)
};

/** The cell lines of a campaign journal. */
std::vector<CellLine> readJournalCells(const std::string &path);

/** A lattice's results reduced to one comparable line. */
struct LatticeDigest
{
    std::string digest;          //!< "<fnv> cells=<n> hw=<n>"
    std::uint64_t distinct = 0;  //!< distinct keys (cells actually run)
    std::uint64_t hw = 0;        //!< keys with a hardware verdict
    std::uint64_t conflicts = 0; //!< keys that gave two results
};

/**
 * Reduce a lattice's cells to one comparable line.  @p dedup is the
 * set of failure dedup keys a hunt lattice filed; it joins the digest
 * when @p with_dedup is set.
 */
LatticeDigest digestLattice(const std::vector<CellLine> &cells,
                            bool with_dedup = false,
                            const std::set<std::string> &dedup = {});

/** The expected-digest id of lattice @p seed. */
std::string latticeId(std::uint64_t seed);

/** The journal a campaign writes under @p dir. */
std::string journalIn(const std::string &dir);

} // namespace pb

#endif // PERFBENCH_RUN_CELLS_HH
