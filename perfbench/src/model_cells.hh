/**
 * @file
 * The committed-digest forms of the model-checking workloads' outputs,
 * shared by the measured runs and the traced ledger.
 */

#ifndef PERFBENCH_MODEL_CELLS_HH
#define PERFBENCH_MODEL_CELLS_HH

#include <string>

#include "campaign/cell.hh"
#include "core/drf0_checker.hh"
#include "models/explorer.hh"

namespace pb {

/** An exploration: outcome-set digest and its exact counters. */
std::string exploreDigest(const wo::ExploreResult &r);

/** A verify cell: verdict, outcome signature, DPOR and BFS states. */
std::string verifyDigest(const wo::CellResult &r);

/** Expected-file id of checkDrf0 on drf0Programs() entry @p program_id. */
std::string drf0Id(const std::string &program_id);

/** A checkDrf0 verdict: obeys, exhausted, paths and steps. */
std::string drf0Digest(const wo::SyncModelVerdict &v);

} // namespace pb

#endif // PERFBENCH_MODEL_CELLS_HH
