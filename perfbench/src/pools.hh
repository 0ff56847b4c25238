/**
 * @file
 * The benchmark's input pools.  Every input is a pure function of the
 * constants here, so the committed expected digests (perfbench/expected)
 * can pin every output.  A run's --seed picks the order in which the
 * pool is visited (and, for campaign and fleet, the lattice each round
 * runs); the pool itself is fixed so that two runs with different
 * seeds do the same amount of work and their figures compare.
 */

#ifndef PERFBENCH_POOLS_HH
#define PERFBENCH_POOLS_HH

#include <string>
#include <vector>

#include "campaign/cell.hh"
#include "campaign/fuzzer.hh"
#include "campaign/scheduler.hh"
#include "fleet/proto.hh"
#include "program/program.hh"

namespace pb {

/** A pool of run-cell lattices: one runCampaign per lattice seed. */
struct LatticePool
{
    std::vector<std::uint64_t> seeds; //!< base-stream seeds
    std::uint64_t cells = 0;          //!< base-stream indices per lattice
    bool inject_reserve_bug = false;
    bool shrink = false;
};

/** campaign and fleet: clean cells, every policy, the .wo corpus. */
LatticePool campaignPool(const std::string &size);
/** hunt: the same lattice shape with the seeded reserve-clear bug. */
LatticePool huntPool(const std::string &size);

/** Every ordering policy: sc, def1, drf0, drf0ro. */
std::vector<wo::OrderingPolicy> allPolicies();

/** The programs/ directory's .wo files, sorted, checkout-relative. */
std::vector<std::string> corpusFiles();

/** One run cell per corpus program: the litmus corpus, then corpusFiles(). */
std::vector<wo::Cell> corpusCells();

/** The in-process campaign configuration of one lattice round. */
wo::CampaignCfg latticeCfg(const LatticePool &pool, std::uint64_t seed,
                           const std::string &out_dir);

/** The fuzzer whose base stream is that lattice's cells. */
wo::FuzzerCfg latticeFuzzerCfg(const LatticePool &pool, std::uint64_t seed);

/** The same lattice as a fleet campaign spec. */
wo::FleetCampaignSpec latticeSpec(const LatticePool &pool,
                                  std::uint64_t seed);

/** Cell workers of every workload (leaves a core for the rest). */
constexpr int workers = 3;

/**
 * verify: program x model cells of the loop-free corpus (litmus and
 * .wo entries with no branch) and seeded randomRacyProgram draws,
 * crossed with all seven models.  Loop-bearing programs are left out
 * because the axiomatic evaluator cannot unfold them: their cells end
 * inconclusive by design, and the benchmark counts inconclusive cells
 * as failed operations.
 */
std::vector<wo::Cell> verifyCells(const std::string &size);

/** explore: one DPOR search per (program, model). */
struct ExplorePair
{
    std::string id;      //!< "<program id>|<model>"
    std::string program; //!< program id (shared by its 7 models)
    std::string model;
};

/**
 * Seeded random DRF0 programs (spin-lock critical sections) on which the
 * traced verify stage times checkDrf0, by program id.  Their sync loops
 * make verify cells of them inconclusive, so they are not verify cells.
 */
std::vector<std::pair<std::string, wo::Program>>
drf0Programs(const std::string &size);

/** The seeded racy programs explore searches, by program id. */
std::vector<std::pair<std::string, wo::Program>>
explorePrograms(const std::string &size);

std::vector<ExplorePair> explorePairs(const std::string &size);

/** State budget of every explore search (each must end conclusive). */
constexpr std::uint64_t explore_max_states = 2'000'000;

} // namespace pb

#endif // PERFBENCH_POOLS_HH
