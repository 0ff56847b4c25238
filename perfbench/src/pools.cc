#include "pools.hh"

#include <algorithm>
#include <filesystem>

#include "common/logging.hh"
#include "models/model_registry.hh"
#include "program/workload.hh"

namespace pb {

namespace {

bool
tiny(const std::string &size)
{
    return size == "tiny";
}

std::vector<std::uint64_t>
seedRange(std::uint64_t first, std::size_t n)
{
    std::vector<std::uint64_t> s;
    for (std::size_t i = 0; i < n; ++i)
        s.push_back(first + i);
    return s;
}

/** True when @p p has no branch or jump (a straight-line program). */
bool
loopFree(const wo::Program &p)
{
    for (wo::ProcId t = 0; t < p.numThreads(); ++t)
        for (const wo::Instruction &in : p.thread(t).code)
            if (in.op == wo::Opcode::branch_eq ||
                in.op == wo::Opcode::branch_ne || in.op == wo::Opcode::jump)
                return false;
    return true;
}

} // namespace

LatticePool
campaignPool(const std::string &size)
{
    LatticePool p;
    p.seeds = seedRange(101, tiny(size) ? 1 : 16);
    p.cells = tiny(size) ? 256 : 8192;
    // Shrinking is the hunt workload's subject.  The drf0ro cells of a
    // clean lattice do raise hardware findings (see README), and with
    // shrinking on their ddmin runs would swamp the per-cell path this
    // workload prices; with it off each finding costs one reproduction
    // run and its evidence bundle.
    p.shrink = false;
    return p;
}

LatticePool
huntPool(const std::string &size)
{
    LatticePool p;
    p.seeds = seedRange(201, tiny(size) ? 1 : 4);
    p.cells = 96; // fewer would end before the first drf0-policy cell
    p.inject_reserve_bug = true;
    p.shrink = true;
    return p;
}

std::vector<wo::OrderingPolicy>
allPolicies()
{
    return {wo::OrderingPolicy::sc, wo::OrderingPolicy::wo_def1,
            wo::OrderingPolicy::wo_drf0, wo::OrderingPolicy::wo_drf0_ro};
}

std::vector<std::string>
corpusFiles()
{
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator("programs", ec))
        if (e.path().extension() == ".wo")
            files.push_back("programs/" + e.path().filename().string());
    std::sort(files.begin(), files.end());
    return files;
}

wo::CampaignCfg
latticeCfg(const LatticePool &pool, std::uint64_t seed,
           const std::string &out_dir)
{
    wo::CampaignCfg cfg;
    cfg.jobs = workers;
    cfg.cells = pool.cells;
    cfg.out_dir = out_dir;
    cfg.program_files = corpusFiles();
    cfg.policies = allPolicies();
    cfg.shrink = pool.shrink;
    cfg.frontier = false; // the executed cell set is pure in (seed, cells)
    cfg.seed = seed;
    cfg.inject_reserve_bug = pool.inject_reserve_bug;
    return cfg;
}

wo::FuzzerCfg
latticeFuzzerCfg(const LatticePool &pool, std::uint64_t seed)
{
    const wo::CampaignCfg c = latticeCfg(pool, seed, "");
    wo::FuzzerCfg fc;
    fc.seed = c.seed;
    fc.policies = c.policies;
    fc.program_files = c.program_files;
    fc.inject_reserve_bug = c.inject_reserve_bug;
    return fc;
}

wo::FleetCampaignSpec
latticeSpec(const LatticePool &pool, std::uint64_t seed)
{
    const wo::CampaignCfg c = latticeCfg(pool, seed, "");
    wo::FleetCampaignSpec spec;
    spec.seed = c.seed;
    spec.cells = c.cells;
    spec.policies = c.policies;
    spec.program_files = c.program_files;
    spec.max_events = c.max_events;
    spec.shrink = c.shrink;
    spec.shrink_max_runs = c.shrink_max_runs;
    spec.inject_reserve_bug = c.inject_reserve_bug;
    return spec;
}

std::vector<wo::Cell>
corpusCells()
{
    std::vector<wo::Cell> programs;
    for (const auto &e : wo::litmusCorpus()) {
        wo::Cell c;
        c.source = wo::CellSource::litmus;
        c.spec = e.name;
        programs.push_back(c);
    }
    for (const std::string &f : corpusFiles()) {
        wo::Cell c;
        c.source = wo::CellSource::file;
        c.spec = f;
        programs.push_back(c);
    }
    return programs;
}

std::vector<wo::Cell>
verifyCells(const std::string &size)
{
    // Keep the loop-free corpus entries (decided on the built program,
    // not by name), then add the racy draws.
    std::vector<wo::Cell> kept;
    for (const wo::Cell &c : corpusCells()) {
        const wo::MaterializedCell m = wo::materializeCell(c);
        if (m.ok() && loopFree(*m.program))
            kept.push_back(c);
    }
    if (tiny(size))
        kept.resize(std::min<std::size_t>(kept.size(), 2));
    // Generator seeds of the racy draws: those of 301-324 whose seven
    // models' DPOR and BFS searches stay under 6x10^4 states in all, so
    // that a pass is about a second and a run repeats many of them.
    const std::vector<std::uint64_t> seeds =
        tiny(size) ? std::vector<std::uint64_t>{301}
                   : std::vector<std::uint64_t>{301, 307, 309, 311, 313, 316,
                                                317, 319, 320, 321, 322, 324};
    for (std::uint64_t seed : seeds) {
        wo::Cell c;
        c.source = wo::CellSource::racy_rand;
        c.racy.procs = tiny(size) ? 2 : 3;
        c.racy.locs = 2;
        c.racy.ops_per_thread = 3;
        c.racy.seed = seed;
        kept.push_back(c);
    }

    std::vector<wo::Cell> cells;
    for (const wo::Cell &p : kept)
        for (const std::string &model : wo::modelNames()) {
            wo::Cell c = p;
            c.kind = wo::CellKind::verify;
            c.model = model;
            cells.push_back(c);
        }
    return cells;
}

std::vector<std::pair<std::string, wo::Program>>
drf0Programs(const std::string &size)
{
    // Lock-disciplined draws whose Test-and-TAS spin loops give the DRF0
    // checker real path enumeration (10^4-10^5 steps each), sized to
    // finish well inside its default step budget.
    struct Shape
    {
        wo::ProcId procs;
        int sections, ops;
    };
    const std::vector<Shape> shapes =
        tiny(size) ? std::vector<Shape>{{2, 1, 2}}
                   : std::vector<Shape>{{2, 2, 1}, {2, 2, 2}, {3, 1, 1}, {3, 1, 2}};
    std::vector<std::pair<std::string, wo::Program>> progs;
    for (const Shape &sh : shapes)
        for (std::uint64_t seed : {1, 2}) {
            wo::Drf0WorkloadCfg cfg;
            cfg.procs = sh.procs;
            cfg.sections = sh.sections;
            cfg.ops_per_section = sh.ops;
            cfg.seed = seed;
            progs.emplace_back(
                wo::strprintf("drf0-p%us%do%ds%llu", cfg.procs, cfg.sections,
                              cfg.ops_per_section,
                              static_cast<unsigned long long>(cfg.seed)),
                wo::randomDrf0Program(cfg));
        }
    return progs;
}

std::vector<std::pair<std::string, wo::Program>>
explorePrograms(const std::string &size)
{
    // Generator seeds of the draws: those of 401-440 whose largest
    // search (always the stale model's) ends between 1.5x10^4 and 10^5
    // states; on most draws it runs past 10^5.  A pass is then under
    // two seconds and a run repeats several.
    const std::vector<std::uint64_t> seeds =
        tiny(size) ? std::vector<std::uint64_t>{401}
                   : std::vector<std::uint64_t>{402, 406, 415, 418, 420, 424,
                                                431, 438};
    std::vector<std::pair<std::string, wo::Program>> progs;
    for (std::uint64_t seed : seeds) {
        wo::RacyWorkloadCfg cfg;
        cfg.procs = tiny(size) ? 2 : 3;
        cfg.locs = 2;
        cfg.ops_per_thread = tiny(size) ? 3 : 4;
        cfg.seed = seed;
        progs.emplace_back(
            wo::strprintf("racy-p%uo%ds%llu", cfg.procs, cfg.ops_per_thread,
                          static_cast<unsigned long long>(cfg.seed)),
            wo::randomRacyProgram(cfg));
    }
    return progs;
}

std::vector<ExplorePair>
explorePairs(const std::string &size)
{
    std::vector<ExplorePair> pairs;
    for (const auto &[id, prog] : explorePrograms(size))
        for (const std::string &model : wo::modelNames())
            pairs.push_back({id + "|" + model, id, model});
    return pairs;
}

} // namespace pb
