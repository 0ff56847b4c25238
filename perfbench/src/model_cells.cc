/**
 * @file
 * The model-checking workloads.  verify runs program x model verify
 * cells through runCell -- materialize, then the dual-engine judge
 * (DPOR vs BFS, axiomatic vs operational SC, the Definition-2 subset
 * claim) -- on three worker threads pulling from one cursor, the way a
 * fleet worker runs a lease.  explore runs one deep parallel DPOR
 * search (exploreOutcomes, jobs 3) per (program, model), one at a
 * time, as `wotool explore --jobs 3` does.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "bench.hh"
#include "campaign/cell.hh"
#include "common/logging.hh"
#include "models/explorer.hh"
#include "model_cells.hh"
#include "models/model_registry.hh"
#include "pools.hh"

namespace pb {

std::string
exploreDigest(const wo::ExploreResult &r)
{
    std::string text;
    for (const auto &o : r.outcomes)
        text += o.toString() + "\n";
    return wo::strprintf(
        "%s outcomes=%zu states=%llu transitions=%llu probes=%llu%s",
        wo::fnv1aHex(text).c_str(), r.outcomes.size(),
        static_cast<unsigned long long>(r.states),
        static_cast<unsigned long long>(r.transitions),
        static_cast<unsigned long long>(r.commutation_probes),
        r.conclusive() ? "" : " inconclusive");
}

std::string
verifyDigest(const wo::CellResult &r)
{
    return wo::strprintf("%s %s dpor=%llu bfs=%llu", r.verdict().c_str(),
                         r.outcome_sig.c_str(),
                         static_cast<unsigned long long>(r.dpor_states),
                         static_cast<unsigned long long>(r.bfs_states));
}

std::string
drf0Id(const std::string &program_id)
{
    return "checkDrf0:" + program_id;
}

std::string
drf0Digest(const wo::SyncModelVerdict &v)
{
    return wo::strprintf("obeys=%d exhausted=%d paths=%llu steps=%llu",
                         v.obeys ? 1 : 0, v.exhausted ? 1 : 0,
                         static_cast<unsigned long long>(v.paths),
                         static_cast<unsigned long long>(v.steps));
}

namespace {

class VerifyWorkload : public Workload
{
  public:
    explicit VerifyWorkload(const Options &opt)
        : opt_(opt), exp_("verify", opt.size)
    {
    }

    void setup() override { cells_ = verifyCells(opt_.size); }

    void measure(RunResult &res) override
    {
        // A pass hands out its cells heaviest first (by the committed
        // DPOR + BFS state counts; the seed orders equal ones), so it
        // ends on short cells rather than on one long cell running
        // alone while the other workers idle.
        std::vector<double> cost(cells_.size());
        for (std::size_t i = 0; i < cells_.size(); ++i)
            cost[i] = expectedStates(cells_[i].key());
        // The rate is the median over passes, so a burst of co-tenant
        // load that slows one pass does not move it.
        std::vector<double> cell_ms, rate;
        double wall = 0;
        std::uint64_t passes = 0, states = 0;
        const auto t0 = Clock::now();
        for (std::size_t p = 0; morePasses(p, secondsSince(t0), opt_.seconds);
             ++p) {
            if (p > 0)
                between();
            auto order = seededOrder(cells_.size(), opt_.seed * 1000003 + p);
            std::stable_sort(order.begin(), order.end(),
                             [&](std::size_t a, std::size_t b) {
                                 return cost[a] > cost[b];
                             });
            std::vector<wo::CellResult> out;
            const double pass_s = runPass(order, out);
            std::uint64_t bad = 0;
            for (std::size_t i = 0; i < cells_.size(); ++i) {
                const wo::CellResult &r = out[i];
                bool ok = exp_.check(r.key, verifyDigest(r), res);
                if (r.inconclusive) {
                    res.mismatches.push_back(r.key + ": inconclusive");
                    ok = false;
                }
                bad += ok ? 0 : 1;
            }
            res.tally(cells_.size(), bad);
            if (bad > 0)
                continue; // a pass with a mismatch is not a timing
            ++passes;
            wall += pass_s;
            rate.push_back(cells_.size() / pass_s);
            for (const wo::CellResult &r : out) {
                cell_ms.push_back(r.wall_ms + r.mat_us / 1000.0);
                states += r.dpor_states + r.bfs_states;
            }
        }
        res.add("cells_per_s", median(rate), "1/s");
        res.add("cell_p50_ms", percentile(cell_ms, 0.50), "ms");
        res.addExtra("cell_p90_ms", percentile(cell_ms, 0.90), "ms");
        res.addExtra("cell_p99_ms", percentile(cell_ms, 0.99), "ms");
        res.addExtra("passes", static_cast<double>(passes), "count");
        res.addExtra("cells_per_pass", static_cast<double>(cells_.size()),
                     "count");
        res.addExtra("engine_states_per_s", wall > 0 ? states / wall : 0,
                     "1/s");
    }

    void record(RunResult &res) override
    {
        std::vector<wo::CellResult> out;
        runPass(seededOrder(cells_.size(), 1), out);
        for (const wo::CellResult &r : out) {
            if (r.inconclusive)
                wo_panic("verify pool cell %s is inconclusive", r.key.c_str());
            exp_.put(r.key, verifyDigest(r));
        }
        // The traced run's checkDrf0 programs share this file.
        for (const auto &[id, prog] : drf0Programs(opt_.size)) {
            const wo::SyncModelVerdict v = wo::checkDrf0(prog);
            if (v.exhausted)
                wo_panic("DRF0 program %s exhausts the step budget", id.c_str());
            exp_.put(drf0Id(id), drf0Digest(v));
        }
        res.tally(out.size(), 0);
        exp_.save();
    }

  private:
    /** One pass over every cell in @p order; returns its wall seconds. */
    double runPass(const std::vector<std::size_t> &order,
                   std::vector<wo::CellResult> &out)
    {
        out.assign(cells_.size(), {});
        std::atomic<std::size_t> cursor{0};
        const auto t0 = Clock::now();
        std::vector<std::thread> pool;
        for (int w = 0; w < workers; ++w)
            pool.emplace_back([&] {
                wo::MaterializeCache cache; // per worker, like the engine
                for (;;) {
                    const std::size_t at = cursor.fetch_add(1);
                    if (at >= order.size())
                        return;
                    const std::size_t i = order[at];
                    out[i] = wo::runCell(cells_[i], 300'000,
                                         wo::EventQueueKind::calendar, &cache)
                                 .result;
                }
            });
        for (auto &t : pool)
            t.join();
        return secondsSince(t0);
    }

    /** DPOR + BFS states of @p key's committed digest (0 if none). */
    double expectedStates(const std::string &key) const
    {
        const std::string *d = exp_.find(key);
        unsigned long long dpor = 0, bfs = 0;
        const std::size_t at = d ? d->find(" dpor=") : std::string::npos;
        if (at != std::string::npos)
            std::sscanf(d->c_str() + at, " dpor=%llu bfs=%llu", &dpor, &bfs);
        return static_cast<double>(dpor + bfs);
    }

    Options opt_;
    Expected exp_;
    std::vector<wo::Cell> cells_;
};

class ExploreWorkload : public Workload
{
  public:
    explicit ExploreWorkload(const Options &opt)
        : opt_(opt), exp_("explore", opt.size)
    {
    }

    void setup() override
    {
        programs_.clear();
        for (auto &[id, prog] : explorePrograms(opt_.size))
            programs_.emplace(id, std::move(prog));
        pairs_ = explorePairs(opt_.size);
    }

    void measure(RunResult &res) override
    {
        // As on verify, the rate is the median over passes.
        std::vector<double> verdict_ms, rate;
        double wall = 0;
        std::uint64_t states = 0, passes = 0;
        const auto t0 = Clock::now();
        for (std::size_t p = 0; morePasses(p, secondsSince(t0), opt_.seconds);
             ++p) {
            std::vector<double> ms;
            std::uint64_t pass_states = 0, bad = 0;
            double pass_s = 0;
            for (std::size_t i :
                 seededOrder(pairs_.size(), opt_.seed * 1000003 + p)) {
                if (p > 0 || !ms.empty())
                    between(); // searches are separate: a round boundary
                const auto e0 = Clock::now();
                const wo::ExploreResult r = explore(pairs_[i], 3);
                const double s = secondsSince(e0);
                pass_s += s;
                ms.push_back(s * 1000.0);
                pass_states += r.states;
                if (!exp_.check(pairs_[i].id, exploreDigest(r), res))
                    ++bad;
            }
            res.tally(pairs_.size(), bad);
            if (bad > 0)
                continue;
            ++passes;
            wall += pass_s;
            rate.push_back(pairs_.size() / pass_s);
            states += pass_states;
            verdict_ms.insert(verdict_ms.end(), ms.begin(), ms.end());
        }
        res.add("cells_per_s", median(rate), "1/s");
        res.add("cell_p50_ms", percentile(verdict_ms, 0.50), "ms");
        res.addExtra("cell_p90_ms", percentile(verdict_ms, 0.90), "ms");
        res.addExtra("cell_p99_ms", percentile(verdict_ms, 0.99), "ms");
        res.addExtra("states_per_s", wall > 0 ? states / wall : 0, "1/s");
        res.addExtra("verdict_p50_ms", percentile(verdict_ms, 0.50), "ms");
        res.addExtra("verdict_p90_ms", percentile(verdict_ms, 0.90), "ms");
        res.addExtra("passes", static_cast<double>(passes), "count");
    }

    void record(RunResult &res) override
    {
        for (const ExplorePair &p : pairs_) {
            const wo::ExploreResult r = explore(p, 3);
            if (!r.conclusive())
                wo_panic("explore pool pair %s is inconclusive", p.id.c_str());
            exp_.put(p.id, exploreDigest(r));
        }
        res.tally(pairs_.size(), 0);
        exp_.save();
    }

  private:
    wo::ExploreResult explore(const ExplorePair &p, int jobs) const
    {
        wo::ExploreCfg cfg;
        cfg.max_states = explore_max_states;
        cfg.algo = wo::ExploreAlgo::dpor;
        cfg.jobs = jobs;
        wo::ExploreResult r;
        wo::withModelByName(programs_.at(p.program), p.model,
                            [&](auto &m) { r = wo::exploreOutcomes(m, cfg); });
        return r;
    }

    Options opt_;
    Expected exp_;
    std::map<std::string, wo::Program> programs_;
    std::vector<ExplorePair> pairs_;
};

} // namespace

std::unique_ptr<Workload>
makeModelWorkload(const Options &opt)
{
    if (opt.workload == "verify")
        return std::make_unique<VerifyWorkload>(opt);
    if (opt.workload == "explore")
        return std::make_unique<ExploreWorkload>(opt);
    return nullptr;
}

} // namespace pb
