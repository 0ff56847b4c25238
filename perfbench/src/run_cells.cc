/**
 * @file
 * The run-cell workloads: campaign (runCampaign in process), fleet (the
 * same lattices through a loopback Coordinator and three FleetWorkers)
 * and hunt (runCampaign with the seeded reserve-clear bug, so the
 * shrink / evidence / dedup path runs).  Each round runs one whole
 * lattice; its journal is read back and digested against the
 * committed expected results before the round's timing counts.
 */

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <thread>
#include <unordered_set>

#include "bench.hh"
#include "campaign/cell.hh"
#include "campaign/fuzzer.hh"
#include "campaign/scheduler.hh"
#include "common/logging.hh"
#include "fleet/coordinator.hh"
#include "fleet/worker.hh"
#include "obs/json.hh"
#include "pools.hh"
#include "run_cells.hh"

namespace pb {

std::vector<CellLine>
readJournalCells(const std::string &path)
{
    std::vector<CellLine> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        const wo::JsonParseResult p = wo::jsonParse(line);
        if (!p.ok || !p.value.isObject())
            continue;
        const wo::Json *type = p.value.find("type");
        if (!type || !type->isString() || type->stringValue() != "cell")
            continue;
        auto str = [&](const char *k) {
            const wo::Json *v = p.value.find(k);
            return v && v->isString() ? v->stringValue() : std::string();
        };
        auto num = [&](const char *k) {
            const wo::Json *v = p.value.find(k);
            return v ? v->numberValue() : 0.0;
        };
        out.push_back({str("key"), str("verdict"), str("sig"), num("ms"),
                       num("mat_us"), num("shrink_us")});
    }
    return out;
}

LatticeDigest
digestLattice(const std::vector<CellLine> &cells, bool with_dedup,
              const std::set<std::string> &dedup)
{
    // One "key verdict sig" line per distinct key, in key order: the
    // in-process engine skips a repeated key, the fleet runs it again,
    // and both must agree on what the key produced.
    std::map<std::string, const CellLine *> by_key;
    LatticeDigest d;
    for (const CellLine &c : cells) {
        auto [it, fresh] = by_key.emplace(c.key, &c);
        if (!fresh && (it->second->verdict != c.verdict ||
                       it->second->sig != c.sig))
            ++d.conflicts;
    }
    std::string text;
    for (const auto &[key, c] : by_key) {
        text += key + " " + c->verdict + " " + c->sig + "\n";
        if (c->verdict.rfind("hw:", 0) == 0)
            ++d.hw;
    }
    d.distinct = by_key.size();
    d.digest = wo::strprintf("%s cells=%llu hw=%llu", wo::fnv1aHex(text).c_str(),
                             static_cast<unsigned long long>(d.distinct),
                             static_cast<unsigned long long>(d.hw));
    if (with_dedup) {
        std::string keys;
        for (const std::string &k : dedup)
            keys += k + "\n";
        d.digest += " dedup=" + wo::fnv1aHex(keys) +
                    wo::strprintf(" unique=%zu", dedup.size());
    }
    return d;
}

std::string
latticeId(std::uint64_t seed)
{
    return wo::strprintf("seed%llu", static_cast<unsigned long long>(seed));
}

std::string
journalIn(const std::string &dir)
{
    return dir + "/campaign.journal.jsonl";
}

namespace {

enum class Kind { campaign, fleet, hunt };

class RunCellWorkload : public Workload
{
  public:
    RunCellWorkload(const Options &opt, Kind kind)
        : opt_(opt), kind_(kind),
          pool_(kind == Kind::hunt ? huntPool(opt.size)
                                   : campaignPool(opt.size)),
          exp_(kind == Kind::hunt ? "hunt" : "campaign", opt.size)
    {
        // The check's reference: distinct keys of each lattice, counted
        // from the base stream.
        for (std::uint64_t seed : pool_.seeds) {
            const wo::Fuzzer fuzzer(latticeFuzzerCfg(pool_, seed));
            std::unordered_set<std::string> keys;
            for (std::uint64_t i = 0; i < pool_.cells; ++i)
                keys.insert(fuzzer.baseCell(i).key());
            distinct_[seed] = keys.size();
        }
    }

    ~RunCellWorkload() override { teardown(); }

    void setup() override
    {
        // What a campaign loads before its first cell: the corpus
        // programs every lattice draws from (the litmus corpus built,
        // programs/*.wo parsed and assembled) and, for the fleet, a
        // listening coordinator with its workers connected.
        corpus_ = std::make_unique<wo::MaterializeCache>();
        for (const wo::Cell &c : corpusCells())
            if (!wo::materializeCell(c, corpus_.get()).ok())
                wo_panic("corpus program %s did not build", c.spec.c_str());
        if (kind_ == Kind::fleet)
            startFleet();
    }

    void teardown() override
    {
        if (coord_) {
            coord_->stop();
            for (auto &t : threads_)
                t.join();
            threads_.clear();
            fleet_.clear();
            coord_.reset();
        }
    }

    void measure(RunResult &res) override
    {
        const std::vector<std::size_t> order =
            seededOrder(pool_.seeds.size(), opt_.seed);
        // Rates and percentiles are taken per round and reported as the
        // median over rounds, so a burst of co-tenant load that slows a
        // few rounds does not move the figure.
        std::vector<double> repro_ms;
        std::vector<double> rate, p50, p90, p99;
        std::uint64_t cells = 0, rounds = 0, hw = 0, failures = 0;
        std::uint64_t dups = 0, budget = 0;
        // Hunt rounds differ in cost (each lattice has its own failures),
        // so hunt runs whole passes over its pool; campaign and fleet
        // lattices cost alike and stop at any round boundary.
        const std::size_t pass = kind_ == Kind::hunt ? order.size() : 1;
        const auto t0 = Clock::now();
        for (std::size_t r = 0;; ++r) {
            if (r % pass == 0 &&
                !morePasses(r / pass, secondsSince(t0), opt_.seconds))
                break;
            if (r > 0)
                between();
            const std::uint64_t seed = pool_.seeds[order[r % order.size()]];
            Round rd = runRound(seed, r);
            const bool ok = check(seed, rd, res);
            res.tally(rd.digest.distinct, ok ? 0 : rd.digest.distinct);
            if (!ok)
                continue; // a mismatching round is not a timing
            ++rounds;
            rate.push_back(rd.digest.distinct / rd.wall_s);
            cells += rd.digest.distinct;
            hw += rd.digest.hw;
            failures += rd.dedup.size();
            dups += pool_.cells - rd.digest.distinct;
            budget += pool_.cells;
            std::vector<double> ms;
            for (const CellLine &c : rd.cells) {
                ms.push_back(c.ms + c.mat_us / 1000.0);
                if (c.verdict.rfind("hw:", 0) == 0 && c.shrink_us > 0)
                    repro_ms.push_back(c.shrink_us / 1000.0);
            }
            p50.push_back(percentile(ms, 0.50));
            p90.push_back(percentile(ms, 0.90));
            p99.push_back(percentile(ms, 0.99));
        }
        res.add("cells_per_s", median(rate), "1/s");
        res.add("cell_p50_ms", median(p50), "ms");
        res.addExtra("cell_p90_ms", median(p90), "ms");
        res.addExtra("cell_p99_ms", median(p99), "ms");
        res.addExtra("rounds", static_cast<double>(rounds), "count");
        res.addExtra("cells_run", static_cast<double>(cells), "count");
        res.addExtra("dup_share",
                     budget ? static_cast<double>(dups) / budget : 0,
                     "ratio");
        res.addExtra("hw_cells", static_cast<double>(hw), "count");
        if (kind_ == Kind::hunt) {
            res.addExtra("repro_p50_ms", percentile(repro_ms, 0.50), "ms");
            res.addExtra("repro_p90_ms", percentile(repro_ms, 0.90), "ms");
            res.addExtra("repro_samples",
                         static_cast<double>(repro_ms.size()), "count");
            res.addExtra("unique_failures", static_cast<double>(failures),
                         "count");
        }
    }

    void record(RunResult &res) override
    {
        if (kind_ == Kind::fleet)
            wo_panic("fleet shares the campaign digests; record campaign");
        for (std::size_t r = 0; r < pool_.seeds.size(); ++r) {
            Round rd = runRound(pool_.seeds[r], r);
            exp_.put(latticeId(pool_.seeds[r]), rd.digest.digest);
            res.tally(rd.digest.distinct, 0);
        }
        exp_.save();
    }

  private:
    struct Round
    {
        double wall_s = 0;
        std::vector<CellLine> cells;
        LatticeDigest digest;
        std::set<std::string> dedup;     //!< filed failures' dedup keys
        std::uint64_t unreproduced = 0;  //!< shrunk minimum lost the bug
        std::uint64_t fleet_faults = 0;  //!< duplicate or reassigned
    };

    bool check(std::uint64_t seed, const Round &rd, RunResult &res)
    {
        bool ok = exp_.check(latticeId(seed), rd.digest.digest, res);
        if (rd.digest.conflicts > 0) {
            res.mismatches.push_back(latticeId(seed) +
                                     ": one key gave two results");
            ok = false;
        }
        if (rd.unreproduced > 0) {
            res.mismatches.push_back(latticeId(seed) +
                                     ": a filed reproducer does not reproduce");
            ok = false;
        }
        if (rd.digest.distinct != distinct_[seed]) {
            res.mismatches.push_back(
                latticeId(seed) + wo::strprintf(
                    ": ran %llu distinct cells, the lattice has %llu",
                    static_cast<unsigned long long>(rd.digest.distinct),
                    static_cast<unsigned long long>(distinct_[seed])));
            ok = false;
        }
        if (rd.fleet_faults > 0) {
            res.mismatches.push_back(latticeId(seed) +
                                     ": fleet dropped or duplicated results");
            ok = false;
        }
        return ok;
    }

    Round runRound(std::uint64_t seed, std::size_t r)
    {
        Round rd;
        if (kind_ == Kind::fleet) {
            const auto t0 = Clock::now();
            const std::uint64_t id =
                coord_->submitLocal(latticeSpec(pool_, seed));
            wo::Json summary;
            if (!coord_->waitCampaign(id, 120'000, &summary))
                wo_panic("fleet campaign %llu did not complete",
                         static_cast<unsigned long long>(id));
            rd.wall_s = secondsSince(t0);
            const std::string dir =
                fleet_dir_ + wo::strprintf("/c%llu",
                                           static_cast<unsigned long long>(id));
            rd.cells = readJournalCells(journalIn(dir));
            for (const char *k : {"duplicate_results", "reassigned_leases"})
                if (const wo::Json *v = summary.find(k))
                    rd.fleet_faults += v->uintValue();
            std::error_code ec;
            std::filesystem::remove_all(dir, ec);
        } else {
            const std::string dir = workDir(opt_, wo::strprintf("r%zu", r % 2));
            const wo::CampaignCfg cfg = latticeCfg(pool_, seed, dir);
            const auto t0 = Clock::now();
            const wo::CampaignSummary sum = wo::runCampaign(cfg);
            rd.wall_s = secondsSince(t0);
            rd.cells = readJournalCells(journalIn(dir));
            for (const wo::FailureRecord &f : sum.failures) {
                rd.dedup.insert(f.dedup);
                if (pool_.shrink && !f.reproduced)
                    ++rd.unreproduced;
            }
        }
        rd.digest = digestLattice(rd.cells, pool_.inject_reserve_bug, rd.dedup);
        return rd;
    }

    void startFleet()
    {
        fleet_dir_ = workDir(opt_, "fleet");
        wo::CoordinatorCfg ccfg;
        ccfg.out_dir = fleet_dir_;
        coord_ = std::make_unique<wo::Coordinator>(ccfg);
        if (!coord_->start())
            wo_panic("coordinator: %s", coord_->lastError().c_str());
        for (int i = 0; i < workers; ++i) {
            wo::WorkerCfg wcfg;
            wcfg.connect = {"127.0.0.1", coord_->port()};
            wcfg.jobs = 1;
            fleet_.push_back(std::make_unique<wo::FleetWorker>(wcfg));
            threads_.emplace_back(
                [w = fleet_.back().get()] { w->connectAndRun(); });
        }
        if (!coord_->waitForWorkers(workers, 30'000))
            wo_panic("fleet workers never connected");
    }

    Options opt_;
    Kind kind_;
    LatticePool pool_;
    Expected exp_;
    /** Distinct keys of each lattice, counted from the base stream. */
    std::map<std::uint64_t, std::uint64_t> distinct_;
    std::unique_ptr<wo::MaterializeCache> corpus_;
    std::string fleet_dir_;
    std::unique_ptr<wo::Coordinator> coord_;
    std::vector<std::unique_ptr<wo::FleetWorker>> fleet_;
    std::vector<std::thread> threads_;
};

} // namespace

std::unique_ptr<Workload>
makeRunCellWorkload(const Options &opt)
{
    if (opt.workload == "campaign")
        return std::make_unique<RunCellWorkload>(opt, Kind::campaign);
    if (opt.workload == "fleet")
        return std::make_unique<RunCellWorkload>(opt, Kind::fleet);
    if (opt.workload == "hunt")
        return std::make_unique<RunCellWorkload>(opt, Kind::hunt);
    return nullptr;
}

} // namespace pb
