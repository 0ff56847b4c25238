#include "system.hh"

#include "common/logging.hh"
#include "obs/artifact.hh"
#include "obs/metrics.hh"
#include "obs/monitor.hh"
#include "obs/profiler.hh"
#include "obs/recorder.hh"
#include "obs/sampler.hh"

namespace wo {

std::uint64_t
SystemResult::cpu_stat_total(const std::string &name) const
{
    std::uint64_t total = 0;
    for (const auto &m : cpu_counters) {
        auto it = m.find(name);
        if (it != m.end())
            total += it->second;
    }
    return total;
}

std::uint64_t
SystemResult::stall_stat_total(const std::string &name) const
{
    std::uint64_t total = 0;
    for (const auto &m : stall_counters) {
        auto it = m.find(name);
        if (it != m.end())
            total += it->second;
    }
    return total;
}

System::System(const Program &prog, const SystemCfg &cfg)
    : eq_(cfg.queue)
{
    reset(prog, cfg);
}

void
System::reset(const Program &prog, const SystemCfg &cfg)
{
    prog_ = &prog;
    cfg_ = cfg;
    procs_ = prog.numThreads();
    evidence_dumped_ = false;
    const NodeId dir_id = procs_;
    const Addr nlocs = prog.numLocations();
    cfg_.cache.sync_reads_as_reads =
        cfg_.policy == OrderingPolicy::wo_drf0_ro;

    // Pending events capture component pointers: drop them first.
    eq_.reset(cfg_.queue);
    if (obs_)
        obs_->reset(procs_);
    else
        obs_ = std::make_unique<Obs>(procs_);
    if (cfg_.trace)
        obs_->enableTrace(cfg_.trace_queue_events);
    monitor_ = nullptr;
    if (cfg_.monitor) {
        MonitorCfg mc;
        mc.flavor = cfg_.policy == OrderingPolicy::wo_drf0_ro
                        ? HbRelation::SyncFlavor::weak_sync_read
                        : HbRelation::SyncFlavor::drf0;
        // Witness text is read only by the report (collect_stats) and
        // the evidence bundle (dump_on_fail).
        mc.witness_text =
            cfg_.collect_stats || !cfg_.dump_on_fail.empty();
        if (monitor_store_)
            monitor_store_->reset(procs_, nlocs, prog.initialMemory(), mc);
        else
            monitor_store_ = std::make_unique<Monitor>(
                procs_, nlocs, prog.initialMemory(), mc);
        monitor_ = monitor_store_.get();
        obs_->attachMonitor(monitor_);
    }
    recorder_.reset();
    if (cfg_.flight_recorder) {
        recorder_ =
            std::make_unique<FlightRecorder>(cfg_.flight_recorder_capacity);
        obs_->attachRecorder(recorder_.get());
    }
    eq_.setObs(obs_.get());

    if (net_)
        net_->reset(cfg_.net);
    else
        net_ = std::make_unique<Network>(eq_, cfg_.net);
    if (dir_)
        dir_->reset(dir_id, prog.initialMemory(), cfg_.dir);
    else
        dir_ = std::make_unique<Directory>(dir_id, *net_,
                                           prog.initialMemory(), cfg_.dir);
    net_->attach(dir_id, dir_.get());
    if (exec_)
        exec_->reset(procs_, nlocs, prog.initialMemory());
    else
        exec_ = std::make_unique<Execution>(procs_, nlocs,
                                            prog.initialMemory());
    for (ProcId p = 0; p < procs_; ++p) {
        if (p < cpus_.size()) {
            cpus_[p]->reset(prog, cfg_.policy, cfg_.cpu);
            caches_[p]->reset(dir_id, nlocs, cfg_.cache);
        } else {
            cpus_.push_back(std::make_unique<Cpu>(
                p, prog, eq_, cfg_.policy, exec_.get(), cfg_.cpu));
            caches_.push_back(std::make_unique<Cache>(
                p, dir_id, procs_, eq_, *net_, cpus_.back().get(), nlocs,
                cfg_.cache));
            cpus_.back()->attachCache(caches_.back().get());
        }
        net_->attach(p, caches_[p].get());
    }

    sampler_.reset();
    if (cfg_.sample_interval > 0) {
        sampler_ = std::make_unique<Sampler>(cfg_.sample_interval);
        for (ProcId p = 0; p < procs_; ++p) {
            sampler_->addProbe(
                strprintf("cpu%u.outstanding", p),
                [c = caches_[p].get()]() -> std::uint64_t {
                    const int v = c->counter();
                    return v > 0 ? static_cast<std::uint64_t>(v) : 0;
                });
            auto bucketProbe = [this, p](const char *name) {
                return [this, p, name]() -> std::uint64_t {
                    const auto &m = obs_->stallStats(p).counters();
                    auto it = m.find(name);
                    return it == m.end() ? 0 : it->second.value();
                };
            };
            for (int b = 0; b < num_stall_buckets; ++b) {
                const char *bn =
                    stallBucketName(static_cast<StallBucket>(b));
                sampler_->addProbe(strprintf("cpu%u.stall.%s", p, bn),
                                   bucketProbe(bn));
            }
            sampler_->addProbe(strprintf("cpu%u.stall.total", p),
                               bucketProbe("total"));
        }
        sampler_->addProbe("net.in_flight", [n = net_.get()] {
            return n->inFlight();
        });
        sampler_->addProbe("dir.busy_lines", [d = dir_.get()] {
            return d->busyLines();
        });
        obs_->attachSampler(sampler_.get());
    }
}

System::~System() = default;

Cache &
System::cache(ProcId p)
{
    wo_assert(p < procs_, "no cache %u in a %u-processor machine", p,
              procs_);
    return *caches_[p];
}

Cpu &
System::cpu(ProcId p)
{
    wo_assert(p < procs_, "no cpu %u in a %u-processor machine", p,
              procs_);
    return *cpus_[p];
}

void
System::warmShared(Addr addr, const std::vector<ProcId> &procs)
{
    for (ProcId p : procs) {
        cache(p).warmShared(addr, prog_->initialValue(addr));
        dir_->warmSharer(addr, p);
    }
}

std::vector<Value>
System::finalMemory() const
{
    std::vector<Value> mem(prog_->numLocations());
    for (Addr a = 0; a < prog_->numLocations(); ++a) {
        const NodeId owner = dir_->ownerOf(a);
        if (owner != invalid_proc && caches_[owner]->holdsModified(a))
            mem[a] = caches_[owner]->lineValue(a);
        else
            mem[a] = dir_->memoryValue(a);
    }
    return mem;
}

void
System::dumpEvidence(const char *why)
{
    if (cfg_.dump_on_fail.empty() || evidence_dumped_)
        return;
    evidence_dumped_ = true;
    const std::string &prefix = cfg_.dump_on_fail;
    if (!cfg_.quiet)
        inform("dumping failure evidence (%s) to %s.*", why,
               prefix.c_str());
    const std::string trace =
        recorder_ ? recorder_->chromeTraceJson(procs_)
                  : obs_->chromeTraceJson();
    writeFile(prefix + ".trace.json", trace);
    if (monitor_) {
        // A livelocked spin can retire millions of ops; rendering the
        // full hb graph would dwarf the failure it documents.
        const std::size_t nops = monitor_->execution().ops().size();
        if (nops <= SystemCfg::max_witness_dot_ops) {
            writeFile(prefix + ".hb.dot", monitor_->witnessDot());
            writeFile(prefix + ".hb.svg", monitor_->witnessSvg());
        } else {
            writeFile(prefix + ".hb.dot",
                      strprintf("// hb witness omitted: %zu retired "
                                "ops exceed the render cap (%zu)\n",
                                nops, SystemCfg::max_witness_dot_ops));
        }
        writeFile(prefix + ".monitor.txt",
                  strprintf("reason: %s\n", why) + monitor_->report());
    }
}

SystemResult
System::run()
{
    // Self-profiling covers exactly the simulated run: the calling
    // thread registers as the "sim" lane and the pacer samples it for
    // the duration of the event loop.
    std::unique_ptr<Profiler::ThreadGuard> prof_guard;
    std::unique_ptr<Profiler> prof;
    if (cfg_.profile) {
        prof_guard = std::make_unique<Profiler::ThreadGuard>("sim");
        ProfilerCfg pcfg;
        pcfg.hz = cfg_.profile_hz;
        prof = std::make_unique<Profiler>(pcfg);
        if (!prof->start()) {
            warn("profiler: another instance is active; sampling off");
            prof.reset();
        }
    }

    for (ProcId p = 0; p < procs_; ++p)
        cpus_[p]->boot();
    if (sampler_)
        sampler_->start(eq_);

    SystemResult r;
    std::uint64_t events = 0;
    while (!eq_.empty()) {
        if (++events > cfg_.max_events) {
            r.livelocked = true;
            if (cfg_.quiet)
                break;
            // Satellite diagnostics: where each processor is stuck and
            // what it has mostly been waiting on.
            std::string snap;
            Tick finish_so_far = 0;
            for (ProcId p = 0; p < procs_; ++p) {
                finish_so_far =
                    std::max(finish_so_far, cpus_[p]->finishTick());
                const auto &m = obs_->stallStats(p).counters();
                const char *top = "none";
                std::uint64_t top_cycles = 0;
                for (int b = 0; b < num_stall_buckets; ++b) {
                    const char *bn =
                        stallBucketName(static_cast<StallBucket>(b));
                    auto it = m.find(bn);
                    if (it != m.end() && it->second.value() > top_cycles) {
                        top_cycles = it->second.value();
                        top = bn;
                    }
                }
                snap += strprintf(
                    " cpu%u{%s pc=%u top_stall=%s:%llu}", p,
                    cpus_[p]->halted() ? "halted" : "running",
                    cpus_[p]->pc(),
                    top, static_cast<unsigned long long>(top_cycles));
            }
            warn("system livelocked after %llu events at tick %llu "
                 "running '%s' (%s); finish tick so far %llu;%s",
                 static_cast<unsigned long long>(events),
                 static_cast<unsigned long long>(eq_.now()),
                 prog_->name().c_str(), policyName(cfg_.policy),
                 static_cast<unsigned long long>(finish_so_far),
                 snap.c_str());
            break;
        }
        eq_.step();
        // Evidence is worth the two loads per event: dump the window
        // around the *first* hardware violation, not the run's end.
        if (monitor_ && !evidence_dumped_ &&
            monitor_->hardwareViolations() > 0)
            dumpEvidence("monitor violation");
    }

    bool all_halted = true;
    Tick finish = 0;
    for (ProcId p = 0; p < procs_; ++p) {
        all_halted = all_halted && cpus_[p]->halted();
        finish = std::max(finish, cpus_[p]->finishTick());
    }
    r.completed = all_halted && !r.livelocked;
    r.deadlocked = !all_halted && !r.livelocked;
    r.finish_tick = finish;
    r.drain_tick = eq_.now();
    r.policy = cfg_.policy;
    r.weak_sync_read_policy = cfg_.policy == OrderingPolicy::wo_drf0_ro;

    if (monitor_) {
        monitor_->finalize(eq_.now(), r.completed, obs_->unfinishedOps());
        r.monitor_violations = monitor_->totalViolations();
        r.monitor_hw_violations = monitor_->hardwareViolations();
        r.monitor_races = monitor_->races();
        if (cfg_.collect_stats)
            r.monitor_report = monitor_->report();
    }
    if (sampler_)
        r.sampler_csv = sampler_->csv();
    if (r.deadlocked || r.livelocked)
        dumpEvidence(r.deadlocked ? "deadlock" : "livelock");
    else if (monitor_ && monitor_->hardwareViolations() > 0)
        dumpEvidence("monitor violation");

    r.outcome.regs.reserve(procs_);
    for (ProcId p = 0; p < procs_; ++p)
        r.outcome.regs.emplace_back(cpus_[p]->regs().begin(),
                                    cpus_[p]->regs().end());
    r.outcome.memory = finalMemory();

    // Stop sampling before result assembly so the profile describes the
    // simulation, not the JSON rendering below it.
    if (prof) {
        prof->stop();
        if (!cfg_.profile_out.empty())
            writeFile(cfg_.profile_out, prof->folded());
    }

    if (!cfg_.collect_stats)
        return r;

    r.execution = *exec_;
    for (ProcId p = 0; p < procs_; ++p)
        r.timings.push_back(cpus_[p]->timings());

    for (ProcId p = 0; p < procs_; ++p) {
        const StatGroup &g = cpus_[p]->stats();
        r.stats += g.dump();
        std::map<std::string, std::uint64_t> counters;
        for (const auto &kv : g.counters())
            counters[kv.first] = kv.second.value();
        r.cpu_counters.push_back(std::move(counters));
    }
    for (ProcId p = 0; p < procs_; ++p) {
        const StatGroup &g = obs_->stallStats(p);
        r.stats += g.dump();
        std::map<std::string, std::uint64_t> counters;
        for (const auto &kv : g.counters())
            counters[kv.first] = kv.second.value();
        r.stall_counters.push_back(std::move(counters));
    }
    for (ProcId p = 0; p < procs_; ++p)
        r.stats += caches_[p]->stats().dump();
    r.stats += dir_->stats().dump();
    r.stats += net_->stats().dump();

    // The unified machine-readable view: run metadata plus every
    // component group mounted in one hierarchical namespace.
    MetricsRegistry reg;
    reg.set("run.program", Json(prog_->name()));
    reg.set("run.policy", Json(policyName(cfg_.policy)));
    reg.set("run.completed", Json(r.completed));
    reg.set("run.deadlocked", Json(r.deadlocked));
    reg.set("run.livelocked", Json(r.livelocked));
    reg.set("run.finish_tick", Json(r.finish_tick));
    reg.set("run.drain_tick", Json(r.drain_tick));
    reg.set("run.events", Json(eq_.executed()));
    for (ProcId p = 0; p < procs_; ++p) {
        reg.addGroup(strprintf("cpu%u", p), cpus_[p]->stats());
        reg.addGroup(strprintf("cpu%u.stall", p), obs_->stallStats(p));
    }
    for (ProcId p = 0; p < procs_; ++p)
        reg.addGroup(strprintf("cache%u", p), caches_[p]->stats());
    reg.addGroup("dir", dir_->stats());
    reg.addGroup("net", net_->stats());
    if (monitor_)
        reg.set("monitor", monitor_->toJson());
    if (recorder_) {
        reg.set("flight_recorder.window", Json(recorder_->size()));
        reg.set("flight_recorder.recorded", Json(recorder_->recorded()));
        reg.set("flight_recorder.dropped", Json(recorder_->dropped()));
    }
    if (sampler_)
        reg.set("sampler.samples",
                Json(std::uint64_t{sampler_->sampleCount()}));
    if (prof)
        reg.set("profiler", prof->toJson());
    r.stats_json = reg.dump(1);
    return r;
}

} // namespace wo
