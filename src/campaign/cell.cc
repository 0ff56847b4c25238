#include "cell.hh"

#include <chrono>

#include "campaign/verify.hh"
#include "common/logging.hh"
#include "obs/timeline.hh"
#include "program/litmus.hh"

namespace wo {

std::uint64_t
fnv1a64(std::string_view text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
fnv1aHex(const std::string &text)
{
    return strprintf("%016llx",
                     static_cast<unsigned long long>(fnv1a64(text)));
}

std::vector<std::string>
splitCommas(std::string_view text)
{
    std::vector<std::string> out;
    while (!text.empty()) {
        const std::size_t comma = std::min(text.find(','), text.size());
        if (comma > 0)
            out.emplace_back(text.substr(0, comma));
        text.remove_prefix(std::min(comma + 1, text.size()));
    }
    return out;
}

std::string
joinCommas(const std::vector<std::string> &items)
{
    std::string out;
    for (const std::string &s : items)
        out += (out.empty() ? "" : ",") + s;
    return out;
}

bool
parsePolicyName(const std::string &name, OrderingPolicy &out)
{
    if (name == "sc")
        out = OrderingPolicy::sc;
    else if (name == "def1")
        out = OrderingPolicy::wo_def1;
    else if (name == "drf0")
        out = OrderingPolicy::wo_drf0;
    else if (name == "drf0ro")
        out = OrderingPolicy::wo_drf0_ro;
    else
        return false;
    return true;
}

const char *
policyFlagName(OrderingPolicy p)
{
    switch (p) {
      case OrderingPolicy::sc: return "sc";
      case OrderingPolicy::wo_def1: return "def1";
      case OrderingPolicy::wo_drf0: return "drf0";
      case OrderingPolicy::wo_drf0_ro: return "drf0ro";
    }
    return "?";
}

namespace {

/** Keys are embedded in JSONL unescaped: keep them to a safe charset. */
std::string
sanitizeSpec(const std::string &spec)
{
    std::string out;
    out.reserve(spec.size());
    for (char c : spec) {
        const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '.' || c == '/' ||
                          c == '-' || c == '_' || c == '+';
        out += safe ? c : '_';
    }
    return out;
}

std::string
sourceTag(const Cell &c)
{
    switch (c.source) {
      case CellSource::file:
        return "file:" + sanitizeSpec(c.spec);
      case CellSource::litmus:
        return "litmus:" + sanitizeSpec(c.spec);
      case CellSource::drf0_rand:
        return strprintf(
            "drf0:p%ur%ul%uv%us%do%dq%dt%dw%lldg%llu", c.drf0.procs,
            c.drf0.regions, c.drf0.locs_per_region, c.drf0.private_locs,
            c.drf0.sections, c.drf0.ops_per_section, c.drf0.private_ops,
            c.drf0.test_and_tas ? 1 : 0,
            static_cast<long long>(c.drf0.work_cycles),
            static_cast<unsigned long long>(c.drf0.seed));
      case CellSource::racy_rand:
        return strprintf("racy:p%ul%uo%dg%llu", c.racy.procs, c.racy.locs,
                         c.racy.ops_per_thread,
                         static_cast<unsigned long long>(c.racy.seed));
    }
    return "?";
}

} // namespace

std::string
Cell::key() const
{
    // Verify cells are untimed: program x model identifies the work,
    // so the timing coordinates stay out of the key and a resumed (or
    // over-long) stream skips repeats instead of re-checking them.
    if (kind == CellKind::verify) {
        std::string k = programId();
        if (inject_axiom_bug)
            k += "|ABUG";
        return k;
    }
    std::string k = programId();
    k += "|n";
    appendDecimal(k, net_seed);
    k += "|h";
    appendDecimal(k, hop);
    k += "|j";
    appendDecimal(k, jitter);
    if (inject_reserve_bug)
        k += "|BUG";
    return k;
}

std::string
Cell::programId() const
{
    if (kind == CellKind::verify)
        return "verify:" + sourceTag(*this) + "|" + sanitizeSpec(model);
    return sourceTag(*this) + "|" + policyFlagName(policy);
}

std::string
Cell::familyId() const
{
    switch (source) {
      case CellSource::file: return "file:" + sanitizeSpec(spec);
      case CellSource::litmus: return "litmus:" + sanitizeSpec(spec);
      case CellSource::drf0_rand: return "drf0-rand";
      case CellSource::racy_rand: return "racy-rand";
    }
    return "?";
}

SystemCfg
Cell::systemCfg(std::uint64_t max_events, EventQueueKind queue) const
{
    SystemCfg cfg;
    cfg.policy = policy;
    cfg.queue = queue;
    cfg.net.seed = net_seed;
    cfg.net.hop_latency = hop;
    cfg.net.jitter = jitter;
    cfg.cache.bug_drop_reserve_clear = inject_reserve_bug;
    cfg.monitor = true;
    cfg.quiet = true;
    // Cells read only the verdict, outcome and monitor summary; the
    // stats/JSON renders would dominate thousands of tiny runs.
    cfg.collect_stats = false;
    cfg.max_events = max_events;
    return cfg;
}

VerifyCfg
Cell::verifyCfg() const
{
    VerifyCfg v;
    v.max_states = max_states;
    v.jobs = explore_jobs;
    v.axiom.inject_bug = inject_axiom_bug;
    return v;
}

const std::vector<LitmusCorpusEntry> &
litmusCorpus()
{
    static const std::vector<LitmusCorpusEntry> corpus = {
        {"fig1", &litmus::fig1StoreBuffer},
        {"mp", &litmus::messagePassing},
        {"mp_sync", &litmus::messagePassingSync},
        {"corr", &litmus::coherenceCoRR},
        {"iriw", &litmus::iriw},
        {"lb", &litmus::loadBuffering},
        {"wrc", &litmus::wrc},
        {"2+2w", &litmus::twoPlusTwoW},
        {"s", &litmus::sShape},
        {"coww", &litmus::coWW},
        {"fig3", []() { return litmus::fig3Scenario(2); }},
        {"fig3_tt", []() { return litmus::fig3ScenarioTestAndTas(2); }},
        {"counter2x2", []() { return litmus::lockedCounter(2, 2); }},
        {"counter_tas", []() { return litmus::lockedCounter(2, 2, true); }},
        {"racy_counter", []() { return litmus::racyCounter(2, 2); }},
        {"barrier3", []() { return litmus::barrier(3); }},
        {"pingpong", []() { return litmus::pingPong(3); }},
    };
    return corpus;
}

const MaterializedCell *
MaterializeCache::find(const std::string &family_id) const
{
    auto it = map_.find(family_id);
    if (it == map_.end())
        return nullptr;
    ++hits_;
    return &it->second;
}

const MaterializedCell &
MaterializeCache::put(std::string family_id, MaterializedCell m)
{
    ++misses_;
    return map_.insert_or_assign(std::move(family_id), std::move(m))
        .first->second;
}

System &
MaterializeCache::machine(const Program &prog, const SystemCfg &cfg)
{
    if (machine_)
        machine_->reset(prog, cfg);
    else
        machine_ = std::make_unique<System>(prog, cfg);
    return *machine_;
}

void
MaterializeCache::release(const SystemResult &r)
{
    if (r.livelocked)
        machine_.reset();
}

MaterializedCell
materializeCell(const Cell &cell, MaterializeCache *cache)
{
    // Only deterministic repeated sources are cacheable; random draws
    // embed a per-cell generator seed and never repeat.
    const bool cacheable = cache && (cell.source == CellSource::file ||
                                     cell.source == CellSource::litmus);
    if (cacheable) {
        const std::string id = cell.familyId();
        if (const MaterializedCell *hit = cache->find(id))
            return *hit;
        return cache->put(id, materializeCell(cell, nullptr));
    }

    MaterializedCell m;
    switch (cell.source) {
      case CellSource::file: {
          AsmResult a = assembleFile(cell.spec);
          if (!a.ok()) {
              m.error = cell.spec + ": ";
              m.error += a.errors.empty() ? "unreadable"
                                          : a.errors[0].toString();
              return m;
          }
          m.program = std::move(a.program);
          m.warm = std::move(a.warm);
          return m;
      }
      case CellSource::litmus: {
          for (const auto &e : litmusCorpus())
              if (cell.spec == e.name) {
                  m.program = e.make();
                  return m;
              }
          m.error = "unknown litmus corpus entry '" + cell.spec + "'";
          return m;
      }
      case CellSource::drf0_rand:
        m.program = randomDrf0Program(cell.drf0);
        return m;
      case CellSource::racy_rand:
        m.program = randomRacyProgram(cell.racy);
        return m;
    }
    m.error = "corrupt cell source";
    return m;
}

namespace {

/** The verdict of a result that blames no hardware. */
const char *
softVerdict(const CellResult &r)
{
    if (!r.completed && r.primary_kind == "materialize_error")
        return "error";
    if (r.inconclusive)
        return "inconclusive";
    if (r.nonsc)
        return "nonsc";
    if (r.deadlocked)
        return "deadlock";
    if (r.livelocked)
        return "livelock";
    if (r.races > 0)
        return "race";
    return "clean";
}

} // namespace

std::string
CellResult::verdict() const
{
    if (hw > 0)
        return "hw:" + (primary_kind.empty() ? std::string("?")
                                             : primary_kind);
    return softVerdict(*this);
}

Json
cellResultToJson(const CellResult &r)
{
    Json j = Json::object();
    j.set("key", Json(r.key));
    j.set("verdict", Json(r.verdict()));
    j.set("hw", Json(r.hw));
    j.set("races", Json(r.races));
    j.set("sig", Json(r.outcome_sig));
    j.set("tick", Json(r.finish_tick));
    j.set("ms", Json(r.wall_ms));
    j.set("mat_us", Json(r.mat_us));
    j.set("run_us", Json(r.run_us));
    if (r.shrink_us > 0)
        j.set("shrink_us", Json(r.shrink_us));
    if (!r.primary_kind.empty())
        j.set("kind", Json(r.primary_kind));
    if (r.inconclusive)
        j.set("inconclusive", Json(true));
    if (r.nonsc)
        j.set("nonsc", Json(true));
    if (r.dpor_states > 0 || r.bfs_states > 0) {
        j.set("dpor_states", Json(r.dpor_states));
        j.set("bfs_states", Json(r.bfs_states));
        j.set("dpor_probes", Json(r.dpor_probes));
        j.set("dpor_memo_hits", Json(r.dpor_memo_hits));
    }
    return j;
}

void
appendCellResultJson(std::string &out, const CellResult &r)
{
    // Mirrors cellResultToJson member for member, in the same order and
    // with Json::dump's number and string spellings.
    auto str = [&](const char *member, std::string_view v) {
        out += member;
        out += '"';
        jsonEscape(out, v);
        out += '"';
    };
    auto num = [&](const char *member, std::uint64_t v) {
        out += member;
        appendDecimal(out, v);
    };
    str("{\"key\":", r.key);
    if (r.hw > 0) {
        out += ",\"verdict\":\"hw:";
        jsonEscape(out, r.primary_kind.empty() ? std::string_view("?")
                                               : r.primary_kind);
        out += '"';
    } else {
        str(",\"verdict\":", softVerdict(r));
    }
    num(",\"hw\":", r.hw);
    num(",\"races\":", r.races);
    str(",\"sig\":", r.outcome_sig);
    num(",\"tick\":", r.finish_tick);
    out += ",\"ms\":";
    jsonAppendDouble(out, r.wall_ms);
    num(",\"mat_us\":", r.mat_us);
    num(",\"run_us\":", r.run_us);
    if (r.shrink_us > 0)
        num(",\"shrink_us\":", r.shrink_us);
    if (!r.primary_kind.empty())
        str(",\"kind\":", r.primary_kind);
    if (r.inconclusive)
        out += ",\"inconclusive\":true";
    if (r.nonsc)
        out += ",\"nonsc\":true";
    if (r.dpor_states > 0 || r.bfs_states > 0) {
        num(",\"dpor_states\":", r.dpor_states);
        num(",\"bfs_states\":", r.bfs_states);
        num(",\"dpor_probes\":", r.dpor_probes);
        num(",\"dpor_memo_hits\":", r.dpor_memo_hits);
    }
    out += '}';
}

CellRun
runCell(const Cell &cell, std::uint64_t max_events, EventQueueKind queue,
        MaterializeCache *cache)
{
    return runCell(cell, cell.key(), max_events, queue, cache);
}

CellRun
runCell(const Cell &cell, std::string key, std::uint64_t max_events,
        EventQueueKind queue, MaterializeCache *cache)
{
    CellRun run;
    CellResult &r = run.result;
    r.key = std::move(key);

    // Timeline spans accrue to whatever lane the calling thread owns
    // (a campaign worker's, or none when run standalone).
    Timeline *tl = Timeline::current();
    MaterializedCell m;
    {
        Timeline::Scope mat_span(tl, SpanKind::materialize);
        const auto m0 = std::chrono::steady_clock::now();
        m = materializeCell(cell, cache);
        r.mat_us = static_cast<std::uint64_t>(
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - m0)
                .count());
    }
    if (!m.ok()) {
        r.primary_kind = "materialize_error";
        return run;
    }
    run.program = std::move(m.program);
    run.warm = std::move(m.warm);

    if (cell.kind == CellKind::verify) {
        // The dual-engine judge replaces the timed simulation.  Warm
        // directives are a timed-system concern; exploration always
        // starts from the zeroed initial image.
        Timeline::Scope verify_span(tl, SpanKind::run);
        const auto t0 = std::chrono::steady_clock::now();
        VerifyResult v = verifyProgramOnModel(*run.program, cell.model,
                                              cell.verifyCfg());
        r.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        r.run_us = static_cast<std::uint64_t>(r.wall_ms * 1000.0);

        r.completed = true;
        r.inconclusive = v.inconclusive;
        r.nonsc = v.nonsc;
        r.dpor_states = v.dpor.states;
        r.bfs_states = v.bfs.states;
        r.dpor_probes = v.dpor.commutation_probes;
        r.dpor_memo_hits = v.dpor.memo_hits;
        if (v.has_violation) {
            r.hw = 1;
            r.total = 1;
            r.by_kind[static_cast<int>(v.kind)] = 1;
            r.primary_kind = violationKindName(v.kind);
        }
        // The outcome signature hashes the hardware outcome set, so
        // the frontier's novelty tracking sees outcome-set changes
        // across program shapes exactly like it does for run cells.
        std::string sig_src;
        for (const auto &o : v.dpor.outcomes) {
            o.appendTo(sig_src);
            sig_src += '\n';
        }
        r.outcome_sig = fnv1aHex(sig_src);
        run.verify_detail = v.detail();
        return run;
    }

    Timeline::Scope run_span(tl, SpanKind::run);
    const auto t0 = std::chrono::steady_clock::now();
    // A worker runs on its reused machine; a standalone call builds one.
    const SystemCfg scfg = cell.systemCfg(max_events, queue);
    std::optional<System> own;
    System &sys = cache ? cache->machine(*run.program, scfg)
                        : own.emplace(*run.program, scfg);
    for (const auto &w : run.warm)
        sys.warmShared(w.addr, w.procs);
    SystemResult sr = sys.run();
    const auto t1 = std::chrono::steady_clock::now();
    r.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    r.run_us = static_cast<std::uint64_t>(r.wall_ms * 1000.0);

    r.completed = sr.completed;
    r.deadlocked = sr.deadlocked;
    r.livelocked = sr.livelocked;
    r.finish_tick = sr.finish_tick;
    // The signature text is formatted into this thread's reused buffer.
    thread_local std::string sig_text;
    sig_text.clear();
    sr.outcome.appendTo(sig_text);
    r.outcome_sig = fnv1aHex(sig_text);

    const Monitor *mon = sys.monitor();
    MonitorSummary s = mon->summary();
    r.hw = s.hardware;
    r.races = s.races;
    r.total = s.total;
    for (int k = 0; k < num_violation_kinds; ++k)
        r.by_kind[k] = s.by_kind[k];
    // First *recorded* hardware-blaming violation names the failure.
    for (const auto &v : mon->violations())
        if (violationBlamesHardware(v.kind)) {
            r.primary_kind = violationKindName(v.kind);
            break;
        }
    if (cache)
        cache->release(sr);
    return run;
}

} // namespace wo
