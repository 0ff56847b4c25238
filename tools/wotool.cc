/**
 * @file
 * wotool -- the command-line front end to the weak-ordering laboratory.
 *
 *     wotool check   <file> [--weak]
 *         DRF0 verdict for an assembly program (--weak: the Section-6
 *         refined synchronization model).
 *
 *     wotool explore <file> [--model sc|wb|net|stale|def1|drf0|drf0ro]
 *                    [--algo dpor|bfs|both] [--axiom] [--max-states N]
 *                    [--jobs N] [--witness N]
 *         Exhaustive outcome set on an abstract machine.  The default
 *         engine is sleep-set DPOR with hashed-state dedup; --algo bfs
 *         runs the naive golden reference instead, --algo both runs
 *         the two and compares outcome sets (plus the reduction
 *         ratio).  --jobs runs the DPOR search on N work-stealing
 *         threads; results are bit-identical to --jobs 1.  --axiom
 *         additionally cross-checks the operational SC machine against
 *         the independent axiomatic evaluator (src/axiom/).  Exit 0
 *         when everything agrees, 1 on an engine divergence, 3 when a
 *         state/step budget left the result inconclusive.  See
 *         docs/EXPLORE.md.
 *
 *     wotool verify  <file> [--model ...] [--max-states N]
 *         Definition-2 conformance: is the machine's outcome set within
 *         SC's for this program?  A truncated or stuck exploration
 *         never yields a verdict: the result is INCONCLUSIVE, exit 3.
 *
 *     wotool run     <file> [--policy sc|def1|drf0|drf0ro] [--hop N]
 *                    [--jitter N] [--seed N] [--trace]
 *                    [--trace-json F] [--trace-jsonl F] [--stats-json F]
 *                    [--monitor] [--flight-recorder] [--flight-capacity N]
 *                    [--sample-interval N] [--sample-csv F]
 *                    [--dump-on-fail PREFIX] [--max-events N]
 *         Execute on the timed cache-coherent system; print the outcome,
 *         timing and statistics.  --trace-json writes a Chrome
 *         trace-event file (load it in Perfetto / chrome://tracing),
 *         --trace-jsonl a compact line-oriented log, --stats-json the
 *         unified metrics tree (see docs/OBSERVABILITY.md).  --monitor
 *         turns on the online SC/DRF0 invariant monitor,
 *         --flight-recorder the bounded always-on event ring,
 *         --sample-interval the periodic counter sampler, and
 *         --dump-on-fail the failure-evidence dump (PREFIX.trace.json,
 *         PREFIX.hb.dot, PREFIX.monitor.txt).
 *
 *     wotool monitor <file> [run options above]
 *         Run with the online monitor always on and print its verdict.
 *         Exit 0 when the run completed with no hardware violation
 *         (races are reported but, per Definition 2, blame software),
 *         1 on a hardware violation or a failed run.
 *
 *     wotool stats   <file> [--policy sc|def1|drf0|drf0ro]
 *         Run and print the metrics JSON to stdout.
 *
 *     wotool campaign [--jobs N] [--cells N] [cell-spec options] [...]
 *         Bulk Definition-2 verification: fan a fuzzed stream of
 *         (program x policy x seed) cells -- or, with --verify,
 *         model-checking (program x model) cells -- over work-stealing
 *         workers, shrink every hardware violation to a minimal .wo
 *         reproducer, and journal everything so a killed campaign
 *         resumes where it stopped.  Exits nonzero iff a hardware
 *         violation survived shrinking.  The cell-spec options are
 *         submit's too.  See docs/CAMPAIGN.md.
 *
 *     wotool report <out-dir> [--out F] [--title T] [--bench F,...]
 *         Merge a campaign's journal, summary, failure evidence and
 *         BENCH_*.json artifacts into one self-contained static
 *         report.html (inline CSS/JS, embedded hb witness SVGs).
 *
 *     wotool serve [--port N] [--addr A] [--out-dir DIR] [...]
 *     wotool worker --connect host:port [--jobs N] [...]
 *     wotool submit --connect host:port [--cells N] [...]
 *         The distributed fleet (src/fleet/, docs/FLEET.md): serve
 *         runs the long-lived coordinator, worker lends a process to
 *         it, submit enqueues a campaign against the warm fleet and
 *         exits with its verdict.
 *
 *     wotool disasm  <file>
 *         Parse and print back (normalizes labels/locations).
 *
 * The subcommand table below is the single source of truth for both
 * the usage text and the dispatcher, so the two cannot drift apart.
 *
 * See src/asm/assembler.hh for the input grammar.
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <unistd.h>
#include <vector>

#include "asm/assembler.hh"
#include "axiom/axiom_eval.hh"
#include "campaign/scheduler.hh"
#include "campaign/verify.hh"
#include "fleet/client.hh"
#include "fleet/coordinator.hh"
#include "fleet/proto.hh"
#include "fleet/worker.hh"
#include "core/drf0_checker.hh"
#include "core/lockset.hh"
#include "core/weak_ordering.hh"
#include "execution/trace_io.hh"
#include "hb/dot.hh"
#include "hb/lemma1.hh"
#include "hb/race.hh"
#include "models/model_registry.hh"
#include "obs/artifact.hh"
#include "obs/httpd.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"
#include "sc/sc_checker.hh"
#include "sys/system.hh"

namespace wo {
namespace {

/**
 * One wotool subcommand.  The table (bottom of this file) drives both
 * the usage text and the dispatcher, so a dispatchable subcommand can
 * never be missing from the usage text (and vice versa).
 */
struct Command
{
    const char *name;
    /// When true, argv[2] is an assembly file that is parsed before
    /// dispatch; the handler receives the result.  When false the
    /// handler gets a null AsmResult and argv[2..] are all options.
    bool needs_program;
    int (*handler)(const AsmResult *a, int argc, char **argv);
    const char *help; //!< usage lines, each "  "-indented, '\n'-ended
};

extern const Command commands[];
extern const std::size_t num_commands;

int
usage()
{
    std::string names;
    for (std::size_t i = 0; i < num_commands; ++i)
        names += std::string(i ? "|" : "") + commands[i].name;
    std::fprintf(stderr, "usage: wotool <%s> [<file>] [options]\n",
                 names.c_str());
    for (std::size_t i = 0; i < num_commands; ++i)
        std::fputs(commands[i].help, stderr);
    return 2;
}

/**
 * Tiny argv scanner: returns the value of --name, or nullptr.  Scans
 * from argv[2] because campaign takes no file argument; for the file
 * subcommands argv[2] is a filename, which cannot equal "--name".
 */
const char *
opt(int argc, char **argv, const char *name)
{
    for (int i = 2; i < argc - 1; ++i)
        if (!std::strcmp(argv[i], name))
            return argv[i + 1];
    return nullptr;
}

bool
flag(int argc, char **argv, const char *name)
{
    for (int i = 2; i < argc; ++i)
        if (!std::strcmp(argv[i], name))
            return true;
    return false;
}

/**
 * Uniform bad-option diagnostic: every malformed value exits 2 the
 * same way, with a pointer at the usage text, no matter which
 * subcommand it came from.
 */
bool
badOpt(const char *name, const char *wanted, const char *got)
{
    std::fprintf(stderr,
                 "wotool: %s wants %s, got '%s'\n"
                 "        (run wotool with no arguments for usage)\n",
                 name, wanted, got);
    return false;
}

/** Strict unsigned option: whole-string numeric and >= @p min. */
bool
parseU64Opt(int argc, char **argv, const char *name, std::uint64_t min,
            std::uint64_t &out)
{
    const char *v = opt(argc, argv, name);
    if (!v)
        return true;
    char *end = nullptr;
    errno = 0;
    const unsigned long long x = std::strtoull(v, &end, 0);
    if (end == v || *end || errno == ERANGE || x < min)
        return badOpt(name,
                      min > 0 ? "a positive integer" : "an integer", v);
    out = x;
    return true;
}

/** Strict int option (worker/job counts). */
bool
parseIntOpt(int argc, char **argv, const char *name, int min, int &out)
{
    std::uint64_t x = static_cast<std::uint64_t>(out);
    if (!parseU64Opt(argc, argv, name,
                     static_cast<std::uint64_t>(min), x))
        return false;
    if (x > 1'000'000)
        return badOpt(name, "a sane count", opt(argc, argv, name));
    out = static_cast<int>(x);
    return true;
}

/** Strict non-negative double option (time budgets). */
bool
parseDoubleOpt(int argc, char **argv, const char *name, double &out)
{
    const char *v = opt(argc, argv, name);
    if (!v)
        return true;
    char *end = nullptr;
    const double x = std::strtod(v, &end);
    if (end == v || *end || !(x >= 0))
        return badOpt(name, "a non-negative number", v);
    out = x;
    return true;
}

/** The --profile / --profile-hz / --profile-out trio, shared by the
 *  run and campaign configurations. */
template <typename Cfg>
bool
parseProfileOpts(int argc, char **argv, Cfg &cfg)
{
    cfg.profile = flag(argc, argv, "--profile");
    if (const char *v = opt(argc, argv, "--profile-hz")) {
        cfg.profile = true;
        cfg.profile_hz = std::strtod(v, nullptr);
        if (!(cfg.profile_hz > 0)) {
            std::fprintf(stderr, "--profile-hz must be positive\n");
            return false;
        }
    }
    if (const char *v = opt(argc, argv, "--profile-out")) {
        cfg.profile = true;
        cfg.profile_out = v;
    }
    return true;
}

/** Strict --connect host:port (required for worker/submit). */
bool
parseConnectOpt(int argc, char **argv, HostPort &out)
{
    const char *v = opt(argc, argv, "--connect");
    if (!v) {
        badOpt("--connect", "host:port", "(missing)");
        return false;
    }
    if (!parseHostPort(v, out))
        return badOpt("--connect", "host:port with a port in 1..65535",
                      v);
    return true;
}

int
cmdCheck(const Program &prog, int argc, char **argv)
{
    Drf0CheckerCfg cfg;
    if (flag(argc, argv, "--weak"))
        cfg.flavor = HbRelation::SyncFlavor::weak_sync_read;
    auto v = checkDrf0(prog, cfg);
    std::printf("%s: %s\n", prog.name().c_str(), v.toString().c_str());
    if (!v.obeys && v.witness) {
        std::printf("witness idealized execution:\n%s",
                    v.witness->toString().c_str());
        for (const auto &r : v.races)
            std::printf("  %s\n", r.toString(*v.witness).c_str());
    }
    return v.obeys ? 0 : 1;
}

/**
 * Dispatch to the model named by --model (default drf0) through the
 * shared registry (models/model_registry.hh), so the CLI surface and
 * the campaign's verify cells always spell the same machine list.
 */
template <typename Fn>
int
withModel(const Program &prog, const char *model, Fn &&fn)
{
    const std::string m = model ? model : "drf0";
    int rc = 2;
    if (!withModelByName(prog, m, [&](auto &mm) { rc = fn(mm); })) {
        std::fprintf(stderr, "unknown model '%s'\n", m.c_str());
        return 2;
    }
    return rc;
}

/** Is @p name a registered model flag name? */
bool
knownModel(const std::string &name)
{
    const auto &known = modelNames();
    return std::find(known.begin(), known.end(), name) != known.end();
}

/** Print the outcomes in @p a but not in @p b, prefixed @p label. */
void
printOnly(const char *label, const std::set<Outcome> &a,
          const std::set<Outcome> &b)
{
    for (const auto &o : a)
        if (!b.count(o))
            std::printf("  only %s: %s\n", label, o.toString().c_str());
}

/**
 * Exit contract (shared with `verify`): 0 all engines agree, 1 an
 * engine disagreement (a checker bug caught red-handed), 2 usage,
 * 3 inconclusive (a budget was hit; no verdict either way).
 */
int
cmdExplore(const Program &prog, int argc, char **argv)
{
    ExploreCfg cfg;
    std::uint64_t witness_idx = 0;
    if (!parseU64Opt(argc, argv, "--max-states", 1, cfg.max_states) ||
        !parseU64Opt(argc, argv, "--witness", 0, witness_idx) ||
        !parseIntOpt(argc, argv, "--jobs", 1, cfg.jobs))
        return 2;
    const bool want_witness = opt(argc, argv, "--witness") != nullptr;
    const char *algo_v = opt(argc, argv, "--algo");
    const std::string algo = algo_v ? algo_v : "dpor";
    if (algo != "dpor" && algo != "bfs" && algo != "both") {
        badOpt("--algo", "dpor|bfs|both", algo.c_str());
        return 2;
    }
    cfg.algo = algo == "bfs" ? ExploreAlgo::bfs : ExploreAlgo::dpor;
    const bool axiom = flag(argc, argv, "--axiom");

    return withModel(prog, opt(argc, argv, "--model"), [&](auto &model) {
        auto engineLine = [&](const char *engine,
                              const ExploreResult &r) {
            std::printf("%s on %s [%s]: %llu states, %zu outcome(s)%s%s\n",
                        prog.name().c_str(), model.name(), engine,
                        static_cast<unsigned long long>(r.states),
                        r.outcomes.size(),
                        r.truncated ? " [truncated]" : "",
                        r.stuck ? " [stuck states]" : "");
        };
        auto r = exploreOutcomes(model, cfg);
        engineLine(algo == "bfs" ? "bfs" : "dpor", r);
        if (cfg.algo == ExploreAlgo::dpor) {
            std::printf("  dpor: %llu transitions, %llu sleep-pruned, "
                        "%llu revisits subsumed\n",
                        static_cast<unsigned long long>(r.transitions),
                        static_cast<unsigned long long>(r.sleep_pruned),
                        static_cast<unsigned long long>(
                            r.revisit_pruned));
            std::printf("  dpor: %llu commutation probes (%llu memo "
                        "hits), %llu visited-table bytes, %d job(s)\n",
                        static_cast<unsigned long long>(
                            r.commutation_probes),
                        static_cast<unsigned long long>(r.memo_hits),
                        static_cast<unsigned long long>(r.visited_bytes),
                        cfg.jobs);
        }
        std::size_t idx = 0;
        for (const auto &o : r.outcomes)
            std::printf("  #%zu %s\n", idx++, o.toString().c_str());

        bool disagreement = false;
        bool inconclusive = !r.conclusive();
        if (algo == "both") {
            ExploreCfg bcfg = cfg;
            bcfg.algo = ExploreAlgo::bfs;
            auto b = exploreOutcomesBfs(model, bcfg);
            engineLine("bfs", b);
            if (!b.conclusive())
                inconclusive = true;
            else if (r.conclusive()) {
                if (r.outcomes == b.outcomes) {
                    std::printf(
                        "engines agree; DPOR visited %llu of %llu BFS "
                        "states (%.1f%%)\n",
                        static_cast<unsigned long long>(r.states),
                        static_cast<unsigned long long>(b.states),
                        b.states ? 100.0 * static_cast<double>(r.states) /
                                       static_cast<double>(b.states)
                                 : 100.0);
                } else {
                    disagreement = true;
                    std::printf("ENGINE DIVERGENCE: DPOR and BFS outcome "
                                "sets differ\n");
                    printOnly("dpor", r.outcomes, b.outcomes);
                    printOnly("bfs", b.outcomes, r.outcomes);
                }
            }
        }
        if (axiom) {
            const AxiomResult ax = axiomScOutcomes(prog);
            ScModel sc_model(prog);
            const auto sc = exploreOutcomes(sc_model, cfg);
            std::printf("axiomatic SC: %zu outcome(s), %llu candidates, "
                        "%llu judgements%s\n",
                        ax.outcomes.size(),
                        static_cast<unsigned long long>(ax.candidates),
                        static_cast<unsigned long long>(ax.judgements),
                        ax.conclusive ? "" : " [inconclusive]");
            if (!ax.conclusive) {
                std::printf("  (%s)\n", ax.why_inconclusive.c_str());
                inconclusive = true;
            } else if (!sc.conclusive()) {
                inconclusive = true;
            } else if (ax.outcomes != sc.outcomes) {
                disagreement = true;
                std::printf("ENGINE DIVERGENCE: axiomatic and "
                            "operational SC outcome sets differ\n");
                printOnly("axiomatic", ax.outcomes, sc.outcomes);
                printOnly("operational", sc.outcomes, ax.outcomes);
            } else {
                std::printf("axiomatic and operational SC agree "
                            "(%zu outcomes)\n",
                            ax.outcomes.size());
            }
        }

        if (want_witness) {
            if (witness_idx >= r.outcomes.size()) {
                std::fprintf(stderr, "--witness %llu out of range\n",
                             static_cast<unsigned long long>(
                                 witness_idx));
                return 2;
            }
            auto it = r.outcomes.begin();
            std::advance(it, static_cast<std::ptrdiff_t>(witness_idx));
            auto chain = witnessChain(model, *it);
            std::printf("\nwitness chain for outcome #%llu "
                        "(%zu states):\n",
                        static_cast<unsigned long long>(witness_idx),
                        chain.size());
            for (std::size_t k = 0; k < chain.size(); ++k) {
                std::printf("--- state %zu ---\n%s", k,
                            model.dump(chain[k]).c_str());
            }
        }
        if (disagreement)
            return 1;
        if (inconclusive) {
            std::printf("inconclusive: a state/step budget was hit; "
                        "no verdict (raise --max-states)\n");
            return 3;
        }
        return 0;
    });
}

int
cmdVerify(const Program &prog, int argc, char **argv)
{
    ExploreCfg cfg;
    if (!parseU64Opt(argc, argv, "--max-states", 1, cfg.max_states))
        return 2;
    return withModel(prog, opt(argc, argv, "--model"), [&](auto &model) {
        auto c = conformsForProgram(model, prog, cfg);
        // A truncated or stuck exploration saw only part of an outcome
        // set; neither conformance verdict would be trustworthy.
        if (!c.reliable) {
            std::printf("%s on %s: INCONCLUSIVE (budget hit at %llu "
                        "hardware / %llu SC states; raise "
                        "--max-states)\n",
                        prog.name().c_str(), model.name(),
                        static_cast<unsigned long long>(c.hw.states),
                        static_cast<unsigned long long>(c.sc.states));
            return 3;
        }
        std::printf("%s on %s: %s\n", prog.name().c_str(), model.name(),
                    c.toString().c_str());
        return c.appears_sc ? 0 : 1;
    });
}

bool
parsePolicy(int argc, char **argv, OrderingPolicy &out)
{
    const char *pol = opt(argc, argv, "--policy");
    std::string p = pol ? pol : "drf0";
    if (p == "sc")
        out = OrderingPolicy::sc;
    else if (p == "def1")
        out = OrderingPolicy::wo_def1;
    else if (p == "drf0")
        out = OrderingPolicy::wo_drf0;
    else if (p == "drf0ro")
        out = OrderingPolicy::wo_drf0_ro;
    else {
        std::fprintf(stderr, "unknown policy '%s'\n", p.c_str());
        return false;
    }
    return true;
}

/** Write @p text to @p path, reporting success on stdout. */
int
emitFile(const char *path, const std::string &text, const char *what)
{
    if (!writeFile(path, text)) {
        std::fprintf(stderr, "cannot write '%s'\n", path);
        return 2;
    }
    std::printf("wrote %s to %s\n", what, path);
    return 0;
}

/** Shared option parsing for the run/monitor subcommands. */
bool
parseRunCfg(int argc, char **argv, SystemCfg &cfg)
{
    if (!parsePolicy(argc, argv, cfg.policy))
        return false;
    // Strict numeric options: trailing garbage ("10x", "3,000") exits 2
    // with the uniform badOpt diagnostic, never silently truncates.
    std::uint64_t flight_capacity = cfg.flight_recorder_capacity;
    if (!parseU64Opt(argc, argv, "--hop", 0, cfg.net.hop_latency) ||
        !parseU64Opt(argc, argv, "--jitter", 0, cfg.net.jitter) ||
        !parseU64Opt(argc, argv, "--seed", 0, cfg.net.seed) ||
        !parseU64Opt(argc, argv, "--flight-capacity", 1,
                     flight_capacity) ||
        !parseU64Opt(argc, argv, "--sample-interval", 0,
                     cfg.sample_interval) ||
        !parseU64Opt(argc, argv, "--max-events", 1, cfg.max_events))
        return false;
    cfg.monitor = flag(argc, argv, "--monitor");
    cfg.flight_recorder =
        flag(argc, argv, "--flight-recorder") ||
        opt(argc, argv, "--flight-capacity") != nullptr;
    cfg.flight_recorder_capacity =
        static_cast<std::size_t>(flight_capacity);
    if (const char *v = opt(argc, argv, "--dump-on-fail"))
        cfg.dump_on_fail = v;
    if (!parseProfileOpts(argc, argv, cfg))
        return false;
    if (cfg.profile && cfg.profile_out.empty())
        cfg.profile_out = "profile.folded.txt";
    // Fault injection, so a campaign-shrunk counterexample can be
    // replayed under the same (buggy) cache it was found on.
    if (flag(argc, argv, "--inject-reserve-bug"))
        cfg.cache.bug_drop_reserve_clear = true;
    // A/B comparison against the pre-overhaul event kernel (see
    // docs/PERF.md; requires the WO_LEGACY_EVENT_QUEUE build option).
    if (flag(argc, argv, "--legacy-queue"))
        cfg.queue = EventQueueKind::legacy_heap;
    return true;
}

/** Post-run artifact emission common to run/monitor. */
int
emitRunArtifacts(const SystemResult &r, int argc, char **argv)
{
    if (const char *path = opt(argc, argv, "--sample-csv")) {
        if (r.sampler_csv.empty()) {
            std::fprintf(stderr,
                         "--sample-csv requires --sample-interval N\n");
            return 2;
        }
        if (int rc = emitFile(path, r.sampler_csv, "sampler CSV"))
            return rc;
    }
    return 0;
}

/**
 * Bind the control plane when --serve-port is given (@p out stays null
 * otherwise) and announce its @p routes under @p tag.  Binding before
 * any work starts makes an early scrape see zeros rather than a
 * refused connection; the caller mounts the routes.  False (error
 * printed; the caller exits 2) on a bad value or a bind failure.
 */
bool
startControlPlane(int argc, char **argv, const char *tag,
                  const char *routes, std::unique_ptr<HttpServer> &out)
{
    const char *v = opt(argc, argv, "--serve-port");
    if (!v)
        return true;
    char *end = nullptr;
    const unsigned long p = std::strtoul(v, &end, 0);
    if (end == v || *end || p > 65535) {
        std::fprintf(stderr, "--serve-port wants a port in 0..65535 "
                             "(0 = ephemeral)\n");
        return false;
    }
    HttpServerCfg scfg;
    scfg.port = static_cast<std::uint16_t>(p);
    if (const char *a = opt(argc, argv, "--serve-addr"))
        scfg.addr = a;
    out = std::make_unique<HttpServer>(scfg);
    if (!out->start()) {
        std::fprintf(stderr, "cannot start control plane: %s\n",
                     out->lastError().c_str());
        return false;
    }
    std::fprintf(stderr, "[%s] control plane on http://%s:%u (%s)\n", tag,
                 scfg.addr.c_str(), out->port(), routes);
    return true;
}

/**
 * The run/monitor control plane.  /healthz answers immediately;
 * /metrics and /progress serve the most recently published stats
 * snapshot.  The single-run simulator is not instrumented with the
 * live atomics the campaign fleet has, so the snapshot appears when
 * the run completes; the server answers from bind until command exit,
 * which lets an external scraper distinguish "starting", "running"
 * and "finished" without races.
 */
class RunServe
{
  public:
    /// Bind and mount when serving was requested.  False on failure
    /// (error already printed; the caller exits 2).
    bool start(int argc, char **argv)
    {
        if (!startControlPlane(argc, argv, "serve",
                               "/healthz /metrics /progress", srv_))
            return false;
        if (!srv_)
            return true;
        srv_->handle("/healthz", [](const HttpRequest &) {
            HttpResponse r;
            r.body = "ok\n";
            return r;
        });
        srv_->handle("/metrics", [this](const HttpRequest &) {
            HttpResponse r;
            r.content_type =
                "text/plain; version=0.0.4; charset=utf-8";
            std::lock_guard<std::mutex> lk(mu_);
            r.body = prom_.empty() ? "# run in progress\n" : prom_;
            return r;
        });
        srv_->handle("/progress", [this](const HttpRequest &) {
            HttpResponse r;
            r.content_type = "application/json";
            std::lock_guard<std::mutex> lk(mu_);
            r.body =
                json_.empty() ? "{\"done\": false}\n" : json_ + "\n";
            return r;
        });
        return true;
    }

    /// Publish the finished run's metrics tree to /metrics + /progress.
    void publish(const std::string &stats_json)
    {
        if (!srv_)
            return;
        JsonParseResult p = jsonParse(stats_json);
        std::lock_guard<std::mutex> lk(mu_);
        json_ = stats_json;
        if (p.ok)
            prom_ = prometheusText(p.value, "wo");
    }

  private:
    std::unique_ptr<HttpServer> srv_;
    std::mutex mu_;
    std::string prom_, json_;
};

int
cmdRun(const AsmResult &a, int argc, char **argv)
{
    const Program &prog = *a.program;
    SystemCfg cfg;
    if (!parseRunCfg(argc, argv, cfg))
        return 2;
    const char *trace_json = opt(argc, argv, "--trace-json");
    const char *trace_jsonl = opt(argc, argv, "--trace-jsonl");
    const char *stats_json = opt(argc, argv, "--stats-json");
    cfg.trace = trace_json || trace_jsonl;

    RunServe serve;
    if (!serve.start(argc, argv))
        return 2;
    System sys(prog, cfg);
    for (const auto &w : a.warm)
        sys.warmShared(w.addr, w.procs);
    auto r = sys.run();
    serve.publish(r.stats_json);
    std::printf("%s under %s: %s, finish tick %llu\n",
                prog.name().c_str(), policyName(cfg.policy),
                r.completed
                    ? "completed"
                    : (r.deadlocked ? "DEADLOCKED" : "LIVELOCKED"),
                static_cast<unsigned long long>(r.finish_tick));
    std::printf("outcome: %s\n", r.outcome.toString().c_str());
    auto sc = checkSequentialConsistency(r.execution);
    std::printf("execution is %sSC-explainable\n", sc.sc ? "" : "NOT ");
    if (cfg.monitor)
        std::fputs(r.monitor_report.c_str(), stdout);
    if (flag(argc, argv, "--trace")) {
        std::printf("trace:\n%s", r.execution.toString().c_str());
        std::printf("stats:\n%s", r.stats.c_str());
    }
    if (const char *path = opt(argc, argv, "--save-trace")) {
        std::string text = traceToText(r.execution);
        FILE *f = std::fopen(path, "w");
        if (!f) {
            std::fprintf(stderr, "cannot write '%s'\n", path);
            return 2;
        }
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
        std::printf("wrote trace to %s\n", path);
    }
    if (const char *path = opt(argc, argv, "--dot")) {
        DotCfg dc;
        dc.title = prog.name() + " on " + policyName(cfg.policy);
        std::string dot = executionToDot(r.execution, dc);
        FILE *f = std::fopen(path, "w");
        if (!f) {
            std::fprintf(stderr, "cannot write '%s'\n", path);
            return 2;
        }
        std::fwrite(dot.data(), 1, dot.size(), f);
        std::fclose(f);
        std::printf("wrote happens-before graph to %s\n", path);
    }
    if (trace_json)
        if (int rc = emitFile(trace_json, sys.obs().chromeTraceJson(),
                              "Chrome trace"))
            return rc;
    if (trace_jsonl)
        if (int rc = emitFile(trace_jsonl, sys.obs().traceJsonl(),
                              "trace JSONL"))
            return rc;
    if (stats_json)
        if (int rc = emitFile(stats_json, r.stats_json + "\n",
                              "metrics JSON"))
            return rc;
    if (cfg.profile && !cfg.profile_out.empty())
        std::printf("wrote profile (folded stacks) to %s\n",
                    cfg.profile_out.c_str());
    if (int rc = emitRunArtifacts(r, argc, argv))
        return rc;
    // A run fails when it never finished, when it produced a
    // non-SC-explainable history, or when the monitor caught the
    // hardware red-handed.
    if (!r.completed || !sc.sc)
        return 1;
    if (cfg.monitor && r.monitor_hw_violations > 0)
        return 1;
    return 0;
}

int
cmdMonitor(const AsmResult &a, int argc, char **argv)
{
    const Program &prog = *a.program;
    SystemCfg cfg;
    if (!parseRunCfg(argc, argv, cfg))
        return 2;
    cfg.monitor = true;

    RunServe serve;
    if (!serve.start(argc, argv))
        return 2;
    System sys(prog, cfg);
    for (const auto &w : a.warm)
        sys.warmShared(w.addr, w.procs);
    auto r = sys.run();
    serve.publish(r.stats_json);
    std::printf("%s under %s: %s, finish tick %llu\n",
                prog.name().c_str(), policyName(cfg.policy),
                r.completed
                    ? "completed"
                    : (r.deadlocked ? "DEADLOCKED" : "LIVELOCKED"),
                static_cast<unsigned long long>(r.finish_tick));
    std::printf("outcome: %s\n", r.outcome.toString().c_str());
    std::fputs(r.monitor_report.c_str(), stdout);
    if (cfg.profile && !cfg.profile_out.empty())
        std::printf("wrote profile (folded stacks) to %s\n",
                    cfg.profile_out.c_str());
    if (int rc = emitRunArtifacts(r, argc, argv))
        return rc;
    // Races blame software (Definition 2 voids the contract), so a
    // racy-but-hardware-clean run still exits 0; only a broken run or
    // a hardware violation is a failure.
    return (r.completed && r.monitor_hw_violations == 0) ? 0 : 1;
}

int
cmdStats(const AsmResult &a, int argc, char **argv)
{
    SystemCfg cfg;
    if (!parsePolicy(argc, argv, cfg.policy))
        return 2;
    System sys(*a.program, cfg);
    for (const auto &w : a.warm)
        sys.warmShared(w.addr, w.procs);
    auto r = sys.run();
    std::printf("%s\n", r.stats_json.c_str());
    return r.completed ? 0 : 1;
}

int
cmdLitmus(const AsmResult &a)
{
    const Program &prog = *a.program;
    if (a.probe.empty()) {
        std::fprintf(stderr,
                     "%s has no 'probe' directives to evaluate\n",
                     prog.name().c_str());
        return 2;
    }
    std::string cond;
    for (const auto &t : a.probe)
        cond += (cond.empty() ? "" : " & ") + t.toString();
    std::printf("%s: probe %s\n", prog.name().c_str(), cond.c_str());

    // A found witness outcome is definite even under truncation, but
    // "forbidden" needs the full state space: a truncated or stuck
    // exploration without a witness is only INCONCLUSIVE.
    struct Row
    {
        bool allowed;
        bool conclusive;
    };
    auto evaluate = [&](const char *label, auto &&model) {
        auto r = exploreOutcomes(model);
        bool allowed = false;
        for (const auto &o : r.outcomes)
            allowed = allowed || probeMatches(a.probe, o);
        const bool conclusive = allowed || r.conclusive();
        std::printf("  %-22s %s\n", label,
                    allowed      ? "ALLOWED"
                    : conclusive ? "forbidden"
                                 : "INCONCLUSIVE");
        return Row{allowed, conclusive};
    };
    Row sc = evaluate("SC", ScModel(prog));
    evaluate("write-buffer", WriteBufferModel(prog));
    evaluate("general-network", NetworkReorderModel(prog));
    evaluate("stale-cache", StaleCacheModel(prog));
    evaluate("WO-Def1", WoDef1Model(prog));
    evaluate("WO-DRF0", WoDrf0Model(prog));
    evaluate("WO-DRF0+RO", WoDrf0Model(prog, 4, true));
    if (!sc.allowed && !sc.conclusive)
        return 3;
    return sc.allowed ? 0 : 1;
}

int
cmdAnalyzeTrace(const char *path)
{
    TraceParseResult t = traceFromFile(path);
    if (!t.ok()) {
        for (const auto &e : t.errors)
            std::fprintf(stderr, "%s: %s\n", path, e.toString().c_str());
        return 2;
    }
    const Execution &e = *t.execution;
    std::printf("trace: %u processors, %zu operations\n", e.numProcs(),
                e.ops().size());
    std::string why;
    if (!e.valuesPlausible(&why))
        std::printf("values: implausible (%s)\n", why.c_str());
    auto sc = checkSequentialConsistency(e);
    std::printf("SC-explainable: %s (%llu states searched)\n",
                sc.sc ? "yes" : "NO",
                static_cast<unsigned long long>(sc.states));
    auto races = findRaces(e);
    std::printf("races under DRF0 happens-before: %zu\n", races.size());
    for (const auto &r : races)
        std::printf("  %s\n", r.toString(e).c_str());
    auto lemma = checkHbLastWrite(e);
    std::printf("Lemma-1 (hb-last-write) witness: %s\n",
                lemma.ok ? "holds" : "fails");
    for (const auto &v : lemma.violations)
        std::printf("  %s\n", v.toString(e).c_str());
    return sc.sc ? 0 : 1;
}

/** The portable cell-spec options shared by campaign and submit
 *  (serve owns no spec, leases carry one verbatim). */
bool
parseFleetSpec(int argc, char **argv, FleetCampaignSpec &spec)
{
    if (!parseU64Opt(argc, argv, "--cells", 1, spec.cells) ||
        !parseU64Opt(argc, argv, "--seed", 0, spec.seed) ||
        !parseU64Opt(argc, argv, "--max-events", 1, spec.max_events) ||
        !parseU64Opt(argc, argv, "--shrink-max-runs", 1,
                     spec.shrink_max_runs))
        return false;
    if (const char *v = opt(argc, argv, "--policy")) {
        spec.policies.clear();
        for (const auto &name : splitCommas(v)) {
            OrderingPolicy p;
            if (!parsePolicyName(name, p))
                return badOpt("--policy",
                              "a comma list of sc|def1|drf0|drf0ro",
                              name.c_str());
            spec.policies.push_back(p);
        }
        if (spec.policies.empty())
            return badOpt("--policy", "at least one policy name", v);
    }
    if (const char *v = opt(argc, argv, "--programs"))
        spec.program_files = splitCommas(v);
    spec.shrink = !flag(argc, argv, "--no-shrink");
    spec.inject_reserve_bug = flag(argc, argv, "--inject-reserve-bug");
    spec.verify = flag(argc, argv, "--verify");
    if (const char *v = opt(argc, argv, "--verify-models")) {
        spec.verify = true;
        for (const auto &name : splitCommas(v)) {
            if (!knownModel(name))
                return badOpt("--verify-models",
                              "a comma list of sc|wb|net|stale|def1|"
                              "drf0|drf0ro",
                              name.c_str());
            spec.verify_models.push_back(name);
        }
        if (spec.verify_models.empty())
            return badOpt("--verify-models", "at least one model name",
                          v);
    }
    if (flag(argc, argv, "--inject-axiom-bug")) {
        spec.verify = true;
        spec.inject_axiom_bug = true;
    }
    if (!parseU64Opt(argc, argv, "--max-states", 1, spec.max_states) ||
        !parseIntOpt(argc, argv, "--explore-jobs", 1,
                     spec.explore_jobs))
        return false;
    return true;
}

int
cmdCampaign(const AsmResult *, int argc, char **argv)
{
    // The cell-spec options are the fleet's: one parser, one set of
    // diagnostics for both transports.
    CampaignCfg cfg;
    if (!parseFleetSpec(argc, argv, cfg) ||
        !parseIntOpt(argc, argv, "--jobs", 1, cfg.jobs) ||
        !parseDoubleOpt(argc, argv, "--time-budget",
                        cfg.time_budget_s) ||
        !parseU64Opt(argc, argv, "--sync-every", 1, cfg.sync_every))
        return 2;
    if (const char *v = opt(argc, argv, "--out-dir"))
        cfg.out_dir = v;
    if (const char *v = opt(argc, argv, "--journal"))
        cfg.journal_path = v;
    cfg.frontier = !flag(argc, argv, "--no-frontier");
    cfg.resume = flag(argc, argv, "--resume");
    if (!parseProfileOpts(argc, argv, cfg))
        return 2;
    cfg.progress = isatty(fileno(stderr)) != 0;

    // runCampaign mounts the routes and stops the server before
    // returning, so its handlers never outlive the engine.
    std::unique_ptr<HttpServer> server;
    if (!startControlPlane(argc, argv, "campaign",
                           "/healthz /metrics /progress /events", server))
        return 2;
    cfg.serve = server.get();

    CampaignSummary sum = runCampaign(cfg);
    std::fputs(sum.table().c_str(), stdout);
    return sum.hardwareClean() ? 0 : 1;
}

int
cmdReport(const AsmResult *, int argc, char **argv)
{
    if (argc < 3 || argv[2][0] == '-') {
        std::fprintf(stderr,
                     "report wants a campaign out-dir argument\n");
        return 2;
    }
    ReportCfg cfg;
    cfg.out_dir = argv[2];
    if (const char *v = opt(argc, argv, "--out"))
        cfg.html_path = v;
    if (const char *v = opt(argc, argv, "--title"))
        cfg.title = v;
    if (const char *v = opt(argc, argv, "--bench"))
        cfg.bench_files = splitCommas(v);
    std::string error;
    const std::string path = writeCampaignReport(cfg, &error);
    if (path.empty()) {
        std::fprintf(stderr, "report: %s\n", error.c_str());
        return 2;
    }
    std::printf("wrote campaign report to %s\n", path.c_str());
    return 0;
}

// --- the distributed fleet (src/fleet/, docs/FLEET.md) ---------------

int
cmdServe(const AsmResult *, int argc, char **argv)
{
    CoordinatorCfg cfg;
    std::uint64_t port = 0;
    if (!parseU64Opt(argc, argv, "--port", 0, port) ||
        !parseU64Opt(argc, argv, "--shard-size", 1, cfg.shard_size) ||
        !parseIntOpt(argc, argv, "--lease-timeout", 1,
                     cfg.lease_timeout_ms) ||
        !parseIntOpt(argc, argv, "--max-outstanding", 1,
                     cfg.max_outstanding) ||
        !parseU64Opt(argc, argv, "--sync-every", 1, cfg.sync_every) ||
        !parseIntOpt(argc, argv, "--max-campaigns", 0,
                     cfg.max_campaigns))
        return 2;
    if (port > 65535) {
        badOpt("--port", "a port in 0..65535 (0 = ephemeral)",
               opt(argc, argv, "--port"));
        return 2;
    }
    cfg.port = static_cast<std::uint16_t>(port);
    if (const char *v = opt(argc, argv, "--addr"))
        cfg.addr = v;
    if (const char *v = opt(argc, argv, "--out-dir"))
        cfg.out_dir = v;
    cfg.resume = flag(argc, argv, "--resume");
    cfg.verbose = flag(argc, argv, "--verbose");

    std::unique_ptr<HttpServer> server;
    if (!startControlPlane(argc, argv, "serve",
                           "/healthz /metrics /progress", server))
        return 2;
    cfg.serve = server.get();

    Coordinator coord(cfg);
    if (!coord.start()) {
        std::fprintf(stderr, "serve: %s\n", coord.lastError().c_str());
        return 2;
    }
    // Scripts (and the CI smoke job) discover an ephemeral port here.
    writeFile(cfg.out_dir + "/serve.port",
              strprintf("%u\n", coord.port()));
    std::fprintf(stderr,
                 "[serve] fleet coordinator on %s:%u (out-dir %s)\n",
                 cfg.addr.c_str(), coord.port(), cfg.out_dir.c_str());
    coord.waitDone();
    coord.stop();
    std::fprintf(stderr, "[serve] done: %d campaign(s) completed\n",
                 coord.campaignsCompleted());
    return 0;
}

int
cmdWorker(const AsmResult *, int argc, char **argv)
{
    WorkerCfg cfg;
    if (!parseConnectOpt(argc, argv, cfg.connect) ||
        !parseIntOpt(argc, argv, "--jobs", 1, cfg.jobs) ||
        !parseIntOpt(argc, argv, "--heartbeat-ms", 1, cfg.heartbeat_ms))
        return 2;
    if (const char *v = opt(argc, argv, "--name"))
        cfg.name = v;
    cfg.verbose = !flag(argc, argv, "--quiet");

    FleetWorker worker(cfg);
    if (!worker.connectAndRun()) {
        std::fprintf(stderr, "worker: %s\n",
                     worker.lastError().c_str());
        return 1;
    }
    return 0;
}

int
cmdSubmit(const AsmResult *, int argc, char **argv)
{
    SubmitCfg cfg;
    if (!parseConnectOpt(argc, argv, cfg.connect) ||
        !parseFleetSpec(argc, argv, cfg.spec))
        return 2;
    int idle_timeout = 0;
    if (!parseIntOpt(argc, argv, "--idle-timeout", 1, idle_timeout))
        return 2;
    cfg.idle_timeout_ms = idle_timeout;
    cfg.quiet = flag(argc, argv, "--quiet");

    SubmitResult r = submitCampaign(cfg);
    if (!r.ok) {
        std::fprintf(stderr, "submit: %s\n", r.error.c_str());
        return 2;
    }
    std::printf("%s\n", r.summary.dump(1).c_str());
    // Same verdict contract as `wotool campaign`: nonzero iff the
    // hardware was caught misbehaving.
    return r.hardware_clean ? 0 : 1;
}

// --- uniform-signature wrappers for the command table ----------------

int
wrapCheck(const AsmResult *a, int argc, char **argv)
{
    return cmdCheck(*a->program, argc, argv);
}

int
wrapExplore(const AsmResult *a, int argc, char **argv)
{
    return cmdExplore(*a->program, argc, argv);
}

int
wrapVerify(const AsmResult *a, int argc, char **argv)
{
    return cmdVerify(*a->program, argc, argv);
}

int
wrapRun(const AsmResult *a, int argc, char **argv)
{
    return cmdRun(*a, argc, argv);
}

int
wrapMonitor(const AsmResult *a, int argc, char **argv)
{
    return cmdMonitor(*a, argc, argv);
}

int
wrapStats(const AsmResult *a, int argc, char **argv)
{
    return cmdStats(*a, argc, argv);
}

int
wrapLitmus(const AsmResult *a, int, char **)
{
    return cmdLitmus(*a);
}

int
wrapLockset(const AsmResult *a, int, char **)
{
    const Program &prog = *a->program;
    auto r = checkLockDiscipline(prog);
    if (r.certified) {
        std::printf("%s: CERTIFIED by the static monitor discipline\n",
                    prog.name().c_str());
        for (Addr addr = 0; addr < prog.numLocations(); ++addr)
            for (Addr l : r.protection[addr])
                std::printf("  %s protected by %s\n",
                            prog.locationName(addr).c_str(),
                            prog.locationName(l).c_str());
        return 0;
    }
    std::printf("%s: not certified:\n", prog.name().c_str());
    for (const auto &i : r.issues)
        std::printf("  %s\n", i.toString(prog).c_str());
    return 1;
}

int
wrapDisasm(const AsmResult *a, int, char **)
{
    std::printf("%s", disassemble(*a->program).c_str());
    return 0;
}

int
wrapAnalyzeTrace(const AsmResult *, int, char **argv)
{
    return cmdAnalyzeTrace(argv[2]);
}

/**
 * The single source of truth for wotool's surface: usage() prints it,
 * toolMain() dispatches from it.  Every subcommand, including stats
 * and campaign, must have a row here.
 */
const Command commands[] = {
    {"check", true, wrapCheck, "  check <file> [--weak]\n"},
    {"explore", true, wrapExplore,
     "  explore <file> [--model sc|wb|net|stale|def1|drf0|drf0ro]\n"
     "          [--algo dpor|bfs|both] [--axiom] [--max-states N]\n"
     "          [--jobs N] [--witness N]   (exit 1 on engine\n"
     "          divergence, 3 when a budget made the result\n"
     "          inconclusive; --jobs N explores on N work-stealing\n"
     "          threads with bit-identical results)\n"},
    {"verify", true, wrapVerify,
     "  verify <file> [--model wb|net|stale|def1|drf0|drf0ro]\n"
     "         [--max-states N]   (exit 3 when exploration was\n"
     "         truncated/stuck: no conclusive verdict)\n"},
    {"run", true, wrapRun,
     "  run <file> [--policy sc|def1|drf0|drf0ro] [--hop N]\n"
     "      [--jitter N] [--seed N] [--trace] [--dot F]\n"
     "      [--save-trace F] [--trace-json F] [--trace-jsonl F]\n"
     "      [--stats-json F] [--monitor] [--flight-recorder]\n"
     "      [--flight-capacity N] [--sample-interval N]\n"
     "      [--sample-csv F] [--dump-on-fail PREFIX]\n"
     "      [--max-events N] [--inject-reserve-bug] [--legacy-queue]\n"
     "      [--profile] [--profile-hz N] [--profile-out F]\n"
     "      [--serve-port N] [--serve-addr A]\n"},
    {"monitor", true, wrapMonitor,
     "  monitor <file> [run options]  (always-on monitor verdict;\n"
     "          exit 1 on hardware violation or failed run)\n"},
    {"stats", true, wrapStats,
     "  stats <file> [--policy sc|def1|drf0|drf0ro]  (metrics JSON\n"
     "        on stdout)\n"},
    {"campaign", false, cmdCampaign,
     "  campaign [--jobs N] [--cells N] [--time-budget SECS]\n"
     "           [--out-dir DIR] [--journal F] [--resume]\n"
     "           [--policy sc,def1,drf0,...] [--programs F1,F2,...]\n"
     "           [--seed N] [--no-shrink] [--shrink-max-runs N]\n"
     "           [--no-frontier] [--max-events N]\n"
     "           [--sync-every N] [--inject-reserve-bug]\n"
     "           [--verify] [--verify-models sc,wb,net,...]\n"
     "           [--max-states N] [--explore-jobs N]\n"
     "           [--inject-axiom-bug]\n"
     "           [--profile] [--profile-hz N] [--profile-out F]\n"
     "           [--serve-port N] [--serve-addr A]\n"
     "           (bulk verification; exit 1 iff a hardware violation\n"
     "           survived shrinking; --verify model-checks program x\n"
     "           model cells -- DPOR vs BFS vs axiomatic SC -- and\n"
     "           files shrunk reproducers for any disagreement;\n"
     "           --profile writes folded stacks +\n"
     "           a per-worker Chrome trace under --out-dir;\n"
     "           --serve-port exposes the live /healthz /metrics\n"
     "           /progress /events control plane; --no-frontier runs\n"
     "           the deterministic base stream only)\n"},
    {"serve", false, cmdServe,
     "  serve [--port N] [--addr A] [--out-dir DIR] [--shard-size N]\n"
     "        [--lease-timeout MS] [--max-outstanding N]\n"
     "        [--sync-every N] [--resume] [--max-campaigns N]\n"
     "        [--serve-port N] [--serve-addr A] [--verbose]\n"
     "        (long-running fleet coordinator; shards submitted\n"
     "        campaigns into worker leases, merges one crash-safe\n"
     "        journal per campaign under --out-dir, writes the bound\n"
     "        port to <out-dir>/serve.port; --resume re-leases only\n"
     "        the unjournaled cells; see docs/FLEET.md)\n"},
    {"worker", false, cmdWorker,
     "  worker --connect host:port [--name S] [--jobs N]\n"
     "         [--heartbeat-ms N] [--quiet]\n"
     "         (lend this process to a fleet: runs leased cells,\n"
     "         shrinks failures locally, streams results back)\n"},
    {"submit", false, cmdSubmit,
     "  submit --connect host:port [--cells N] [--seed N]\n"
     "         [--policy sc,def1,drf0,...] [--programs F1,F2,...]\n"
     "         [--max-events N] [--no-shrink] [--shrink-max-runs N]\n"
     "         [--inject-reserve-bug] [--verify]\n"
     "         [--verify-models sc,wb,net,...] [--max-states N]\n"
     "         [--explore-jobs N] [--inject-axiom-bug]\n"
     "         [--idle-timeout MS] [--quiet]\n"
     "         (enqueue a campaign on a warm fleet, stream progress,\n"
     "         exit with the campaign verdict: 1 iff a hardware\n"
     "         violation was found)\n"},
    {"report", false, cmdReport,
     "  report <out-dir> [--out F] [--title T] [--bench F1,F2,...]\n"
     "         (merge the campaign journal, evidence bundles and\n"
     "         BENCH_*.json into one self-contained report.html)\n"},
    {"lockset", true, wrapLockset, "  lockset <file>\n"},
    {"litmus", true, wrapLitmus,
     "  litmus <file>   (evaluate the file's 'probe' condition on\n"
     "         every abstract machine)\n"},
    {"disasm", true, wrapDisasm, "  disasm <file>\n"},
    {"analyze-trace", false, wrapAnalyzeTrace,
     "  analyze-trace <file>  (file is a trace, not a program;\n"
     "                SC check + race report + Lemma 1)\n"},
};
const std::size_t num_commands =
    sizeof(commands) / sizeof(commands[0]);

int
toolMain(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    for (const Command &c : commands) {
        if (cmd != c.name)
            continue;
        if (!c.needs_program) {
            // analyze-trace takes a file path in argv[2] and report a
            // directory; campaign is all options.
            if ((cmd == "analyze-trace" || cmd == "report") &&
                argc < 3)
                return usage();
            return c.handler(nullptr, argc, argv);
        }
        if (argc < 3)
            return usage();
        AsmResult a = assembleFile(argv[2]);
        if (!a.ok()) {
            for (const auto &e : a.errors)
                std::fprintf(stderr, "%s: %s\n", argv[2],
                             e.toString().c_str());
            return 2;
        }
        return c.handler(&a, argc, argv);
    }
    return usage();
}

} // namespace
} // namespace wo

int
main(int argc, char **argv)
{
    return wo::toolMain(argc, argv);
}
