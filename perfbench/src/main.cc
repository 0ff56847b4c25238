/**
 * @file
 * perfbench: the repository benchmark.  One invocation runs one
 * workload for about --seconds and prints, as its last stdout line,
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * with the end-to-end metrics (--trace 0) or the per-layer ledger
 * (--trace 1).  The same figures, the machine fingerprint and every
 * workload-specific number go to .bench_out/<workload>/ as a result
 * file; a traced run also writes its spans there.  See README.md.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hh"
#include "common/logging.hh"
#include "obs/json.hh"

namespace {

using pb::Options;
using pb::RunResult;

constexpr int setup_first_repetitions = 11;
constexpr int setup_window_repetitions = 25;
constexpr double setup_window_s = 0.05;
constexpr double setup_window_gap_s = 1.0;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload campaign|fleet|hunt|verify|"
                 "explore --seed N --seconds S --trace 0|1\n"
                 "                 [--size full|tiny] [--record]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        auto number = [&](const std::string &v) {
            char *end = nullptr;
            const double d = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || d < 0)
                usage(("bad number '" + v + "' for " + a).c_str());
            return d;
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = static_cast<std::uint64_t>(number(value()));
        else if (a == "--seconds")
            o.seconds = number(value());
        else if (a == "--trace")
            o.trace = number(value()) != 0;
        else if (a == "--size")
            o.size = value();
        else if (a == "--record")
            o.record = true;
        else if (a == "--commit")
            o.commit = value();
        else if (a == "--src-digest")
            o.src_digest = value();
        else
            usage(("unknown argument " + a).c_str());
    }
    if (o.size != "full" && o.size != "tiny")
        usage("--size wants full or tiny");
    return o;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

wo::Json
fingerprint(const Options &o)
{
    wo::Json f = wo::Json::object();
    f.set("cpu_model", wo::Json(cpuModel()));
    f.set("nproc", wo::Json(static_cast<std::uint64_t>(
                       std::thread::hardware_concurrency())));
    f.set("compiler", wo::Json(PB_COMPILER));
    f.set("build_type", wo::Json(PB_BUILD_TYPE));
    f.set("commit", wo::Json(o.commit));
    f.set("src_digest", wo::Json(o.src_digest));
#ifdef WO_HAVE_LEGACY_EVENT_QUEUE
    f.set("WO_LEGACY_EVENT_QUEUE", wo::Json(true));
#else
    f.set("WO_LEGACY_EVENT_QUEUE", wo::Json(false));
#endif
    return f;
}

/** A number with all its digits, as the result line wants it. */
std::string
num(double v)
{
    return wo::strprintf("%.17g", v);
}

/**
 * setup_s: the set-up is timed in windows spread over the run -- one
 * before the measurement (at least setup_first_repetitions set-ups),
 * one at a round boundary at most every setup_window_gap_s, one after --
 * and setup_s is the median of every repetition.  The repetitions of
 * one burst would all see the machine as it was at that moment.
 */
class SetupTimer
{
  public:
    explicit SetupTimer(pb::Workload &wl) : wl_(wl) {}

    /** Tear down and set up again, timed, for up to setup_window_s. */
    void window(int min_reps)
    {
        const auto w0 = pb::Clock::now();
        for (int k = 0; k < min_reps ||
                        (k < setup_window_repetitions &&
                         pb::secondsSince(w0) < setup_window_s);
             ++k) {
            wl_.teardown();
            const auto t0 = pb::Clock::now();
            wl_.setup();
            reps_.push_back(pb::secondsSince(t0));
        }
        ++windows_;
        last_ = pb::Clock::now();
    }

    /** A window at a round boundary, if the last one is old enough. */
    void between()
    {
        if (pb::secondsSince(last_) >= setup_window_gap_s)
            window(1);
    }

    void report(RunResult &res) const
    {
        res.add("setup_s", pb::median(reps_), "s");
        res.addExtra("setup_repetitions", static_cast<double>(reps_.size()),
                     "count");
        res.addExtra("setup_windows", static_cast<double>(windows_), "count");
    }

  private:
    pb::Workload &wl_;
    std::vector<double> reps_;
    int windows_ = 0;
    pb::Clock::time_point last_;
};

wo::Json
metricsJson(const std::vector<RunResult::Metric> &ms)
{
    wo::Json j = wo::Json::object();
    for (const auto &m : ms) {
        wo::Json e = wo::Json::object();
        e.set("value", wo::Json(m.value));
        e.set("unit", wo::Json(m.unit));
        j.set(m.name, std::move(e));
    }
    return j;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    // Inputs and expected digests are read relative to the checkout.
    if (!std::filesystem::is_directory("programs") ||
        !std::filesystem::is_directory("perfbench/expected"))
        usage("run from the repository root (programs/ and "
              "perfbench/expected/ not found)");
    std::unique_ptr<pb::Workload> wl = pb::makeRunCellWorkload(opt);
    if (!wl)
        wl = pb::makeModelWorkload(opt);
    if (!wl)
        usage(("unknown workload '" + opt.workload + "'").c_str());

    const std::string out_dir = ".bench_out/" + opt.workload;
    std::filesystem::create_directories(out_dir);
    const std::string tag = wo::strprintf(
        "%s-seed%llu-trace%d", opt.size.c_str(),
        static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);

    RunResult res;
    if (opt.trace) {
        pb::runLedger(opt, res, out_dir + "/spans-" + tag + ".jsonl");
    } else {
        // Set up several times and keep the median, so work moved into
        // set-up shows as setup_s rather than hiding in one noisy read.
        SetupTimer setup(*wl);
        setup.window(setup_first_repetitions);
        if (opt.record) {
            wl->record(res);
        } else {
            wl->between = [&] { setup.between(); };
            wl->measure(res);
            setup.window(1);
            setup.report(res);
        }
        wl->teardown();
        res.add("peak_rss_mb", pb::peakRssMb(), "MiB");
    }
    res.correct = res.mismatches.empty() && res.failed == 0;
    if (res.attempted == 0)
        res.correct = false;

    const wo::Json fp = fingerprint(opt);
    std::printf("fingerprint %s\n", fp.dump().c_str());
    for (const auto &m : res.metrics)
        std::printf("%-34s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const auto &m : res.extra)
        std::printf("%-34s %14.6g %s  (not in BENCHMARK.json)\n",
                    m.name.c_str(), m.value, m.unit.c_str());
    const std::size_t shown = std::min<std::size_t>(res.mismatches.size(), 20);
    for (std::size_t i = 0; i < shown; ++i)
        std::printf("MISMATCH %s\n", res.mismatches[i].c_str());
    if (res.mismatches.size() > shown)
        std::printf("MISMATCH ... and %zu more\n",
                    res.mismatches.size() - shown);

    wo::Json file = wo::Json::object();
    file.set("workload", wo::Json(opt.workload));
    file.set("seed", wo::Json(opt.seed));
    file.set("seconds", wo::Json(opt.seconds));
    file.set("trace", wo::Json(opt.trace));
    file.set("size", wo::Json(opt.size));
    file.set("fingerprint", fp);
    file.set("correct", wo::Json(res.correct));
    file.set("attempted", wo::Json(res.attempted));
    file.set("failed", wo::Json(res.failed));
    file.set("failed_share",
             wo::Json(res.attempted ? static_cast<double>(res.failed) /
                                          static_cast<double>(res.attempted)
                                    : 1.0));
    file.set("metrics", metricsJson(res.metrics));
    file.set("workload_metrics", metricsJson(res.extra));
    file.set("mismatches", wo::Json(static_cast<std::uint64_t>(
                               res.mismatches.size())));
    std::ofstream(out_dir + "/result-" + tag + ".json") << file.dump(1)
                                                        << "\n";

    std::string line = "{\"correct\": ";
    line += res.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(res.attempted);
    line += ", \"failed\": " + std::to_string(res.failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < res.metrics.size(); ++i) {
        const auto &m = res.metrics[i];
        line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return 0;
}
