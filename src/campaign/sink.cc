#include "sink.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/artifact.hh"
#include "obs/httpd.hh"
#include "obs/metrics.hh"

namespace wo {

namespace {

/** The quantile of a sorted sample (nearest-rank). */
double
quantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    const std::size_t idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

void
bump(std::atomic<std::uint64_t> &a, std::uint64_t n = 1)
{
    a.fetch_add(n, std::memory_order_relaxed);
}

} // namespace

VerdictClass
verdictClass(std::string_view v)
{
    if (v == "clean")
        return VerdictClass::clean;
    if (v == "race")
        return VerdictClass::race;
    if (v.substr(0, 3) == "hw:")
        return VerdictClass::hw;
    if (v == "deadlock")
        return VerdictClass::deadlock;
    if (v == "livelock")
        return VerdictClass::livelock;
    if (v == "inconclusive")
        return VerdictClass::inconclusive;
    if (v == "nonsc")
        return VerdictClass::nonsc;
    return VerdictClass::error;
}

Json
byKindJson(const std::uint64_t (&by_kind)[num_violation_kinds])
{
    Json by = Json::object();
    for (int k = 0; k < num_violation_kinds; ++k)
        if (by_kind[k] > 0)
            by.set(violationKindName(static_cast<ViolationKind>(k)),
                   Json(by_kind[k]));
    return by;
}

void
addByKindJson(const Json &j, std::uint64_t (&by_kind)[num_violation_kinds])
{
    for (const auto &[name, count] : j.members()) {
        ViolationKind k;
        if (count.isNumber() && violationKindFromName(name, k))
            by_kind[static_cast<int>(k)] += count.uintValue();
    }
}

ResultSink::ResultSink(std::string journal_path, JournalCfg jcfg,
                       std::string out_dir, int slots)
    : out_dir_(std::move(out_dir)),
      journal_(std::move(journal_path), jcfg),
      nslots_(std::max(1, slots)),
      slots_(new Slot[static_cast<std::size_t>(nslots_)])
{
}

void
ResultSink::record(int slot, std::string_view verdict, double wall_ms,
                   const std::uint64_t (&by_kind)[num_violation_kinds],
                   std::uint64_t dpor_probes, std::uint64_t dpor_memo_hits)
{
    Slot &s = slots_[slot];
    bump(s.verdicts[static_cast<int>(verdictClass(verdict))]);
    for (int k = 0; k < num_violation_kinds; ++k)
        if (by_kind[k] > 0)
            bump(s.by_kind[k], by_kind[k]);
    if (dpor_probes > 0) {
        bump(s.dpor_probes, dpor_probes);
        bump(s.dpor_memo_hits, dpor_memo_hits);
    }

    s.lat_ms.push_back(wall_ms);
    const std::uint64_t us =
        wall_ms <= 0 ? 0 : static_cast<std::uint64_t>(wall_ms * 1000.0);
    int b = 0;
    while (b + 1 < num_lat_buckets && (std::uint64_t{1} << b) < us)
        ++b;
    bump(s.lat_bucket[b]);
    bump(s.lat_sum_us, us);
    bump(s.lat_count);
    bump(s.ran);
}

void
ResultSink::skip(int slot, bool resumed)
{
    bump(resumed ? slots_[slot].skipped : slots_[slot].duplicate);
}

std::string
ResultSink::fileFailure(FailureRecord rec, const std::string &wo_text)
{
    // One identity for both transports: a bug found by three workers
    // (or three fleet hosts) is still one failure.
    const std::string hash = fnv1aHex(wo_text).substr(0, 12);
    rec.dedup = rec.kind + ":" + hash;
    const std::string stem = out_dir_ + "/repro-" + rec.kind + "-" + hash;
    rec.repro_path = stem + ".wo";
    if (!journal_.recordFailure(rec.dedup, rec.kind, rec.first_cell,
                                rec.repro_path, rec.instructions,
                                rec.orig_instructions))
        return ""; // the journal's failure map already counts the repeat

    unique_failures_.fetch_add(1, std::memory_order_relaxed);
    writeFile(rec.repro_path, wo_text);
    // A unique discovery already paid for a shrink, so this lock is
    // noise.
    std::lock_guard<std::mutex> lock(feed_mu_);
    feed_.push_back(std::move(rec));
    return stem;
}

std::uint64_t
ResultSink::sum(std::atomic<std::uint64_t> Slot::*f) const
{
    std::uint64_t total = 0;
    for (int i = 0; i < nslots_; ++i)
        total += (slots_[i].*f).load(std::memory_order_relaxed);
    return total;
}

std::uint64_t
ResultSink::verdicts(VerdictClass c) const
{
    std::uint64_t total = 0;
    for (int i = 0; i < nslots_; ++i)
        total += slots_[i].verdicts[static_cast<int>(c)].load(
            std::memory_order_relaxed);
    return total;
}

ResultSink::LatSnapshot
ResultSink::latency() const
{
    LatSnapshot s;
    for (int i = 0; i < nslots_; ++i) {
        const Slot &sl = slots_[i];
        s.count += sl.lat_count.load(std::memory_order_relaxed);
        s.sum_us += sl.lat_sum_us.load(std::memory_order_relaxed);
        for (int b = 0; b < num_lat_buckets; ++b)
            s.cum[b] += sl.lat_bucket[b].load(std::memory_order_relaxed);
    }
    for (int b = 1; b < num_lat_buckets; ++b)
        s.cum[b] += s.cum[b - 1];
    return s;
}

double
ResultSink::latQuantileMs(const LatSnapshot &s, double q)
{
    if (s.count == 0)
        return 0;
    const std::uint64_t want =
        static_cast<std::uint64_t>(q * static_cast<double>(s.count - 1)) +
        1;
    int b = 0;
    while (b + 1 < num_lat_buckets && s.cum[b] < want)
        ++b;
    return static_cast<double>(std::uint64_t{1} << b) / 1000.0;
}

Json
ResultSink::latencyMetricsJson() const
{
    const LatSnapshot s = latency();
    Json h = Json::object();
    h.set("count", Json(s.count));
    h.set("sum", Json(s.sum_us));
    Json buckets = Json::array();
    for (int b = 0; b < num_lat_buckets; ++b) {
        Json e = Json::object();
        e.set("le", Json(std::uint64_t{1} << b));
        e.set("n", Json(s.cum[b]));
        buckets.push(std::move(e));
        if (s.cum[b] >= s.count)
            break; // the rest only repeats the total
    }
    h.set("buckets", std::move(buckets));
    return h;
}

void
ResultSink::mountEvents(HttpServer &srv, std::function<Json()> progress,
                        const std::atomic<bool> &done)
{
    // Each connection copies this generator (and with it a pristine
    // cursor), so a late subscriber first replays every unique failure
    // discovered so far, then follows along live.
    srv.stream("/events", [this, progress = std::move(progress), &done,
                           cursor = std::size_t{0}](std::string &chunk)
                              mutable {
        {
            std::lock_guard<std::mutex> lock(feed_mu_);
            for (; cursor < feed_.size(); ++cursor) {
                const FailureRecord &f = feed_[cursor];
                Json j = Json::object();
                j.set("dedup", Json(f.dedup));
                j.set("kind", Json(f.kind));
                j.set("cell", Json(f.first_cell));
                j.set("file", Json(f.repro_path));
                chunk += "event: failure\ndata: " + j.dump(0) + "\n\n";
            }
        }
        chunk += "event: progress\ndata: " + progress().dump(0) + "\n\n";
        if (done.load(std::memory_order_relaxed)) {
            chunk += "event: done\ndata: {}\n\n";
            return false;
        }
        return true;
    });
}

CampaignSummary
ResultSink::summary(double wall_s) const
{
    CampaignSummary sum;
    sum.ran = this->sum(&Slot::ran);
    sum.skipped = this->sum(&Slot::skipped);
    sum.duplicate = this->sum(&Slot::duplicate);
    sum.clean = verdicts(VerdictClass::clean);
    sum.racy = verdicts(VerdictClass::race);
    sum.hw = verdicts(VerdictClass::hw);
    sum.deadlocked = verdicts(VerdictClass::deadlock);
    sum.livelocked = verdicts(VerdictClass::livelock);
    sum.errors = verdicts(VerdictClass::error);
    sum.inconclusive = verdicts(VerdictClass::inconclusive);
    sum.nonsc = verdicts(VerdictClass::nonsc);
    std::vector<double> lat;
    for (int i = 0; i < nslots_; ++i) {
        for (int k = 0; k < num_violation_kinds; ++k)
            sum.by_kind[k] +=
                slots_[i].by_kind[k].load(std::memory_order_relaxed);
        lat.insert(lat.end(), slots_[i].lat_ms.begin(),
                   slots_[i].lat_ms.end());
    }
    std::sort(lat.begin(), lat.end());
    sum.lat_p50_ms = quantile(lat, 0.50);
    sum.lat_p99_ms = quantile(lat, 0.99);
    sum.wall_s = wall_s;
    sum.cells_per_sec =
        wall_s > 0 ? static_cast<double>(sum.ran) / wall_s : 0;

    // The journal knows every deduplicated failure, including those
    // recorded before a resume; this process's filings add the
    // provenance.
    std::lock_guard<std::mutex> lock(feed_mu_);
    for (const auto &[dedup, jf] : journal_.failures()) {
        FailureRecord rec;
        rec.dedup = dedup;
        rec.kind = jf.kind;
        rec.repro_path = jf.file;
        rec.instructions = jf.insns;
        rec.count = jf.count;
        for (const FailureRecord &f : feed_)
            if (f.dedup == dedup) {
                rec.first_cell = f.first_cell;
                rec.orig_instructions = f.orig_instructions;
                rec.reproduced = f.reproduced;
            }
        sum.failures.push_back(std::move(rec));
    }
    return sum;
}

void
ResultSink::dropSamples()
{
    for (int i = 0; i < nslots_; ++i)
        std::vector<double>().swap(slots_[i].lat_ms);
}

void
mountControlPlane(HttpServer &srv, std::string prefix,
                  std::function<Json()> metrics,
                  std::function<Json()> progress)
{
    srv.handle("/healthz", [](const HttpRequest &) {
        HttpResponse r;
        r.body = "ok\n";
        return r;
    });
    srv.handle("/metrics", [prefix = std::move(prefix),
                            metrics = std::move(metrics)](
                               const HttpRequest &) {
        HttpResponse r;
        r.content_type = "text/plain; version=0.0.4; charset=utf-8";
        r.body = prometheusText(metrics(), prefix);
        return r;
    });
    srv.handle("/progress",
               [progress = std::move(progress)](const HttpRequest &) {
                   HttpResponse r;
                   r.content_type = "application/json";
                   r.body = progress().dump(1) + "\n";
                   return r;
               });
}

// --- the summary's two renderings ------------------------------------

std::string
CampaignSummary::table() const
{
    std::string out;
    out += strprintf(
        "campaign: %llu cells (%llu run, %llu resumed, %llu duplicate), "
        "%.2f s, %.1f cells/s (cell p50 %.3f ms, p99 %.3f ms), "
        "%llu frontier discoveries\n",
        static_cast<unsigned long long>(ran + skipped + duplicate),
        static_cast<unsigned long long>(ran),
        static_cast<unsigned long long>(skipped),
        static_cast<unsigned long long>(duplicate), wall_s,
        cells_per_sec, lat_p50_ms, lat_p99_ms,
        static_cast<unsigned long long>(novelty));
    out += strprintf(
        "verdicts: %llu clean, %llu race, %llu hw-violation, "
        "%llu deadlock, %llu livelock, %llu error\n",
        static_cast<unsigned long long>(clean),
        static_cast<unsigned long long>(racy),
        static_cast<unsigned long long>(hw),
        static_cast<unsigned long long>(deadlocked),
        static_cast<unsigned long long>(livelocked),
        static_cast<unsigned long long>(errors));
    if (inconclusive > 0 || nonsc > 0)
        out += strprintf(
            "verify: %llu inconclusive (budget-tripped), %llu non-SC "
            "(expected on counterexample machines)\n",
            static_cast<unsigned long long>(inconclusive),
            static_cast<unsigned long long>(nonsc));
    for (const LaneSummary &l : lanes) {
        if (l.wall_ms <= 0)
            continue;
        out += strprintf("lane %-14s %8.1f ms:", l.lane.c_str(),
                         l.wall_ms);
        for (int k = 0; k < num_span_kinds; ++k) {
            if (l.span_count[k] == 0)
                continue;
            out += strprintf(
                " %s %.0f%%",
                spanKindName(static_cast<SpanKind>(k)),
                100.0 * l.span_ms[k] / l.wall_ms);
        }
        out += "\n";
    }
    if (!folded_path.empty())
        out += strprintf(
            "profile: %llu samples (%llu dropped) -> %s, trace %s\n",
            static_cast<unsigned long long>(profile_samples),
            static_cast<unsigned long long>(profile_dropped),
            folded_path.c_str(), trace_path.c_str());
    bool any_kind = false;
    for (int k = 0; k < num_violation_kinds; ++k)
        any_kind = any_kind || by_kind[k] > 0;
    if (any_kind) {
        out += "monitor findings:";
        for (int k = 0; k < num_violation_kinds; ++k)
            if (by_kind[k] > 0)
                out += strprintf(
                    " %s=%llu",
                    violationKindName(static_cast<ViolationKind>(k)),
                    static_cast<unsigned long long>(by_kind[k]));
        out += "\n";
    }
    if (failures.empty()) {
        out += "hardware: CLEAN (no violation survived shrinking)\n";
        return out;
    }
    out += strprintf("failures (%zu unique after dedup):\n",
                     failures.size());
    for (const FailureRecord &f : failures)
        out += strprintf(
            "  %-16s x%-4llu -> %s (%zu insns%s%s)\n", f.kind.c_str(),
            static_cast<unsigned long long>(f.count),
            f.repro_path.c_str(), f.instructions,
            f.orig_instructions > 0
                ? strprintf(", from %zu", f.orig_instructions).c_str()
                : "",
            f.reproduced ? ", reproduced" : "");
    return out;
}

Json
CampaignSummary::toJson() const
{
    Json j = Json::object();
    j.set("ran", Json(ran));
    j.set("skipped", Json(skipped));
    j.set("duplicate", Json(duplicate));
    j.set("clean", Json(clean));
    j.set("race", Json(racy));
    j.set("hw", Json(hw));
    j.set("deadlock", Json(deadlocked));
    j.set("livelock", Json(livelocked));
    j.set("error", Json(errors));
    j.set("inconclusive", Json(inconclusive));
    j.set("nonsc", Json(nonsc));
    j.set("novelty", Json(novelty));
    j.set("wall_s", Json(wall_s));
    j.set("cells_per_sec", Json(cells_per_sec));
    j.set("lat_p50_ms", Json(lat_p50_ms));
    j.set("lat_p99_ms", Json(lat_p99_ms));
    j.set("by_kind", byKindJson(by_kind));
    Json lanes_j = Json::array();
    for (const LaneSummary &l : lanes) {
        Json lj = Json::object();
        lj.set("lane", Json(l.lane));
        lj.set("wall_ms", Json(l.wall_ms));
        Json spans = Json::object();
        for (int k = 0; k < num_span_kinds; ++k) {
            if (l.span_count[k] == 0)
                continue;
            Json s = Json::object();
            s.set("ms", Json(l.span_ms[k]));
            s.set("count", Json(l.span_count[k]));
            s.set("max_ms", Json(l.span_max_ms[k]));
            spans.set(spanKindName(static_cast<SpanKind>(k)),
                      std::move(s));
        }
        lj.set("spans", std::move(spans));
        lanes_j.push(std::move(lj));
    }
    j.set("lanes", std::move(lanes_j));
    if (!profiler_json.isNull()) {
        j.set("profiler", profiler_json);
        j.set("folded", Json(folded_path));
        j.set("trace", Json(trace_path));
    }
    Json fails = Json::array();
    for (const FailureRecord &f : failures) {
        Json rec = Json::object();
        rec.set("dedup", Json(f.dedup));
        rec.set("kind", Json(f.kind));
        rec.set("file", Json(f.repro_path));
        rec.set("first_cell", Json(f.first_cell));
        rec.set("insns", Json(static_cast<std::uint64_t>(f.instructions)));
        rec.set("orig_insns",
                Json(static_cast<std::uint64_t>(f.orig_instructions)));
        rec.set("count", Json(f.count));
        rec.set("reproduced", Json(f.reproduced));
        fails.push(std::move(rec));
    }
    j.set("failures", std::move(fails));
    return j;
}

} // namespace wo
