#include "journal.hh"

#include <chrono>

#include "common/logging.hh"
#include "obs/profiler.hh"

namespace wo {

namespace {

/** 0 marks an empty slot in the SeenSet table; remap real hashes. */
std::uint64_t
nonZero(std::uint64_t h)
{
    return h ? h : 1;
}

} // namespace

// ------------------------------------------------------------- SeenSet

void
SeenSet::rebuild(std::size_t pow2_cap)
{
    auto fresh =
        std::make_unique<std::atomic<std::uint64_t>[]>(pow2_cap);
    for (std::size_t i = 0; i < pow2_cap; ++i)
        fresh[i].store(0, std::memory_order_relaxed);
    // Re-seat existing entries (reserve() may run after direct-API use).
    if (slots_)
        for (std::size_t i = 0; i < cap_; ++i) {
            const std::uint64_t h =
                slots_[i].load(std::memory_order_relaxed);
            if (h == 0)
                continue;
            std::size_t j = h & (pow2_cap - 1);
            while (fresh[j].load(std::memory_order_relaxed) != 0)
                j = (j + 1) & (pow2_cap - 1);
            fresh[j].store(h, std::memory_order_relaxed);
        }
    slots_ = std::move(fresh);
    cap_ = pow2_cap;
}

void
SeenSet::reserve(std::size_t keys)
{
    std::size_t want = 1u << 12;
    while (want < keys * 2 + 1)
        want <<= 1;
    if (want > cap_)
        rebuild(want);
}

bool
SeenSet::insert(std::uint64_t h)
{
    h = nonZero(h);
    // Past half load the probe chains degrade; spill to the mutexed
    // overflow set instead (reserve() makes this unreachable in
    // practice).
    if (used_.load(std::memory_order_relaxed) * 2 >= cap_)
        return insertOverflow(h);
    std::size_t i = h & (cap_ - 1);
    for (std::size_t probes = 0; probes < cap_; ++probes) {
        std::uint64_t cur = slots_[i].load(std::memory_order_acquire);
        if (cur == h)
            return false;
        if (cur == 0) {
            std::uint64_t expected = 0;
            if (slots_[i].compare_exchange_strong(
                    expected, h, std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                used_.fetch_add(1, std::memory_order_relaxed);
                return true;
            }
            if (expected == h)
                return false;
            // Another key claimed the slot first: keep probing.
        }
        i = (i + 1) & (cap_ - 1);
    }
    return insertOverflow(h);
}

bool
SeenSet::tableContains(std::uint64_t h) const
{
    std::size_t i = h & (cap_ - 1);
    for (std::size_t probes = 0; probes < cap_; ++probes) {
        const std::uint64_t cur =
            slots_[i].load(std::memory_order_acquire);
        if (cur == h)
            return true;
        if (cur == 0)
            return false;
        i = (i + 1) & (cap_ - 1);
    }
    return false;
}

bool
SeenSet::insertOverflow(std::uint64_t h)
{
    if (tableContains(h))
        return false;
    std::lock_guard<std::mutex> lock(ov_mu_);
    const bool inserted = overflow_.insert(h).second;
    if (inserted)
        has_overflow_.store(true, std::memory_order_release);
    return inserted;
}

bool
SeenSet::contains(std::uint64_t h) const
{
    h = nonZero(h);
    if (tableContains(h))
        return true;
    if (!has_overflow_.load(std::memory_order_acquire))
        return false;
    std::lock_guard<std::mutex> lock(ov_mu_);
    return overflow_.count(h) > 0;
}

std::size_t
SeenSet::overflowSize() const
{
    if (!has_overflow_.load(std::memory_order_acquire))
        return 0;
    std::lock_guard<std::mutex> lock(ov_mu_);
    return overflow_.size();
}

// ------------------------------------------------------------- Journal

void
appendJournalCellLine(std::string &out, const CellResult &r)
{
    // cellResultToJson(r) with "type" appended last.
    appendCellResultJson(out, r);
    out.pop_back();
    out += ",\"type\":\"cell\"}\n";
}

Journal::~Journal()
{
    close();
}

void
Journal::load()
{
    std::FILE *f = std::fopen(path_.c_str(), "rb");
    if (!f)
        return;
    std::string text;
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    std::fclose(f);

    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            break; // a line without \n was cut mid-write: ignore it
        // Parse in place: a million-line resume must not copy every
        // line into a fresh string first.
        const std::string_view line(text.data() + pos, eol - pos);
        pos = eol + 1;
        if (line.empty())
            continue;
        JsonParseResult p = jsonParse(line);
        if (!p.ok || !p.value.isObject())
            continue; // crash-truncated or corrupt: skip
        const Json *type = p.value.find("type");
        if (!type || !type->isString())
            continue;
        if (type->stringValue() == "campaign") {
            header_ = p.value;
            if (const Json *sv = p.value.find("schema_version"))
                if (sv->isNumber())
                    loaded_schema_version_ = sv->uintValue();
            if (loaded_schema_version_ != journal_schema_version) {
                schema_mismatch_ = true;
                warn("journal '%s': schema version %llu, this build "
                     "writes %llu -- records from mixed builds; "
                     "resume/merge results may be inconsistent",
                     path_.c_str(),
                     static_cast<unsigned long long>(
                         loaded_schema_version_),
                     static_cast<unsigned long long>(
                         journal_schema_version));
            }
        } else if (type->stringValue() == "cell") {
            if (const Json *k = p.value.find("key"))
                if (k->isString())
                    resume_done_.insert(k->stringValue());
            if (const Json *ix = p.value.find("idx"))
                if (ix->isNumber())
                    resume_idx_.insert(ix->uintValue());
        } else if (type->stringValue() == "failure") {
            const Json *dedup = p.value.find("dedup");
            if (!dedup || !dedup->isString())
                continue;
            JournalFailure &rec = failures_[dedup->stringValue()];
            ++rec.count;
            if (const Json *k = p.value.find("kind"))
                if (k->isString())
                    rec.kind = k->stringValue();
            if (const Json *fl = p.value.find("file"))
                if (fl->isString() && !fl->stringValue().empty())
                    rec.file = fl->stringValue();
            if (const Json *i = p.value.find("insns"))
                if (i->isNumber() && rec.insns == 0)
                    rec.insns = static_cast<std::size_t>(i->uintValue());
        }
    }
}

bool
Journal::open(bool fresh)
{
    f_ = std::fopen(path_.c_str(), fresh ? "wb" : "a+b");
    if (!f_) {
        warn("cannot open campaign journal '%s'", path_.c_str());
        return false;
    }
    if (!fresh) {
        // A crash can tear the last line of the last batch.  Terminate
        // it now so this run's appends never glue onto the torn tail
        // (which would corrupt the first fresh line too); the reader
        // skips the malformed remnant either way.
        if (std::fseek(f_, -1, SEEK_END) == 0) {
            const int last = std::fgetc(f_);
            if (last != EOF && last != '\n')
                std::fputc('\n', f_);
        }
        std::clearerr(f_);
        std::fseek(f_, 0, SEEK_END);
    }
    closing_.store(false, std::memory_order_relaxed);
    writer_ = std::thread([this] { writerLoop(); });
    return true;
}

void
Journal::close()
{
    if (writer_.joinable()) {
        closing_.store(true, std::memory_order_release);
        {
            std::lock_guard<std::mutex> lock(wake_mu_);
            wake_cv_.notify_one();
        }
        writer_.join();
    }
    if (f_) {
        std::fclose(f_);
        f_ = nullptr;
    }
}

void
Journal::reserveKeys(std::size_t cells)
{
    seen_.reserve(cells);
}

void
Journal::push(Line *n)
{
    Line *h = head_.load(std::memory_order_relaxed);
    do {
        n->next = h;
    } while (!head_.compare_exchange_weak(h, n,
                                          std::memory_order_release,
                                          std::memory_order_relaxed));
    const std::uint64_t pending =
        queued_.fetch_add(1, std::memory_order_acq_rel) + 1;
    // Wake a sleeping writer only at the batch threshold (or always
    // when sync_every == 1): everything else rides the bounded flush
    // interval, so the hot path stays notification-free.
    if (pending >= cfg_.sync_every &&
        writer_idle_.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(wake_mu_);
        wake_cv_.notify_one();
    }
}

Journal::Line *
Journal::takeAllFifo()
{
    Line *lifo = head_.exchange(nullptr, std::memory_order_acquire);
    // The stack is newest-first; reverse to recover push order.
    Line *fifo = nullptr;
    while (lifo) {
        Line *next = lifo->next;
        lifo->next = fifo;
        fifo = lifo;
        lifo = next;
    }
    return fifo;
}

void
Journal::commitBatch(Line *fifo)
{
    // One writer_flush span per drained batch (runs on the writer
    // thread; Timeline::current() is the journal-writer lane or null).
    Timeline::Scope flush_span(Timeline::current(),
                               SpanKind::writer_flush);
    std::uint64_t since_flush = 0;
    std::uint64_t drained = 0;
    while (fifo) {
        Line *next = fifo->next;
        std::fwrite(fifo->text.data(), 1, fifo->text.size(), f_);
        delete fifo;
        fifo = next;
        ++drained;
        if (++since_flush >= cfg_.sync_every) {
            std::fflush(f_); // commit point: the batch is durable
            commits_.fetch_add(1, std::memory_order_relaxed);
            since_flush = 0;
        }
    }
    if (since_flush > 0) {
        std::fflush(f_);
        commits_.fetch_add(1, std::memory_order_relaxed);
    }
    queued_.fetch_sub(drained, std::memory_order_acq_rel);
}

void
Journal::writerLoop()
{
    // The writer is an engine thread: it registers for self-profiling
    // and owns the campaign's "journal-writer" timeline lane.
    Profiler::ThreadGuard prof_guard("journal-writer");
    Timeline *tl = cfg_.timeline;
    Timeline::setCurrent(tl);
    if (tl)
        tl->markStart();
    const auto interval =
        std::chrono::milliseconds(cfg_.flush_interval_ms > 0
                                      ? cfg_.flush_interval_ms
                                      : 1);
    for (;;) {
        Line *batch = takeAllFifo();
        if (batch) {
            commitBatch(batch);
            continue;
        }
        if (closing_.load(std::memory_order_acquire)) {
            // close() happens after the fleet joined: one final drain
            // catches anything pushed before the closing flag.
            commitBatch(takeAllFifo());
            if (tl)
                tl->markEnd();
            Timeline::setCurrent(nullptr);
            return;
        }
        std::unique_lock<std::mutex> lock(wake_mu_);
        writer_idle_.store(true, std::memory_order_release);
        if (head_.load(std::memory_order_acquire) == nullptr &&
            !closing_.load(std::memory_order_acquire))
            wake_cv_.wait_for(lock, interval);
        writer_idle_.store(false, std::memory_order_release);
    }
}

void
Journal::appendLine(const Json &j)
{
    if (!writer_.joinable())
        return; // not open: drop, same as the pre-group-commit journal
    // journal_push accounts the producer side (format + enqueue) on
    // whichever lane the calling thread owns.
    Timeline::Scope push_span(Timeline::current(),
                              SpanKind::journal_push);
    std::string text = j.dump();
    text += '\n';
    pushText(std::move(text));
}

void
Journal::pushText(std::string text)
{
    Line *n = new Line;
    n->text = std::move(text);
    push(n);
}

void
Journal::writeHeader(Json meta)
{
    Json j = Json::object();
    j.set("type", Json("campaign"));
    j.set("schema_version", Json(journal_schema_version));
    j.set("hw_threads",
          Json(static_cast<std::uint64_t>(
              std::thread::hardware_concurrency())));
    for (const auto &[k, v] : meta.members())
        j.set(k, v);
    appendLine(j);
}

void
Journal::appendRaw(std::string line)
{
    if (!writer_.joinable())
        return;
    Timeline::Scope push_span(Timeline::current(),
                              SpanKind::journal_push);
    pushText(std::move(line));
}

bool
Journal::done(const std::string &key) const
{
    if (resume_done_.count(key) > 0)
        return true;
    return seen_.contains(fnv1a64(key));
}

std::size_t
Journal::doneCells() const
{
    return resume_done_.size() + seen_.size();
}

void
Journal::appendCell(const CellResult &r)
{
    // Mark the key done before the line is durable: done() answers
    // "has this run handled the key", the journal line answers "will a
    // resumed run re-handle it" -- the crash window between the two is
    // the (bounded) uncommitted tail of the current batch.
    if (resume_done_.count(r.key) == 0)
        seen_.insert(fnv1a64(r.key));

    if (!writer_.joinable())
        return;
    Timeline::Scope push_span(Timeline::current(),
                              SpanKind::journal_push);
    thread_local std::string line;
    line.clear();
    appendJournalCellLine(line, r);
    pushText(line);
}

bool
Journal::recordFailure(const std::string &dedup, const std::string &kind,
                       const std::string &cell_key,
                       const std::string &file, std::size_t insns,
                       std::size_t orig_insns)
{
    bool first;
    std::string first_file;
    {
        std::lock_guard<std::mutex> lock(fail_mu_);
        JournalFailure &rec = failures_[dedup];
        first = rec.count == 0;
        ++rec.count;
        if (first) {
            rec.kind = kind;
            rec.file = file;
            rec.insns = insns;
        }
        first_file = rec.file;
    }

    Json j = Json::object();
    j.set("type", Json("failure"));
    j.set("dedup", Json(dedup));
    j.set("kind", Json(kind));
    j.set("cell", Json(cell_key));
    j.set("file", Json(first ? file : first_file));
    j.set("insns", Json(static_cast<std::uint64_t>(insns)));
    j.set("orig_insns", Json(static_cast<std::uint64_t>(orig_insns)));
    j.set("dup", Json(!first));
    appendLine(j);
    return first;
}

std::map<std::string, JournalFailure>
Journal::failures() const
{
    std::lock_guard<std::mutex> lock(fail_mu_);
    return failures_;
}

} // namespace wo
