/**
 * @file
 * The crash-safe campaign journal: one JSON object per line.  Writes
 * are *group-committed*: workers enqueue formatted lines onto a
 * lock-free MPSC stack and a dedicated writer thread drains it,
 * batching `fwrite`s and issuing one `fflush` per batch.  The commit
 * point is the flushed batch — a `kill -9` loses at most the lines of
 * the last uncommitted batch (bounded by `JournalCfg::sync_every`
 * records and `flush_interval_ms` milliseconds), never a committed
 * one.  On `--resume` the journal is replayed: finished cell keys are
 * skipped without re-running, and previously recorded failures keep
 * their deduplication identity (verdict kind + shrunk-program hash),
 * so an interrupted hunt neither repeats work nor double-reports the
 * same bug.
 *
 * Line types (see docs/CAMPAIGN.md for the full schema):
 *
 *   {"type":"campaign", ...config echo...}
 *   {"type":"cell","key":K,"verdict":V,"hw":N,"races":N,"sig":S,...}
 *   {"type":"failure","dedup":D,"kind":K,"file":F,"insns":N,...}
 *
 * A truncated or malformed line (the crash can tear at most the tail
 * of the last batch) is ignored by the reader.
 *
 * done() is lock-free on the worker hot path: the resume set is
 * snapshotted into an immutable hash set by load() before the fleet
 * starts, and the keys journaled by the current run live in an
 * insert-only atomic hash set (SeenSet below).
 */

#ifndef WO_CAMPAIGN_JOURNAL_HH
#define WO_CAMPAIGN_JOURNAL_HH

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>

#include "campaign/cell.hh"
#include "obs/json.hh"
#include "obs/timeline.hh"

namespace wo {

/**
 * The journal line schema version, stamped into every header line
 * (with the writing build's hardware concurrency) and checked by
 * load().  A fleet coordinator merges journal records produced by
 * remote workers, so a version mismatch means records from mixed
 * builds are being combined -- the reader warns instead of silently
 * mixing schemas.  Bump on any line-schema change.
 */
constexpr std::uint64_t journal_schema_version = 2;

/** One replayed failure record (resume-time state). */
struct JournalFailure
{
    std::string kind;       //!< violation kind name
    std::string file;       //!< reproducer path (may be empty)
    std::size_t insns = 0;  //!< shrunk instruction count
    std::uint64_t count = 0; //!< equivalent failures seen so far
};

/**
 * Append @p r's journal cell line, '\n' included, to @p out:
 * cellResultToJson(r) plus "type":"cell", byte for byte, formatted
 * with no Json tree.  Journal::appendCell writes it; a fleet worker
 * sends it, and the coordinator journals it verbatim.
 */
void appendJournalCellLine(std::string &out, const CellResult &r);

/** Group-commit tuning (the `--sync-every` surface). */
struct JournalCfg
{
    /**
     * Commit (fwrite the batch + one fflush) after at most this many
     * buffered records.  1 restores the one-flush-per-record journal.
     */
    std::uint64_t sync_every = 64;
    /**
     * A partial batch never waits longer than this before it is
     * committed, so journal lines stay fresh even when the fleet
     * produces them slowly.
     */
    int flush_interval_ms = 5;
    /**
     * Span timeline for the writer thread (the campaign's
     * "journal-writer" lane): the writer installs it as the thread's
     * current timeline and accounts every batch commit as a
     * writer_flush span.  Null = no accounting (standalone journals,
     * unit tests).  Must outlive the journal.
     */
    Timeline *timeline = nullptr;
};

/**
 * Insert-only concurrent set of 64-bit key hashes.  Open addressing
 * over a fixed table of atomics (CAS to claim a slot); reserve() sizes
 * it before the fleet starts so the load factor stays below 1/2, and a
 * mutexed overflow set catches the never-expected spill so a
 * mis-sized table degrades instead of breaking.  Distinct keys
 * colliding in the full 64-bit hash would alias; with million-cell
 * campaigns the birthday bound is ~2^-25, which the journal accepts.
 */
class SeenSet
{
  public:
    SeenSet() { rebuild(1u << 12); }

    /** Size for @p keys expected inserts.  Single-threaded; call
     *  before any concurrent insert()/contains(). */
    void reserve(std::size_t keys);

    /** True when @p h was absent (the caller claimed it). */
    bool insert(std::uint64_t h);

    bool contains(std::uint64_t h) const;

    /** Distinct hashes inserted. */
    std::size_t size() const
    {
        return used_.load(std::memory_order_relaxed) + overflowSize();
    }

  private:
    void rebuild(std::size_t pow2_cap);
    bool tableContains(std::uint64_t h) const;
    bool insertOverflow(std::uint64_t h);
    std::size_t overflowSize() const;

    std::unique_ptr<std::atomic<std::uint64_t>[]> slots_;
    std::size_t cap_ = 0; //!< power of two
    std::atomic<std::size_t> used_{0};
    std::atomic<bool> has_overflow_{false};
    mutable std::mutex ov_mu_;
    std::unordered_set<std::uint64_t> overflow_;
};

/** The campaign journal (group-commit writer + resume reader). */
class Journal
{
  public:
    explicit Journal(std::string path, JournalCfg cfg = {})
        : path_(std::move(path)), cfg_(cfg)
    {
    }
    ~Journal();

    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /**
     * Replay an existing journal into the resume/failure sets.
     * Missing file is fine (fresh campaign); malformed lines are
     * skipped.  Call before open(); the resume set is immutable (and
     * therefore read lock-free) from then on.
     */
    void load();

    /**
     * Open for appending and start the writer thread.  @p fresh
     * truncates (non-resume campaigns start clean).  False when the
     * file cannot be opened.
     */
    bool open(bool fresh);

    /**
     * Drain the queue, flush, and join the writer.  Idempotent; the
     * destructor calls it.  After close() every appended line is
     * durable on disk.
     */
    void close();

    /** Size the this-run seen set for @p cells expected appends.
     *  Single-threaded; call before the fleet starts. */
    void reserveKeys(std::size_t cells);

    /**
     * Append the campaign-config header line.  `schema_version` and
     * `hw_threads` are stamped automatically (members already present
     * in @p meta win, which keeps replayed/merged headers verbatim).
     */
    void writeHeader(Json meta);

    /** The header object load() replayed (null for a fresh journal). */
    const Json &header() const { return header_; }

    /** The replayed header's schema_version (0 when absent). */
    std::uint64_t loadedSchemaVersion() const
    {
        return loaded_schema_version_;
    }

    /** Did load() see a header from a different schema version? */
    bool schemaMismatch() const { return schema_mismatch_; }

    /**
     * Base-stream indices of replayed cell lines that carried an
     * "idx" member (fleet journals; single-process lines have none).
     * A restarted coordinator re-leases exactly the complement.
     */
    const std::unordered_set<std::uint64_t> &resumeIndices() const
    {
        return resume_idx_;
    }

    /**
     * Append one preformatted journal line, its '\n' included (the
     * fleet merge path: the coordinator journals the cell lines its
     * workers formatted, annotated with idx/shard/worker).  The text
     * is queued as is and marks no key done: only the in-process
     * scheduler asks done().
     */
    void appendRaw(std::string line);

    /**
     * Was @p key journaled (this run or a resumed one)?  Lock-free:
     * an immutable resume snapshot plus the atomic seen set.
     */
    bool done(const std::string &key) const;

    /** Was @p key replayed by load() (a cell a resumed run skips)? */
    bool resumed(const std::string &key) const
    {
        return resume_done_.count(key) > 0;
    }

    /** Number of journaled cells (including replayed ones). */
    std::size_t doneCells() const;

    /** Append one finished cell (marks its key done immediately;
     *  the line itself is durable at the next batch commit).  The line
     *  is appendJournalCellLine(r), formatted into a per-thread
     *  buffer. */
    void appendCell(const CellResult &r);

    /**
     * Record a failure under deduplication key @p dedup ("<kind>:<hash
     * of the shrunk program>").  Returns true when this is the first
     * equivalent failure (caller should emit the reproducer bundle);
     * repeats only bump the count.  Always journaled either way.
     */
    bool recordFailure(const std::string &dedup, const std::string &kind,
                       const std::string &cell_key,
                       const std::string &file, std::size_t insns,
                       std::size_t orig_insns);

    /** Deduplicated failures, keyed by dedup string. */
    std::map<std::string, JournalFailure> failures() const;

    const std::string &path() const { return path_; }

    /** Batches committed (fflush calls) so far.  Diagnostic. */
    std::uint64_t commitBatches() const
    {
        return commits_.load(std::memory_order_relaxed);
    }

  private:
    struct Line
    {
        Line *next = nullptr;
        std::string text;
    };

    void appendLine(const Json &j);
    /** Queue @p text (one whole line, newline included). */
    void pushText(std::string text);
    void push(Line *n);
    Line *takeAllFifo();
    void writerLoop();
    void commitBatch(Line *fifo);

    std::string path_;
    JournalCfg cfg_;
    std::FILE *f_ = nullptr;

    // Resume state: written by load() single-threaded, immutable and
    // lock-free to read once the fleet is running.
    std::unordered_set<std::string> resume_done_;
    std::unordered_set<std::uint64_t> resume_idx_;
    Json header_;
    std::uint64_t loaded_schema_version_ = 0;
    bool schema_mismatch_ = false;
    // Keys appended by this run.
    SeenSet seen_;

    // The MPSC line queue (Treiber stack; the writer reverses a drained
    // batch back to push order) and the writer thread it feeds.
    std::atomic<Line *> head_{nullptr};
    std::atomic<std::uint64_t> queued_{0};   //!< pushed - drained
    std::atomic<std::uint64_t> commits_{0};
    std::atomic<bool> writer_idle_{false};
    std::atomic<bool> closing_{false};
    std::mutex wake_mu_;
    std::condition_variable wake_cv_;
    std::thread writer_;

    mutable std::mutex fail_mu_; //!< failures_ only (off the hot path)
    std::map<std::string, JournalFailure> failures_;
};

} // namespace wo

#endif // WO_CAMPAIGN_JOURNAL_HH
