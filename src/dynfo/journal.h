/// \file journal.h
/// Append-only, crash-consistent journaling of applied requests.
///
/// The auxiliary relations are *live state* accumulated over an unbounded
/// request stream, so a production engine must be reconstructible after a
/// kill at any point. The journal records every applied request; together
/// with a snapshot (engine.h) the state is rebuilt bit-identically:
/// restore the snapshot, then replay the journal suffix past the
/// snapshot's step counter.
///
/// Format (one record per line, written with a single fwrite + flush):
///   dynfo-journal v1
///   <seq> ins <relation> <e1> <e2> ... c=<16 hex>
///   <seq> del <relation> <e1> <e2> ... c=<16 hex>
///   <seq> set <constant> <value> c=<16 hex>
///   <seq> batch <count> | ins <relation> <e...> | set <constant> <v> ... c=<16 hex>
///
/// Each record carries its sequence number and an FNV-1a checksum of its
/// body. A `batch` record is one group-committed line holding `count`
/// sub-requests; it occupies sequence numbers [seq, seq+count) and is
/// written — like every record — with a single write (+ one sync), so a
/// crash can only drop the WHOLE batch, never a prefix of it.
/// The reader accepts the longest clean prefix. NUL bytes after it are
/// padding (DurableStore pre-sizes its segments) and end the records
/// cleanly. Bytes after it that hold no complete line with a valid
/// checksum are a torn tail — a damaged or incomplete FINAL record, in any
/// mix with NULs (a crash mid-append can persist a record's sectors in any
/// order), or stray bytes in the padding — and are dropped with
/// `torn_tail` set. A complete checksummed line after the damage means a
/// record stands past it: a checksum mismatch, a sequence gap (dropped
/// record) or a repeated sequence number (duplicated record) before the
/// final record, or a record zeroed in mid-history, is unrecoverable
/// corruption and yields an error Status.
/// Every parsed request is validated against the input vocabulary and
/// universe size, so replaying a parsed journal can never CHECK-crash the
/// engine.

#ifndef DYNFO_DYNFO_JOURNAL_H_
#define DYNFO_DYNFO_JOURNAL_H_

#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/durable_io.h"
#include "core/status.h"
#include "relational/request.h"
#include "relational/vocabulary.h"

namespace dynfo::dyn {

/// "dynfo-journal v1\n" — the first line of every journal.
std::string JournalHeader();

/// One record line (terminated by '\n'), checksum included.
std::string FormatJournalRecord(uint64_t seq, const relational::Request& request);

/// One group-commit batch record line holding every request in `requests`
/// (which must be non-empty), occupying sequence numbers
/// [first_seq, first_seq + requests.size()).
std::string FormatBatchRecord(uint64_t first_seq,
                              std::span<const relational::Request> requests);

struct JournalParse {
  relational::RequestSequence requests;  ///< the clean prefix, seq 0..k-1
  size_t valid_bytes = 0;  ///< byte length of that prefix (incl. header)
  bool torn_tail = false;  ///< a damaged/incomplete final record was dropped
};

/// Parses journal text, validating every record against the input
/// vocabulary and universe size. See the file comment for the torn-tail
/// vs. corruption contract.
core::Result<JournalParse> ParseJournal(const std::string& text,
                                        const relational::Vocabulary& input,
                                        size_t universe_size);

struct JournalWriterOptions {
  /// fsync(2) after every append. Durability against power loss; off by
  /// default (flush-per-append already survives process kills).
  bool fsync_each_append = false;
};

/// Appends records to a journal file. Opening scans any existing journal,
/// truncates a torn tail (or NUL padding), and resumes the sequence
/// numbering; appends are single-write + flush so a kill can only tear the
/// final record.
class JournalWriter {
 public:
  static core::Result<JournalWriter> Open(const std::string& path,
                                          const relational::Vocabulary& input,
                                          size_t universe_size,
                                          JournalWriterOptions options = {});

  JournalWriter(JournalWriter&&) = default;
  JournalWriter& operator=(JournalWriter&&) = default;

  core::Status Append(const relational::Request& request);

  /// Group commit: appends the whole batch as ONE record line with one
  /// fwrite + flush (+ one fsync per options), so a crash either keeps the
  /// whole batch or drops it entirely. Advances next_seq() by the batch
  /// size. Batches of one fall back to a plain record; empty is a no-op.
  core::Status AppendBatch(std::span<const relational::Request> requests);

  /// Sequence number the next Append will write (= requests on disk).
  uint64_t next_seq() const { return next_seq_; }

  /// Records recovered from the file at Open (the clean prefix).
  const relational::RequestSequence& recovered() const { return recovered_; }

  /// Whether Open dropped a torn tail from the existing file.
  bool truncated_torn_tail() const { return torn_; }

  const std::string& path() const { return path_; }

 private:
  JournalWriter() = default;

  struct FileCloser {
    void operator()(std::FILE* f) const {
      if (f != nullptr) std::fclose(f);
    }
  };

  std::unique_ptr<std::FILE, FileCloser> file_;
  std::string path_;
  JournalWriterOptions options_;
  relational::RequestSequence recovered_;
  bool torn_ = false;
  uint64_t next_seq_ = 0;
};

// ---------------------------------------------------------------------------
// Segmented journal + incremental checkpoints (DESIGN.md §12)
//
// The single-file journal above grows without bound and recovery replay is
// O(history). The DurableStore bounds both: records go into fixed-size
// *segments* ("dynfo-segment v1 first=<seq>" header, then journal-v1 record
// lines with absolute sequence numbers, then NUL padding up to the capacity
// the segment was created with; records are written in place over the
// padding, and a segment without padding is equally valid), and every
// segment rotation writes a
// *checkpoint* — a delta against the last full snapshot (cheap via the CoW
// overlays), with periodic full-snapshot consolidation — after which the
// covered segments are garbage-collected. A checksummed MANIFEST names the
// authoritative file set; it is replaced atomically (core/durable_io.h), so
// at every instant exactly one manifest governs and recovery replays at most
// one segment: O(checkpoint interval), not O(history).
// ---------------------------------------------------------------------------

/// "dynfo-segment v1 first=<seq>\n" — the first line of every segment.
std::string SegmentHeader(uint64_t first_seq);

struct SegmentParse {
  relational::RequestSequence requests;  ///< seqs first .. first+k-1
  size_t valid_bytes = 0;  ///< byte length of the clean prefix (incl. header)
  bool torn_tail = false;  ///< a damaged/incomplete final record was dropped
};

/// Parses one segment, validating the header's first-sequence against
/// `expected_first` and every record against the input vocabulary. Same
/// torn-tail-vs-corruption contract as ParseJournal.
core::Result<SegmentParse> ParseSegment(const std::string& text,
                                        const relational::Vocabulary& input,
                                        size_t universe_size,
                                        uint64_t expected_first);

/// The authoritative file set of a durable directory. Payload lines, in
/// order, wrapped by WrapChecksummed("manifest", ...):
///   program <name>
///   universe <n>
///   full <file> steps=<s>
///   delta <file> base=<b> steps=<s>     (at most one; optional)
///   seg <file> first=<k>                (the live chain, ascending)
///   end
struct Manifest {
  std::string program;
  uint64_t universe = 0;
  std::string full_file;
  uint64_t full_steps = 0;
  std::string delta_file;  ///< empty = no delta checkpoint
  uint64_t delta_base = 0;
  uint64_t delta_steps = 0;
  struct Segment {
    std::string file;
    uint64_t first = 0;
  };
  std::vector<Segment> segments;

  /// Steps covered by the checkpoint chain (full plus optional delta).
  uint64_t checkpoint_steps() const {
    return delta_file.empty() ? full_steps : delta_steps;
  }
};

/// Serializes `manifest` including the checksummed container.
std::string FormatManifest(const Manifest& manifest);

/// Parses and validates a manifest blob: container checksum, field syntax,
/// delta chained on the full snapshot, segment chain ascending and starting
/// at the checkpoint boundary. Any single-byte damage is an error.
core::Result<Manifest> ParseManifest(const std::string& text);

struct DurableStoreOptions {
  /// Records per segment — also the checkpoint interval: every rotation
  /// writes a checkpoint covering the finished segment, so recovery replay
  /// is bounded by this many records.
  uint64_t records_per_segment = 64;
  /// Every k-th checkpoint is a full-snapshot consolidation instead of a
  /// delta against the last full (bounds delta accumulation).
  uint64_t full_snapshot_every = 4;
  /// Sync each appended record — durable mode. The record is written in
  /// place into the segment's pre-sized padding, so the sync is an
  /// fdatasync(2) that flushes data blocks and no file metadata (unless a
  /// record runs past the capacity). On by default here (the store exists
  /// for power-loss durability); bench_recovery measures its per-append
  /// latency on a real disk and gates its session-level overhead.
  bool fsync_each_append = true;
};

/// What DurableStore::Open recovered from the directory.
struct DurableRecovery {
  std::string full_blob;   ///< contents of the full-snapshot file
  std::string delta_blob;  ///< contents of the delta checkpoint; may be empty
  uint64_t checkpoint_steps = 0;  ///< steps covered before replay
  relational::RequestSequence replay;  ///< records past the checkpoint
  uint64_t segments_replayed = 0;
  bool torn_tail = false;  ///< the active segment lost a torn final record
};

/// Directory-backed segmented journal with incremental checkpoints. Layout:
/// MANIFEST (checksummed), full-<steps>.snap, delta-<steps>.ckpt,
/// seg-<first>.log. All replacements are atomic; a kill at any I/O boundary
/// leaves a recoverable directory governed by the previous manifest, and
/// Open garbage-collects any orphaned temp/superseded files it finds.
/// Single-writer, like the engine it journals for.
class DurableStore {
 public:
  /// Initializes a fresh directory: writes the initial full snapshot
  /// (`full_blob`, opaque to the store, covering `steps` requests), an
  /// empty first segment padded to its capacity, and the manifest.
  static core::Result<DurableStore> Create(const std::string& dir,
                                           const std::string& program,
                                           size_t universe_size,
                                           const std::string& full_blob,
                                           uint64_t steps,
                                           DurableStoreOptions options = {});

  /// Opens an existing directory: validates the manifest, loads the
  /// checkpoint blobs, replays the segment chain (only the final segment
  /// may have a torn tail, which is durably overwritten with NULs), collects
  /// orphans, and reopens the active segment with the write offset at the
  /// end of its clean records.
  static core::Result<DurableStore> Open(const std::string& dir,
                                         const relational::Vocabulary& input,
                                         size_t universe_size,
                                         DurableStoreOptions options = {});

  /// Whether `dir` holds a store (i.e. a manifest — Open vs Create).
  static bool Exists(const std::string& dir);

  DurableStore(DurableStore&&) = default;
  DurableStore& operator=(DurableStore&&) = default;

  /// Writes one applied request at the active segment's write offset
  /// (synced per options). After a true return of checkpoint_due(), call Checkpoint
  /// before further appends to keep the replay bound.
  core::Status Append(const relational::Request& request);

  /// Group commit: appends the whole batch as ONE segment record with a
  /// single write and a single sync, advancing next_seq() by the batch
  /// size — the per-request sync cost becomes O(1) per batch. A crash
  /// mid-append drops the whole batch (single-line torn-tail contract),
  /// never a prefix of it. Batches of one fall back to a plain record;
  /// empty is a no-op. checkpoint_due() may overshoot by one batch.
  core::Status AppendBatch(std::span<const relational::Request> requests);

  /// The active segment has reached records_per_segment.
  bool checkpoint_due() const {
    return active_records_ >= options_.records_per_segment;
  }
  /// The next checkpoint should be a full-snapshot consolidation.
  bool full_due() const {
    return options_.full_snapshot_every != 0 &&
           deltas_since_full_ + 1 >= options_.full_snapshot_every;
  }

  /// Rotates: durably writes `blob` (a full snapshot if `is_full`, else a
  /// delta against the manifest's full snapshot) covering all `next_seq()`
  /// records, starts a fresh segment, atomically swaps the manifest, and
  /// garbage-collects the files the new manifest no longer references. A
  /// crash at any boundary leaves the previous manifest governing.
  core::Status Checkpoint(const std::string& blob, bool is_full);

  /// Results of the Open/Create-time recovery.
  const DurableRecovery& recovered() const { return recovered_; }

  uint64_t next_seq() const { return next_seq_; }
  const Manifest& manifest() const { return manifest_; }
  const std::string& dir() const { return dir_; }
  const DurableStoreOptions& options() const { return options_; }

  /// Records in the active segment not yet covered by a checkpoint.
  uint64_t active_records() const { return active_records_; }

  struct Counters {
    uint64_t appends = 0;            ///< requests appended (batch members too)
    uint64_t batch_appends = 0;      ///< group-commit batch records written
    uint64_t fsyncs = 0;             ///< per-append syncs (fdatasync)
    uint64_t bytes_appended = 0;     ///< record bytes appended (no padding)
    uint64_t checkpoints = 0;        ///< delta checkpoints written
    uint64_t full_snapshots = 0;     ///< full consolidations written
    uint64_t segments_rotated = 0;
    uint64_t files_collected = 0;    ///< orphans + superseded files removed
  };
  const Counters& counters() const { return counters_; }

 private:
  DurableStore() = default;

  std::string dir_;
  DurableStoreOptions options_;
  Manifest manifest_;
  std::optional<core::AppendFile> active_;
  uint64_t active_first_ = 0;
  uint64_t active_records_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t deltas_since_full_ = 0;
  DurableRecovery recovered_;
  Counters counters_;
};

}  // namespace dynfo::dyn

#endif  // DYNFO_DYNFO_JOURNAL_H_
