/// \file fault.h
/// Seeded fault injection for the fault-tolerance campaign.
///
/// A FaultInjector models the failure modes the recovery layer must
/// survive: bit rot in auxiliary relations (a cosmic-ray tuple flip),
/// journal damage (a dropped or duplicated record), and a process killed
/// mid-write (a truncated snapshot or torn journal tail). Every fault is
/// drawn from a seeded Rng so campaigns are reproducible, and every
/// injection returns a human-readable description for logging.
///
/// This header sits above the relational data model (it mutates
/// structures); it lives in core/ alongside Rng because it is shared
/// infrastructure for tests and benchmarks, not part of the engine proper.

#ifndef DYNFO_CORE_FAULT_H_
#define DYNFO_CORE_FAULT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/durable_io.h"
#include "core/rng.h"
#include "core/status.h"
#include "relational/structure.h"

namespace dynfo::core {

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed) : seed_(seed), rng_(seed) {}

  /// The campaign seed this injector was constructed with, and the current
  /// trial index within the campaign: together they are the one-line repro
  /// for any failure ("rerun with --seed=S, failure at trial T"). Every
  /// chaos/recovery failure message must include Context().
  uint64_t seed() const { return seed_; }
  void set_trial(uint64_t trial) { trial_ = trial; }
  uint64_t trial() const { return trial_; }
  std::string Context() const {
    return "seed=" + std::to_string(seed_) + " trial=" + std::to_string(trial_);
  }

  /// Chaos planners: draw the parameters of one injected fault for the
  /// resource-governance layer (dynfo::ApplyGovernance's test knobs).
  /// Returned values are 1-based positions; uniform in [1, max].

  /// Allocation-failure injector: the budget charge index at which the
  /// accountant reports failure (ResourceBudget::FailAfterCharges).
  uint64_t PlanAllocationFailure(uint64_t max_charges) {
    return 1 + rng_.Below(max_charges);
  }

  /// Worker-stall injector: the governor check that sleeps, and for how
  /// long (ExecGovernor::StallAtCheck). Pair with a tight deadline to pin
  /// the timeout path at a reproducible poll.
  std::pair<uint64_t, int> PlanWorkerStall(uint64_t max_check, int max_millis) {
    return {1 + rng_.Below(max_check), 1 + static_cast<int>(rng_.Below(
                                               static_cast<uint64_t>(max_millis)))};
  }

  /// Deadline-jitter injector: a per-request deadline in [1, max_millis].
  int64_t PlanDeadlineJitter(int max_millis) {
    return 1 + static_cast<int64_t>(rng_.Below(static_cast<uint64_t>(max_millis)));
  }

  /// Toggles membership of a uniformly random tuple in a uniformly random
  /// relation of `structure` whose name is not in `protect` (callers pass
  /// the input-mirrored relation names to corrupt only auxiliary state).
  /// Always changes the structure. Returns a description of the flip, or
  /// an explanation if no eligible relation exists.
  std::string FlipTuple(relational::Structure* structure,
                        const std::vector<std::string>& protect);

  /// Flips one random bit of one random byte of `blob` (bit rot on disk).
  std::string FlipByte(std::string* blob);

  /// Truncates `blob` at a random offset in [0, size) — a write killed
  /// partway through.
  std::string TruncateTail(std::string* blob);

  /// Removes one random non-header line of a line-oriented blob (a lost
  /// journal record). Returns empty description if there is no such line.
  std::string DropLine(std::string* text);

  /// Repeats one random non-header line immediately after itself (a
  /// replayed/duplicated journal record).
  std::string DuplicateLine(std::string* text);

  Rng& rng() { return rng_; }

 private:
  uint64_t seed_;
  uint64_t trial_ = 0;
  Rng rng_;
};

/// What happens, after a simulated kill, to bytes that were written but
/// never synced. Real filesystems may keep all of them (they reached disk
/// from the page cache before power failed), a prefix (a torn write), or
/// none. Unsynced bytes appended past a file's durable size are cut off
/// when lost; unsynced bytes written in place over durable bytes (a record
/// in a pre-sized journal segment, whose durable bytes are its NUL
/// padding) revert to those durable bytes, and the file keeps its size.
/// Nothing orders the sectors of an in-place write (no size change commits
/// after them), so its later bytes can also survive without its earlier
/// ones. The crash matrix runs every kill point under each mode.
enum class CrashTailMode {
  kKeepNone,    ///< every unsynced byte is lost
  kKeepHalf,    ///< the first half of the unsynced bytes survives (torn write)
  kKeepAll,     ///< the page cache made it to disk anyway
  kKeepSuffix,  ///< the second half of the unsynced in-place bytes survives;
                ///< the first half reverts and appended bytes are cut off
};

const char* CrashTailModeName(CrashTailMode mode);

/// IoShim that simulates a process kill at exactly one durable-I/O boundary
/// and then reproduces the legal post-crash filesystem states.
///
/// Operation: install via InstallIoShim, run the workload. Boundaries are
/// numbered 1, 2, ... in execution order. With kill_at_op == 0 the shim
/// only counts (use one pass to learn the matrix size); with kill_at_op = k
/// the k-th boundary is vetoed — the caller sees an IsSimulatedCrash()
/// status — and every later boundary fails too (the process is dead).
///
/// Throughout, the shim tracks what the filesystem is *guaranteed* to hold:
/// per-file durable size and the writes made since the last sync (with the
/// bytes each one overwrote), renames whose parent directory was not yet
/// fsynced, and created files whose dirent is not yet durable. After the
/// kill, ApplyCrashDamage() rewrites the real files into one legal
/// post-crash state: pending renames are undone (old target content
/// restored), pending creates removed, and the unsynced writes kept, torn
/// or reverted per CrashTailMode. Recovery then runs against that damaged
/// directory.
///
/// Single-threaded by design, like all durable I/O in the engine.
class CrashPointShim : public IoShim {
 public:
  struct Options {
    uint64_t kill_at_op = 0;  ///< 1-based boundary to die at; 0 = count only
    CrashTailMode tail_mode = CrashTailMode::kKeepNone;
    /// Undo renames not covered by a directory fsync. When false, the
    /// rename is treated as having survived (also legal).
    bool undo_pending_renames = true;
  };

  explicit CrashPointShim(Options options) : options_(options) {}

  bool BeforeOp(IoOp op, const std::string& path, uint64_t offset,
                size_t bytes, size_t* partial_bytes) override;
  void AfterOp(IoOp op, const std::string& path) override;

  /// Boundaries encountered so far (including the one died at).
  uint64_t ops_seen() const { return ops_seen_; }
  bool killed() const { return dead_; }

  /// One-line repro: which boundary was killed, under which damage mode.
  std::string DescribeKill() const;

  /// Applies the post-crash damage to the real filesystem. Call after the
  /// workload died and the shim is uninstalled; uses raw I/O.
  Status ApplyCrashDamage();

 private:
  /// One write since the last sync of its file.
  struct UnsyncedWrite {
    uint64_t offset = 0;
    uint64_t size = 0;
    std::string overwritten;  ///< prior bytes of [offset, old file size)
  };
  struct FileState {
    uint64_t durable = 0;  ///< file size guaranteed on disk
    uint64_t current = 0;  ///< file size after every write so far
    std::vector<UnsyncedWrite> unsynced;  ///< in execution order
  };
  struct PendingRename {
    std::string target;
    std::optional<std::string> old_content;  ///< nullopt: did not exist
  };

  FileState& Track(const std::string& path);
  /// Records a write that is about to reach the file: snapshots the bytes
  /// it overwrites (BeforeOp is the last moment they can be read).
  void RecordWrite(const std::string& path, uint64_t offset, size_t bytes);
  /// Applies the tail mode to one file's unsynced writes.
  Status DamageFile(const std::string& path, const FileState& state) const;

  Options options_;
  uint64_t ops_seen_ = 0;
  bool dead_ = false;
  std::string kill_description_;
  std::unordered_map<std::string, FileState> files_;
  std::vector<PendingRename> pending_renames_;
  std::vector<std::string> pending_creates_;
  /// Snapshot taken at BeforeOp(kRename); committed to pending_renames_
  /// only once AfterOp confirms the rename executed.
  std::optional<PendingRename> staged_rename_;
  /// Write recorded at BeforeOp(kWrite), committed to its file's unsynced
  /// list once AfterOp confirms it executed.
  std::optional<std::pair<std::string, UnsyncedWrite>> staged_write_;
};

}  // namespace dynfo::core

#endif  // DYNFO_CORE_FAULT_H_
