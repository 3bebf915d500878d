/// \file durable_io.h
/// The atomic write discipline for everything that must survive a kill.
///
/// Every durable artifact — snapshots, checkpoints, journal segments, the
/// manifest — reaches disk through this one layer, so the crash-consistency
/// argument is made exactly once:
///
///   * whole files are replaced atomically: write a sibling temp file,
///     fdatasync it, rename() over the target, fsync the parent directory.
///     A kill at any boundary leaves either the old bytes or the new bytes,
///     never a mixture and never a missing target;
///   * journal segments go through AppendFile: created at a fixed
///     capacity (header plus NUL padding, synced with the header), then
///     written in place at an explicit offset, so a record that fits the
///     capacity changes no file metadata and its fdatasync flushes one data
///     block. The write and sync boundaries are exposed separately so
///     callers choose their durability point (the journal syncs per record
///     in durable mode);
///   * file creation and deletion fsync the parent directory before any
///     other artifact is allowed to reference (or forget) the entry.
///
/// Every primitive boundary consults an installable IoShim first. The crash
/// matrix (core/fault.h CrashPointShim) uses this to simulate a process
/// kill at every single write/sync/rename/create/unlink in the sequence,
/// including torn (partial) writes and post-crash loss of bytes that were
/// written but never synced — appended past the end of a file or written
/// in place over older bytes.

#ifndef DYNFO_CORE_DURABLE_IO_H_
#define DYNFO_CORE_DURABLE_IO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"

namespace dynfo::core {

/// The primitive durable-I/O boundaries, in the granularity the crash
/// matrix kills at. Reads are not boundaries: a kill during a read damages
/// nothing.
enum class IoOp {
  kCreate,    ///< open(O_CREAT) of a new durable file (temp or segment)
  kWrite,     ///< pwrite(2) of a byte range at an offset of a durable file
  kFsync,     ///< fdatasync(2) of an open durable file
  kRename,    ///< rename(2) of a temp file over its target
  kDirFsync,  ///< fsync(2) of a parent directory (persists dirents)
  kUnlink,    ///< unlink(2) of a garbage-collected file
};

const char* IoOpName(IoOp op);

/// Interceptor consulted at every primitive boundary. Install in tests and
/// crash campaigns only; durable I/O must be externally serialized while a
/// shim is installed (the engine's single-writer discipline already is).
class IoShim {
 public:
  virtual ~IoShim() = default;

  /// Called immediately BEFORE the op executes. `path` is the target path
  /// (for kRename, the destination); for kWrite, `offset` is where the
  /// `bytes` land (0 for every other op). Returning false simulates the
  /// process dying at this boundary: the op is not performed — except that
  /// for kWrite the shim may set *partial_bytes < bytes to model a torn
  /// write whose prefix reached the file — and the caller receives an
  /// error Status recognized by IsSimulatedCrash().
  virtual bool BeforeOp(IoOp op, const std::string& path, uint64_t offset,
                        size_t bytes, size_t* partial_bytes) = 0;

  /// Called after the op really executed, so shims can track durability
  /// state (bytes not yet fsynced, renames not yet dir-fsynced).
  virtual void AfterOp(IoOp op, const std::string& path) = 0;
};

/// Installs `shim` for all subsequent durable I/O (nullptr restores real
/// I/O). Returns the previously installed shim.
IoShim* InstallIoShim(IoShim* shim);

/// True when `status` is the death of a simulated crash (an IoShim vetoed a
/// boundary), as opposed to a real I/O failure.
bool IsSimulatedCrash(const Status& status);

/// Reads an entire file. Missing file is an error (callers that tolerate
/// absence check FileExists first).
Result<std::string> ReadFileToString(const std::string& path);

bool FileExists(const std::string& path);

/// Creates `path` as a directory if it does not exist (one level).
Status EnsureDir(const std::string& path);

/// Names of the regular files directly inside `dir` (no order guarantee).
Result<std::vector<std::string>> ListDir(const std::string& dir);

/// Atomically replaces `path` with `contents`: temp sibling → write →
/// fdatasync → rename → parent dir fsync. On ANY failure (including a
/// simulated crash at any boundary) the previous contents of `path` are
/// intact on disk.
Status AtomicWriteFile(const std::string& path, const std::string& contents);

/// Unlinks `path` and fsyncs its parent directory.
Status RemoveFileDurable(const std::string& path);

/// fsync(2) on the directory itself, persisting its entries.
Status FsyncDir(const std::string& dir);

/// A journal segment written in place. Create makes it a fixed size up
/// front (the header followed by NUL padding), and records are then written
/// at an explicit offset rather than with O_APPEND (Linux ignores pwrite's
/// offset on an O_APPEND descriptor). While records fit the capacity, an
/// append changes no file metadata and Sync is an fdatasync(2) of one data
/// block; a record that runs past the capacity grows the file, which
/// fdatasync also makes durable. Every write and sync routes through the
/// shim.
class AppendFile {
 public:
  /// Creates (or truncates) `path` and fsyncs its parent directory, so the
  /// entry is durable before anything references the file; then writes
  /// `header` padded with NULs to `capacity` bytes in one write and syncs
  /// it. The next Append lands right after the header.
  static Result<AppendFile> Create(const std::string& path,
                                    std::string_view header,
                                    uint64_t capacity);

  /// Opens an existing segment for writing. The next Append lands at
  /// `offset` — the end of its clean records, which in a padded segment is
  /// not the file size.
  static Result<AppendFile> Open(const std::string& path, uint64_t offset);

  AppendFile(AppendFile&& other) noexcept;
  AppendFile& operator=(AppendFile&& other) noexcept;
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;
  ~AppendFile();

  /// Writes `data` at offset() (plus the shim boundary) and advances the
  /// offset past it. Not yet durable.
  Status Append(std::string_view data);

  /// Overwrites [offset(), end) with NUL bytes, leaving offset() where it
  /// is: turns a torn tail back into padding. Not yet durable.
  Status ZeroFill(uint64_t end);

  /// fdatasync(2): everything written so far survives power loss.
  Status Sync();

  uint64_t offset() const { return offset_; }
  const std::string& path() const { return path_; }

 private:
  AppendFile(int fd, std::string path, uint64_t offset)
      : fd_(fd), path_(std::move(path)), offset_(offset) {}

  int fd_ = -1;
  std::string path_;
  uint64_t offset_ = 0;
};

}  // namespace dynfo::core

#endif  // DYNFO_CORE_DURABLE_IO_H_
