#include "core/fault.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string_view>

namespace dynfo::core {

namespace {

std::string FaultParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// Raw (un-shimmed) full-file replace, used only to apply post-crash
/// damage; by then the simulated process is dead and the shim uninstalled.
Status RawWriteFile(const std::string& path, const std::string& contents) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Error("damage write open " + path + ": " +
                         std::strerror(errno));
  }
  size_t written = 0;
  while (written < contents.size()) {
    ssize_t n = ::write(fd, contents.data() + written, contents.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::Error("damage write " + path + ": " + std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  ::close(fd);
  return Status();
}

/// Raw read of `length` bytes at `offset`: the shim's own view of a file,
/// outside the I/O layer it watches.
Result<std::string> RawReadAt(const std::string& path, uint64_t offset,
                              uint64_t length) {
  std::string bytes(length, '\0');
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  const ssize_t got =
      fd < 0 ? -1 : ::pread(fd, bytes.data(), length, static_cast<off_t>(offset));
  const int error = errno;
  if (fd >= 0) ::close(fd);
  if (got != static_cast<ssize_t>(length)) {
    return Status::Error("damage read " + path + ": " +
                         (got < 0 ? std::strerror(error) : "short read"));
  }
  return bytes;
}

/// Offsets of the starts of every line after the first (the header line of
/// the journal / snapshot formats is never a record).
std::vector<std::pair<size_t, size_t>> BodyLineSpans(const std::string& text) {
  std::vector<std::pair<size_t, size_t>> spans;  // [begin, end) incl. '\n'
  size_t begin = 0;
  bool first = true;
  while (begin < text.size()) {
    size_t nl = text.find('\n', begin);
    size_t end = nl == std::string::npos ? text.size() : nl + 1;
    if (!first) spans.emplace_back(begin, end);
    first = false;
    begin = end;
  }
  return spans;
}

}  // namespace

std::string FaultInjector::FlipTuple(relational::Structure* structure,
                                     const std::vector<std::string>& protect) {
  const relational::Vocabulary& vocab = structure->vocabulary();
  std::vector<int> eligible;
  for (int r = 0; r < vocab.num_relations(); ++r) {
    const std::string& name = vocab.relation(r).name;
    if (std::find(protect.begin(), protect.end(), name) == protect.end()) {
      eligible.push_back(r);
    }
  }
  if (eligible.empty()) return "";
  const int index = eligible[rng_.Below(eligible.size())];
  relational::Relation& rel = structure->relation(index);
  relational::Tuple t;
  for (int p = 0; p < rel.arity(); ++p) {
    t = t.Append(static_cast<relational::Element>(
        rng_.Below(structure->universe_size())));
  }
  const bool was_present = rel.Contains(t);
  if (was_present) {
    rel.Erase(t);
  } else {
    rel.Insert(t);
  }
  return std::string(was_present ? "erased " : "inserted ") + t.ToString() +
         " in " + vocab.relation(index).name;
}

std::string FaultInjector::FlipByte(std::string* blob) {
  if (blob->empty()) return "";
  const size_t offset = rng_.Below(blob->size());
  const int bit = static_cast<int>(rng_.Below(8));
  (*blob)[offset] = static_cast<char>((*blob)[offset] ^ (1 << bit));
  return "flipped bit " + std::to_string(bit) + " of byte " +
         std::to_string(offset);
}

std::string FaultInjector::TruncateTail(std::string* blob) {
  if (blob->empty()) return "";
  const size_t keep = rng_.Below(blob->size());
  blob->resize(keep);
  return "truncated to " + std::to_string(keep) + " bytes";
}

std::string FaultInjector::DropLine(std::string* text) {
  auto spans = BodyLineSpans(*text);
  if (spans.empty()) return "";
  auto [begin, end] = spans[rng_.Below(spans.size())];
  std::string dropped = text->substr(begin, end - begin);
  text->erase(begin, end - begin);
  if (!dropped.empty() && dropped.back() == '\n') dropped.pop_back();
  return "dropped line '" + dropped + "'";
}

std::string FaultInjector::DuplicateLine(std::string* text) {
  auto spans = BodyLineSpans(*text);
  if (spans.empty()) return "";
  auto [begin, end] = spans[rng_.Below(spans.size())];
  std::string line = text->substr(begin, end - begin);
  if (line.empty() || line.back() != '\n') line += '\n';  // keep lines intact
  text->insert(end, line);
  if (!line.empty() && line.back() == '\n') line.pop_back();
  return "duplicated line '" + line + "'";
}

const char* CrashTailModeName(CrashTailMode mode) {
  switch (mode) {
    case CrashTailMode::kKeepNone:
      return "keep-none";
    case CrashTailMode::kKeepHalf:
      return "keep-half";
    case CrashTailMode::kKeepAll:
      return "keep-all";
    case CrashTailMode::kKeepSuffix:
      return "keep-suffix";
  }
  return "unknown";
}

CrashPointShim::FileState& CrashPointShim::Track(const std::string& path) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    // First touch: whatever the file held before the shim saw it is
    // treated as durable (it was written under the real-I/O regime).
    struct stat st;
    uint64_t size =
        ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
    it = files_.emplace(path, FileState{size, size, {}}).first;
  }
  return it->second;
}

void CrashPointShim::RecordWrite(const std::string& path, uint64_t offset,
                                 size_t bytes) {
  const FileState& state = Track(path);
  UnsyncedWrite write;
  write.offset = offset;
  write.size = bytes;
  if (offset < state.current) {
    Result<std::string> overwritten = RawReadAt(
        path, offset, std::min<uint64_t>(bytes, state.current - offset));
    DYNFO_CHECK(overwritten.ok())
        << "crash shim cannot read the bytes a write overwrites: "
        << overwritten.status().ToString();
    write.overwritten = std::move(overwritten).value();
  }
  staged_write_.emplace(path, std::move(write));
}

bool CrashPointShim::BeforeOp(IoOp op, const std::string& path, uint64_t offset,
                              size_t bytes, size_t* partial_bytes) {
  if (dead_) {
    // The process is gone; no further I/O reaches disk.
    if (partial_bytes != nullptr) *partial_bytes = 0;
    return false;
  }
  ++ops_seen_;

  if (op == IoOp::kRename) {
    // Snapshot the victim's bytes now — AfterOp is too late to read them.
    PendingRename staged;
    staged.target = path;
    if (FileExists(path)) {
      auto content = ReadFileToString(path);
      if (content.ok()) staged.old_content = std::move(content).value();
    }
    staged_rename_ = std::move(staged);
  }
  if (op == IoOp::kWrite) RecordWrite(path, offset, bytes);

  if (options_.kill_at_op != 0 && ops_seen_ == options_.kill_at_op) {
    dead_ = true;
    kill_description_ = std::string(IoOpName(op)) + " " + path;
    staged_rename_.reset();  // a vetoed rename never happened
    if (op == IoOp::kWrite && partial_bytes != nullptr) {
      // Let the whole write land in the (simulated) page cache; the bytes
      // are unsynced, so ApplyCrashDamage's tail mode decides how many
      // survive — including the torn-prefix case via kKeepHalf.
      *partial_bytes = bytes;
      AfterOp(op, path);
    }
    return false;
  }
  return true;
}

void CrashPointShim::AfterOp(IoOp op, const std::string& path) {
  switch (op) {
    case IoOp::kCreate:
      files_[path] = FileState{};
      pending_creates_.push_back(path);
      break;
    case IoOp::kWrite: {
      DYNFO_CHECK(staged_write_.has_value() && staged_write_->first == path)
          << "write boundary without a recorded write: " << path;
      FileState& state = Track(path);
      UnsyncedWrite& write = staged_write_->second;
      state.current = std::max(state.current, write.offset + write.size);
      state.unsynced.push_back(std::move(write));
      staged_write_.reset();
      break;
    }
    case IoOp::kFsync: {
      FileState& state = Track(path);
      state.durable = state.current;
      state.unsynced.clear();
      break;
    }
    case IoOp::kRename: {
      // AtomicWriteFile's temp convention: the source is target + ".tmp".
      // Its (fully fsynced) state becomes the target's.
      const std::string tmp = path + ".tmp";
      auto it = files_.find(tmp);
      if (it != files_.end()) {
        files_[path] = it->second;
        files_.erase(tmp);
      }
      pending_creates_.erase(
          std::remove(pending_creates_.begin(), pending_creates_.end(), tmp),
          pending_creates_.end());
      if (staged_rename_.has_value()) {
        pending_renames_.push_back(std::move(*staged_rename_));
        staged_rename_.reset();
      }
      break;
    }
    case IoOp::kDirFsync: {
      // Every dirent in this directory is now durable.
      auto in_dir = [&path](const std::string& file) {
        return FaultParentDir(file) == path;
      };
      pending_renames_.erase(
          std::remove_if(pending_renames_.begin(), pending_renames_.end(),
                         [&in_dir](const PendingRename& r) {
                           return in_dir(r.target);
                         }),
          pending_renames_.end());
      pending_creates_.erase(std::remove_if(pending_creates_.begin(),
                                            pending_creates_.end(), in_dir),
                             pending_creates_.end());
      break;
    }
    case IoOp::kUnlink:
      files_.erase(path);
      pending_creates_.erase(
          std::remove(pending_creates_.begin(), pending_creates_.end(), path),
          pending_creates_.end());
      break;
  }
}

std::string CrashPointShim::DescribeKill() const {
  if (!dead_) return "no kill (count-only pass, " + std::to_string(ops_seen_) +
                     " boundaries)";
  return "killed at op " + std::to_string(options_.kill_at_op) + " (" +
         kill_description_ + ") tail=" + CrashTailModeName(options_.tail_mode) +
         " undo_renames=" + (options_.undo_pending_renames ? "1" : "0");
}

Status CrashPointShim::ApplyCrashDamage() {
  if (options_.undo_pending_renames) {
    // Undo in reverse order so a twice-renamed target regains its oldest
    // surviving content; restored files are fully durable, so drop their
    // tail tracking.
    for (auto it = pending_renames_.rbegin(); it != pending_renames_.rend();
         ++it) {
      if (it->old_content.has_value()) {
        Status status = RawWriteFile(it->target, *it->old_content);
        if (!status.ok()) return status;
      } else if (::unlink(it->target.c_str()) != 0 && errno != ENOENT) {
        return Status::Error("damage unlink " + it->target + ": " +
                             std::strerror(errno));
      }
      files_.erase(it->target);
    }
    for (auto it = pending_creates_.rbegin(); it != pending_creates_.rend();
         ++it) {
      if (::unlink(it->c_str()) != 0 && errno != ENOENT) {
        return Status::Error("damage unlink " + *it + ": " +
                             std::strerror(errno));
      }
      files_.erase(*it);
    }
  }

  for (const auto& [path, state] : files_) {
    Status status = DamageFile(path, state);
    if (!status.ok()) return status;
  }
  return Status();
}

Status CrashPointShim::DamageFile(const std::string& path,
                                  const FileState& state) const {
  struct stat st;
  if (state.unsynced.empty() || ::stat(path.c_str(), &st) != 0) {
    return Status();  // nothing unsynced, or already gone
  }
  const size_t count = state.unsynced.size();
  // Per write: how many of its leading bytes survive (the prefix modes).
  std::vector<uint64_t> kept(count, 0);
  // Surviving bytes that land after every write is undone (kKeepSuffix),
  // as (offset, bytes) read from the file before the undo.
  std::vector<std::pair<uint64_t, std::string>> survivors;
  uint64_t size = state.durable;
  if (options_.tail_mode == CrashTailMode::kKeepSuffix) {
    // The last half of the bytes written inside the durable size survives.
    // Every later write survives whole there, so the file's current bytes
    // are the surviving ones.
    std::vector<uint64_t> in_place(count, 0);
    uint64_t total = 0;
    for (size_t i = 0; i < count; ++i) {
      const UnsyncedWrite& write = state.unsynced[i];
      if (write.offset < state.durable) {
        in_place[i] = std::min(write.size, state.durable - write.offset);
      }
      total += in_place[i];
    }
    uint64_t budget = total / 2;
    for (size_t i = count; i-- > 0 && budget > 0;) {
      const uint64_t keep = std::min(in_place[i], budget);
      budget -= keep;
      if (keep == 0) continue;
      const uint64_t offset = state.unsynced[i].offset + in_place[i] - keep;
      Result<std::string> bytes = RawReadAt(path, offset, keep);
      if (!bytes.ok()) return bytes.status();
      survivors.emplace_back(offset, std::move(bytes).value());
    }
  } else {
    uint64_t unsynced = 0;
    for (const UnsyncedWrite& write : state.unsynced) unsynced += write.size;
    uint64_t budget = options_.tail_mode == CrashTailMode::kKeepAll    ? unsynced
                      : options_.tail_mode == CrashTailMode::kKeepHalf ? unsynced / 2
                                                                       : 0;
    // The first `budget` unsynced bytes, in write order, survive.
    for (size_t i = 0; i < count; ++i) {
      const UnsyncedWrite& write = state.unsynced[i];
      kept[i] = std::min(write.size, budget);
      budget -= kept[i];
      if (kept[i] > 0) size = std::max(size, write.offset + kept[i]);
    }
  }

  // Each write keeps its surviving prefix; the rest of it reverts to the
  // bytes it overwrote (in reverse order, so overlapping writes unwind to
  // the durable bytes) or, past the durable size, is cut off. Then the
  // suffix survivors land again.
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::Error("damage open " + path + ": " + std::strerror(errno));
  }
  auto write_at = [fd](uint64_t offset, std::string_view bytes) {
    return ::pwrite(fd, bytes.data(), bytes.size(), static_cast<off_t>(offset)) ==
           static_cast<ssize_t>(bytes.size());
  };
  Status status;
  for (size_t i = count; i-- > 0 && status.ok();) {
    const UnsyncedWrite& write = state.unsynced[i];
    if (kept[i] < write.overwritten.size() &&
        !write_at(write.offset + kept[i],
                  std::string_view(write.overwritten).substr(kept[i]))) {
      status = Status::Error("damage write " + path + ": " + std::strerror(errno));
    }
  }
  for (const auto& [offset, bytes] : survivors) {
    if (status.ok() && !write_at(offset, bytes)) {
      status = Status::Error("damage write " + path + ": " + std::strerror(errno));
    }
  }
  if (status.ok() && size < static_cast<uint64_t>(st.st_size) &&
      ::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    status = Status::Error("damage truncate " + path + ": " + std::strerror(errno));
  }
  ::close(fd);
  return status;
}

}  // namespace dynfo::core
