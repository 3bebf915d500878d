#include "core/durable_io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace dynfo::core {

namespace {

// Not atomic: durable I/O is single-writer by design (the engine's Apply
// path is externally serialized), and shims are installed only in tests.
IoShim* g_shim = nullptr;

// Sentinel prefix recognized by IsSimulatedCrash. Kept distinctive so a
// real I/O failure can never be mistaken for a planned kill.
constexpr const char kCrashPrefix[] = "simulated crash at ";

Status SimulatedCrash(IoOp op, const std::string& path) {
  return Status::Error(std::string(kCrashPrefix) + IoOpName(op) + " " + path);
}

Status Errno(const std::string& what, const std::string& path) {
  return Status::Error(what + " " + path + ": " + std::strerror(errno));
}

std::string ParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

// Runs the shim boundary for `op`; returns a crash status if vetoed.
// `offset` and `partial_bytes` are only consulted for kWrite.
Status Boundary(IoOp op, const std::string& path, uint64_t offset, size_t bytes,
                size_t* partial_bytes) {
  if (g_shim == nullptr) return Status();
  if (!g_shim->BeforeOp(op, path, offset, bytes, partial_bytes)) {
    return SimulatedCrash(op, path);
  }
  return Status();
}

Status Boundary(IoOp op, const std::string& path) {
  return Boundary(op, path, 0, 0, nullptr);
}

void After(IoOp op, const std::string& path) {
  if (g_shim != nullptr) g_shim->AfterOp(op, path);
}

// pwrite(2) loop for `data` at `offset`, routing the shim boundary first.
// On a vetoed write with *partial_bytes set, writes that prefix for real
// (modelling a torn write that reached the page cache) and still reports
// the crash.
Status ShimmedWriteAt(int fd, const std::string& path, uint64_t offset,
                      std::string_view data) {
  size_t partial = data.size();
  Status boundary = Boundary(IoOp::kWrite, path, offset, data.size(), &partial);
  size_t to_write = boundary.ok() ? data.size() : partial;
  DYNFO_CHECK(to_write <= data.size()) << "shim requested over-long write";
  size_t written = 0;
  while (written < to_write) {
    ssize_t n = ::pwrite(fd, data.data() + written, to_write - written,
                         static_cast<off_t>(offset + written));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write", path);
    }
    written += static_cast<size_t>(n);
  }
  if (!boundary.ok()) return boundary;
  After(IoOp::kWrite, path);
  return Status();
}

// fdatasync(2), the kFsync boundary. It flushes the data and the metadata
// needed to read it back (size, block allocation), which is all any caller
// needs: a segment append, and a temp file before its rename (whose dirent
// the parent-directory fsync makes durable).
Status ShimmedSync(int fd, const std::string& path) {
  Status boundary = Boundary(IoOp::kFsync, path);
  if (!boundary.ok()) return boundary;
  if (::fdatasync(fd) != 0) return Errno("fdatasync", path);
  After(IoOp::kFsync, path);
  return Status();
}

}  // namespace

const char* IoOpName(IoOp op) {
  switch (op) {
    case IoOp::kCreate:
      return "create";
    case IoOp::kWrite:
      return "write";
    case IoOp::kFsync:
      return "fsync";
    case IoOp::kRename:
      return "rename";
    case IoOp::kDirFsync:
      return "dirfsync";
    case IoOp::kUnlink:
      return "unlink";
  }
  return "unknown";
}

IoShim* InstallIoShim(IoShim* shim) {
  IoShim* previous = g_shim;
  g_shim = shim;
  return previous;
}

bool IsSimulatedCrash(const Status& status) {
  return !status.ok() &&
         status.message().rfind(kCrashPrefix, 0) == 0;
}

Result<std::string> ReadFileToString(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Errno("open", path);
  std::string out;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status s = Errno("read", path);
      ::close(fd);
      return s;
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

Status EnsureDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return Status();
  return Errno("mkdir", path);
}

Result<std::vector<std::string>> ListDir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return Errno("opendir", dir);
  std::vector<std::string> names;
  while (struct dirent* entry = ::readdir(d)) {
    std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    if (FileExists(dir + "/" + name)) names.push_back(std::move(name));
  }
  ::closedir(d);
  return names;
}

Status FsyncDir(const std::string& dir) {
  Status boundary = Boundary(IoOp::kDirFsync, dir);
  if (!boundary.ok()) return boundary;
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Errno("open dir", dir);
  if (::fsync(fd) != 0) {
    Status s = Errno("fsync dir", dir);
    ::close(fd);
    return s;
  }
  ::close(fd);
  After(IoOp::kDirFsync, dir);
  return Status();
}

Status AtomicWriteFile(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  Status boundary = Boundary(IoOp::kCreate, tmp);
  if (!boundary.ok()) return boundary;
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("create", tmp);
  After(IoOp::kCreate, tmp);

  Status status = ShimmedWriteAt(fd, tmp, 0, contents);
  if (status.ok()) status = ShimmedSync(fd, tmp);
  ::close(fd);
  if (!status.ok()) return status;

  status = Boundary(IoOp::kRename, path);
  if (!status.ok()) return status;
  if (::rename(tmp.c_str(), path.c_str()) != 0) return Errno("rename", path);
  After(IoOp::kRename, path);

  return FsyncDir(ParentDir(path));
}

Status RemoveFileDurable(const std::string& path) {
  Status boundary = Boundary(IoOp::kUnlink, path);
  if (!boundary.ok()) return boundary;
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Errno("unlink", path);
  }
  After(IoOp::kUnlink, path);
  return FsyncDir(ParentDir(path));
}

Result<AppendFile> AppendFile::Create(const std::string& path,
                                        std::string_view header,
                                        uint64_t capacity) {
  Status status = Boundary(IoOp::kCreate, path);
  if (!status.ok()) return status;
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("create", path);
  After(IoOp::kCreate, path);
  AppendFile file(fd, path, 0);
  // The directory entry must be durable before any manifest names this
  // file, else recovery could chase a reference into nothing.
  status = FsyncDir(ParentDir(path));
  if (!status.ok()) return status;

  // One write sets both the header and the capacity, so pre-sizing costs
  // no sync beyond the one that makes the header durable.
  std::string padded(header);
  if (padded.size() < capacity) padded.resize(capacity, '\0');
  status = ShimmedWriteAt(fd, path, 0, padded);
  if (status.ok()) status = file.Sync();
  if (!status.ok()) return status;
  file.offset_ = header.size();
  return file;
}

Result<AppendFile> AppendFile::Open(const std::string& path,
                                      uint64_t offset) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) return Errno("open", path);
  return AppendFile(fd, path, offset);
}

AppendFile::AppendFile(AppendFile&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)), offset_(other.offset_) {
  other.fd_ = -1;
}

AppendFile& AppendFile::operator=(AppendFile&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    offset_ = other.offset_;
    other.fd_ = -1;
  }
  return *this;
}

AppendFile::~AppendFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status AppendFile::Append(std::string_view data) {
  DYNFO_CHECK(fd_ >= 0) << "Append on moved-from AppendFile";
  Status status = ShimmedWriteAt(fd_, path_, offset_, data);
  if (status.ok()) offset_ += data.size();
  return status;
}

Status AppendFile::ZeroFill(uint64_t end) {
  DYNFO_CHECK(fd_ >= 0) << "ZeroFill on moved-from AppendFile";
  if (end <= offset_) return Status();
  return ShimmedWriteAt(fd_, path_, offset_, std::string(end - offset_, '\0'));
}

Status AppendFile::Sync() {
  DYNFO_CHECK(fd_ >= 0) << "Sync on moved-from AppendFile";
  return ShimmedSync(fd_, path_);
}

}  // namespace dynfo::core
