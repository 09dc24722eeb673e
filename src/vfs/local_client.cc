#include "src/vfs/local_client.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/common/strings.h"

namespace griddles::vfs {

namespace {
Status errno_status(const char* op, const std::string& path) {
  return io_error(
      strings::cat(op, " ", path, ": ", strings::errno_message(errno)));
}
}  // namespace

Result<std::unique_ptr<LocalFileClient>> LocalFileClient::open(
    const std::string& path, OpenFlags flags) {
  if (!flags.read && !flags.write) {
    return invalid_argument("open flags select neither read nor write");
  }
  int oflags = 0;
  if (flags.read && flags.write) {
    oflags = O_RDWR;
  } else if (flags.write) {
    oflags = O_WRONLY;
  } else {
    oflags = O_RDONLY;
  }
  if (flags.create) oflags |= O_CREAT;
  if (flags.truncate) oflags |= O_TRUNC;
  if (flags.append) oflags |= O_APPEND;

  // Ensure the parent directory exists for newly created files, matching
  // what a workflow stage expects of its working directory.
  if (flags.create) {
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (!parent.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(parent, ec);
    }
  }

  const int fd = ::open(path.c_str(), oflags, 0644);
  if (fd < 0) {
    if (errno == ENOENT) {
      return not_found(strings::cat("local file not found: ", path));
    }
    return errno_status("open", path);
  }
  return std::unique_ptr<LocalFileClient>(
      new LocalFileClient(fd, path, flags.read, flags.write));
}

LocalFileClient::LocalFileClient(int fd, std::string path, bool readable,
                                 bool writable)
    : fd_(fd), path_(std::move(path)), readable_(readable),
      writable_(writable) {}

LocalFileClient::~LocalFileClient() { (void)close(); }

Result<std::size_t> LocalFileClient::read(MutableByteSpan out) {
  if (fd_ < 0) return failed_precondition("read on closed file");
  if (!readable_) return permission_denied("file not open for reading");
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::read(fd_, out.data() + got, out.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status("read", path_);
    }
    if (n == 0) break;  // EOF
    got += static_cast<std::size_t>(n);
  }
  cursor_ += got;
  return got;
}

Result<std::size_t> LocalFileClient::write(ByteSpan data) {
  if (fd_ < 0) return failed_precondition("write on closed file");
  if (!writable_) return permission_denied("file not open for writing");
  std::size_t put = 0;
  while (put < data.size()) {
    const ssize_t n = ::write(fd_, data.data() + put, data.size() - put);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status("write", path_);
    }
    put += static_cast<std::size_t>(n);
  }
  cursor_ += put;
  return put;
}

Result<std::uint64_t> LocalFileClient::seek(std::int64_t offset,
                                            Whence whence) {
  if (fd_ < 0) return failed_precondition("seek on closed file");
  int posix_whence = SEEK_SET;
  if (whence == Whence::kCurrent) posix_whence = SEEK_CUR;
  if (whence == Whence::kEnd) posix_whence = SEEK_END;
  const off_t pos = ::lseek(fd_, offset, posix_whence);
  if (pos < 0) return errno_status("seek", path_);
  cursor_ = static_cast<std::uint64_t>(pos);
  return cursor_;
}

std::uint64_t LocalFileClient::tell() const { return cursor_; }

Result<std::uint64_t> LocalFileClient::size() {
  if (fd_ < 0) return failed_precondition("size of closed file");
  struct stat st {};
  if (::fstat(fd_, &st) != 0) return errno_status("stat", path_);
  return static_cast<std::uint64_t>(st.st_size);
}

Status LocalFileClient::flush() {
  if (fd_ < 0) return Status::ok();
  // Data is unbuffered at this layer; nothing to do. fsync durability is
  // deliberately not forced: the paper's pipelines rely on OS caching.
  return Status::ok();
}

Status LocalFileClient::close() {
  if (fd_ < 0) return Status::ok();
  const int rc = ::close(fd_);
  fd_ = -1;
  if (rc != 0) return errno_status("close", path_);
  return Status::ok();
}

std::string LocalFileClient::describe() const {
  return strings::cat("local:", path_);
}

Result<Bytes> read_file(const std::string& path) {
  GL_ASSIGN_OR_RETURN(auto file,
                      LocalFileClient::open(path, OpenFlags::input()));
  return read_all(*file);
}

Status write_file(const std::string& path, ByteSpan data) {
  GL_ASSIGN_OR_RETURN(auto file,
                      LocalFileClient::open(path, OpenFlags::output()));
  GL_RETURN_IF_ERROR(write_all(*file, data));
  return file->close();
}

Result<std::uint64_t> file_size(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    if (errno == ENOENT) {
      return not_found(strings::cat("no such file: ", path));
    }
    return io_error(
        strings::cat("stat ", path, ": ", strings::errno_message(errno)));
  }
  return static_cast<std::uint64_t>(st.st_size);
}

Result<std::uint64_t> hash_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return errno_status("open", path);
  std::uint64_t hash = kFnv1aSeed;
  Bytes buffer(1u << 20);
  while (true) {
    const ssize_t n = ::read(fd, buffer.data(), buffer.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return errno_status("read", path);
    }
    if (n == 0) break;
    hash = fnv1a_update(hash, {buffer.data(), static_cast<std::size_t>(n)});
  }
  ::close(fd);
  return hash;
}

}  // namespace griddles::vfs
