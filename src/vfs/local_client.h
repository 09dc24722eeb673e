// LocalFileClient: the pass-through to the conventional local file system
// (the paper's "Local File Client", Figure 4), plus small local-FS
// helpers shared by the staging and cache code.
#pragma once

#include <filesystem>
#include <memory>
#include <string>

#include "src/vfs/file_client.h"

namespace griddles::vfs {

class LocalFileClient final : public FileClient {
 public:
  /// Opens `path` with fopen-style semantics.
  static Result<std::unique_ptr<LocalFileClient>> open(
      const std::string& path, OpenFlags flags);

  ~LocalFileClient() override;

  LocalFileClient(const LocalFileClient&) = delete;
  LocalFileClient& operator=(const LocalFileClient&) = delete;

  Result<std::size_t> read(MutableByteSpan out) override;
  Result<std::size_t> write(ByteSpan data) override;
  Result<std::uint64_t> seek(std::int64_t offset, Whence whence) override;
  std::uint64_t tell() const override;
  Result<std::uint64_t> size() override;
  Status flush() override;
  Status close() override;
  std::string describe() const override;

  const std::string& path() const noexcept { return path_; }

 private:
  LocalFileClient(int fd, std::string path, bool readable, bool writable);

  int fd_;
  std::string path_;
  bool readable_;
  bool writable_;
  std::uint64_t cursor_ = 0;
};

/// Reads a whole local file.
Result<Bytes> read_file(const std::string& path);

/// Writes (create/truncate) a whole local file, creating parent dirs.
Status write_file(const std::string& path, ByteSpan data);

/// Size of a local file.
Result<std::uint64_t> file_size(const std::string& path);

/// Streaming FNV-1a of a local file's contents (fnv1a() of the whole
/// file), read a bounded buffer at a time so memory stays flat for any
/// file size.
Result<std::uint64_t> hash_file(const std::string& path);

}  // namespace griddles::vfs
