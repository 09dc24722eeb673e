// Crash-restartable workflow journal (DESIGN.md "Control-plane
// resilience").
//
// The sequential-files runner appends one record per completed stage
// (with the FNV-1a hash of every output file) and one per finished
// staging copy (with the hash at the destination). Records are framed
//
//   [u32 magic 'GLCK'] [u8 kind] [u32 payload length] [payload]
//   [u64 FNV-1a of payload]
//
// and each append is fsync'd, so after a coordinator crash the journal
// holds exactly the work that durably finished. open() replays the file
// and tolerates a torn tail: the first short or checksum-failing record
// ends the replay and the file is truncated back to the last good
// record, ready for clean appends. A resumed run skips stages whose
// recorded outputs still hash-match on disk and re-stages only missing
// copies, so a mid-pipeline crash no longer means a from-scratch re-run.
//
// Only the sequential-files discipline journals: tailing reads and Grid
// Buffer streams are not durable across a coordinator death, so the
// runner rejects --checkpoint for them. Appends come from the single
// runner thread; the class is not thread-safe.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace griddles::workflow {

/// A durably completed stage: identity, timings, and the hash of every
/// output file (relative path within the stage machine's directory).
struct StageRecord {
  std::string name;
  std::string machine;
  double started_s = 0;
  double finished_s = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::vector<std::pair<std::string, std::uint64_t>> outputs;
};

/// A durably completed staging copy, with the destination file's hash.
struct CopyRecord {
  std::string path;
  std::string from;
  std::string to;
  double finished_s = 0;
  double seconds = 0;
  std::uint64_t dest_hash = 0;
};

class CheckpointLog {
 public:
  /// Opens (creating if absent) the journal at `path`, replays every
  /// intact record, truncates any torn tail, and leaves the file ready
  /// for appends. `checkpoint.records.replayed` counts recovered
  /// records; `checkpoint.replay_s` observes the load time.
  static Result<std::unique_ptr<CheckpointLog>> open(const std::string& path);

  ~CheckpointLog();
  CheckpointLog(const CheckpointLog&) = delete;
  CheckpointLog& operator=(const CheckpointLog&) = delete;

  /// Durably appends (write + fsync) before returning OK.
  Status append_stage(const StageRecord& record);
  Status append_copy(const CopyRecord& record);

  /// The replayed record for a stage, or null. Last write wins if a
  /// stage was journaled twice (it can be, after an invalidated resume).
  const StageRecord* stage(const std::string& name) const;
  /// The replayed record for a (path, from, to) staging copy, or null.
  const CopyRecord* copy(const std::string& path, const std::string& from,
                         const std::string& to) const;

  /// Records recovered at open (0 for a fresh journal).
  std::size_t replayed() const noexcept { return replayed_; }

 private:
  CheckpointLog(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  Status append(std::uint8_t kind, const Bytes& payload);

  int fd_;
  std::string path_;
  std::size_t replayed_ = 0;
  std::vector<StageRecord> stages_;  // replay order
  std::vector<CopyRecord> copies_;
};

}  // namespace griddles::workflow
