// FileCopier: staged whole-file transfers with parallel streams, the
// GridFTP-style bulk path (paper modes 2 and 5).
//
// Copies move large chunks over several concurrent connections, so their
// cost is dominated by bandwidth rather than round trips — the property
// that makes "run sequentially and copy" beat Grid Buffers on
// high-latency links in Table 5.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/multicast/dist_tree.h"
#include "src/net/transport.h"

namespace griddles::remote {

struct CopyStats {
  std::uint64_t bytes = 0;
  double seconds = 0;      // model time
  int streams_used = 0;

  double bytes_per_second() const {
    return seconds > 0 ? static_cast<double>(bytes) / seconds : 0;
  }
};

/// One destination of a multi-destination staged copy.
struct MultiCopyTarget {
  std::string host;          // machine name (tree/fault vocabulary)
  net::Endpoint endpoint;    // that machine's remote::FileServer
  std::string remote_path;   // server-relative write target
};

struct MultiCopyStats {
  std::uint64_t bytes = 0;   // file size (delivered to every destination)
  double seconds = 0;        // model time for the whole distribution
  int destinations = 0;      // after deduplication
  /// Payload bytes that left the source itself — the multicast headline:
  /// ~root_fanout * bytes for a tree vs destinations * bytes naive.
  std::uint64_t source_bytes_sent = 0;
  int tree_depth = 0;
  /// Relay hosts that died mid-transfer and were repaired by a direct
  /// re-push from the source.
  int reparents = 0;
  int streams_used = 0;
};

class FileCopier {
 public:
  struct Options {
    std::uint32_t chunk_size = 1u << 20;
    int parallel_streams = 4;
  };

  FileCopier(net::Transport& transport, Clock& clock, Options options);
  FileCopier(net::Transport& transport, Clock& clock)
      : FileCopier(transport, clock, Options{}) {}

  /// Remote -> local (stage in). Chunks are retried at the same offset on
  /// transient or verifiably-short delivery; when a fault plan is armed
  /// the whole file is checksum-verified against the server and
  /// re-fetched on mismatch, so an injected corruption never reaches the
  /// consumer. Fails with typed codes: kUnavailable (transient exhausted),
  /// kDataLoss (verification kept failing), kNotFound.
  Result<CopyStats> fetch(const net::Endpoint& server,
                          const std::string& remote_path,
                          const std::string& local_path);

  /// Local -> remote (stage out / copy between pipeline stages). Same
  /// retry and verification discipline as fetch().
  Result<CopyStats> push(const std::string& local_path,
                         const net::Endpoint& server,
                         const std::string& remote_path);

  /// Local -> N remotes through a bounded-fanout relay tree (DESIGN.md
  /// §12): plans a spanning tree over `estimator` link costs, streams
  /// chunks to the root's children, and each recruited FileServer writes
  /// the chunk locally and forwards it down its subtree. Relay deaths are
  /// adopted by their parent mid-transfer and the affected hosts repaired
  /// with a direct re-push, so delivery is all-or-error.
  ///
  /// Degenerate inputs match single-copy behavior exactly: an empty list
  /// is a no-op success (no metrics), one destination delegates to
  /// push(), and exact duplicates are deduplicated with a warning. The
  /// same host with two different paths is kInvalidArgument.
  ///
  /// Telemetry: one `remote.copy.*` sample and one advisor decision for
  /// the whole distribution, never one per destination.
  Result<MultiCopyStats> copy_to_many(
      const std::string& local_path,
      const std::vector<MultiCopyTarget>& destinations,
      const multicast::TreeOptions& tree_options,
      const multicast::PairEstimator& estimator);

 private:
  /// One whole-file attempt each: set-up, the stream pool, teardown and,
  /// with a fault plan armed, checksum verification. They fill `stats`'
  /// bytes and streams_used; the callers own the retry loop, the copy
  /// span and the `remote.copy.*` sample.
  Status fetch_once(const net::Endpoint& server,
                    const std::string& remote_path,
                    const std::string& local_path, CopyStats* stats);
  Status push_once(const std::string& local_path, const net::Endpoint& server,
                   const std::string& remote_path, CopyStats* stats);

  net::Transport& transport_;
  Clock& clock_;
  Options options_;
};

}  // namespace griddles::remote
