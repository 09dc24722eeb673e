#include "src/remote/copier.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

#include <map>
#include <set>

#include "src/common/bytes.h"
#include "src/common/deadline.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/fault/plan.h"
#include "src/fault/retry.h"
#include "src/multicast/relay.h"
#include "src/net/rpc.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/remote/advisor.h"
#include "src/remote/protocol.h"
#include "src/vfs/local_client.h"
#include "src/xdr/codec.h"

namespace griddles::remote {

namespace {
Status errno_status(const char* op, const std::string& path) {
  return io_error(
      strings::cat(op, " ", path, ": ", strings::errno_message(errno)));
}

/// Actual whole-file copy cost; the advisor's predictions live under
/// `advisor.predicted.*` for comparison.
void record_copy(const CopyStats& stats) {
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& copy_bytes = registry.counter("remote.copy.bytes");
  static obs::Histogram& copy_seconds = registry.histogram(
      "remote.copy.seconds", obs::exponential_bounds(1e-3, 10.0, 8));
  copy_bytes.add(stats.bytes);
  copy_seconds.observe(stats.seconds);
}

Result<std::uint64_t> remote_size(net::RpcClient& rpc,
                                  const std::string& path) {
  xdr::Encoder enc;
  enc.put_string(path);
  GL_ASSIGN_OR_RETURN(const Bytes reply,
                      rpc.call(method_id(Method::kStat), enc.buffer()));
  xdr::Decoder dec(reply);
  GL_ASSIGN_OR_RETURN(const bool exists, dec.boolean());
  GL_ASSIGN_OR_RETURN(const std::uint64_t size, dec.u64());
  if (!exists) return not_found(strings::cat("remote file missing: ", path));
  return size;
}

/// Applies any injected copy-site fault to a chunk in flight. Truncation
/// is caught right away by the length check; corruption survives until
/// the whole-file checksum pass. Returns non-OK only for drop-style
/// injections that should fail the chunk outright.
Status apply_copy_fault(const std::string& remote_path, Bytes& data) {
  fault::Plan* plan = fault::armed();
  if (plan == nullptr) return Status::ok();
  const fault::Decision verdict =
      plan->consult(fault::Site::kCopy, remote_path, data.size());
  switch (verdict.action) {
    case fault::Decision::Action::kNone:
      return Status::ok();
    case fault::Decision::Action::kDelay:
      fault::sleep_for_model(verdict.delay);
      return Status::ok();
    case fault::Decision::Action::kTruncate:
      data.resize(data.size() / 2);
      return Status::ok();
    case fault::Decision::Action::kCorrupt: {
      // Flip the rule's byte range, clamped to this chunk, so mid-chunk
      // (non-aligned) damage exercises the whole-file checksum pass and
      // not just the per-chunk length check.
      const std::uint64_t begin =
          std::min<std::uint64_t>(verdict.corrupt_offset, data.size());
      const std::uint64_t end =
          std::min<std::uint64_t>(begin + verdict.corrupt_len, data.size());
      for (std::uint64_t i = begin; i < end; ++i) {
        data[static_cast<std::size_t>(i)] ^= std::byte{0xff};
      }
      return Status::ok();
    }
    case fault::Decision::Action::kFail:
    case fault::Decision::Action::kKill:
      return unavailable(
          strings::cat("injected fault: copy ", remote_path));
  }
  return Status::ok();
}

/// Converts a planned subtree rooted at tree node `index` into the
/// wire-level RelayNode carrying each host's server endpoint and write
/// target in-band.
multicast::RelayNode build_relay_node(
    const multicast::DistTree& tree, int index,
    const std::map<std::string, const MultiCopyTarget*>& targets) {
  const multicast::TreeNode& planned =
      tree.nodes[static_cast<std::size_t>(index)];
  const MultiCopyTarget& target = *targets.at(planned.host);
  multicast::RelayNode node;
  node.host = target.host;
  node.endpoint = target.endpoint.to_string();
  node.path = target.remote_path;
  node.children.reserve(planned.children.size());
  for (const int child : planned.children) {
    node.children.push_back(build_relay_node(tree, child, targets));
  }
  return node;
}

/// Encodes one kRelayChunk request: the receiver's subtree plus the block.
Bytes relay_chunk_request(const multicast::RelayNode& node,
                          std::uint64_t offset, bool truncate_to_offset,
                          ByteSpan data) {
  xdr::Encoder enc;
  multicast::encode_node(enc, node);
  enc.put_u64(offset);
  enc.put_bool(truncate_to_offset);
  enc.put_bytes(data);
  return std::move(enc).take();
}

/// A chunk failure worth re-requesting at the same offset: transient
/// transport trouble, or a verifiably short/mangled delivery. Inherits
/// RetryPolicy's deliberate exclusions — kResourceExhausted (a shed
/// response; retrying feeds the overload) and kDeadlineExceeded (the
/// budget is gone) both surface to the stage level instead.
bool chunk_retryable(ErrorCode code) {
  return fault::RetryPolicy::retryable(code) ||
         code == ErrorCode::kDataLoss;
}

/// Reads `out.size()` bytes at `offset`; short only at end of file.
Result<std::size_t> pread_full(int fd, MutableByteSpan out,
                               std::uint64_t offset,
                               const std::string& path) {
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::pread(fd, out.data() + got, out.size() - got,
                              static_cast<off_t>(offset + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status("pread", path);
    }
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  return got;
}

/// Size and FNV-1a of a local file, as the server's kChecksum reports.
struct Digest {
  std::uint64_t bytes = 0;
  std::uint64_t hash = 0;
};

Result<Digest> local_digest(const std::string& path) {
  Digest digest;
  GL_ASSIGN_OR_RETURN(digest.bytes, vfs::file_size(path));
  GL_ASSIGN_OR_RETURN(digest.hash, vfs::hash_file(path));
  return digest;
}

/// Compares a local file's digest against the server's checksum; kDataLoss
/// on any divergence. Only run while a fault plan is armed, keeping the
/// fault-free path free of the extra read-back.
Status verify_transfer(net::RpcClient& rpc, const std::string& remote_path,
                       const Digest& local) {
  xdr::Encoder enc;
  enc.put_string(remote_path);
  GL_ASSIGN_OR_RETURN(const Bytes reply,
                      rpc.call(method_id(Method::kChecksum), enc.buffer()));
  xdr::Decoder dec(reply);
  GL_ASSIGN_OR_RETURN(const std::uint64_t remote_hash, dec.u64());
  GL_ASSIGN_OR_RETURN(const std::uint64_t remote_bytes, dec.u64());
  if (local.bytes != remote_bytes || local.hash != remote_hash) {
    return data_loss(strings::cat(
        "copy verification failed for ", remote_path, ": local ",
        local.bytes, "B/", local.hash, " vs remote ", remote_bytes, "B/",
        remote_hash));
  }
  return Status::ok();
}

/// The stream pool every copy runs on. Splits `size` bytes into
/// `chunk_size` chunks and hands them out to up to `parallel_streams`
/// workers. Worker s first calls `open_stream(s)` for its chunk mover, a
/// `Status(offset, length)` callable that owns the stream's connection
/// and buffer, then moves chunks, each under one `chunk_name` span. A
/// chunk that fails retryably is moved again at the same offset while
/// attempts, the deadline and `peer_key`'s retry budget last. Returns the
/// first stream's failure; `streams_out` gets the stream count.
template <typename OpenStream>
Status run_streams(const FileCopier::Options& options, std::uint64_t size,
                   const std::string& chunk_name, std::uint64_t peer_key,
                   const OpenStream& open_stream, int* streams_out) {
  const std::uint64_t chunk = options.chunk_size;
  const std::uint64_t num_chunks = size == 0 ? 0 : (size + chunk - 1) / chunk;
  const int streams = static_cast<int>(std::min<std::uint64_t>(
      std::max(1, options.parallel_streams), std::max<std::uint64_t>(
                                                 1, num_chunks)));

  // lint: not-a-metric (work distribution)
  std::atomic<std::uint64_t> next_chunk{0};
  std::vector<Status> stream_status(static_cast<std::size_t>(streams),
                                    Status::ok());
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(streams));
  const fault::RetryPolicy policy;
  // Stream workers inherit the copy span so their chunk spans (and the
  // RPC hops under them) land on this transfer's subtree; the ambient
  // end-to-end budget rides along so chunk RPCs keep the deadline.
  const obs::TraceContext trace_parent = obs::current_context();
  const std::optional<WallClock::time_point> budget = current_deadline();
  for (int s = 0; s < streams; ++s) {
    workers.emplace_back([&, s, trace_parent, budget] {
      obs::ScopedTraceContext trace_scope(trace_parent);
      ScopedDeadline deadline_scope(budget);
      auto move_chunk = open_stream(s);
      while (true) {
        const std::uint64_t index = next_chunk.fetch_add(1);
        if (index >= num_chunks) return;
        const std::uint64_t offset = index * chunk;
        const std::size_t length = static_cast<std::size_t>(
            std::min<std::uint64_t>(chunk, size - offset));
        obs::Span chunk_span(obs::SpanKind::kChunk, chunk_name);
        chunk_span.add_attr("offset", strings::cat(offset));
        fault::RetryBudget::global().note_fresh(peer_key);
        Status status = move_chunk(offset, length);
        for (int attempt = 1;
             !status.is_ok() && chunk_retryable(status.code()) &&
             !deadline_expired() && attempt < policy.max_attempts &&
             fault::RetryBudget::global().acquire(peer_key);
             ++attempt) {
          fault::note_retry_attempt();
          fault::sleep_for_model(policy.backoff(attempt, peer_key + index));
          status = move_chunk(offset, length);
        }
        if (!status.is_ok()) {
          stream_status[static_cast<std::size_t>(s)] = status;
          return;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  *streams_out = streams;
  for (const Status& status : stream_status) GL_RETURN_IF_ERROR(status);
  return Status::ok();
}

/// The whole-file retry loop: re-runs `attempt` after a retryable failure
/// while attempts, the deadline and the peer's retry budget last. A failed
/// verification (kDataLoss) counts as retryable, since the source is
/// still intact. Each retry, backoff included, is a `copy.retry:` span.
Status retry_whole_file(const std::string& remote_path, const char* what,
                        const std::function<Status()>& attempt) {
  const fault::RetryPolicy policy;
  const std::uint64_t jitter_key = fnv1a(as_bytes_view(remote_path));
  // emplace() records the previous retry's span and opens the next.
  std::optional<obs::Span> retry_span;
  for (int n = 1;; ++n) {
    const Status status = attempt();
    if (status.is_ok() || !chunk_retryable(status.code()) ||
        n >= policy.max_attempts) {
      return status;
    }
    GL_RETURN_IF_ERROR(check_deadline(what));
    if (!fault::RetryBudget::global().acquire(jitter_key)) return status;
    fault::note_retry_attempt();
    retry_span.emplace(obs::SpanKind::kRetry,
                       strings::cat("copy.retry:", remote_path));
    retry_span->add_attr("attempt", strings::cat(n + 1));
    retry_span->add_attr("error", status.message());
    fault::sleep_for_model(policy.backoff(n, jitter_key));
  }
}
}  // namespace

FileCopier::FileCopier(net::Transport& transport, Clock& clock,
                       Options options)
    : transport_(transport), clock_(clock), options_(options) {}

Result<CopyStats> FileCopier::fetch(const net::Endpoint& server,
                                    const std::string& remote_path,
                                    const std::string& local_path) {
  obs::Span copy_span(obs::SpanKind::kCopy,
                      strings::cat("copy.fetch:", remote_path));
  const Duration start = clock_.now();
  CopyStats stats;
  GL_RETURN_IF_ERROR(retry_whole_file(remote_path, "copy.fetch retry", [&] {
    return fetch_once(server, remote_path, local_path, &stats);
  }));
  stats.seconds = to_seconds_d(clock_.now() - start);
  copy_span.add_attr("bytes", strings::cat(stats.bytes));
  copy_span.add_attr("streams", strings::cat(stats.streams_used));
  record_copy(stats);
  return stats;
}

Status FileCopier::fetch_once(const net::Endpoint& server,
                              const std::string& remote_path,
                              const std::string& local_path,
                              CopyStats* stats) {
  net::RpcClient control(transport_, server);
  GL_ASSIGN_OR_RETURN(const std::uint64_t size,
                      remote_size(control, remote_path));

  {
    const std::filesystem::path parent =
        std::filesystem::path(local_path).parent_path();
    if (!parent.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(parent, ec);
    }
  }
  const int fd = ::open(local_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                        0644);
  if (fd < 0) return errno_status("open", local_path);
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    ::close(fd);
    return errno_status("ftruncate", local_path);
  }

  const auto open_stream = [&](int) {
    return [&, rpc = net::RpcClient(transport_, server)](
               std::uint64_t offset, std::size_t length) mutable -> Status {
      xdr::Encoder enc;
      enc.put_string(remote_path);
      enc.put_u64(offset);
      enc.put_u32(static_cast<std::uint32_t>(length));
      GL_ASSIGN_OR_RETURN(
          const Bytes reply,
          rpc.call(method_id(Method::kGetChunk), enc.buffer()));
      xdr::Decoder dec(reply);
      auto data = dec.bytes();
      if (!data.is_ok()) return data_loss("fetch: malformed chunk");
      GL_RETURN_IF_ERROR(apply_copy_fault(remote_path, *data));
      if (data->size() != length) {
        return data_loss(strings::cat("fetch ", remote_path,
                                      ": truncated chunk at offset ",
                                      offset));
      }
      std::size_t put = 0;
      while (put < data->size()) {
        const ssize_t n =
            ::pwrite(fd, data->data() + put, data->size() - put,
                     static_cast<off_t>(offset + put));
        if (n < 0) {
          if (errno == EINTR) continue;
          return errno_status("pwrite", local_path);
        }
        put += static_cast<std::size_t>(n);
      }
      return Status::ok();
    };
  };
  const Status fetched =
      run_streams(options_, size, strings::cat("chunk.fetch:", remote_path),
                  fnv1a(as_bytes_view(remote_path)), open_stream,
                  &stats->streams_used);
  ::close(fd);
  GL_RETURN_IF_ERROR(fetched);
  if (fault::armed() != nullptr) {
    GL_ASSIGN_OR_RETURN(const Digest local, local_digest(local_path));
    GL_RETURN_IF_ERROR(verify_transfer(control, remote_path, local));
  }
  stats->bytes = size;
  return Status::ok();
}

Result<CopyStats> FileCopier::push(const std::string& local_path,
                                   const net::Endpoint& server,
                                   const std::string& remote_path) {
  obs::Span copy_span(obs::SpanKind::kCopy,
                      strings::cat("copy.push:", remote_path));
  const Duration start = clock_.now();
  CopyStats stats;
  GL_RETURN_IF_ERROR(retry_whole_file(remote_path, "copy.push retry", [&] {
    return push_once(local_path, server, remote_path, &stats);
  }));
  stats.seconds = to_seconds_d(clock_.now() - start);
  copy_span.add_attr("bytes", strings::cat(stats.bytes));
  copy_span.add_attr("streams", strings::cat(stats.streams_used));
  record_copy(stats);
  return stats;
}

Status FileCopier::push_once(const std::string& local_path,
                             const net::Endpoint& server,
                             const std::string& remote_path,
                             CopyStats* stats) {
  GL_ASSIGN_OR_RETURN(const std::uint64_t size, vfs::file_size(local_path));
  const int fd = ::open(local_path.c_str(), O_RDONLY);
  if (fd < 0) return errno_status("open", local_path);

  // Create/truncate the destination before the parallel phase.
  net::RpcClient control(transport_, server);
  {
    xdr::Encoder enc;
    enc.put_string(remote_path);
    enc.put_u64(0);
    enc.put_bool(true);  // truncate to offset 0
    enc.put_bytes({});
    auto reply = control.call(method_id(Method::kPutChunk), enc.buffer());
    if (!reply.is_ok()) {
      ::close(fd);
      return reply.status();
    }
  }

  const auto open_stream = [&](int) {
    return [&, rpc = net::RpcClient(transport_, server),
            buffer = Bytes(options_.chunk_size)](
               std::uint64_t offset, std::size_t length) mutable -> Status {
      GL_ASSIGN_OR_RETURN(
          const std::size_t got,
          pread_full(fd, {buffer.data(), length}, offset, local_path));
      Bytes data(buffer.begin(),
                 buffer.begin() + static_cast<std::ptrdiff_t>(got));
      GL_RETURN_IF_ERROR(apply_copy_fault(remote_path, data));
      xdr::Encoder enc;
      enc.put_string(remote_path);
      enc.put_u64(offset);
      enc.put_bool(false);
      enc.put_bytes(data);
      GL_ASSIGN_OR_RETURN(
          const Bytes reply,
          rpc.call(method_id(Method::kPutChunk), enc.buffer()));
      (void)reply;
      // A mutated payload leaves a hole or garbage at this offset; the
      // post-push verification pass catches it and re-pushes.
      if (data.size() != got) {
        return data_loss(strings::cat("push ", remote_path,
                                      ": truncated chunk at offset ",
                                      offset));
      }
      return Status::ok();
    };
  };
  const Status pushed =
      run_streams(options_, size, strings::cat("chunk.push:", remote_path),
                  fnv1a(as_bytes_view(remote_path)), open_stream,
                  &stats->streams_used);
  ::close(fd);
  GL_RETURN_IF_ERROR(pushed);
  if (fault::armed() != nullptr) {
    GL_ASSIGN_OR_RETURN(const Digest local, local_digest(local_path));
    GL_RETURN_IF_ERROR(verify_transfer(control, remote_path, local));
  }
  stats->bytes = size;
  return Status::ok();
}

Result<MultiCopyStats> FileCopier::copy_to_many(
    const std::string& local_path,
    const std::vector<MultiCopyTarget>& destinations,
    const multicast::TreeOptions& tree_options,
    const multicast::PairEstimator& estimator) {
  MultiCopyStats stats;
  if (destinations.empty()) return stats;

  // Exact duplicates collapse with a warning; the same host asked to
  // receive two different files is a caller bug, not a dedup case.
  static obs::Counter& duplicates =
      obs::MetricsRegistry::global().counter("multicast.duplicates");
  std::vector<MultiCopyTarget> targets;
  {
    std::map<std::string, std::size_t> index_of;
    for (const MultiCopyTarget& dest : destinations) {
      const auto it = index_of.find(dest.host);
      if (it == index_of.end()) {
        index_of.emplace(dest.host, targets.size());
        targets.push_back(dest);
        continue;
      }
      const MultiCopyTarget& prior = targets[it->second];
      if (prior.remote_path != dest.remote_path ||
          prior.endpoint.to_string() != dest.endpoint.to_string()) {
        return invalid_argument(strings::cat(
            "copy_to_many: host ", dest.host,
            " listed twice with different targets (", prior.remote_path,
            " vs ", dest.remote_path, ")"));
      }
      duplicates.add();
      GL_LOG(kWarn, "copy_to_many: duplicate destination ", dest.host, " (",
             dest.remote_path, ") deduplicated");
    }
  }

  if (targets.size() == 1) {
    // Degenerate case: behave exactly like the single copy it is — same
    // status, same spans, same one `remote.copy.*` sample.
    GL_ASSIGN_OR_RETURN(const CopyStats single,
                        push(local_path, targets.front().endpoint,
                             targets.front().remote_path));
    stats.bytes = single.bytes;
    stats.seconds = single.seconds;
    stats.destinations = 1;
    stats.source_bytes_sent = single.bytes;
    stats.tree_depth = 1;
    stats.streams_used = single.streams_used;
    return stats;
  }

  const Duration start = clock_.now();
  GL_ASSIGN_OR_RETURN(const std::uint64_t size, vfs::file_size(local_path));
  const std::string source_host = transport_.local_host();
  std::vector<std::string> hosts;
  hosts.reserve(targets.size());
  std::map<std::string, const MultiCopyTarget*> by_host;
  for (const MultiCopyTarget& target : targets) {
    hosts.push_back(target.host);
    by_host.emplace(target.host, &target);
  }
  GL_ASSIGN_OR_RETURN(
      const multicast::DistTree tree,
      multicast::plan_tree(source_host, hosts, estimator, tree_options));

  // One logical advisor decision for the whole distribution: price every
  // leg, record the bottleneck. The strategy is kCopy by construction (a
  // staged multicast IS a copy), so only the predicted cost varies.
  {
    AdvisorPolicy policy;
    policy.copy_chunk_size = options_.chunk_size;
    policy.copy_streams = options_.parallel_streams;
    Advice bottleneck;
    bool scored = false;
    if (estimator) {
      for (const MultiCopyTarget& target : targets) {
        const auto estimate = estimator(source_host, target.host);
        if (!estimate.is_ok()) continue;
        const Advice leg = advise_quiet(size, 1.0, *estimate, policy);
        if (!scored ||
            leg.copy_cost_seconds > bottleneck.copy_cost_seconds) {
          bottleneck = leg;
          scored = true;
        }
      }
    }
    if (!scored) {
      bottleneck = advise_quiet(size, 1.0, nws::LinkEstimate{}, policy);
    }
    bottleneck.strategy = RemoteStrategy::kCopy;
    record_advice(bottleneck);
  }

  // The wire subtrees the root's children receive in-band.
  std::vector<multicast::RelayNode> first_hops;
  first_hops.reserve(tree.source().children.size());
  for (const int child : tree.source().children) {
    first_hops.push_back(build_relay_node(tree, child, by_host));
  }

  obs::Span copy_span(obs::SpanKind::kCopy,
                      strings::cat("copy.multicast:", local_path));
  copy_span.add_attr("destinations", strings::cat(targets.size()));
  copy_span.add_attr("depth", strings::cat(tree.depth));

  // lint: not-a-metric (per-transfer stat reported via MultiCopyStats)
  std::atomic<std::uint64_t> source_bytes{0};
  std::set<std::string> dead_hosts;

  // Create/truncate every destination file down the tree before the
  // parallel phase — and learn which relays are already dead.
  {
    multicast::RelayForwarder forwarder(transport_);
    std::vector<std::string> dead;
    multicast::relay_block(
        forwarder, first_hops, method_id(Method::kRelayChunk),
        [&](const multicast::RelayNode& child) {
          return relay_chunk_request(child, 0, true, {});
        },
        dead);
    dead_hosts.insert(dead.begin(), dead.end());
  }

  const int fd = ::open(local_path.c_str(), O_RDONLY);
  if (fd < 0) return errno_status("open", local_path);
  std::vector<std::vector<std::string>> stream_dead(
      static_cast<std::size_t>(std::max(1, options_.parallel_streams)));
  // One forwarder — one connection per tree edge — per stream keeps the
  // streams parallel, as with push()'s per-stream RpcClient. Relay
  // chunks skip the copy fault site: relays have their own.
  const auto open_stream = [&](int s) {
    return [&, s, forwarder = multicast::RelayForwarder(transport_),
            buffer = Bytes(options_.chunk_size)](
               std::uint64_t offset, std::size_t length) mutable -> Status {
      GL_ASSIGN_OR_RETURN(
          const std::size_t got,
          pread_full(fd, {buffer.data(), length}, offset, local_path));
      const ByteSpan data{buffer.data(), got};
      multicast::relay_block(
          forwarder, first_hops, method_id(Method::kRelayChunk),
          [&](const multicast::RelayNode& child) {
            source_bytes.fetch_add(got, std::memory_order_relaxed);
            return relay_chunk_request(child, offset, false, data);
          },
          stream_dead[static_cast<std::size_t>(s)]);
      return Status::ok();
    };
  };
  int streams = 0;
  const Status sent =
      run_streams(options_, size, strings::cat("chunk.multicast:", local_path),
                  fnv1a(as_bytes_view(local_path)), open_stream, &streams);
  ::close(fd);
  GL_RETURN_IF_ERROR(sent);
  for (const std::vector<std::string>& dead : stream_dead) {
    dead_hosts.insert(dead.begin(), dead.end());
  }

  // Repairs re-push one destination straight from the source, under the
  // same whole-file retry loop as push() but with no span or sample of
  // their own: they belong to this one logical copy.
  const auto repush = [&](const MultiCopyTarget& target) {
    CopyStats repaired;
    return retry_whole_file(target.remote_path, "copy.push retry", [&] {
      return push_once(local_path, target.endpoint, target.remote_path,
                       &repaired);
    });
  };

  // Every destination a dead relay left behind gets the whole file
  // directly from the source — the tree already saved the bytes for
  // everyone else, so correctness wins over elegance here.
  for (const std::string& host : dead_hosts) {
    const auto it = by_host.find(host);
    if (it == by_host.end()) continue;
    const MultiCopyTarget& target = *it->second;
    GL_LOG(kWarn, "copy_to_many: relay path to ", host,
           " failed; repairing with a direct re-push");
    GL_RETURN_IF_ERROR(repush(target));
    source_bytes.fetch_add(size, std::memory_order_relaxed);
    ++stats.reparents;
  }

  // Same discipline as fetch()/push(): with a fault plan armed, every
  // destination is checksum-verified and re-pushed on divergence. The
  // source is hashed once for all of them.
  if (fault::armed() != nullptr) {
    GL_ASSIGN_OR_RETURN(const Digest source, local_digest(local_path));
    for (const MultiCopyTarget& target : targets) {
      net::RpcClient control(transport_, target.endpoint);
      if (verify_transfer(control, target.remote_path, source).is_ok()) {
        continue;
      }
      GL_RETURN_IF_ERROR(repush(target));
      source_bytes.fetch_add(size, std::memory_order_relaxed);
      GL_RETURN_IF_ERROR(
          verify_transfer(control, target.remote_path, source));
    }
  }

  stats.bytes = size;
  stats.seconds = to_seconds_d(clock_.now() - start);
  stats.destinations = static_cast<int>(targets.size());
  stats.source_bytes_sent = source_bytes.load(std::memory_order_relaxed);
  stats.tree_depth = tree.depth;
  stats.streams_used = streams;
  copy_span.add_attr("bytes", strings::cat(size));
  copy_span.add_attr("source_bytes", strings::cat(stats.source_bytes_sent));
  copy_span.add_attr("reparents", strings::cat(stats.reparents));
  // ONE logical copy: one bytes/seconds sample for the whole fan-out.
  record_copy(CopyStats{size, stats.seconds, streams});
  return stats;
}

}  // namespace griddles::remote
