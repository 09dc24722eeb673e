// Grid Buffer clients (paper Figure 4's "Grid Buffer Client").
//
// The writer pipelines blocks through a bounded queue drained by a
// background flusher thread, so application WRITE calls return as soon as
// the block is queued — the asynchronous-write latency masking of §3.1.
// The reader issues blocking reads; its cursor is purely local, so SEEK
// costs nothing until the next read.
#pragma once

#include <cstdint>
#include <memory>
#include <thread>

#include "src/common/queue.h"
#include "src/common/thread_annotations.h"
#include "src/gridbuffer/server.h"
#include "src/net/rpc.h"

namespace griddles::gridbuffer {

class GridBufferWriter {
 public:
  struct Options {
    ChannelConfig channel;
    /// Blocks in flight before write() exerts backpressure.
    std::size_t window_blocks = 32;
    /// Concurrent flusher connections. Because each flusher RPCs
    /// synchronously, this bounds the blocks concurrently in flight on
    /// the wire — the knob that makes small-block buffer streams
    /// latency-limited (~threads * block / RTT), as the paper observed
    /// on WAN links (§5.3). Out-of-order arrival is what the server's
    /// hash table exists for (§4).
    int flusher_threads = 4;
    /// Synchronous mode: every write RPCs inline (for ablation benches).
    bool synchronous = false;
    /// Wire format — kSoap reproduces the paper's Web-Services transport
    /// (must match the server's).
    net::WireFormat wire = net::WireFormat::kBinary;
  };

  /// Opens (creating if needed) `channel` for writing.
  static Result<std::unique_ptr<GridBufferWriter>> open(
      net::Transport& transport, const net::Endpoint& server,
      const std::string& channel, Options options);
  static Result<std::unique_ptr<GridBufferWriter>> open(
      net::Transport& transport, const net::Endpoint& server,
      const std::string& channel) {
    return open(transport, server, channel, Options{});
  }

  ~GridBufferWriter();

  GridBufferWriter(const GridBufferWriter&) = delete;
  GridBufferWriter& operator=(const GridBufferWriter&) = delete;

  /// Appends bytes to the stream (buffered into block_size blocks).
  Status write(ByteSpan data);

  /// Sends any buffered partial block and waits for the pipeline to
  /// drain.
  Status flush();

  /// Flushes and publishes end-of-stream. Idempotent.
  Status close();

  std::uint64_t bytes_written() const noexcept { return cursor_; }
  const std::string& channel() const noexcept { return channel_; }

 private:
  GridBufferWriter(net::Transport& transport, net::Endpoint server,
                   std::string channel, Options options);

  /// A kWrite request for the block at `offset` carrying `size` bytes,
  /// which the caller appends.
  Bytes write_request(std::uint64_t offset, std::uint32_t size) const;
  /// Sends (synchronous) or queues one kWrite request.
  Status send_block(Bytes request);
  void flusher_main();
  Status pipeline_error() const;

  net::Transport& transport_;
  net::Endpoint server_;
  std::string channel_;
  Options options_;
  const std::size_t request_header_;  // write_request() bytes before data

  net::RpcClient control_;  // open/close + synchronous writes

  // The kWrite request for the block being assembled: the application's
  // bytes are copied once, straight into the request the flusher sends.
  // Empty until the block's first byte.
  Bytes pending_;
  std::uint64_t block_start_ = 0;  // stream offset of the pending block
  std::uint64_t cursor_ = 0;       // total bytes accepted
  bool closed_ = false;

  BoundedQueue<Bytes> queue_;  // kWrite requests for the flushers
  std::vector<std::thread> flushers_;
  // flush() waits on drained_ until the flushers have answered every
  // queued block; the first flusher error is kept for flush()/write().
  mutable Mutex flow_mu_;
  CondVar drained_;
  std::uint64_t queued_blocks_ GUARDED_BY(flow_mu_) = 0;
  std::uint64_t acked_blocks_ GUARDED_BY(flow_mu_) = 0;
  Status flusher_status_ GUARDED_BY(flow_mu_);
};

class GridBufferReader {
 public:
  struct Options {
    ChannelConfig channel;
    /// Per-read server-side blocking budget (wall ms; 0 = forever).
    std::uint64_t read_deadline_ms = 120000;
    /// Wire format (must match the server's).
    net::WireFormat wire = net::WireFormat::kBinary;
  };

  /// Registers as a reader of `channel` (creating it if the writer has
  /// not opened it yet).
  static Result<std::unique_ptr<GridBufferReader>> open(
      net::Transport& transport, const net::Endpoint& server,
      const std::string& channel, Options options);
  static Result<std::unique_ptr<GridBufferReader>> open(
      net::Transport& transport, const net::Endpoint& server,
      const std::string& channel) {
    return open(transport, server, channel, Options{});
  }

  ~GridBufferReader();

  GridBufferReader(const GridBufferReader&) = delete;
  GridBufferReader& operator=(const GridBufferReader&) = delete;

  /// Reads at the cursor; blocks until data or EOF. 0 = end of stream.
  Result<std::size_t> read(MutableByteSpan out);

  /// Moves the cursor. kEnd blocks until the writer closes (the final
  /// size is unknowable earlier).
  Result<std::uint64_t> seek(std::int64_t offset, std::uint8_t whence);

  std::uint64_t tell() const noexcept { return cursor_; }

  /// Final stream size; blocks until the writer closes.
  Result<std::uint64_t> size();

  Status close();

  const std::string& channel() const noexcept { return channel_; }

 private:
  GridBufferReader(net::Transport& transport, net::Endpoint server,
                   std::string channel, Options options);

  net::RpcClient rpc_;
  std::string channel_;
  Options options_;
  std::uint64_t reader_id_ = 0;
  std::uint64_t cursor_ = 0;
  bool closed_ = false;
};

}  // namespace griddles::gridbuffer
