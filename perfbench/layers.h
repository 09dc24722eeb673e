// Outside-in layer instrumentation for the FM IO-stack benchmark.
//
// Nothing here reaches into the program: every measurement is a
// decorator over a public interface the program already takes by
// pointer (gns::NameService, net::Transport/Connection/Listener), a
// wrapper around FileMultiplexer calls grouped by the mode the open
// resolved to, the process-wide obs registry, or /proc/self. Decorators
// are installed only in traced runs; untraced runs hand the program its
// own objects, so end-to-end numbers carry no instrumentation cost.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/core/multiplexer.h"
#include "src/gns/service.h"
#include "src/net/transport.h"
#include "src/obs/span.h"

namespace perfbench {

using namespace griddles;

using SteadyClock = std::chrono::steady_clock;

inline std::uint64_t elapsed_ns(SteadyClock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          SteadyClock::now() - since)
          .count());
}

/// One decorated call site: calls, busy time, failures, and per-call
/// latencies (kept for quantiles).
class CallStats {
 public:
  void record(std::uint64_t ns, bool ok);

  std::uint64_t count() const;
  std::uint64_t failed() const;
  double busy_s() const;
  /// Sample quantile in microseconds (0 with no samples).
  double quantile_us(double q) const;

 private:
  mutable std::mutex mu_;
  std::uint64_t failed_ = 0;
  std::uint64_t busy_ns_ = 0;
  std::vector<std::uint64_t> samples_ns_;
};

/// Everything the decorators accumulate over one traced run.
struct Layers {
  CallStats core_open;
  CallStats gns_lookup;
  CallStats net_connect;
  CallStats net_client_recv;  // client threads blocked for a reply
  CallStats net_server_busy;  // request received -> reply sent
  CallStats vfs_read, vfs_write;
  CallStats buffer_read, buffer_write;
  CallStats proxy_read;
  CallStats copy_open;        // staged-mode opens (the whole-file copy)
  std::atomic<std::uint64_t> gns_remote{0};  // lookups that sent a message
  std::atomic<std::uint64_t> net_msgs{0};
  std::atomic<std::uint64_t> net_wire_bytes{0};
  std::atomic<std::uint64_t> payload_bytes{0};  // FM read + write bytes
  std::atomic<std::uint64_t> copy_bytes{0};     // read from staged copies
};

/// The process's accumulator; `enabled()` is true in traced runs only.
Layers& layers();
bool enabled();
void enable();

/// Client or server end of a decorated connection.
enum class Side { kClient, kServer };

/// Connection decorator: counts messages and wire bytes, times client
/// reply waits and server request service (recv -> next send).
class TimedConnection final : public net::Connection {
 public:
  TimedConnection(std::unique_ptr<net::Connection> inner, Side side)
      : inner_(std::move(inner)), side_(side) {}

  Status send(ByteSpan message) override;
  Result<Bytes> recv() override;
  Result<Bytes> recv_until(WallClock::time_point deadline) override;
  void close() override { inner_->close(); }
  std::string peer() const override { return inner_->peer(); }

 private:
  template <typename Recv>
  Result<Bytes> timed_recv(Recv&& recv);
  void end_service();

  std::unique_ptr<net::Connection> inner_;
  const Side side_;
  // Server side only; recv() and send() of one server connection run on
  // its single worker thread.
  std::optional<obs::Span> service_span_;
  SteadyClock::time_point service_start_{};
};

class TimedListener final : public net::Listener {
 public:
  explicit TimedListener(std::unique_ptr<net::Listener> inner)
      : inner_(std::move(inner)) {}

  Result<std::unique_ptr<net::Connection>> accept() override;
  net::Endpoint bound_endpoint() const override {
    return inner_->bound_endpoint();
  }
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<net::Listener> inner_;
};

/// Transport decorator: times connect() and wraps every connection it
/// makes or accepts.
class TimedTransport final : public net::Transport {
 public:
  explicit TimedTransport(std::unique_ptr<net::Transport> inner)
      : inner_(std::move(inner)) {}

  Result<std::unique_ptr<net::Connection>> connect(
      const net::Endpoint& remote) override;
  Result<std::unique_ptr<net::Listener>> listen(
      const net::Endpoint& local) override;
  const std::string& local_host() const override {
    return inner_->local_host();
  }

 private:
  std::unique_ptr<net::Transport> inner_;
};

/// Wraps `inner` in a TimedTransport when tracing, else returns it as is.
std::unique_ptr<net::Transport> maybe_timed(
    std::unique_ptr<net::Transport> inner);

/// NameService decorator: times lookups and counts those that went to
/// the network (the calling thread sent a message during the lookup).
class TimedNameService final : public gns::NameService {
 public:
  explicit TimedNameService(gns::NameService& inner) : inner_(inner) {}

  Result<std::optional<gns::FileMapping>> lookup(
      const std::string& host, const std::string& path) override;

 private:
  gns::NameService& inner_;
};

/// One application's FileMultiplexer calls. In traced runs each call is
/// timed into the layer its descriptor's mode resolves to: local and
/// staged descriptors read and write local disk (vfs), buffer ones the
/// Grid Buffer channel, proxy ones the remote file server. A descriptor's
/// close is charged to its write side when it was opened for writing
/// (a Grid Buffer writer drains its window there), else to its read side.
class AppFm {
 public:
  explicit AppFm(core::FileMultiplexer::Options options)
      : fm_(std::move(options)) {}

  Result<int> open(const std::string& path, vfs::OpenFlags flags);
  Result<std::size_t> read(int fd, MutableByteSpan out);
  Result<std::size_t> write(int fd, ByteSpan data);
  Status close(int fd);

 private:
  enum class Mode { kLocal, kStaged, kProxy, kBuffer, kOther };
  struct Fd {
    Mode mode = Mode::kOther;
    bool writable = false;
  };

  /// Where a call on a descriptor of `mode` is recorded, and its span.
  struct Site {
    CallStats* stats = nullptr;
    const char* span = "";
  };

  static Site read_site(Mode mode);
  static Site write_site(Mode mode);
  Fd lookup_fd(int fd) const;

  core::FileMultiplexer fm_;
  mutable std::mutex mu_;
  std::map<int, Fd> fds_;
};

/// Lines in /proc/self/maps. Each thread stack the process still holds
/// is two mappings (stack + guard page).
long count_maps();
/// VmHWM of this process in MB.
double peak_rss_mb();
/// User + system CPU seconds of this process.
double cpu_seconds();

}  // namespace perfbench
