#include "perfbench/layers.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/common/strings.h"

namespace perfbench {
namespace {

Layers g_layers;
std::atomic<bool> g_enabled{false};

// Messages this thread has sent; a lookup that moves it went remote.
thread_local std::uint64_t tls_sends = 0;

template <typename T>
bool succeeded(const T& result) {
  return result.is_ok();
}

/// Runs `call` inside a benchmark span named `span_name` and records
/// its latency and outcome into `stats`.
template <typename Call>
auto timed(CallStats& stats, const char* span_name, Call&& call) {
  obs::Span span(obs::SpanKind::kOther, span_name);
  const SteadyClock::time_point start = SteadyClock::now();
  auto result = call();
  stats.record(elapsed_ns(start), succeeded(result));
  return result;
}

}  // namespace

Layers& layers() { return g_layers; }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void enable() { g_enabled.store(true, std::memory_order_relaxed); }

void CallStats::record(std::uint64_t ns, bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_ns_.push_back(ns);
  busy_ns_ += ns;
  if (!ok) ++failed_;
}

std::uint64_t CallStats::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_ns_.size();
}

std::uint64_t CallStats::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

double CallStats::busy_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<double>(busy_ns_) * 1e-9;
}

double CallStats::quantile_us(double q) const {
  std::vector<std::uint64_t> samples;
  {
    std::lock_guard<std::mutex> lock(mu_);
    samples = samples_ns_;
  }
  if (samples.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return static_cast<double>(samples[rank]) * 1e-3;
}

// ---- net -------------------------------------------------------------

void TimedConnection::end_service() {
  if (!service_span_) return;
  g_layers.net_server_busy.record(elapsed_ns(service_start_), true);
  service_span_.reset();
}

Status TimedConnection::send(ByteSpan message) {
  ++tls_sends;
  g_layers.net_msgs.fetch_add(1, std::memory_order_relaxed);
  g_layers.net_wire_bytes.fetch_add(message.size(),
                                    std::memory_order_relaxed);
  if (side_ == Side::kServer) {
    Status sent = inner_->send(message);
    end_service();
    return sent;
  }
  obs::Span span(obs::SpanKind::kOther, "pb.net.client.send");
  return inner_->send(message);
}

template <typename Recv>
Result<Bytes> TimedConnection::timed_recv(Recv&& recv) {
  if (side_ == Side::kClient) {
    return timed(g_layers.net_client_recv, "pb.net.client.recv", recv);
  }
  end_service();  // a request that got no reply (dropped connection)
  Result<Bytes> message = recv();
  if (message.is_ok()) {
    service_start_ = SteadyClock::now();
    service_span_.emplace(obs::SpanKind::kOther, "pb.net.server.busy");
  }
  return message;
}

Result<Bytes> TimedConnection::recv() {
  return timed_recv([this] { return inner_->recv(); });
}

Result<Bytes> TimedConnection::recv_until(WallClock::time_point deadline) {
  return timed_recv([this, deadline] { return inner_->recv_until(deadline); });
}

Result<std::unique_ptr<net::Connection>> TimedListener::accept() {
  auto accepted = inner_->accept();
  if (!accepted.is_ok()) return accepted.status();
  return std::unique_ptr<net::Connection>(
      std::make_unique<TimedConnection>(std::move(*accepted), Side::kServer));
}

Result<std::unique_ptr<net::Connection>> TimedTransport::connect(
    const net::Endpoint& remote) {
  auto connected = timed(g_layers.net_connect, "pb.net.connect",
                         [&] { return inner_->connect(remote); });
  if (!connected.is_ok()) return connected.status();
  return std::unique_ptr<net::Connection>(std::make_unique<TimedConnection>(
      std::move(*connected), Side::kClient));
}

Result<std::unique_ptr<net::Listener>> TimedTransport::listen(
    const net::Endpoint& local) {
  auto listener = inner_->listen(local);
  if (!listener.is_ok()) return listener.status();
  return std::unique_ptr<net::Listener>(
      std::make_unique<TimedListener>(std::move(*listener)));
}

std::unique_ptr<net::Transport> maybe_timed(
    std::unique_ptr<net::Transport> inner) {
  if (!enabled()) return inner;
  return std::make_unique<TimedTransport>(std::move(inner));
}

// ---- gns -------------------------------------------------------------

Result<std::optional<gns::FileMapping>> TimedNameService::lookup(
    const std::string& host, const std::string& path) {
  const std::uint64_t sends_before = tls_sends;
  auto found = timed(g_layers.gns_lookup, "pb.gns.lookup",
                     [&] { return inner_.lookup(host, path); });
  if (tls_sends != sends_before) {
    g_layers.gns_remote.fetch_add(1, std::memory_order_relaxed);
  }
  return found;
}

// ---- core (FM calls by descriptor mode) ------------------------------

AppFm::Site AppFm::read_site(Mode mode) {
  switch (mode) {
    case Mode::kLocal:
    case Mode::kStaged: return {&g_layers.vfs_read, "pb.vfs.read"};
    case Mode::kProxy: return {&g_layers.proxy_read, "pb.remote.proxy.read"};
    case Mode::kBuffer: return {&g_layers.buffer_read, "pb.gridbuffer.read"};
    case Mode::kOther: break;
  }
  return {};
}

AppFm::Site AppFm::write_site(Mode mode) {
  switch (mode) {
    case Mode::kLocal:
    case Mode::kStaged: return {&g_layers.vfs_write, "pb.vfs.write"};
    case Mode::kBuffer: return {&g_layers.buffer_write, "pb.gridbuffer.write"};
    case Mode::kProxy:  // no workload writes through the proxy
    case Mode::kOther: break;
  }
  return {};
}

AppFm::Fd AppFm::lookup_fd(int fd) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = fds_.find(fd);
  return it == fds_.end() ? Fd{} : it->second;
}

Result<int> AppFm::open(const std::string& path, vfs::OpenFlags flags) {
  if (!enabled()) return fm_.open(path, flags);
  const SteadyClock::time_point start = SteadyClock::now();
  Result<int> fd = timed(g_layers.core_open, "pb.core.open",
                         [&] { return fm_.open(path, flags); });
  if (!fd.is_ok()) return fd;
  // The route the open resolved to, as the FM describes the descriptor.
  const Result<std::string> route = fm_.describe(*fd);
  Mode mode = Mode::kOther;
  if (route.is_ok()) {
    if (strings::starts_with(*route, "local:") ||
        strings::starts_with(*route, "tail:")) {
      mode = Mode::kLocal;
    } else if (strings::starts_with(*route, "staged:")) {
      mode = Mode::kStaged;
      g_layers.copy_open.record(elapsed_ns(start), true);
    } else if (strings::starts_with(*route, "remote:")) {
      mode = Mode::kProxy;
    } else if (strings::starts_with(*route, "gridbuffer:")) {
      mode = Mode::kBuffer;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  fds_[*fd] = Fd{mode, flags.write};
  return fd;
}

Result<std::size_t> AppFm::read(int fd, MutableByteSpan out) {
  if (!enabled()) return fm_.read(fd, out);
  const Fd entry = lookup_fd(fd);
  const Site site = read_site(entry.mode);
  Result<std::size_t> got =
      site.stats == nullptr
          ? fm_.read(fd, out)
          : timed(*site.stats, site.span, [&] { return fm_.read(fd, out); });
  if (got.is_ok()) {
    g_layers.payload_bytes.fetch_add(*got, std::memory_order_relaxed);
    if (entry.mode == Mode::kStaged) {
      g_layers.copy_bytes.fetch_add(*got, std::memory_order_relaxed);
    }
  }
  return got;
}

Result<std::size_t> AppFm::write(int fd, ByteSpan data) {
  if (!enabled()) return fm_.write(fd, data);
  const Site site = write_site(lookup_fd(fd).mode);
  Result<std::size_t> put =
      site.stats == nullptr
          ? fm_.write(fd, data)
          : timed(*site.stats, site.span, [&] { return fm_.write(fd, data); });
  if (put.is_ok()) {
    g_layers.payload_bytes.fetch_add(*put, std::memory_order_relaxed);
  }
  return put;
}

Status AppFm::close(int fd) {
  if (!enabled()) return fm_.close(fd);
  const Fd entry = lookup_fd(fd);
  {
    std::lock_guard<std::mutex> lock(mu_);
    fds_.erase(fd);
  }
  const Site site =
      entry.writable ? write_site(entry.mode) : read_site(entry.mode);
  if (site.stats == nullptr) return fm_.close(fd);
  return timed(*site.stats, site.span, [&] { return fm_.close(fd); });
}

// ---- /proc/self ------------------------------------------------------

long count_maps() {
  std::ifstream maps("/proc/self/maps");
  long lines = 0;
  std::string line;
  while (std::getline(maps, line)) ++lines;
  return lines;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace perfbench
