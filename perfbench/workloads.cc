#include "perfbench/workloads.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "perfbench/layers.h"
#include "src/apps/paper_apps.h"
#include "src/common/strings.h"
#include "src/desim/predict.h"
#include "src/gns/antientropy.h"
#include "src/gns/replicated.h"
#include "src/gridbuffer/server.h"
#include "src/net/inproc.h"
#include "src/net/rpc.h"
#include "src/obs/export.h"
#include "src/remote/file_server.h"
#include "src/vfs/local_client.h"
#include "src/workflow/runner.h"
#include "src/xdr/codec.h"

namespace perfbench {
namespace fs = std::filesystem;

void emit(const char* format, ...) {
  char line[512];
  va_list args;
  va_start(args, format);
  const int n = std::vsnprintf(line, sizeof(line) - 1, format, args);
  va_end(args);
  if (n < 0) return;
  std::size_t len = std::min(static_cast<std::size_t>(n), sizeof(line) - 2);
  line[len++] = '\n';
  // One write per record: lines from concurrent threads never interleave
  // (a pipe write this short is atomic), and nothing sits in a buffer a
  // crash would lose.
  const char* at = line;
  while (len > 0) {
    const ssize_t wrote = ::write(STDOUT_FILENO, at, len);
    if (wrote <= 0) return;
    at += wrote;
    len -= static_cast<std::size_t>(wrote);
  }
}

namespace {

// Set during static initialisation, before main(): the process start
// that set-up time counts from.
const SteadyClock::time_point g_process_start = SteadyClock::now();

/// Ends set-up: the first timed operation follows.
void ready() {
  emit("R %.9f", static_cast<double>(elapsed_ns(g_process_start)) * 1e-9);
}

constexpr std::size_t kAppIo = 64 * 1024;  // one legacy READ/WRITE call

// ---- seeded inputs -----------------------------------------------------

// Every input comes from one generator, the kernels' stream content
// (apps::fill_stream), keyed by a name tagged with the seed: the name
// picks the stream, the seed its bytes.

std::string seeded(std::uint64_t seed, const std::string& name) {
  return strings::cat("s", seed, "_", name);
}

/// Word `index` of the seeded stream `name`: sizes and other choices.
std::uint64_t seeded_word(std::uint64_t seed, const std::string& name,
                          std::uint64_t index) {
  Bytes bytes(8);
  apps::fill_stream(seeded(seed, name), index * 8, bytes);
  std::uint64_t word = 0;
  std::memcpy(&word, bytes.data(), sizeof(word));
  return word;
}

/// One generated input: its bytes and the hash consumers must reproduce.
struct Payload {
  Bytes data;
  std::uint64_t hash = 0;
};

Payload seeded_payload(std::uint64_t seed, const std::string& name,
                       std::size_t size) {
  Payload payload;
  payload.data.resize(size);
  apps::fill_stream(seeded(seed, name), 0, payload.data);
  payload.hash = fnv1a(payload.data);
  return payload;
}

// ---- application IO ----------------------------------------------------

struct ReadResult {
  Status status;
  std::uint64_t bytes = 0;
  std::uint64_t hash = kFnv1aSeed;
};

/// One operation: open, read to EOF hashing every byte, close.
ReadResult read_whole(AppFm& fm, const std::string& path, Bytes& buffer) {
  ReadResult result;
  auto fd = fm.open(path, vfs::OpenFlags::input());
  if (!fd.is_ok()) {
    result.status = fd.status();
    return result;
  }
  while (true) {
    auto got = fm.read(*fd, buffer);
    if (!got.is_ok()) {
      result.status = got.status();
      (void)fm.close(*fd);
      return result;
    }
    if (*got == 0) break;
    result.hash = fnv1a_update(result.hash, ByteSpan(buffer).first(*got));
    result.bytes += *got;
  }
  result.status = fm.close(*fd);
  return result;
}

Status write_whole(AppFm& fm, const std::string& path, ByteSpan data) {
  GL_ASSIGN_OR_RETURN(const int fd, fm.open(path, vfs::OpenFlags::output()));
  for (std::size_t at = 0; at < data.size(); at += kAppIo) {
    const ByteSpan chunk = data.subspan(at, std::min(kAppIo, data.size() - at));
    auto put = fm.write(fd, chunk);
    if (!put.is_ok() || *put != chunk.size()) {
      (void)fm.close(fd);
      return put.is_ok() ? io_error("short write") : put.status();
    }
  }
  return fm.close(fd);
}

/// Verifies a finished read against its generated input and emits the
/// operation record. Returns the verified bytes (0 on failure).
std::uint64_t finish_op(int body, SteadyClock::time_point start,
                        const ReadResult& read, const Payload& expected,
                        const std::string& what) {
  const std::uint64_t ns = elapsed_ns(start);
  int outcome = read.status.is_ok() ? 1 : 0;  // 1 verified, 0 failed
  if (outcome == 0) {
    std::fprintf(stderr, "op %s failed: %s\n", what.c_str(),
                 read.status.to_string().c_str());
  } else if (read.bytes != expected.data.size() ||
             read.hash != expected.hash) {
    outcome = 2;
    std::fprintf(stderr, "op %s MISMATCH: %llu bytes hash %016llx, want "
                 "%zu bytes hash %016llx\n", what.c_str(),
                 static_cast<unsigned long long>(read.bytes),
                 static_cast<unsigned long long>(read.hash),
                 expected.data.size(),
                 static_cast<unsigned long long>(expected.hash));
  }
  emit("O %d %llu %llu %d", body, static_cast<unsigned long long>(ns),
       static_cast<unsigned long long>(read.bytes), outcome);
  return outcome == 1 ? read.bytes : 0;
}

// ---- per-layer metrics -------------------------------------------------

std::uint64_t counter_delta(const obs::MetricsSnapshot& before,
                            const obs::MetricsSnapshot& after,
                            const std::string& name) {
  const auto a = after.counters.find(name);
  if (a == after.counters.end()) return 0;
  const auto b = before.counters.find(name);
  return a->second - (b == before.counters.end() ? 0 : b->second);
}

/// Sum of a histogram's samples taken between the two snapshots.
double histogram_sum_delta(const obs::MetricsSnapshot& before,
                           const obs::MetricsSnapshot& after,
                           const std::string& name) {
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return 0;
  const auto b = before.histograms.find(name);
  return a->second.sum - (b == before.histograms.end() ? 0 : b->second.sum);
}

/// Median nanoseconds per call of net::encode_frame / decode_frame on a
/// request frame carrying `payload` — the workload's dominant frame.
struct CodecFigures {
  double frame_bytes = 0;
  double encode_ns = 0;
  double decode_ns = 0;
};

CodecFigures codec_probe(const Bytes& payload) {
  net::RpcFrame frame;
  frame.kind = net::FrameKind::kRequest;
  frame.id = 42;
  frame.method = 5;
  frame.payload = payload;
  const Bytes wire = net::encode_frame(frame, net::WireFormat::kBinary);
  const int calls = payload.size() > (256u << 10) ? 8 : 512;
  std::vector<double> encode_ns, decode_ns;
  std::size_t sink = 0;
  for (int batch = 0; batch < 15; ++batch) {
    SteadyClock::time_point start = SteadyClock::now();
    for (int i = 0; i < calls; ++i) {
      sink += net::encode_frame(frame, net::WireFormat::kBinary).size();
    }
    encode_ns.push_back(static_cast<double>(elapsed_ns(start)) / calls);
    start = SteadyClock::now();
    for (int i = 0; i < calls; ++i) {
      auto decoded = net::decode_frame(wire, net::WireFormat::kBinary);
      sink += decoded.is_ok() ? decoded->payload.size() : 0;
    }
    decode_ns.push_back(static_cast<double>(elapsed_ns(start)) / calls);
  }
  if (sink == 0) std::fprintf(stderr, "codec probe decoded nothing\n");
  auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  return {static_cast<double>(payload.size()), median(encode_ns),
          median(decode_ns)};
}

/// What only some workloads can measure (the modelled testbed).
struct TestbedFigures {
  double model_s = 0;          // model makespan per body
  double model_excess_frac = 0;  // measured vs predicted model time
};

/// Samples taken when the timed bodies start, to difference at the end.
struct Baseline {
  obs::MetricsSnapshot metrics = obs::snapshot();
  long maps = count_maps();
};

void emit_metric(const char* name, double value) {
  emit("M %s %.17g", name, value);
}

/// Emits every per-layer metric of a traced run so far.
void emit_layer_metrics(const Baseline& base, const CodecFigures& codec,
                        const TestbedFigures& testbed) {
  const long maps = count_maps();
  const obs::MetricsSnapshot now = obs::snapshot();
  Layers& l = layers();

  emit_metric("core.open.count", static_cast<double>(l.core_open.count()));
  emit_metric("core.open.p50_us", l.core_open.quantile_us(0.5));
  emit_metric("core.open.p99_us", l.core_open.quantile_us(0.99));
  emit_metric("core.open.failed", static_cast<double>(l.core_open.failed()));

  const std::uint64_t lookups = l.gns_lookup.count();
  emit_metric("gns.lookup.count", static_cast<double>(lookups));
  emit_metric("gns.lookup.busy_s", l.gns_lookup.busy_s());
  emit_metric("gns.lookup.p99_us", l.gns_lookup.quantile_us(0.99));
  emit_metric("gns.lookup.failed", static_cast<double>(l.gns_lookup.failed()));
  emit_metric("gns.lookup.remote_frac",
              lookups == 0 ? 0
                           : static_cast<double>(l.gns_remote.load()) /
                                 static_cast<double>(lookups));

  const double payload = static_cast<double>(l.payload_bytes.load());
  const double recv_wait = l.net_client_recv.busy_s();
  const double server_busy = l.net_server_busy.busy_s();
  emit_metric("net.connects", static_cast<double>(l.net_connect.count()));
  emit_metric("net.connect.busy_s", l.net_connect.busy_s());
  emit_metric("net.msgs", static_cast<double>(l.net_msgs.load()));
  emit_metric("net.wire_per_payload",
              payload == 0 ? 0
                           : static_cast<double>(l.net_wire_bytes.load()) /
                                 payload);
  emit_metric("net.client.recv_wait_s", recv_wait);
  emit_metric("net.server.busy_s", server_busy);
  emit_metric("net.transit_s", std::max(0.0, recv_wait - server_busy));
  emit_metric("net.retained_stacks",
              static_cast<double>(maps - base.maps) / 2.0);

  for (const char* name : {"rpc.client.calls", "rpc.client.errors",
                           "retry.attempts", "overload.shed"}) {
    emit_metric(name, static_cast<double>(counter_delta(base.metrics, now, name)));
  }
  emit_metric("admission.queue.delay_s",
              histogram_sum_delta(base.metrics, now, "admission.queue.delay_s"));

  emit_metric("xdr.frame.bytes", codec.frame_bytes);
  emit_metric("xdr.frame.encode_ns", codec.encode_ns);
  emit_metric("xdr.frame.decode_ns", codec.decode_ns);

  emit_metric("gridbuffer.write.busy_s", l.buffer_write.busy_s());
  emit_metric("gridbuffer.read.busy_s", l.buffer_read.busy_s());
  emit_metric("gridbuffer.read.wait_s",
              histogram_sum_delta(base.metrics, now, "gridbuffer.read.wait_s"));
  emit_metric("gridbuffer.backpressure.waits",
              static_cast<double>(counter_delta(
                  base.metrics, now, "gridbuffer.backpressure.waits")));
  emit_metric("gridbuffer.cache.hits",
              static_cast<double>(
                  counter_delta(base.metrics, now, "gridbuffer.cache.hits")));

  const double copy_busy = l.copy_open.busy_s();
  emit_metric("remote.copy.count", static_cast<double>(l.copy_open.count()));
  emit_metric("remote.copy.busy_s", copy_busy);
  emit_metric("remote.copy.mb_per_s",
              copy_busy == 0 ? 0
                             : static_cast<double>(l.copy_bytes.load()) /
                                   1e6 / copy_busy);
  emit_metric("remote.proxy.read.busy_s", l.proxy_read.busy_s());

  emit_metric("vfs.write.busy_s", l.vfs_write.busy_s());
  emit_metric("vfs.read.busy_s", l.vfs_read.busy_s());

  emit_metric("workflow.stage.reruns",
              static_cast<double>(counter_delta(base.metrics, now, "stage.reruns")));
  emit_metric("testbed.model_s", testbed.model_s);
  emit_metric("testbed.model_excess_frac", testbed.model_excess_frac);
  emit_metric("obs.span.dropped",
              static_cast<double>(obs::SpanCollector::global().dropped()));
}

/// Chrome trace of a traced run, written incrementally: the collector is
/// drained after every body, so a long run neither holds every span in
/// memory nor overflows the collector's capacity.
class TraceFile {
 public:
  TraceFile() = default;
  ~TraceFile() { (void)close(); }
  TraceFile(const TraceFile&) = delete;
  TraceFile& operator=(const TraceFile&) = delete;

  Status open(const std::string& path) {
    file_ = std::fopen(path.c_str(), "w");
    if (file_ == nullptr) return io_error("cannot write " + path);
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", file_);
    return Status::ok();
  }

  void drain() {
    if (file_ == nullptr) return;
    obs::SpanCollector::global().flush_thread_buffer();
    for (const obs::SpanRecord& record : obs::SpanCollector::global().drain()) {
      if (!first_) std::fputs(",\n", file_);
      first_ = false;
      std::fputs(obs::to_chrome_event(record).c_str(), file_);
    }
    std::fflush(file_);
  }

  Status close() {
    if (file_ == nullptr) return Status::ok();
    drain();
    std::fputs("]}\n", file_);
    const bool ok = std::ferror(file_) == 0;
    const bool closed = std::fclose(file_) == 0;
    file_ = nullptr;
    return ok && closed ? Status::ok() : io_error("trace write failed");
  }

 private:
  std::FILE* file_ = nullptr;
  bool first_ = true;
};

TraceFile g_trace;

/// Runs fixed-work bodies back to back until `args.seconds` have passed
/// (at least one), emitting the B/E/P records around each. `body(k)`
/// emits its own operation records and returns the verified payload
/// bytes consumers received. A traced run probes the codec on
/// `dominant_frame` first and re-emits every per-layer metric after each
/// body, so a run that dies still reports its layers up to then.
void run_bodies(const RunArgs& args, std::uint64_t planned_ops,
                const Bytes& dominant_frame,
                const std::function<std::uint64_t(int)>& body,
                const std::function<TestbedFigures()>& testbed = {}) {
  CodecFigures codec;
  if (args.trace) codec = codec_probe(dominant_frame);
  const Baseline base;
  const SteadyClock::time_point until =
      SteadyClock::now() +
      std::chrono::duration_cast<SteadyClock::duration>(
          std::chrono::duration<double>(args.seconds));
  for (int k = 0; k == 0 || SteadyClock::now() < until; ++k) {
    emit("B %d %llu", k, static_cast<unsigned long long>(planned_ops));
    const double cpu_start = cpu_seconds();
    const SteadyClock::time_point start = SteadyClock::now();
    const std::uint64_t verified = body(k);
    const double wall = static_cast<double>(elapsed_ns(start)) * 1e-9;
    emit("E %d %.9f %.9f %llu", k, wall, cpu_seconds() - cpu_start,
         static_cast<unsigned long long>(verified));
    emit("P %.3f", peak_rss_mb());
    if (args.trace) {
      emit_layer_metrics(base, codec, testbed ? testbed() : TestbedFigures{});
    }
    g_trace.drain();
  }
}

// ---- deployment pieces -------------------------------------------------

/// An unshaped in-process network under the real clock.
struct Network {
  RealClock clock;
  net::InProcNetwork network{clock};

  std::unique_ptr<net::Transport> transport(const std::string& host) {
    return maybe_timed(network.transport(host));
  }
};

/// The workflow runner's GNS deployment: a GnsCluster (one replica, the
/// runner's default shard count and anti-entropy period).
class GnsDeployment {
 public:
  GnsDeployment(Network& net, const std::string& host)
      : transport_(net.transport(host)),
        cluster_(*transport_, cluster_options()),
        host_(host) {}

  Status start() {
    GL_RETURN_IF_ERROR(
        cluster_.add_replica("gns-0", net::inproc_endpoint(host_, "gns-0")));
    return cluster_.start();
  }
  void stop() { cluster_.stop(); }
  gns::GnsCluster& cluster() { return cluster_; }

 private:
  static gns::GnsCluster::Options cluster_options() {
    gns::GnsCluster::Options options;
    options.num_shards = 8;
    options.ae_interval = std::chrono::milliseconds(100);
    return options;
  }

  std::unique_ptr<net::Transport> transport_;
  gns::GnsCluster cluster_;
  std::string host_;
};

/// One application: its own transport, name service front end (as the
/// runner builds per task) and File Multiplexer.
class App {
 public:
  App(Network& net, GnsDeployment& gns, const std::string& host,
      const std::string& root)
      : transport_(net.transport(host)) {
    gns::ReplicatedNameService::Options ns_options;
    ns_options.client_cache_ttl = std::chrono::milliseconds(200);
    names_ = std::make_unique<gns::ReplicatedNameService>(*transport_,
                                                         ns_options);
    for (const gns::ReplicaAddress& replica : gns.cluster().endpoints()) {
      names_->add_replica(replica.name, replica.endpoint);
    }
    gns::NameService* names = names_.get();
    if (enabled()) {
      timed_names_ = std::make_unique<TimedNameService>(*names_);
      names = timed_names_.get();
    }
    fs::create_directories(fs::path(root) / "scratch");
    core::FileMultiplexer::Options options;
    options.host = host;
    options.local_root = root;
    options.scratch_dir = (fs::path(root) / "scratch").string();
    options.gns = names;
    options.transport = transport_.get();
    options.clock = &net.clock;
    fm_ = std::make_unique<AppFm>(options);
  }

  AppFm& fm() { return *fm_; }

 private:
  std::unique_ptr<net::Transport> transport_;
  std::unique_ptr<gns::ReplicatedNameService> names_;
  std::unique_ptr<TimedNameService> timed_names_;
  std::unique_ptr<AppFm> fm_;
};

/// Joins every thread it started, also on early return.
class Threads {
 public:
  Threads() = default;
  ~Threads() { join(); }
  Threads(const Threads&) = delete;
  Threads& operator=(const Threads&) = delete;

  void spawn(std::function<void()> fn) { threads_.emplace_back(std::move(fn)); }
  void join() {
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
  }

 private:
  std::vector<std::thread> threads_;
};

Status check(bool ok, const char* what) {
  return ok ? Status::ok() : internal_error(what);
}

// ---- buffer_stream ------------------------------------------------------

// One producer streams a seeded file through a 4 KiB-block Grid Buffer
// (cache on) to two consumer applications on another host.
Status buffer_stream(const RunArgs& args) {
  // Sizes vary by seed only in the last partial block, so every seed
  // costs the same.
  constexpr int kPayloads = 4;
  std::vector<Payload> payloads;
  for (int i = 0; i < kPayloads; ++i) {
    const std::uint64_t cut = 1 + seeded_word(args.seed, "stream.size", i) % 4095;
    payloads.push_back(seeded_payload(args.seed, strings::cat("stream", i),
                                      (4u << 20) - cut));
  }

  Network net;
  GnsDeployment gns(net, "brecca");
  GL_RETURN_IF_ERROR(gns.start());
  auto server_transport = net.transport("dione");
  gridbuffer::GridBufferServer buffers(
      (fs::path(args.work_dir) / "gbuf").string(), *server_transport,
      net::inproc_endpoint("dione", "gbuf"));
  GL_RETURN_IF_ERROR(buffers.start());

  gns::MappingRule rule;
  rule.host_pattern = "*";
  rule.path_pattern = "/stream/*.dat";
  rule.mapping.mode = gns::IoMode::kGridBuffer;
  rule.mapping.buffer_endpoint = buffers.endpoint().to_string();
  rule.mapping.block_size = 4096;
  rule.mapping.cache_enabled = true;
  rule.mapping.reader_count = 2;
  GL_RETURN_IF_ERROR(gns.cluster().add_rule(rule));

  App writer(net, gns, "brecca", args.work_dir + "/brecca");
  std::vector<std::unique_ptr<App>> readers;
  for (int r = 0; r < 2; ++r) {
    readers.push_back(std::make_unique<App>(
        net, gns, "dione", strings::cat(args.work_dir, "/dione-", r)));
  }

  ready();
  if (args.setup_only) return Status::ok();
  std::atomic<bool> write_failed{false};
  run_bodies(args, 2, Bytes(4096), [&](int k) -> std::uint64_t {
    const Payload& payload = payloads[static_cast<std::size_t>(k) % kPayloads];
    const std::string path = strings::cat("/stream/", k, ".dat");
    std::atomic<std::uint64_t> verified{0};
    {
      Threads threads;
      threads.spawn([&] {
        if (Status s = write_whole(writer.fm(), path, payload.data); !s.is_ok()) {
          std::fprintf(stderr, "writer %s: %s\n", path.c_str(),
                       s.to_string().c_str());
          write_failed = true;
        }
      });
      for (auto& reader : readers) {
        threads.spawn([&, app = reader.get()] {
          Bytes buffer(kAppIo);
          const SteadyClock::time_point start = SteadyClock::now();
          const ReadResult read = read_whole(app->fm(), path, buffer);
          verified += finish_op(k, start, read, payload, path);
        });
      }
    }
    (void)buffers.store().remove(path);
    return verified.load();
  });
  readers.clear();
  buffers.stop();
  gns.stop();
  return check(!write_failed, "a producer write failed");
}

// ---- staged_fanout ------------------------------------------------------

// A producer writes seeded multi-MB files locally through its FM while
// three consumers on other hosts open each finished file through theirs:
// even slots map to staged copies, odd slots to remote proxy IO.
Status staged_fanout(const RunArgs& args) {
  constexpr int kSlots = 8;     // files per body; slot = file index % 8
  constexpr int kPayloads = 5;  // coprime with kSlots: a stale slot never
                                // carries the payload now expected of it
  const std::vector<std::string> consumers = {"dione", "vpac27", "bouscat"};
  std::vector<Payload> payloads;
  for (int i = 0; i < kPayloads; ++i) {
    const std::uint64_t cut = 1 + seeded_word(args.seed, "staged.size", i) % 65535;
    payloads.push_back(seeded_payload(args.seed, strings::cat("staged", i),
                                      (3u << 20) - cut));
  }

  Network net;
  GnsDeployment gns(net, "brecca");
  GL_RETURN_IF_ERROR(gns.start());
  const std::string producer_root = args.work_dir + "/brecca";
  fs::create_directories(producer_root);
  auto server_transport = net.transport("brecca");
  remote::FileServer files(producer_root, *server_transport,
                           net::inproc_endpoint("brecca", "files"));
  GL_RETURN_IF_ERROR(files.start());
  for (int slot = 0; slot < kSlots; ++slot) {
    gns::MappingRule rule;
    rule.host_pattern = "*";
    rule.path_pattern = strings::cat("/shared/slot", slot, ".dat");
    rule.mapping.mode = slot % 2 == 0 ? gns::IoMode::kRemoteCopy
                                      : gns::IoMode::kRemoteProxy;
    rule.mapping.remote_endpoint = files.endpoint().to_string();
    rule.mapping.remote_path = strings::cat("slot", slot, ".dat");
    GL_RETURN_IF_ERROR(gns.cluster().add_rule(rule));
  }

  App producer(net, gns, "brecca", producer_root);
  std::vector<std::unique_ptr<App>> apps;
  for (const std::string& host : consumers) {
    apps.push_back(std::make_unique<App>(net, gns, host,
                                         args.work_dir + "/" + host));
  }

  ready();
  if (args.setup_only) return Status::ok();
  std::atomic<bool> write_failed{false};
  run_bodies(args, kSlots * consumers.size(), Bytes(1u << 20),
             [&](int k) -> std::uint64_t {
    std::mutex mu;
    std::condition_variable published_cv;
    int published = 0;  // files of this body the producer has closed
    std::atomic<std::uint64_t> verified{0};
    Threads threads;
    threads.spawn([&] {
      for (int slot = 0; slot < kSlots; ++slot) {
        const Payload& payload = payloads[(k * kSlots + slot) % kPayloads];
        const Status s = write_whole(producer.fm(),
                                     strings::cat("slot", slot, ".dat"),
                                     payload.data);
        if (!s.is_ok()) {
          std::fprintf(stderr, "producer slot%d: %s\n", slot,
                       s.to_string().c_str());
          write_failed = true;
        }
        std::lock_guard<std::mutex> lock(mu);
        ++published;
        published_cv.notify_all();
      }
    });
    for (auto& app : apps) {
      threads.spawn([&, consumer = app.get()] {
        Bytes buffer(kAppIo);
        for (int slot = 0; slot < kSlots; ++slot) {
          {
            std::unique_lock<std::mutex> lock(mu);
            published_cv.wait(lock, [&] { return published > slot; });
          }
          const Payload& payload = payloads[(k * kSlots + slot) % kPayloads];
          const std::string path = strings::cat("/shared/slot", slot, ".dat");
          const SteadyClock::time_point start = SteadyClock::now();
          const ReadResult read = read_whole(consumer->fm(), path, buffer);
          verified += finish_op(k, start, read, payload, path);
        }
      });
    }
    threads.join();
    return verified.load();
  });
  apps.clear();
  files.stop();
  gns.stop();
  return check(!write_failed, "a producer write failed");
}

// ---- open_storm ---------------------------------------------------------

// Client applications open, fully read and close small seeded files,
// three quarters mapped to local IO and the rest to remote-proxy IO on a
// file server. The split is uneven so the median operation sits inside
// one latency mode rather than on the boundary between two.
Status open_storm(const RunArgs& args) {
  constexpr int kLocalFiles = 96;
  constexpr int kRemoteFiles = 32;
  constexpr int kClients = 3;
  constexpr int kOpsPerClient = 400;  // per body
  // One generated byte picks a file uniformly.
  static_assert(256 % (kLocalFiles + kRemoteFiles) == 0);
  const std::string server_root = args.work_dir + "/dione";
  fs::create_directories(server_root);

  // Inputs: file j of either kind has the same seeded content on every
  // host that holds it. Sizes spread evenly below 16 KiB with seeded
  // jitter, so the size mix (and the cost) is the same for every seed.
  std::vector<Payload> local_files, remote_files;
  auto file = [&args](const std::string& name, int j, int n) {
    const std::size_t size =
        1 + j * (16383 - 256) / n + seeded_word(args.seed, name + ".size", j) % 256;
    return seeded_payload(args.seed, strings::cat(name, j), size);
  };
  for (int j = 0; j < kLocalFiles; ++j) {
    local_files.push_back(file("storm.local", j, kLocalFiles));
  }
  for (int j = 0; j < kRemoteFiles; ++j) {
    remote_files.push_back(file("storm.remote", j, kRemoteFiles));
    GL_RETURN_IF_ERROR(vfs::write_file(
        strings::cat(server_root, "/r", j, ".dat"), remote_files.back().data));
  }

  Network net;
  GnsDeployment gns(net, "jagan");
  GL_RETURN_IF_ERROR(gns.start());
  auto server_transport = net.transport("dione");
  remote::FileServer files(server_root, *server_transport,
                           net::inproc_endpoint("dione", "files"));
  GL_RETURN_IF_ERROR(files.start());
  {
    gns::MappingRule local;
    local.host_pattern = "*";
    local.path_pattern = "*/l*.dat";
    local.mapping.mode = gns::IoMode::kLocal;
    GL_RETURN_IF_ERROR(gns.cluster().add_rule(local));
  }
  for (int j = 0; j < kRemoteFiles; ++j) {
    gns::MappingRule rule;
    rule.host_pattern = "*";
    rule.path_pattern = strings::cat("/ns/r", j, ".dat");
    rule.mapping.mode = gns::IoMode::kRemoteProxy;
    rule.mapping.remote_endpoint = files.endpoint().to_string();
    rule.mapping.remote_path = strings::cat("r", j, ".dat");
    GL_RETURN_IF_ERROR(gns.cluster().add_rule(rule));
  }

  std::vector<std::unique_ptr<App>> clients;
  for (int c = 0; c < kClients; ++c) {
    const std::string host = strings::cat("client", c);
    const std::string root = strings::cat(args.work_dir, "/", host);
    fs::create_directories(root);
    for (int j = 0; j < kLocalFiles; ++j) {
      GL_RETURN_IF_ERROR(vfs::write_file(strings::cat(root, "/l", j, ".dat"),
                                         local_files[j].data));
    }
    clients.push_back(std::make_unique<App>(net, gns, host, root));
  }

  ready();
  if (args.setup_only) return Status::ok();
  xdr::Encoder lookup;  // a GNS lookup request: (host, path)
  lookup.put_string("client0");
  lookup.put_string("/ns/r12.dat");
  run_bodies(args, kClients * kOpsPerClient, lookup.buffer(),
             [&](int k) -> std::uint64_t {
    std::atomic<std::uint64_t> verified{0};
    Threads threads;
    for (int c = 0; c < kClients; ++c) {
      threads.spawn([&, c] {
        Bytes picks(kOpsPerClient);
        apps::fill_stream(seeded(args.seed, strings::cat("storm.picks", k, ".", c)),
                          0, picks);
        Bytes buffer(16 * 1024);
        for (int op = 0; op < kOpsPerClient; ++op) {
          const int j = std::to_integer<int>(picks[op]) % (kLocalFiles + kRemoteFiles);
          const bool local = j < kLocalFiles;
          const std::string path =
              local ? strings::cat("l", j, ".dat")
                    : strings::cat("/ns/r", j - kLocalFiles, ".dat");
          const Payload& expected =
              local ? local_files[j] : remote_files[j - kLocalFiles];
          const SteadyClock::time_point start = SteadyClock::now();
          const ReadResult read = read_whole(clients[c]->fm(), path, buffer);
          verified += finish_op(k, start, read, expected, path);
        }
      });
    }
    threads.join();
    return verified.load();
  });
  clients.clear();
  files.stop();
  gns.stop();
  return Status::ok();
}

// ---- paper_replay -------------------------------------------------------

// Table 5's climate split (C-CAM + cc2lam on A, DARLAM on B) for one LAN
// and one WAN pair, each under sequential files and under Grid Buffers,
// through WorkflowRunner::run on the modelled testbed.
constexpr double kWallPerModel = 1.0 / 4000.0;
constexpr double kByteScale = 256.0;

/// The climate pipeline with every file name tagged by the seed (as
/// seeded() tags generator names), so the seed picks the bytes every
/// stage writes and verifies.
std::vector<apps::AppKernel> seeded_climate(double byte_scale,
                                            std::uint64_t seed) {
  std::vector<apps::AppKernel> pipeline = apps::climate_pipeline(byte_scale);
  auto tag = [seed](apps::StreamSpec& stream) {
    stream.path = seeded(seed, stream.path);
  };
  for (apps::AppKernel& kernel : pipeline) {
    kernel.verify_inputs = true;
    for (auto& s : kernel.inputs) tag(s);
    for (auto& s : kernel.outputs) tag(s);
  }
  return pipeline;
}

workflow::WorkflowRunner::Options replay_options(workflow::CouplingMode mode) {
  workflow::WorkflowRunner::Options options;
  options.mode = mode;
  options.buffer_block =
      static_cast<std::uint32_t>(std::max(64.0, 4096.0 / kByteScale));
  options.buffer_block_fast_link = 65536;
  options.flusher_threads = 4;
  options.writer_window = 16;
  options.read_deadline_ms = 120000;
  return options;
}

Status paper_replay(const RunArgs& args) {
  struct Pair {
    std::string a, b;
  };
  const std::vector<Pair> pairs = {{"brecca", "dione"}, {"brecca", "bouscat"}};
  const std::vector<workflow::CouplingMode> modes = {
      workflow::CouplingMode::kSequentialFiles,
      workflow::CouplingMode::kGridBuffers};

  const std::vector<apps::AppKernel> scaled = seeded_climate(kByteScale, args.seed);
  const apps::AppKernel& darlam = scaled.back();
  const std::string final_name = darlam.outputs.front().path;
  Payload expected;  // DARLAM's output, from the kernels' generator
  expected.data.resize(darlam.outputs.front().bytes);
  apps::fill_stream(final_name, 0, expected.data);
  expected.hash = fnv1a(expected.data);

  std::vector<workflow::WorkflowSpec> specs;
  std::vector<double> predicted;
  for (const Pair& pair : pairs) {
    const std::vector<std::string> machines = {pair.a, pair.a, pair.b};
    GL_ASSIGN_OR_RETURN(workflow::WorkflowSpec spec,
                        workflow::WorkflowSpec::from_pipeline(
                            strings::cat("t5-", pair.a, "-", pair.b), scaled,
                            machines));
    GL_ASSIGN_OR_RETURN(const workflow::WorkflowSpec paper_spec,
                        workflow::WorkflowSpec::from_pipeline(
                            spec.name, seeded_climate(1.0, args.seed), machines));
    for (const workflow::CouplingMode mode : modes) {
      workflow::WorkflowRunner::Options model_options;
      model_options.mode = mode;
      model_options.buffer_block = 4096;
      model_options.flusher_threads = 4;
      GL_ASSIGN_OR_RETURN(const desim::Prediction prediction,
                          desim::predict(paper_spec, model_options));
      predicted.push_back(prediction.total_seconds);
    }
    specs.push_back(std::move(spec));
  }

  ready();
  if (args.setup_only) return Status::ok();
  double model_total = 0, predicted_total = 0;
  int bodies = 0;
  bool coupling_mismatch = false;
  const auto figures = [&] {
    TestbedFigures testbed;
    testbed.model_s = model_total / std::max(1, bodies);
    testbed.model_excess_frac =
        predicted_total == 0 ? 0 : model_total / predicted_total - 1.0;
    return testbed;
  };
  const Bytes block(replay_options(modes[1]).buffer_block);
  run_bodies(args, pairs.size() * modes.size(), block,
             [&](int k) -> std::uint64_t {
    std::uint64_t verified = 0;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      std::vector<std::uint64_t> hashes;  // of the runs that finished
      for (std::size_t m = 0; m < modes.size(); ++m) {
        const fs::path root =
            fs::path(args.work_dir) / strings::cat("replay-", k, "-", p, "-", m);
        const SteadyClock::time_point start = SteadyClock::now();
        ReadResult outcome;
        {
          obs::Span span(obs::SpanKind::kOther, "pb.workflow.run");
          testbed::TestbedRuntime testbed(kWallPerModel, root.string(),
                                          kByteScale);
          workflow::WorkflowRunner runner(testbed);
          auto report = runner.run(specs[p], replay_options(modes[m]));
          if (report.is_ok()) {
            model_total += report->total_seconds;
            predicted_total += predicted[p * modes.size() + m];
            auto bytes = vfs::read_file((root / pairs[p].b / final_name).string());
            if (bytes.is_ok()) {
              outcome.bytes = bytes->size();
              outcome.hash = fnv1a(*bytes);
            } else {
              outcome.status = bytes.status();
            }
          } else {
            outcome.status = report.status();
          }
        }
        if (outcome.status.is_ok()) hashes.push_back(outcome.hash);
        verified += finish_op(k, start, outcome, expected,
                              specs[p].name + "/" +
                                  std::string(workflow::coupling_mode_name(modes[m])));
        std::error_code ec;
        fs::remove_all(root, ec);
      }
      // The paper's claim: the coupling changes nothing in the output. A
      // run that failed is a failed operation already, not a mismatch.
      if (hashes.size() == modes.size() && hashes.front() != hashes.back()) {
        emit("X %s", specs[p].name.c_str());
        std::fprintf(stderr, "%s: DARLAM output differs between couplings\n",
                     specs[p].name.c_str());
        coupling_mismatch = true;
      }
    }
    ++bodies;
    return verified;
  }, figures);
  return check(!coupling_mismatch, "coupling changed the DARLAM output");
}

// ---- probe self-check ---------------------------------------------------

// The net.retained_stacks probe must see one stack per connection an
// RpcServer is serving, and none once the clients have closed and the
// server has stopped and joined its workers. The clients hold their
// connections open while the stacks are counted, so the reading does not
// depend on what the server keeps of connections that have finished.
Status probe_selfcheck(const RunArgs& args) {
  constexpr int kConnections = 200;
  // Two hundred live threads would make glibc open up to 8 malloc arenas
  // per CPU, each two more mappings; one arena keeps the count to stacks.
  mallopt(M_ARENA_MAX, 1);
  Network net;
  auto server_transport = net.transport("srv");
  net::RpcServer server(*server_transport, net::inproc_endpoint("srv", "echo"));
  server.register_method(1, [](ByteSpan request, const net::RpcContext&) {
    return Result<Bytes>(Bytes(request.begin(), request.end()));
  });
  GL_RETURN_IF_ERROR(server.start());
  auto client_transport = net.transport("cli");
  ready();
  if (args.setup_only) return Status::ok();
  const long before = count_maps();
  std::vector<std::unique_ptr<net::RpcClient>> clients;
  for (int i = 0; i < kConnections; ++i) {
    clients.push_back(
        std::make_unique<net::RpcClient>(*client_transport, server.endpoint()));
    // Answered: the server accepted this connection and serves it.
    GL_RETURN_IF_ERROR(clients.back()->call(1, Bytes(8)).status());
  }
  const long serving = count_maps();
  clients.clear();
  server.stop();
  const long stopped = count_maps();
  emit_metric("selfcheck.connections", kConnections);
  emit_metric("selfcheck.retained_stacks.serving",
              static_cast<double>(serving - before) / 2.0);
  emit_metric("selfcheck.retained_stacks.stopped",
              static_cast<double>(stopped - before) / 2.0);
  return Status::ok();
}

}  // namespace

Status run_workload(const RunArgs& args) {
  if (args.trace) {
    enable();
    if (!args.spans_path.empty()) {
      GL_RETURN_IF_ERROR(g_trace.open(args.spans_path));
    }
    obs::SpanCollector::global().enable(true);
  }
  Status status = Status::ok();
  if (args.workload == "paper_replay") {
    status = paper_replay(args);
  } else if (args.workload == "buffer_stream") {
    status = buffer_stream(args);
  } else if (args.workload == "staged_fanout") {
    status = staged_fanout(args);
  } else if (args.workload == "open_storm") {
    status = open_storm(args);
  } else if (args.workload == "probe_selfcheck") {
    status = probe_selfcheck(args);
  } else {
    return invalid_argument("unknown workload " + args.workload);
  }
  obs::SpanCollector::global().enable(false);
  const Status closed = g_trace.close();
  return status.is_ok() ? closed : status;
}

}  // namespace perfbench
