// Minimal request/response RPC over any Transport.
//
// Frames are either raw binary (default) or SOAP/XML envelopes
// (WireFormat::kSoap) — the services are oblivious to the choice.
// A server runs one thread per connection; handlers may block (the Grid
// Buffer's read-blocks-until-written semantics depend on this). Clients
// reuse connections through their Transport's idle list, so a connection
// (and its server thread) outlives the client that dialled it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/net/admission.h"
#include "src/net/soap.h"
#include "src/net/transport.h"

namespace griddles::net {

enum class WireFormat { kBinary, kSoap };

/// Per-call server-side context.
struct RpcContext {
  std::string peer;
};

/// A handler consumes the request payload and produces a response payload
/// (or an error Status, which travels back to the caller). The request is
/// a view into the received message, valid only for the handler's call:
/// anything kept past it must be copied.
using RpcHandler = std::function<Result<Bytes>(ByteSpan, const RpcContext&)>;

class RpcServer {
 public:
  /// Does not start serving until start().
  RpcServer(Transport& transport, Endpoint bind,
            WireFormat format = WireFormat::kBinary);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Registers a handler; must happen before start(). Admitted: the
  /// request acquires `cost` units from the admission controller (and
  /// may be shed with kResourceExhausted under overload) before the
  /// handler runs.
  void register_method(std::uint16_t method, RpcHandler handler,
                       std::uint32_t cost = 1);

  /// Registers a handler that bypasses admission control. Reserved for
  /// handlers that block server-side for application reasons (Grid
  /// Buffer read-blocks-until-written) and would starve the admission
  /// queue if they held capacity; tools/lint.py flags every call site
  /// without a `// lint: no-admission (<why>)` excuse.
  void register_method_unadmitted(std::uint16_t method, RpcHandler handler);

  /// Replaces the default admission configuration; before start().
  void set_admission(AdmissionController::Options options);

  /// The server's admission controller (introspection for tests).
  AdmissionController* admission();

  /// Binds and spawns the accept loop.
  Status start();

  /// The endpoint clients should dial (resolves ephemeral TCP ports).
  Endpoint endpoint() const;

  /// Stops accepting, closes live connections, joins all threads.
  void stop();

  /// Number of currently connected clients (for tests).
  std::size_t live_connections() const;

 private:
  struct Method {
    RpcHandler handler;
    std::uint32_t cost = 1;
    bool admitted = true;
  };

  /// One accepted connection and the thread serving it.
  struct Worker {
    std::thread thread;
    std::weak_ptr<Connection> conn;
  };

  void accept_loop();
  void serve_connection(std::shared_ptr<Connection> conn);
  /// Serves `conn`, then reports worker `id` finished for the accept
  /// loop to join.
  void run_worker(std::uint64_t id, std::shared_ptr<Connection> conn);

  Transport& transport_;
  Endpoint bind_;
  WireFormat format_;

  mutable Mutex mu_;
  std::map<std::uint16_t, Method> handlers_ GUARDED_BY(mu_);
  AdmissionController::Options admission_options_ GUARDED_BY(mu_);
  std::unique_ptr<AdmissionController> admission_ GUARDED_BY(mu_);
  std::unique_ptr<Listener> listener_ GUARDED_BY(mu_);
  std::thread accept_thread_ GUARDED_BY(mu_);
  std::map<std::uint64_t, Worker> workers_ GUARDED_BY(mu_);
  // Workers whose thread has finished serving but is not yet joined.
  std::vector<std::uint64_t> finished_ GUARDED_BY(mu_);
  std::uint64_t next_worker_ GUARDED_BY(mu_) = 0;
  bool started_ GUARDED_BY(mu_) = false;
  std::atomic<bool> stopping_{false};
};

/// Synchronous RPC client. One outstanding call at a time per client;
/// create several clients for concurrency. The first call takes an idle
/// connection from the transport (or dials one); the destructor parks it
/// back when its last exchange finished cleanly. Reconnects once, with a
/// fresh dial, on a broken connection.
class RpcClient {
 public:
  RpcClient(Transport& transport, Endpoint server,
            WireFormat format = WireFormat::kBinary);
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Calls `method`; the returned bytes are the handler's response
  /// payload. Handler errors come back as their original Status.
  Result<Bytes> call(std::uint16_t method, ByteSpan request);

  /// As call(), failing with kTimeout at the wall deadline.
  Result<Bytes> call_until(std::uint16_t method, ByteSpan request,
                           WallClock::time_point deadline);

  const Endpoint& server() const noexcept { return server_; }

  /// Closes the connection (next call dials afresh).
  void reset_connection();

 private:
  Result<Bytes> call_impl(std::uint16_t method, ByteSpan request,
                          const WallClock::time_point* deadline);
  Result<Bytes> call_once(std::uint16_t method, ByteSpan request,
                          const WallClock::time_point* deadline) REQUIRES(mu_);
  /// Takes an idle connection when `reuse`, else (or when none) dials.
  Status ensure_connected(bool reuse) REQUIRES(mu_);
  /// Closes the connection so it is never parked: after a failed, timed
  /// out or out-of-sequence exchange its stream may still carry a reply.
  void drop_connection() REQUIRES(mu_);

  Transport& transport_;
  Endpoint server_;
  WireFormat format_;
  const std::string fault_key_;  // "src>dst" pair for fault-plan consults
  const std::uint64_t fault_key_hash_;  // its retry-budget key
  // call_impl() consults the armed fault plan and bumps retry metrics
  // under the client lock (backoff sleeps release it).
  Mutex mu_ ACQUIRED_BEFORE("Plan::mu_", "MetricsRegistry::mu_",
                            "Transport::idle_mu_");
  std::unique_ptr<Connection> conn_ GUARDED_BY(mu_);
  std::uint64_t next_id_ GUARDED_BY(mu_) = 1;
};

/// Encodes `frame`'s header with `payload` as its body (frame.payload is
/// not read) into one buffer sized up front.
Bytes encode_frame(const RpcFrame& frame, ByteSpan payload, WireFormat format);

/// Decodes a frame's header into `frame` and returns its payload without
/// copying it: a binary payload is a view into `data`; a SOAP body is
/// base64, so it is decoded into frame.payload and the view is of that.
/// The view is valid while both `data` and `frame` are.
Result<ByteSpan> decode_frame_view(ByteSpan data, WireFormat format,
                                   RpcFrame& frame);

/// Owning forms of the two above (the codec ablation bench and
/// fuzz-style tests use them).
Bytes encode_frame(const RpcFrame& frame, WireFormat format);
Result<RpcFrame> decode_frame(ByteSpan data, WireFormat format);

}  // namespace griddles::net
