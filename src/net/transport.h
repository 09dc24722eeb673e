// Message-oriented transport abstraction.
//
// Every GriddLeS service (GNS, Grid Buffer, remote file server, replica
// catalog, NWS) speaks over these interfaces, so a workflow can run on
// real loopback TCP sockets or on the modelled in-process network without
// any service code changing.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/net/endpoint.h"

namespace griddles::net {

/// A bidirectional, message-framed, reliable, ordered byte channel.
/// send() and recv() are each internally serialized; one thread may send
/// while another receives.
class Connection {
 public:
  virtual ~Connection() = default;

  /// Enqueues one message; blocks on flow control. kClosed after close.
  virtual Status send(ByteSpan message) = 0;

  /// As send(), handing the buffer over: a transport that queues whole
  /// messages (InProc) keeps it instead of copying it. The default sends
  /// a view, so a decorator that overrides only send() still works.
  virtual Status send_owned(Bytes message) { return send(message); }

  /// Blocks for the next message; kClosed on orderly shutdown.
  virtual Result<Bytes> recv() = 0;

  /// As recv(), but fails with kTimeout at the wall deadline.
  virtual Result<Bytes> recv_until(WallClock::time_point deadline) = 0;

  /// Half-closes for sending and unblocks local receivers.
  virtual void close() = 0;

  /// Diagnostic description of the remote end.
  virtual std::string peer() const = 0;
};

class Listener {
 public:
  virtual ~Listener() = default;

  /// Blocks for the next inbound connection; kClosed once shut down.
  virtual Result<std::unique_ptr<Connection>> accept() = 0;

  /// The endpoint clients should connect to (resolves ephemeral ports).
  virtual Endpoint bound_endpoint() const = 0;

  /// Stops accepting and unblocks accept().
  virtual void close() = 0;
};

/// Dials and binds endpoints. Also keeps the idle list: connections
/// whose last request/response exchange finished cleanly, parked by
/// endpoint until the next RpcClient for that endpoint takes one instead
/// of dialling. A parked connection belongs to no client; the list has
/// no cap (it never holds more than the peak number of clients that were
/// connected to one endpoint at once) and closes what it holds when the
/// transport is destroyed.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual Result<std::unique_ptr<Connection>> connect(
      const Endpoint& remote) = 0;

  virtual Result<std::unique_ptr<Listener>> listen(const Endpoint& local) = 0;

  /// The host identity this transport connects *from* (used to pick the
  /// link model for the in-process network; informational for TCP).
  virtual const std::string& local_host() const = 0;

  /// Takes the most recently parked idle connection to `remote`, or
  /// nullptr when there is none. The peer may have closed it meanwhile;
  /// the caller finds out on its first send or recv.
  std::unique_ptr<Connection> take_idle(const Endpoint& remote);

  /// Parks `conn`, which must be between exchanges (no request in
  /// flight, no reply unread), for the next take_idle(remote).
  void park_idle(const Endpoint& remote, std::unique_ptr<Connection> conn);

 private:
  Mutex idle_mu_;
  std::map<std::string, std::vector<std::unique_ptr<Connection>>> idle_
      GUARDED_BY(idle_mu_);
};

}  // namespace griddles::net
