// Tests for endpoints, transports (in-process and TCP), link shaping,
// RPC, and the SOAP codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/net/endpoint.h"
#include "src/net/inproc.h"
#include "src/net/rpc.h"
#include "src/net/soap.h"
#include "src/net/tcp.h"
#include "src/obs/metrics.h"
#include "src/xdr/codec.h"
#include "tests/test_scaling.h"

namespace griddles::net {
namespace {

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// Lines in /proc/self/maps: each thread stack still held is two.
long count_maps() {
  std::ifstream maps("/proc/self/maps");
  long lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

/// Threads of this process, live or not yet joined.
long count_threads() {
  long threads = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++threads;
  }
  return threads;
}

/// Waits (up to 2 s) for the thread count to fall to `expected`: a
/// joined thread can stay listed in /proc/self/task for a moment.
long await_threads(long expected) {
  const auto give_up = WallClock::now() + std::chrono::seconds(2);
  long threads = count_threads();
  while (threads > expected && WallClock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    threads = count_threads();
  }
  return threads;
}

/// Registers method 1 (echo) on `server`.
void register_echo(RpcServer& server) {
  server.register_method(1, [](ByteSpan request, const RpcContext&)
                                -> Result<Bytes> {
    return Bytes(request.begin(), request.end());
  });
}

TEST(EndpointTest, ParsesInproc) {
  auto ep = Endpoint::parse("inproc://dione/gns");
  ASSERT_TRUE(ep.is_ok());
  EXPECT_EQ(ep->scheme, "inproc");
  EXPECT_EQ(ep->host, "dione");
  EXPECT_EQ(ep->service, "gns");
  EXPECT_EQ(ep->to_string(), "inproc://dione/gns");
}

TEST(EndpointTest, ParsesTcp) {
  auto ep = Endpoint::parse("tcp://127.0.0.1:9031");
  ASSERT_TRUE(ep.is_ok());
  EXPECT_TRUE(ep->is_tcp());
  EXPECT_EQ(ep->port().value(), 9031);
  EXPECT_EQ(ep->to_string(), "tcp://127.0.0.1:9031");
}

TEST(EndpointTest, RejectsMalformed) {
  EXPECT_FALSE(Endpoint::parse("dione/gns").is_ok());
  EXPECT_FALSE(Endpoint::parse("inproc://nohost").is_ok());
  EXPECT_FALSE(Endpoint::parse("tcp://1.2.3.4").is_ok());
  EXPECT_FALSE(Endpoint::parse("tcp://h:99999").is_ok());
}

TEST(InProcTest, ConnectSendReceive) {
  RealClock clock;
  InProcNetwork network(clock);
  auto server_t = network.transport("dione");
  auto client_t = network.transport("jagan");

  auto listener = server_t->listen(inproc_endpoint("dione", "echo"));
  ASSERT_TRUE(listener.is_ok());

  std::thread server([&] {
    auto conn = (*listener)->accept();
    ASSERT_TRUE(conn.is_ok());
    auto msg = (*conn)->recv();
    ASSERT_TRUE(msg.is_ok());
    ASSERT_TRUE((*conn)->send(*msg).is_ok());
  });

  auto conn = client_t->connect(inproc_endpoint("dione", "echo"));
  ASSERT_TRUE(conn.is_ok());
  ASSERT_TRUE((*conn)->send(as_bytes_view("ping")).is_ok());
  auto reply = (*conn)->recv();
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(to_string(*reply), "ping");
  server.join();
}

TEST(InProcTest, OwnedSendHandsOverTheBuffer) {
  RealClock clock;
  InProcNetwork network(clock);
  auto server_t = network.transport("dione");
  auto client_t = network.transport("jagan");
  auto listener = server_t->listen(inproc_endpoint("dione", "sink"));
  ASSERT_TRUE(listener.is_ok());
  auto conn = client_t->connect(inproc_endpoint("dione", "sink"));
  ASSERT_TRUE(conn.is_ok());
  auto accepted = (*listener)->accept();
  ASSERT_TRUE(accepted.is_ok());

  Bytes message = to_bytes("block");
  const std::byte* sent = message.data();
  ASSERT_TRUE((*conn)->send_owned(std::move(message)).is_ok());
  auto received = (*accepted)->recv();
  ASSERT_TRUE(received.is_ok());
  EXPECT_EQ(received->data(), sent);  // moved through the queue, no copy
  EXPECT_EQ(to_string(*received), "block");
}

TEST(InProcTest, ConnectToMissingServiceFails) {
  RealClock clock;
  InProcNetwork network(clock);
  auto transport = network.transport("dione");
  auto conn = transport->connect(inproc_endpoint("dione", "ghost"));
  EXPECT_FALSE(conn.is_ok());
  EXPECT_EQ(conn.status().code(), ErrorCode::kUnavailable);
}

TEST(InProcTest, DuplicateBindRejected) {
  RealClock clock;
  InProcNetwork network(clock);
  auto transport = network.transport("dione");
  auto first = transport->listen(inproc_endpoint("dione", "svc"));
  ASSERT_TRUE(first.is_ok());
  auto second = transport->listen(inproc_endpoint("dione", "svc"));
  EXPECT_FALSE(second.is_ok());
  (*first)->close();
}

TEST(InProcTest, RecvTimesOut) {
  RealClock clock;
  InProcNetwork network(clock);
  auto transport = network.transport("dione");
  auto listener = transport->listen(inproc_endpoint("dione", "slow"));
  ASSERT_TRUE(listener.is_ok());
  auto conn = transport->connect(inproc_endpoint("dione", "slow"));
  ASSERT_TRUE(conn.is_ok());
  auto got = (*conn)->recv_until(WallClock::now() +
                                 std::chrono::milliseconds(30));
  EXPECT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), ErrorCode::kTimeout);
}

TEST(InProcTest, CloseUnblocksReceiver) {
  RealClock clock;
  InProcNetwork network(clock);
  auto transport = network.transport("dione");
  auto listener = transport->listen(inproc_endpoint("dione", "c"));
  ASSERT_TRUE(listener.is_ok());
  auto client = transport->connect(inproc_endpoint("dione", "c"));
  ASSERT_TRUE(client.is_ok());
  auto server = (*listener)->accept();
  ASSERT_TRUE(server.is_ok());
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    (*client)->close();
  });
  auto got = (*server)->recv();
  EXPECT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), ErrorCode::kClosed);
  closer.join();
}

TEST(LinkModelTest, TransmitTimeScalesWithSize) {
  LinkModel model;
  model.bandwidth_bytes_per_sec = 1e6;
  model.latency = std::chrono::milliseconds(10);
  EXPECT_EQ(model.transmit_time(1000000), std::chrono::seconds(1));
}

TEST(LinkModelTest, ShaperSerializesMessages) {
  LinkModel model;
  model.bandwidth_bytes_per_sec = 1000;  // 1 KB/s
  model.latency = from_seconds_d(0.5);
  LinkShaper shaper(model);
  // Two 1000-byte messages sent at t=0: first arrives at 1.5s, second
  // queues behind it and arrives at 2.5s.
  const Duration first = shaper.arrival_time(Duration::zero(), 1000);
  const Duration second = shaper.arrival_time(Duration::zero(), 1000);
  EXPECT_NEAR(to_seconds_d(first), 1.5, 1e-9);
  EXPECT_NEAR(to_seconds_d(second), 2.5, 1e-9);
}

TEST(LinkTableTest, SymmetricAndDefault) {
  LinkTable table;
  LinkModel wan;
  wan.latency = from_seconds_d(0.1);
  table.set_link("a", "b", wan);
  EXPECT_EQ(table.lookup("a", "b").latency, from_seconds_d(0.1));
  EXPECT_EQ(table.lookup("b", "a").latency, from_seconds_d(0.1));
  EXPECT_EQ(table.lookup("a", "c").latency, Duration::zero());
  EXPECT_EQ(table.lookup("a", "a").latency, Duration::zero());
}

TEST(InProcTest, ScaledLinkDelaysDelivery) {
  // 1 model second = 5 wall ms. Link latency 2 model seconds.
  ScaledClock clock(0.005);
  InProcNetwork network(clock);
  LinkModel model;
  model.latency = std::chrono::seconds(2);
  network.links().set_link("a", "b", model);
  auto ta = network.transport("a");
  auto tb = network.transport("b");
  auto listener = tb->listen(inproc_endpoint("b", "svc"));
  ASSERT_TRUE(listener.is_ok());
  auto client = ta->connect(inproc_endpoint("b", "svc"));
  ASSERT_TRUE(client.is_ok());
  auto server = (*listener)->accept();
  ASSERT_TRUE(server.is_ok());

  const Duration sent_at = clock.now();
  ASSERT_TRUE((*client)->send(as_bytes_view("x")).is_ok());
  auto got = (*server)->recv();
  ASSERT_TRUE(got.is_ok());
  const double elapsed_model = to_seconds_d(clock.now() - sent_at);
  EXPECT_GE(elapsed_model, 1.9);
  EXPECT_LT(elapsed_model, 10.0);
}

TEST(InProcTest, ParallelConnectionsShareOneLink) {
  // Two concurrent bulk sends between the same host pair must divide
  // the link's bandwidth, not each get a full copy of it (this is what
  // keeps GridFTP-style parallel streams honest on a modelled WAN).
  // 1 model s = 10 wall ms, so connect/thread overhead (~2 ms wall)
  // stays small against the 2-model-second transfers under test
  // (sanitizer builds run the clock slower for the same reason).
  ScaledClock clock(0.01 * test_support::kClockScale);
  InProcNetwork network(clock);
  LinkModel model;
  model.bandwidth_bytes_per_sec = 1e6;  // 1 MB/s
  network.links().set_link("a", "b", model);
  auto ta = network.transport("a");
  auto tb = network.transport("b");
  auto listener = tb->listen(inproc_endpoint("b", "bulk"));
  ASSERT_TRUE(listener.is_ok());

  auto run_transfer = [&](Bytes payload) {
    auto client = ta->connect(inproc_endpoint("b", "bulk"));
    ASSERT_TRUE(client.is_ok());
    auto server = (*listener)->accept();
    ASSERT_TRUE(server.is_ok());
    std::thread sender([&, payload = std::move(payload)] {
      ASSERT_TRUE((*client)->send(payload).is_ok());
    });
    auto got = (*server)->recv();
    ASSERT_TRUE(got.is_ok());
    sender.join();
  };

  // Single 2 MB transfer: ~2 model seconds.
  const Duration solo_start = clock.now();
  run_transfer(Bytes(2000000));
  const double solo = to_seconds_d(clock.now() - solo_start);
  EXPECT_NEAR(solo, 2.0, 1.0);

  // Two concurrent 2 MB transfers: the shared link serializes them to
  // ~4 model seconds total (per-connection shapers would finish in ~2).
  const Duration pair_start = clock.now();
  std::thread other([&] { run_transfer(Bytes(2000000)); });
  run_transfer(Bytes(2000000));
  other.join();
  const double pair = to_seconds_d(clock.now() - pair_start);
  EXPECT_GT(pair, 3.2);
}

TEST(InProcTest, LinkWeatherChangeAffectsLiveConnections) {
  ScaledClock clock(0.001);
  InProcNetwork network(clock);
  LinkModel fast;
  fast.bandwidth_bytes_per_sec = 100e6;
  network.links().set_link("a", "b", fast);
  auto ta = network.transport("a");
  auto tb = network.transport("b");
  auto listener = tb->listen(inproc_endpoint("b", "w"));
  ASSERT_TRUE(listener.is_ok());
  auto client = ta->connect(inproc_endpoint("b", "w"));
  ASSERT_TRUE(client.is_ok());
  auto server = (*listener)->accept();
  ASSERT_TRUE(server.is_ok());

  // Fast round first.
  ASSERT_TRUE((*client)->send(Bytes(1000000)).is_ok());
  ASSERT_TRUE((*server)->recv().is_ok());

  // The link degrades mid-connection; the SAME connection slows down.
  LinkModel slow;
  slow.bandwidth_bytes_per_sec = 0.5e6;  // 2 model s for 1 MB
  network.links().set_link("a", "b", slow);
  const Duration start = clock.now();
  std::thread sender([&] { ASSERT_TRUE((*client)->send(Bytes(1000000)).is_ok()); });
  ASSERT_TRUE((*server)->recv().is_ok());
  sender.join();
  EXPECT_GT(to_seconds_d(clock.now() - start), 1.2);
}

TEST(LinkTableTest, VersionBumpsOnMutation) {
  LinkTable table;
  const auto v0 = table.version();
  table.set_link("a", "b", LinkModel{});
  EXPECT_GT(table.version(), v0);
  const auto v1 = table.version();
  table.set_default(LinkModel{});
  EXPECT_GT(table.version(), v1);
}

TEST(TcpTest, LoopbackEcho) {
  TcpTransport transport;
  auto listener = transport.listen(tcp_endpoint("127.0.0.1", 0));
  ASSERT_TRUE(listener.is_ok());
  const Endpoint bound = (*listener)->bound_endpoint();
  EXPECT_GT(bound.port().value(), 0);

  std::thread server([&] {
    auto conn = (*listener)->accept();
    ASSERT_TRUE(conn.is_ok());
    auto msg = (*conn)->recv();
    ASSERT_TRUE(msg.is_ok());
    ASSERT_TRUE((*conn)->send(*msg).is_ok());
  });

  auto conn = transport.connect(bound);
  ASSERT_TRUE(conn.is_ok());
  Bytes big(100000, std::byte{0x5A});
  ASSERT_TRUE((*conn)->send(big).is_ok());
  auto reply = (*conn)->recv();
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(*reply, big);
  server.join();
}

TEST(TcpTest, RecvTimesOut) {
  TcpTransport transport;
  auto listener = transport.listen(tcp_endpoint("127.0.0.1", 0));
  ASSERT_TRUE(listener.is_ok());
  auto conn = transport.connect((*listener)->bound_endpoint());
  ASSERT_TRUE(conn.is_ok());
  auto got = (*conn)->recv_until(WallClock::now() +
                                 std::chrono::milliseconds(50));
  EXPECT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), ErrorCode::kTimeout);
}

TEST(TcpTest, ConnectRefused) {
  TcpTransport transport;
  // Grab an ephemeral port, close it, then dial it.
  auto listener = transport.listen(tcp_endpoint("127.0.0.1", 0));
  ASSERT_TRUE(listener.is_ok());
  const Endpoint bound = (*listener)->bound_endpoint();
  (*listener)->close();
  auto conn = transport.connect(bound);
  EXPECT_FALSE(conn.is_ok());
}

TEST(SoapTest, Base64RoundTrip) {
  for (const std::string text :
       {"", "a", "ab", "abc", "abcd", "hello grid world"}) {
    auto decoded = base64_decode(base64_encode(as_bytes_view(text)));
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_EQ(to_string(*decoded), text);
  }
  EXPECT_FALSE(base64_decode("not*base64!").is_ok());
}

TEST(SoapTest, FrameRoundTrip) {
  RpcFrame frame;
  frame.kind = FrameKind::kResponse;
  frame.id = 12345;
  frame.method = 7;
  frame.status = not_found("no <such> & channel");
  frame.payload = to_bytes("binary \x01\x02 payload");
  auto decoded = soap_decode(soap_encode(frame, frame.payload));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded->kind, frame.kind);
  EXPECT_EQ(decoded->id, frame.id);
  EXPECT_EQ(decoded->method, frame.method);
  EXPECT_EQ(decoded->status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(decoded->status.message(), "no <such> & channel");
  EXPECT_EQ(decoded->payload, frame.payload);
}

TEST(SoapTest, RejectsMalformedEnvelope) {
  EXPECT_FALSE(soap_decode(as_bytes_view("<xml>nope</xml>")).is_ok());
}

TEST(RpcFrameTest, BinaryRoundTrip) {
  RpcFrame frame;
  frame.kind = FrameKind::kRequest;
  frame.id = 99;
  frame.method = 3;
  frame.payload = to_bytes("req");
  auto decoded = decode_frame(encode_frame(frame, WireFormat::kBinary),
                              WireFormat::kBinary);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded->id, 99u);
  EXPECT_EQ(decoded->method, 3);
  EXPECT_EQ(to_string(decoded->payload), "req");
}

/// A frame with every header field set, carrying `payload`.
RpcFrame full_frame(Status status, Bytes payload) {
  RpcFrame frame;
  frame.kind = FrameKind::kResponse;
  frame.id = 0x0102030405060708ULL;
  frame.method = 0x0A0B;
  frame.trace_id = 0x1112131415161718ULL;
  frame.span_id = 0x2122232425262728ULL;
  frame.deadline_us = 1500000;
  frame.status = std::move(status);
  frame.payload = std::move(payload);
  return frame;
}

TEST(RpcFrameTest, GoldenBinaryEncoding) {
  // Captured from the codec before frames were encoded from a payload
  // span into one buffer sized up front: the wire format is unchanged.
  const std::string golden =
      "0101020304050607080a0b111213141516171821222324252627280000000000"
      "16e3600000000200000004676f6e6500000004626c6b01";
  const Bytes wire = encode_frame(full_frame(not_found("gone"),
                                             to_bytes("blk\x01")),
                                  WireFormat::kBinary);
  std::string hex;
  for (const std::byte b : wire) {
    hex += "0123456789abcdef"[static_cast<unsigned>(b) >> 4];
    hex += "0123456789abcdef"[static_cast<unsigned>(b) & 0xF];
  }
  EXPECT_EQ(hex, golden);
}

TEST(RpcFrameTest, ViewDecodeMatchesOwningDecode) {
  for (const WireFormat format : {WireFormat::kBinary, WireFormat::kSoap}) {
    for (const std::size_t size : {std::size_t{0}, std::size_t{4096},
                                   std::size_t{1} << 20}) {
      for (const Status& status :
           {Status::ok(), unavailable("shed <under> & load")}) {
        Bytes payload(size);
        for (std::size_t i = 0; i < size; ++i) {
          payload[i] = static_cast<std::byte>((i * 131 + size) & 0xFF);
        }
        const RpcFrame frame = full_frame(status, payload);
        const Bytes wire = encode_frame(frame, payload, format);
        EXPECT_EQ(wire, encode_frame(frame, format));

        auto owned = decode_frame(wire, format);
        ASSERT_TRUE(owned.is_ok());
        RpcFrame header;
        auto view = decode_frame_view(wire, format, header);
        ASSERT_TRUE(view.is_ok());
        for (const RpcFrame* decoded : {&*owned, &header}) {
          EXPECT_EQ(decoded->kind, frame.kind);
          EXPECT_EQ(decoded->id, frame.id);
          EXPECT_EQ(decoded->method, frame.method);
          EXPECT_EQ(decoded->trace_id, frame.trace_id);
          EXPECT_EQ(decoded->span_id, frame.span_id);
          EXPECT_EQ(decoded->deadline_us, frame.deadline_us);
          EXPECT_EQ(decoded->status.code(), status.code());
          EXPECT_EQ(decoded->status.message(), status.message());
        }
        EXPECT_EQ(owned->payload, payload);
        EXPECT_TRUE(std::equal(view->begin(), view->end(), payload.begin(),
                               payload.end()));
        if (format == WireFormat::kBinary && size > 0) {
          // The binary view aliases the wire bytes.
          EXPECT_EQ(view->data() + view->size(), wire.data() + wire.size());
        }
      }
    }
  }
}

class RpcTest : public ::testing::TestWithParam<WireFormat> {};

TEST_P(RpcTest, EchoBuildsReplyFromRequestView) {
  // The handler builds its reply from the request view; under ASan a view
  // that outlived its message would be reported here.
  RealClock clock;
  InProcNetwork network(clock);
  auto server_t = network.transport("dione");
  auto client_t = network.transport("jagan");
  RpcServer server(*server_t, inproc_endpoint("dione", "echo"), GetParam());
  register_echo(server);
  ASSERT_TRUE(server.start().is_ok());
  RpcClient client(*client_t, server.endpoint(), GetParam());
  for (const std::size_t size : {std::size_t{0}, std::size_t{4096},
                                 std::size_t{1} << 20}) {
    Bytes request(size);
    for (std::size_t i = 0; i < size; ++i) {
      request[i] = static_cast<std::byte>((i * 7 + 3) & 0xFF);
    }
    auto reply = client.call(1, request);
    ASSERT_TRUE(reply.is_ok());
    EXPECT_EQ(*reply, request);
  }
  server.stop();
}

/// Forwards to an inner connection, overriding only send(ByteSpan) —
/// the shape of a timing decorator written before send_owned() existed.
class ViewSendConnection final : public Connection {
 public:
  ViewSendConnection(std::unique_ptr<Connection> inner,
                     std::atomic<int>& sends)
      : inner_(std::move(inner)), sends_(sends) {}
  Status send(ByteSpan message) override {
    ++sends_;
    return inner_->send(message);
  }
  Result<Bytes> recv() override { return inner_->recv(); }
  Result<Bytes> recv_until(WallClock::time_point deadline) override {
    return inner_->recv_until(deadline);
  }
  void close() override { inner_->close(); }
  std::string peer() const override { return inner_->peer(); }

 private:
  std::unique_ptr<Connection> inner_;
  std::atomic<int>& sends_;
};

class ViewSendListener final : public Listener {
 public:
  ViewSendListener(std::unique_ptr<Listener> inner, std::atomic<int>& sends)
      : inner_(std::move(inner)), sends_(sends) {}
  Result<std::unique_ptr<Connection>> accept() override {
    GL_ASSIGN_OR_RETURN(auto conn, inner_->accept());
    return std::unique_ptr<Connection>(
        std::make_unique<ViewSendConnection>(std::move(conn), sends_));
  }
  Endpoint bound_endpoint() const override {
    return inner_->bound_endpoint();
  }
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<Listener> inner_;
  std::atomic<int>& sends_;
};

class ViewSendTransport final : public Transport {
 public:
  ViewSendTransport(std::unique_ptr<Transport> inner, std::atomic<int>& sends)
      : inner_(std::move(inner)), sends_(sends) {}
  Result<std::unique_ptr<Connection>> connect(const Endpoint& remote) override {
    GL_ASSIGN_OR_RETURN(auto conn, inner_->connect(remote));
    return std::unique_ptr<Connection>(
        std::make_unique<ViewSendConnection>(std::move(conn), sends_));
  }
  Result<std::unique_ptr<Listener>> listen(const Endpoint& local) override {
    GL_ASSIGN_OR_RETURN(auto listener, inner_->listen(local));
    return std::unique_ptr<Listener>(
        std::make_unique<ViewSendListener>(std::move(listener), sends_));
  }
  const std::string& local_host() const override {
    return inner_->local_host();
  }

 private:
  std::unique_ptr<Transport> inner_;
  std::atomic<int>& sends_;
};

TEST_P(RpcTest, DecoratorOverridingOnlySendCarriesRpcs) {
  RealClock clock;
  InProcNetwork network(clock);
  std::atomic<int> sends{0};
  ViewSendTransport server_t(network.transport("dione"), sends);
  ViewSendTransport client_t(network.transport("jagan"), sends);
  RpcServer server(server_t, inproc_endpoint("dione", "echo"), GetParam());
  register_echo(server);
  ASSERT_TRUE(server.start().is_ok());
  {
    RpcClient client(client_t, server.endpoint(), GetParam());
    const Bytes request(4096, std::byte{0x5A});
    for (int i = 0; i < 3; ++i) {
      auto reply = client.call(1, request);
      ASSERT_TRUE(reply.is_ok());
      EXPECT_EQ(*reply, request);
    }
  }
  EXPECT_EQ(sends.load(), 6);  // each request and reply went through send()
  server.stop();
}

TEST_P(RpcTest, CallAndHandlerError) {
  RealClock clock;
  InProcNetwork network(clock);
  auto server_t = network.transport("dione");
  auto client_t = network.transport("jagan");

  RpcServer server(*server_t, inproc_endpoint("dione", "svc"), GetParam());
  server.register_method(1, [](ByteSpan request, const RpcContext&)
                                -> Result<Bytes> {
    Bytes out(request.begin(), request.end());
    std::reverse(out.begin(), out.end());
    return out;
  });
  server.register_method(2, [](ByteSpan, const RpcContext&)
                                -> Result<Bytes> {
    return not_found("nothing here");
  });
  ASSERT_TRUE(server.start().is_ok());

  RpcClient client(*client_t, server.endpoint(), GetParam());
  auto reply = client.call(1, as_bytes_view("abc"));
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(to_string(*reply), "cba");

  auto error = client.call(2, {});
  EXPECT_FALSE(error.is_ok());
  EXPECT_EQ(error.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(error.status().message(), "nothing here");

  auto missing = client.call(42, {});
  EXPECT_FALSE(missing.is_ok());
  EXPECT_EQ(missing.status().code(), ErrorCode::kUnimplemented);

  server.stop();
}

INSTANTIATE_TEST_SUITE_P(WireFormats, RpcTest,
                         ::testing::Values(WireFormat::kBinary,
                                           WireFormat::kSoap),
                         [](const auto& info) {
                           return info.param == WireFormat::kBinary
                                      ? "Binary"
                                      : "Soap";
                         });

TEST(RpcServerTest, ManyConcurrentClients) {
  RealClock clock;
  InProcNetwork network(clock);
  auto server_t = network.transport("dione");
  RpcServer server(*server_t, inproc_endpoint("dione", "adder"));
  server.register_method(1, [](ByteSpan request, const RpcContext&)
                                -> Result<Bytes> {
    xdr::Decoder dec(request);
    GL_ASSIGN_OR_RETURN(const std::uint64_t v, dec.u64());
    xdr::Encoder enc;
    enc.put_u64(v + 1);
    return std::move(enc).take();
  });
  ASSERT_TRUE(server.start().is_ok());

  constexpr int kThreads = 8;
  constexpr int kCalls = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto transport = network.transport("jagan");
      RpcClient client(*transport, server.endpoint());
      for (int i = 0; i < kCalls; ++i) {
        xdr::Encoder enc;
        enc.put_u64(static_cast<std::uint64_t>(t * kCalls + i));
        auto reply = client.call(1, enc.buffer());
        if (!reply.is_ok()) {
          ++failures;
          continue;
        }
        xdr::Decoder dec(*reply);
        if (dec.u64().value() !=
            static_cast<std::uint64_t>(t * kCalls + i) + 1) {
          ++failures;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures, 0);
  server.stop();
}

TEST(RpcServerTest, StopUnblocksAndRejects) {
  RealClock clock;
  InProcNetwork network(clock);
  auto server_t = network.transport("dione");
  auto client_t = network.transport("jagan");
  auto server = std::make_unique<RpcServer>(
      *server_t, inproc_endpoint("dione", "stoppable"));
  server->register_method(1, [](ByteSpan, const RpcContext&)
                                 -> Result<Bytes> { return Bytes{}; });
  ASSERT_TRUE(server->start().is_ok());
  RpcClient client(*client_t, server->endpoint());
  ASSERT_TRUE(client.call(1, {}).is_ok());
  server->stop();
  auto after = client.call(1, {});
  EXPECT_FALSE(after.is_ok());
}

TEST(RpcOverTcpTest, EndToEnd) {
  TcpTransport transport;
  RpcServer server(transport, tcp_endpoint("127.0.0.1", 0));
  server.register_method(9, [](ByteSpan request, const RpcContext&)
                                -> Result<Bytes> {
    return Bytes(request.begin(), request.end());
  });
  ASSERT_TRUE(server.start().is_ok());
  RpcClient client(transport, server.endpoint());
  auto reply = client.call(9, as_bytes_view("over tcp"));
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(to_string(*reply), "over tcp");
  server.stop();
}

TEST(RpcClientTest, TimedOutCallDoesNotLeaveItsReplyForTheNextCall) {
  RealClock clock;
  InProcNetwork network(clock);
  auto server_t = network.transport("dione");
  auto client_t = network.transport("jagan");
  RpcServer server(*server_t, inproc_endpoint("dione", "slow"));
  register_echo(server);
  server.register_method(2, [](ByteSpan, const RpcContext&) -> Result<Bytes> {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return to_bytes("late");
  });
  ASSERT_TRUE(server.start().is_ok());

  RpcClient client(*client_t, server.endpoint());
  auto slow = client.call_until(
      2, {}, WallClock::now() + std::chrono::milliseconds(20));
  ASSERT_FALSE(slow.is_ok());
  EXPECT_EQ(slow.status().code(), ErrorCode::kTimeout);
  // The late reply to the timed-out call must not answer this one.
  auto next = client.call(1, as_bytes_view("fresh"));
  ASSERT_TRUE(next.is_ok()) << next.status();
  EXPECT_EQ(to_string(*next), "fresh");
  server.stop();
}

TEST(RpcClientTest, ReusesIdleConnectionOfAnEarlierClient) {
  RealClock clock;
  InProcNetwork network(clock);
  auto server_t = network.transport("dione");
  auto client_t = network.transport("jagan");
  RpcServer server(*server_t, inproc_endpoint("dione", "reuse"));
  register_echo(server);
  ASSERT_TRUE(server.start().is_ok());

  const std::uint64_t connects = counter_value("rpc.client.connects");
  const std::uint64_t reused = counter_value("rpc.client.connections.reused");
  for (int i = 0; i < 20; ++i) {
    RpcClient client(*client_t, server.endpoint());
    ASSERT_TRUE(client.call(1, as_bytes_view("x")).is_ok());
  }
  EXPECT_EQ(counter_value("rpc.client.connects") - connects, 1u);
  EXPECT_EQ(counter_value("rpc.client.connections.reused") - reused, 19u);
  EXPECT_EQ(server.live_connections(), 1u);
  server.stop();
}

TEST(RpcClientTest, ConcurrentClientsGetDistinctConnections) {
  RealClock clock;
  InProcNetwork network(clock);
  auto server_t = network.transport("dione");
  auto client_t = network.transport("jagan");
  RpcServer server(*server_t, inproc_endpoint("dione", "barrier"));
  register_echo(server);
  // Each call waits until kClients calls are in their handlers at once,
  // which only happens when no two clients share a connection (a server
  // thread runs one request of its connection at a time).
  constexpr int kClients = 4;
  std::atomic<int> arrived{0};
  server.register_method(2, [&](ByteSpan, const RpcContext&)
                                -> Result<Bytes> {
    ++arrived;
    const auto give_up = WallClock::now() + std::chrono::seconds(10);
    while (arrived.load() < kClients) {
      if (WallClock::now() > give_up) return timeout_error("barrier");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Bytes{};
  });
  ASSERT_TRUE(server.start().is_ok());
  {
    // One idle connection up front: one client takes it, the rest must
    // dial rather than share it.
    RpcClient warm(*client_t, server.endpoint());
    ASSERT_TRUE(warm.call(1, {}).is_ok());
  }
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      RpcClient client(*client_t, server.endpoint());
      if (!client.call(2, {}).is_ok()) ++failures;
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(server.live_connections(), static_cast<std::size_t>(kClients));
  server.stop();
}

/// Parks `count` idle connections from `client_t` to `endpoint`, kills
/// them all with `restart`, and checks that each of `count + 1`
/// sequential clients still gets its call through.
void expect_calls_survive_restart(Transport& client_t,
                                  const Endpoint& endpoint,
                                  const std::function<void()>& restart,
                                  int count) {
  {
    std::vector<std::unique_ptr<RpcClient>> clients;
    for (int i = 0; i < count; ++i) {
      clients.push_back(std::make_unique<RpcClient>(client_t, endpoint));
      ASSERT_TRUE(clients.back()->call(1, as_bytes_view("warm")).is_ok());
    }
  }
  restart();
  const std::uint64_t reused = counter_value("rpc.client.connections.reused");
  for (int i = 0; i <= count; ++i) {
    RpcClient client(client_t, endpoint);
    auto reply = client.call(1, as_bytes_view("after restart"));
    ASSERT_TRUE(reply.is_ok()) << "call " << i << ": " << reply.status();
    EXPECT_EQ(to_string(*reply), "after restart");
  }
  // Every call first took an idle connection: the dead ones, then the
  // fresh one each replacement parked.
  EXPECT_EQ(counter_value("rpc.client.connections.reused") - reused,
            static_cast<std::uint64_t>(count + 1));
}

TEST(RpcClientTest, DeadIdleConnectionsToRestartedInProcServerAreReplaced) {
  RealClock clock;
  InProcNetwork network(clock);
  auto server_t = network.transport("dione");
  auto client_t = network.transport("jagan");
  auto server =
      std::make_unique<RpcServer>(*server_t, inproc_endpoint("dione", "re"));
  register_echo(*server);
  ASSERT_TRUE(server->start().is_ok());
  const Endpoint endpoint = server->endpoint();
  expect_calls_survive_restart(
      *client_t, endpoint,
      [&] {
        server->stop();
        ASSERT_TRUE(server->start().is_ok());
      },
      /*count=*/3);
  server->stop();
}

TEST(RpcClientTest, DeadIdleConnectionsToRestartedTcpServerAreReplaced) {
  TcpTransport transport;
  auto server =
      std::make_unique<RpcServer>(transport, tcp_endpoint("127.0.0.1", 0));
  register_echo(*server);
  ASSERT_TRUE(server->start().is_ok());
  // The replacement binds the same port, so the dead connections and the
  // new server share one idle-list key.
  const Endpoint endpoint = server->endpoint();
  expect_calls_survive_restart(
      transport, endpoint,
      [&] {
        server->stop();
        server = std::make_unique<RpcServer>(transport, endpoint);
        register_echo(*server);
        ASSERT_TRUE(server->start().is_ok());
      },
      /*count=*/3);
  server->stop();
}

TEST(RpcServerTest, JoinsThreadsOfFinishedConnections) {
  RealClock clock;
  InProcNetwork network(clock);
  auto server_t = network.transport("dione");
  RpcServer server(*server_t, inproc_endpoint("dione", "churn"));
  register_echo(server);
  ASSERT_TRUE(server.start().is_ok());
  const long threads_serving_none = count_threads();
  const long maps_before = count_maps();
  constexpr int kConnections = 500;
  for (int i = 0; i < kConnections; ++i) {
    // A transport of its own per cycle: its idle list, and with it the
    // connection, is gone at the end of the iteration.
    auto client_t = network.transport("jagan");
    RpcClient client(*client_t, server.endpoint());
    ASSERT_TRUE(client.call(1, as_bytes_view("x")).is_ok());
  }
  const long grown = count_maps() - maps_before;
  EXPECT_LT(grown, kConnections / 5)
      << "maps grew by " << grown << " over " << kConnections
      << " connections";
  server.stop();
  EXPECT_EQ(server.live_connections(), 0u);
  // The accept thread and every connection thread are gone.
  EXPECT_LE(await_threads(threads_serving_none - 1),
            threads_serving_none - 1);
}

TEST(RpcServerTest, StopJoinsThreadsOfLiveAndIdleConnections) {
  RealClock clock;
  InProcNetwork network(clock);
  auto server_t = network.transport("dione");
  auto client_t = network.transport("jagan");
  const long threads_before = count_threads();
  RpcServer server(*server_t, inproc_endpoint("dione", "joined"));
  register_echo(server);
  std::atomic<bool> handler_started{false};
  std::atomic<bool> handler_done{false};
  server.register_method(2, [&](ByteSpan, const RpcContext&)
                                -> Result<Bytes> {
    handler_started = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    handler_done = true;
    return Bytes{};
  });
  ASSERT_TRUE(server.start().is_ok());
  {
    // Three connections at once, then all three parked idle.
    RpcClient a(*client_t, server.endpoint());
    RpcClient b(*client_t, server.endpoint());
    RpcClient c(*client_t, server.endpoint());
    for (RpcClient* client : {&a, &b, &c}) {
      ASSERT_TRUE(client->call(1, {}).is_ok());
    }
  }
  RpcClient held(*client_t, server.endpoint());
  ASSERT_TRUE(held.call(1, {}).is_ok());
  EXPECT_EQ(server.live_connections(), 3u);
  // A fourth connection is mid-request when stop() runs.
  auto busy_t = network.transport("jagan");
  std::thread busy([&] {
    RpcClient client(*busy_t, server.endpoint());
    (void)client.call(2, {});
  });
  while (!handler_started) std::this_thread::yield();
  server.stop();
  // stop() returned only after the busy worker's handler finished.
  EXPECT_TRUE(handler_done);
  busy.join();
  EXPECT_LE(await_threads(threads_before), threads_before);
  EXPECT_FALSE(held.call(1, {}).is_ok());
}

}  // namespace
}  // namespace griddles::net
