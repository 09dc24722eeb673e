// Robustness ("fuzz-ish") tests: decoders and servers must reject — not
// crash on, not hang on — corrupted or adversarial inputs.
#include <gtest/gtest.h>

#include <random>

#include "src/common/config.h"
#include "src/gns/mapping.h"
#include "src/net/inproc.h"
#include "src/net/rpc.h"
#include "src/net/soap.h"
#include "src/xdr/codec.h"
#include "src/xdr/record.h"

namespace griddles {
namespace {

TEST(FuzzTest, SoapDecodeSurvivesRandomBytes) {
  std::mt19937 rng(1312);
  for (int trial = 0; trial < 300; ++trial) {
    Bytes junk(rng() % 400);
    for (std::byte& b : junk) b = static_cast<std::byte>(rng());
    auto frame = net::soap_decode(junk);
    // Either a clean error or (absurdly unlikely) a parse; never UB.
    if (frame.is_ok()) SUCCEED();
  }
}

TEST(FuzzTest, SoapDecodeSurvivesMutatedValidFrames) {
  net::RpcFrame frame;
  frame.kind = net::FrameKind::kRequest;
  frame.id = 42;
  frame.method = 3;
  frame.payload = to_bytes("payload bytes here");
  const Bytes valid = net::soap_encode(frame, frame.payload);
  std::mt19937 rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = valid;
    const int mutations = 1 + static_cast<int>(rng() % 4);
    for (int m = 0; m < mutations; ++m) {
      mutated[rng() % mutated.size()] = static_cast<std::byte>(rng());
    }
    auto decoded = net::soap_decode(mutated);
    (void)decoded;  // must not crash; error or lucky parse both fine
  }
}

TEST(FuzzTest, BinaryFrameDecodeSurvivesTruncation) {
  net::RpcFrame frame;
  frame.kind = net::FrameKind::kResponse;
  frame.id = 7;
  frame.method = 9;
  frame.status = not_found("x");
  frame.payload = Bytes(300, std::byte{0x5a});
  const Bytes valid =
      net::encode_frame(frame, net::WireFormat::kBinary);
  for (std::size_t cut = 0; cut < valid.size(); cut += 7) {
    Bytes truncated(valid.begin(),
                    valid.begin() + static_cast<std::ptrdiff_t>(cut));
    auto decoded = net::decode_frame(truncated, net::WireFormat::kBinary);
    EXPECT_FALSE(decoded.is_ok()) << "cut at " << cut;
  }
}

TEST(FuzzTest, MappingDecodeSurvivesRandomBytes) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    Bytes junk(rng() % 200);
    for (std::byte& b : junk) b = static_cast<std::byte>(rng());
    xdr::Decoder dec(junk);
    auto mapping = gns::decode_mapping(dec);
    (void)mapping;  // error or garbage mapping; never a crash
  }
}

TEST(FuzzTest, RecordSchemaParseSurvivesRandomText) {
  std::mt19937 rng(31);
  const char alphabet[] = "fic0123456789[], x8";
  for (int trial = 0; trial < 500; ++trial) {
    std::string text;
    const std::size_t len = rng() % 30;
    for (std::size_t i = 0; i < len; ++i) {
      text.push_back(alphabet[rng() % (sizeof(alphabet) - 1)]);
    }
    auto schema = xdr::RecordSchema::parse(text);
    if (schema.is_ok()) {
      EXPECT_GT(schema->record_size(), 0u);
    }
  }
}

TEST(FuzzTest, ConfigParseSurvivesRandomText) {
  std::mt19937 rng(61);
  const char alphabet[] = "[]=#; abc.:\n\t";
  for (int trial = 0; trial < 500; ++trial) {
    std::string text;
    const std::size_t len = rng() % 120;
    for (std::size_t i = 0; i < len; ++i) {
      text.push_back(alphabet[rng() % (sizeof(alphabet) - 1)]);
    }
    auto config = Config::parse(text);
    (void)config;
  }
}

TEST(FuzzTest, RpcServerDropsGarbageConnections) {
  // A client that speaks garbage must get disconnected without taking
  // the server down for well-behaved clients.
  RealClock clock;
  net::InProcNetwork network(clock);
  auto server_transport = network.transport("dione");
  net::RpcServer server(*server_transport,
                        net::inproc_endpoint("dione", "svc"));
  server.register_method(
      1, [](ByteSpan request, const net::RpcContext&) -> Result<Bytes> {
        return Bytes(request.begin(), request.end());
      });
  ASSERT_TRUE(server.start().is_ok());

  auto evil_transport = network.transport("jagan");
  {
    auto conn = evil_transport->connect(server.endpoint());
    ASSERT_TRUE(conn.is_ok());
    ASSERT_TRUE((*conn)->send(as_bytes_view("NOT AN RPC FRAME")).is_ok());
    // Server drops us; recv reports closed (or whatever the transport
    // surfaces), but never hangs.
    auto reply = (*conn)->recv_until(WallClock::now() +
                                     std::chrono::seconds(5));
    EXPECT_FALSE(reply.is_ok());
  }

  // A good client still works afterwards.
  net::RpcClient client(*evil_transport, server.endpoint());
  auto reply = client.call(1, as_bytes_view("ok?"));
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(to_string(*reply), "ok?");
  server.stop();
}

TEST(FuzzTest, EndpointParseSurvivesRandomText) {
  std::mt19937 rng(17);
  const char alphabet[] = "tcpinproc:/.0123456789abc-";
  for (int trial = 0; trial < 500; ++trial) {
    std::string text;
    const std::size_t len = rng() % 40;
    for (std::size_t i = 0; i < len; ++i) {
      text.push_back(alphabet[rng() % (sizeof(alphabet) - 1)]);
    }
    auto endpoint = net::Endpoint::parse(text);
    if (endpoint.is_ok()) {
      // Anything accepted must round-trip through to_string/parse.
      auto again = net::Endpoint::parse(endpoint->to_string());
      ASSERT_TRUE(again.is_ok());
      EXPECT_EQ(*again, *endpoint);
    }
  }
}

}  // namespace
}  // namespace griddles
