// Unit + property tests for the XDR codec and record schemas.
#include <gtest/gtest.h>

#include <random>

#include "src/xdr/codec.h"
#include "src/xdr/record.h"

namespace griddles::xdr {
namespace {

TEST(CodecTest, PrimitiveRoundTrip) {
  Encoder enc;
  enc.put_u8(0xAB);
  enc.put_u16(0xCDEF);
  enc.put_u32(0xDEADBEEF);
  enc.put_u64(0x0123456789ABCDEFULL);
  enc.put_i32(-42);
  enc.put_i64(-1LL << 40);
  enc.put_f32(3.25f);
  enc.put_f64(-2.5e300);
  enc.put_bool(true);
  enc.put_string("grid");
  enc.put_bytes(to_bytes(std::string_view("\x00\x01\x02", 3)));

  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.u8().value(), 0xAB);
  EXPECT_EQ(dec.u16().value(), 0xCDEF);
  EXPECT_EQ(dec.u32().value(), 0xDEADBEEFu);
  EXPECT_EQ(dec.u64().value(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(dec.i32().value(), -42);
  EXPECT_EQ(dec.i64().value(), -1LL << 40);
  EXPECT_FLOAT_EQ(dec.f32().value(), 3.25f);
  EXPECT_DOUBLE_EQ(dec.f64().value(), -2.5e300);
  EXPECT_TRUE(dec.boolean().value());
  EXPECT_EQ(dec.string().value(), "grid");
  EXPECT_EQ(dec.bytes().value().size(), 3u);
  EXPECT_TRUE(dec.done());
}

TEST(CodecTest, BigEndianOnTheWire) {
  Encoder enc;
  enc.put_u32(0x01020304);
  const Bytes& wire = enc.buffer();
  ASSERT_EQ(wire.size(), 4u);
  EXPECT_EQ(static_cast<int>(wire[0]), 1);
  EXPECT_EQ(static_cast<int>(wire[3]), 4);
}

TEST(CodecTest, DecodePastEndFails) {
  Encoder enc;
  enc.put_u16(7);
  Decoder dec(enc.buffer());
  EXPECT_TRUE(dec.u16().is_ok());
  EXPECT_FALSE(dec.u32().is_ok());
}

TEST(CodecTest, BytesViewAliasesInputAndRejectsTruncation) {
  Encoder enc;
  enc.put_bytes(as_bytes_view("grid"));
  enc.put_u8(9);
  const Bytes wire = std::move(enc).take();
  Decoder dec(wire);
  auto view = dec.bytes_view();
  ASSERT_TRUE(view.is_ok());
  EXPECT_EQ(view->data(), wire.data() + 4);  // no copy: into the input
  EXPECT_EQ(to_string(*view), "grid");
  EXPECT_EQ(dec.u8().value(), 9);

  // A length prefix claiming more than follows is rejected.
  Decoder truncated(ByteSpan(wire).first(6));
  EXPECT_EQ(truncated.bytes_view().status().code(), ErrorCode::kOutOfRange);
}

TEST(CodecTest, TruncatedStringFails) {
  Encoder enc;
  enc.put_u32(100);  // claims 100 bytes follow; none do
  Decoder dec(enc.buffer());
  EXPECT_FALSE(dec.string().is_ok());
}

TEST(CodecTest, VectorRoundTrip) {
  Encoder enc;
  std::vector<std::string> names = {"a", "bb", ""};
  enc.put_vector(names, [](Encoder& e, const std::string& s) {
    e.put_string(s);
  });
  Decoder dec(enc.buffer());
  auto out = dec.vector<std::string>([](Decoder& d) { return d.string(); });
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(*out, names);
}

TEST(CodecTest, StatusRoundTrip) {
  Encoder enc;
  encode_status(enc, timeout_error("too slow"));
  encode_status(enc, Status::ok());
  Decoder dec(enc.buffer());
  Status a, b;
  ASSERT_TRUE(decode_status(dec, &a).is_ok());
  ASSERT_TRUE(decode_status(dec, &b).is_ok());
  EXPECT_EQ(a.code(), ErrorCode::kTimeout);
  EXPECT_EQ(a.message(), "too slow");
  EXPECT_TRUE(b.is_ok());
}

// Property: random primitive sequences round-trip exactly.
TEST(CodecPropertyTest, RandomSequencesRoundTrip) {
  std::mt19937_64 rng(20040607);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint64_t> values;
    std::vector<int> kinds;
    Encoder enc;
    const int n = static_cast<int>(rng() % 20) + 1;
    for (int i = 0; i < n; ++i) {
      const int kind = static_cast<int>(rng() % 4);
      const std::uint64_t value = rng();
      kinds.push_back(kind);
      values.push_back(value);
      switch (kind) {
        case 0: enc.put_u8(static_cast<std::uint8_t>(value)); break;
        case 1: enc.put_u16(static_cast<std::uint16_t>(value)); break;
        case 2: enc.put_u32(static_cast<std::uint32_t>(value)); break;
        case 3: enc.put_u64(value); break;
      }
    }
    Decoder dec(enc.buffer());
    for (int i = 0; i < n; ++i) {
      switch (kinds[i]) {
        case 0:
          EXPECT_EQ(dec.u8().value(),
                    static_cast<std::uint8_t>(values[i]));
          break;
        case 1:
          EXPECT_EQ(dec.u16().value(),
                    static_cast<std::uint16_t>(values[i]));
          break;
        case 2:
          EXPECT_EQ(dec.u32().value(),
                    static_cast<std::uint32_t>(values[i]));
          break;
        case 3: EXPECT_EQ(dec.u64().value(), values[i]); break;
      }
    }
    EXPECT_TRUE(dec.done());
  }
}

TEST(RecordSchemaTest, ParseAndPrint) {
  auto schema = RecordSchema::parse("f64[3], i32, c8[16]");
  ASSERT_TRUE(schema.is_ok());
  EXPECT_EQ(schema->record_size(), 3 * 8 + 4 + 16u);
  EXPECT_EQ(schema->to_string(), "f64[3], i32, c8[16]");
  auto again = RecordSchema::parse(schema->to_string());
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(*again, *schema);
}

TEST(RecordSchemaTest, ParseRejectsGarbage) {
  EXPECT_FALSE(RecordSchema::parse("").is_ok());
  EXPECT_FALSE(RecordSchema::parse("f99").is_ok());
  EXPECT_FALSE(RecordSchema::parse("f64[0]").is_ok());
  EXPECT_FALSE(RecordSchema::parse("f64[").is_ok());
  EXPECT_FALSE(RecordSchema::parse("f64[x]").is_ok());
}

TEST(RecordSchemaTest, SwapReordersMultiByteFieldsOnly) {
  auto schema = RecordSchema::parse("i32, c8[2]");
  ASSERT_TRUE(schema.is_ok());
  Bytes record = to_bytes(std::string("\x01\x02\x03\x04XY", 6));
  ASSERT_TRUE(schema->swap_records({record.data(), record.size()}).is_ok());
  EXPECT_EQ(to_string(record), std::string("\x04\x03\x02\x01XY", 6));
}

TEST(RecordSchemaTest, RejectsPartialRecords) {
  auto schema = RecordSchema::parse("i32");
  ASSERT_TRUE(schema.is_ok());
  Bytes data(6);  // one and a half records
  EXPECT_FALSE(schema->swap_records({data.data(), data.size()}).is_ok());
}

// Property: swapping is an involution for random schemas and data.
TEST(RecordSchemaPropertyTest, SwapIsInvolution) {
  std::mt19937_64 rng(77);
  const FieldType types[] = {FieldType::kChar8, FieldType::kInt16,
                             FieldType::kInt32, FieldType::kInt64,
                             FieldType::kFloat32, FieldType::kFloat64};
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Field> fields;
    const int nf = static_cast<int>(rng() % 5) + 1;
    for (int f = 0; f < nf; ++f) {
      fields.push_back(Field{types[rng() % 6],
                             static_cast<std::size_t>(rng() % 4) + 1});
    }
    const RecordSchema schema(fields);
    const std::size_t records = rng() % 8 + 1;
    Bytes data(schema.record_size() * records);
    for (std::byte& b : data) b = static_cast<std::byte>(rng());
    Bytes original = data;
    ASSERT_TRUE(schema.swap_records({data.data(), data.size()}).is_ok());
    ASSERT_TRUE(schema.swap_records({data.data(), data.size()}).is_ok());
    EXPECT_EQ(data, original);
  }
}

// Property: swapping an i32 record matches integer byte-order reversal.
TEST(RecordSchemaPropertyTest, SwapMatchesIntegerByteSwap) {
  auto schema = RecordSchema::parse("i32[4]");
  ASSERT_TRUE(schema.is_ok());
  std::mt19937 rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::uint32_t values[4];
    for (auto& v : values) v = rng();
    Bytes data(16);
    std::memcpy(data.data(), values, 16);
    ASSERT_TRUE(schema->swap_records({data.data(), data.size()}).is_ok());
    std::uint32_t swapped[4];
    std::memcpy(swapped, data.data(), 16);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(swapped[i], __builtin_bswap32(values[i]));
    }
  }
}

}  // namespace
}  // namespace griddles::xdr
