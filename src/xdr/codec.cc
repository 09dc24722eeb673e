#include "src/xdr/codec.h"

#include <cstring>

namespace griddles::xdr {

namespace {
template <typename T>
void append_be(Bytes& buffer, T value) {
  static_assert(std::is_unsigned_v<T>);
  for (int shift = static_cast<int>(sizeof(T)) * 8 - 8; shift >= 0;
       shift -= 8) {
    buffer.push_back(static_cast<std::byte>((value >> shift) & 0xFF));
  }
}

template <typename T>
T read_be(ByteSpan bytes) {
  T value = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    value = static_cast<T>((value << 8) | static_cast<T>(bytes[i]));
  }
  return value;
}
}  // namespace

void Encoder::put_u8(std::uint8_t v) {
  buffer_.push_back(static_cast<std::byte>(v));
}
void Encoder::put_u16(std::uint16_t v) { append_be(buffer_, v); }
void Encoder::put_u32(std::uint32_t v) { append_be(buffer_, v); }
void Encoder::put_u64(std::uint64_t v) { append_be(buffer_, v); }

void Encoder::put_f32(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u32(bits);
}

void Encoder::put_f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(bits);
}

void Encoder::put_string(std::string_view v) {
  put_u32(static_cast<std::uint32_t>(v.size()));
  const auto* data = reinterpret_cast<const std::byte*>(v.data());
  buffer_.insert(buffer_.end(), data, data + v.size());
}

void Encoder::put_bytes(ByteSpan v) {
  put_u32(static_cast<std::uint32_t>(v.size()));
  buffer_.insert(buffer_.end(), v.begin(), v.end());
}

Result<ByteSpan> Decoder::take(std::size_t n) {
  if (remaining() < n) {
    return out_of_range("xdr decode past end of buffer");
  }
  ByteSpan out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

Result<std::uint8_t> Decoder::u8() {
  GL_ASSIGN_OR_RETURN(ByteSpan b, take(1));
  return static_cast<std::uint8_t>(b[0]);
}

Result<std::uint16_t> Decoder::u16() {
  GL_ASSIGN_OR_RETURN(ByteSpan b, take(2));
  return read_be<std::uint16_t>(b);
}

Result<std::uint32_t> Decoder::u32() {
  GL_ASSIGN_OR_RETURN(ByteSpan b, take(4));
  return read_be<std::uint32_t>(b);
}

Result<std::uint64_t> Decoder::u64() {
  GL_ASSIGN_OR_RETURN(ByteSpan b, take(8));
  return read_be<std::uint64_t>(b);
}

Result<std::int32_t> Decoder::i32() {
  GL_ASSIGN_OR_RETURN(const std::uint32_t v, u32());
  return static_cast<std::int32_t>(v);
}

Result<std::int64_t> Decoder::i64() {
  GL_ASSIGN_OR_RETURN(const std::uint64_t v, u64());
  return static_cast<std::int64_t>(v);
}

Result<float> Decoder::f32() {
  GL_ASSIGN_OR_RETURN(const std::uint32_t bits, u32());
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<double> Decoder::f64() {
  GL_ASSIGN_OR_RETURN(const std::uint64_t bits, u64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<bool> Decoder::boolean() {
  GL_ASSIGN_OR_RETURN(const std::uint8_t v, u8());
  return v != 0;
}

Result<std::string> Decoder::string() {
  GL_ASSIGN_OR_RETURN(const std::uint32_t size, u32());
  GL_ASSIGN_OR_RETURN(ByteSpan b, take(size));
  return to_string(b);
}

Result<Bytes> Decoder::bytes() {
  GL_ASSIGN_OR_RETURN(const ByteSpan b, bytes_view());
  return Bytes(b.begin(), b.end());
}

Result<ByteSpan> Decoder::bytes_view() {
  GL_ASSIGN_OR_RETURN(const std::uint32_t size, u32());
  return take(size);
}

void encode_status(Encoder& enc, const Status& status) {
  enc.put_u32(static_cast<std::uint32_t>(status.code()));
  enc.put_string(status.message());
}

Status decode_status(Decoder& dec, Status* out) {
  GL_ASSIGN_OR_RETURN(const std::uint32_t code, dec.u32());
  GL_ASSIGN_OR_RETURN(std::string message, dec.string());
  if (code == 0) {
    *out = Status::ok();
    return Status::ok();
  }
  if (code > static_cast<std::uint32_t>(ErrorCode::kDeadlineExceeded)) {
    return invalid_argument("unknown status code on the wire");
  }
  *out = Status(static_cast<ErrorCode>(code), std::move(message));
  return Status::ok();
}

}  // namespace griddles::xdr
