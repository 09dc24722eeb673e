// XDR-style canonical serialization (RFC 1014 in spirit): every value is
// written big-endian so peers with different byte orders interoperate.
// This codec carries all GriddLeS RPC payloads (GNS, Grid Buffer, remote
// file server, replica catalog, NWS).
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace griddles::xdr {

/// Appends canonically-encoded values to a growing byte buffer.
class Encoder {
 public:
  Encoder() = default;

  void put_u8(std::uint8_t v);
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i32(std::int32_t v) { put_u32(static_cast<std::uint32_t>(v)); }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f32(float v);
  void put_f64(double v);
  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  /// Length-prefixed (u32) byte string.
  void put_string(std::string_view v);
  void put_bytes(ByteSpan v);

  /// Encodes a vector via a u32 count and a per-element callback.
  template <typename T, typename Fn>
  void put_vector(const std::vector<T>& items, Fn&& encode_item) {
    put_u32(static_cast<std::uint32_t>(items.size()));
    for (const T& item : items) encode_item(*this, item);
  }

  /// Makes room for `bytes` more without regrowing: an encoder sized up
  /// front builds its message in one allocation.
  void reserve(std::size_t bytes) { buffer_.reserve(buffer_.size() + bytes); }

  const Bytes& buffer() const noexcept { return buffer_; }
  Bytes take() && { return std::move(buffer_); }

 private:
  Bytes buffer_;
};

/// Reads canonically-encoded values; every accessor validates bounds.
class Decoder {
 public:
  explicit Decoder(ByteSpan data) : data_(data) {}

  Result<std::uint8_t> u8();
  Result<std::uint16_t> u16();
  Result<std::uint32_t> u32();
  Result<std::uint64_t> u64();
  Result<std::int32_t> i32();
  Result<std::int64_t> i64();
  Result<float> f32();
  Result<double> f64();
  Result<bool> boolean();
  Result<std::string> string();
  Result<Bytes> bytes();
  /// As bytes(), but returns a view into the decoder's input instead of
  /// a copy: valid only while that input is.
  Result<ByteSpan> bytes_view();

  /// Decodes a u32-count-prefixed vector via a per-element callback.
  template <typename T, typename Fn>
  Result<std::vector<T>> vector(Fn&& decode_item) {
    GL_ASSIGN_OR_RETURN(const std::uint32_t count, u32());
    std::vector<T> items;
    items.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      GL_ASSIGN_OR_RETURN(T item, decode_item(*this));
      items.push_back(std::move(item));
    }
    return items;
  }

  /// Bytes not yet consumed.
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return remaining() == 0; }

 private:
  Result<ByteSpan> take(std::size_t n);
  ByteSpan data_;
  std::size_t pos_ = 0;
};

/// Encodes a Status for transport (code + message).
void encode_status(Encoder& enc, const Status& status);

/// Decodes a transported Status into *out (which may itself be non-OK);
/// the returned Status reports decode failures only.
Status decode_status(Decoder& dec, Status* out);

}  // namespace griddles::xdr
