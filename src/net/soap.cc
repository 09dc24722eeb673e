#include "src/net/soap.h"

#include <array>

#include "src/common/strings.h"

namespace griddles::net {

namespace {
constexpr char kBase64Chars[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

std::array<std::int8_t, 256> build_reverse_table() {
  std::array<std::int8_t, 256> table{};
  table.fill(-1);
  for (int i = 0; i < 64; ++i) {
    table[static_cast<unsigned char>(kBase64Chars[i])] =
        static_cast<std::int8_t>(i);
  }
  return table;
}
}  // namespace

std::string base64_encode(ByteSpan data) {
  std::string out;
  out.reserve((data.size() + 2) / 3 * 4);
  std::size_t i = 0;
  while (i + 3 <= data.size()) {
    const std::uint32_t n = (static_cast<std::uint32_t>(data[i]) << 16) |
                            (static_cast<std::uint32_t>(data[i + 1]) << 8) |
                            static_cast<std::uint32_t>(data[i + 2]);
    out.push_back(kBase64Chars[(n >> 18) & 63]);
    out.push_back(kBase64Chars[(n >> 12) & 63]);
    out.push_back(kBase64Chars[(n >> 6) & 63]);
    out.push_back(kBase64Chars[n & 63]);
    i += 3;
  }
  const std::size_t rest = data.size() - i;
  if (rest == 1) {
    const std::uint32_t n = static_cast<std::uint32_t>(data[i]) << 16;
    out.push_back(kBase64Chars[(n >> 18) & 63]);
    out.push_back(kBase64Chars[(n >> 12) & 63]);
    out.push_back('=');
    out.push_back('=');
  } else if (rest == 2) {
    const std::uint32_t n = (static_cast<std::uint32_t>(data[i]) << 16) |
                            (static_cast<std::uint32_t>(data[i + 1]) << 8);
    out.push_back(kBase64Chars[(n >> 18) & 63]);
    out.push_back(kBase64Chars[(n >> 12) & 63]);
    out.push_back(kBase64Chars[(n >> 6) & 63]);
    out.push_back('=');
  }
  return out;
}

Result<Bytes> base64_decode(std::string_view text) {
  static const std::array<std::int8_t, 256> reverse = build_reverse_table();
  Bytes out;
  out.reserve(text.size() / 4 * 3);
  std::uint32_t acc = 0;
  int bits = 0;
  for (const char c : text) {
    if (c == '=' || c == '\n' || c == '\r' || c == ' ') continue;
    const std::int8_t v = reverse[static_cast<unsigned char>(c)];
    if (v < 0) {
      return invalid_argument(strings::cat("bad base64 character '", c, "'"));
    }
    acc = (acc << 6) | static_cast<std::uint32_t>(v);
    bits += 6;
    if (bits >= 8) {
      bits -= 8;
      out.push_back(static_cast<std::byte>((acc >> bits) & 0xFF));
    }
  }
  return out;
}

namespace {

/// Extracts the text between <tag> and </tag>; nullopt when absent.
std::optional<std::string_view> extract_tag(std::string_view xml,
                                            std::string_view tag) {
  const std::string open = strings::cat("<", tag, ">");
  const std::string close = strings::cat("</", tag, ">");
  const std::size_t start = xml.find(open);
  if (start == std::string_view::npos) return std::nullopt;
  const std::size_t body = start + open.size();
  const std::size_t end = xml.find(close, body);
  if (end == std::string_view::npos) return std::nullopt;
  return xml.substr(body, end - body);
}

std::string xml_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string xml_unescape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  std::size_t i = 0;
  while (i < text.size()) {
    if (text[i] == '&') {
      if (text.substr(i, 5) == "&amp;") {
        out.push_back('&');
        i += 5;
        continue;
      }
      if (text.substr(i, 4) == "&lt;") {
        out.push_back('<');
        i += 4;
        continue;
      }
      if (text.substr(i, 4) == "&gt;") {
        out.push_back('>');
        i += 4;
        continue;
      }
    }
    out.push_back(text[i++]);
  }
  return out;
}

}  // namespace

Bytes soap_encode(const RpcFrame& frame, ByteSpan payload) {
  std::string xml = strings::cat(
      "<?xml version=\"1.0\"?>"
      "<soap:Envelope xmlns:soap=\"http://schemas.xmlsoap.org/soap/"
      "envelope/\" xmlns:gl=\"urn:griddles\">"
      "<soap:Header>"
      "<gl:kind>",
      frame.kind == FrameKind::kRequest ? "request" : "response",
      "</gl:kind>"
      "<gl:id>",
      frame.id,
      "</gl:id>"
      "<gl:method>",
      frame.method,
      "</gl:method>"
      "<gl:trace>",
      frame.trace_id,
      "</gl:trace>"
      "<gl:span>",
      frame.span_id,
      "</gl:span>"
      "<gl:deadline>",
      frame.deadline_us,
      "</gl:deadline>"
      "<gl:status>",
      static_cast<std::uint32_t>(frame.status.code()),
      "</gl:status>"
      "<gl:statusText>",
      xml_escape(frame.status.message()),
      "</gl:statusText>"
      "</soap:Header>"
      "<soap:Body><gl:payload>",
      base64_encode(payload),
      "</gl:payload></soap:Body>"
      "</soap:Envelope>");
  return to_bytes(xml);
}

Result<RpcFrame> soap_decode(ByteSpan data) {
  const std::string xml = to_string(data);
  RpcFrame frame;

  const auto kind = extract_tag(xml, "gl:kind");
  if (!kind) return invalid_argument("soap frame: missing gl:kind");
  if (*kind == "request") {
    frame.kind = FrameKind::kRequest;
  } else if (*kind == "response") {
    frame.kind = FrameKind::kResponse;
  } else {
    return invalid_argument("soap frame: bad gl:kind");
  }

  const auto id = extract_tag(xml, "gl:id");
  const auto method = extract_tag(xml, "gl:method");
  const auto status_code = extract_tag(xml, "gl:status");
  const auto status_text = extract_tag(xml, "gl:statusText");
  const auto payload = extract_tag(xml, "gl:payload");
  if (!id || !method || !status_code || !payload) {
    return invalid_argument("soap frame: missing header fields");
  }
  const auto id_v = strings::parse_int(*id);
  const auto method_v = strings::parse_int(*method);
  const auto code_v = strings::parse_int(*status_code);
  if (!id_v || !method_v || !code_v || *method_v < 0 || *method_v > 0xFFFF ||
      *code_v < 0 ||
      *code_v > static_cast<int>(ErrorCode::kDeadlineExceeded)) {
    return invalid_argument("soap frame: malformed numeric header");
  }
  frame.id = static_cast<std::uint64_t>(*id_v);
  frame.method = static_cast<std::uint16_t>(*method_v);
  // Trace metadata is optional: envelopes from before the tracing layer
  // (or hand-written fixtures) simply decode as untraced.
  if (const auto trace = extract_tag(xml, "gl:trace")) {
    if (const auto trace_v = strings::parse_int(*trace); trace_v && *trace_v >= 0) {
      frame.trace_id = static_cast<std::uint64_t>(*trace_v);
    }
  }
  if (const auto span = extract_tag(xml, "gl:span")) {
    if (const auto span_v = strings::parse_int(*span); span_v && *span_v >= 0) {
      frame.span_id = static_cast<std::uint64_t>(*span_v);
    }
  }
  // Deadline budget is optional like the trace tags: pre-deadline
  // envelopes decode as "no deadline".
  if (const auto budget = extract_tag(xml, "gl:deadline")) {
    if (const auto budget_v = strings::parse_int(*budget);
        budget_v && *budget_v >= 0) {
      frame.deadline_us = static_cast<std::uint64_t>(*budget_v);
    }
  }
  if (*code_v != 0) {
    frame.status =
        Status(static_cast<ErrorCode>(*code_v),
               status_text ? xml_unescape(*status_text) : std::string{});
  }
  GL_ASSIGN_OR_RETURN(frame.payload, base64_decode(*payload));
  return frame;
}

}  // namespace griddles::net
