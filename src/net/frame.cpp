#include "net/frame.hpp"

#include <cstring>

#include "io/container.hpp"

namespace ge::net {

namespace {

// Little-endian scalar helpers matching io::ByteWriter/ByteReader encoding.
void put_u32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(uint8_t(v >> (8 * i)));
}

void put_u64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(uint8_t(v >> (8 * i)));
}

uint32_t get_u32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= uint32_t(p[i]) << (8 * i);
  return v;
}

uint64_t get_u64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= uint64_t(p[i]) << (8 * i);
  return v;
}

// Validate the fixed-size header; returns payload length via out-params.
// Shared by decode_frame (in-memory) and recv_frame (socket) so both paths
// reject bad frames identically.
void check_header(const uint8_t* h, const std::string& context,
                  FrameType* type, uint64_t* payload_len, uint32_t* crc) {
  if (std::memcmp(h, kFrameMagic, 4) != 0) {
    throw NetError(context + ": bad frame magic");
  }
  uint32_t version = get_u32(h + 4);
  if (version < kMinProtocolVersion || version > kProtocolVersion) {
    throw NetError(context + ": unsupported protocol version " +
                   std::to_string(version) + " (this build speaks " +
                   std::to_string(kMinProtocolVersion) + ".." +
                   std::to_string(kProtocolVersion) + ")");
  }
  uint8_t t = h[8];
  if (t < uint8_t(FrameType::kHello) || t > uint8_t(FrameType::kCheckpointed)) {
    throw NetError(context + ": unknown frame type " + std::to_string(t));
  }
  *type = FrameType(t);
  *payload_len = get_u64(h + 9);
  if (*payload_len > kMaxPayload) {
    throw NetError(context + ": frame payload length " +
                   std::to_string(*payload_len) + " exceeds cap " +
                   std::to_string(kMaxPayload));
  }
  *crc = get_u32(h + 17);
}

void check_crc(const std::vector<uint8_t>& payload, uint32_t expect,
               const std::string& context) {
  uint32_t actual = io::crc32(payload.data(), payload.size());
  if (actual != expect) {
    throw NetError(context + ": frame CRC mismatch");
  }
}

}  // namespace

const char* frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::kHello: return "hello";
    case FrameType::kSubmit: return "submit";
    case FrameType::kLogRow: return "log_row";
    case FrameType::kDone: return "done";
    case FrameType::kError: return "error";
    case FrameType::kLeaseRequest: return "lease_request";
    case FrameType::kLeaseGrant: return "lease_grant";
    case FrameType::kLeaseResult: return "lease_result";
    case FrameType::kHeartbeat: return "heartbeat";
    case FrameType::kNoWork: return "no_work";
    case FrameType::kShutdown: return "shutdown";
    case FrameType::kCheckpointed: return "checkpointed";
  }
  return "?";
}

std::vector<uint8_t> encode_frame(const Frame& f) {
  std::vector<uint8_t> out;
  out.reserve(kFrameHeaderSize + f.payload.size());
  for (const char ch : kFrameMagic) out.push_back(static_cast<uint8_t>(ch));
  put_u32(out, kProtocolVersion);
  out.push_back(uint8_t(f.type));
  put_u64(out, f.payload.size());
  put_u32(out, io::crc32(f.payload.data(), f.payload.size()));
  out.insert(out.end(), f.payload.begin(), f.payload.end());
  return out;
}

Frame decode_frame(const std::vector<uint8_t>& bytes,
                   const std::string& context) {
  if (bytes.size() < kFrameHeaderSize) {
    throw NetError(context + ": truncated frame header (" +
                   std::to_string(bytes.size()) + " of " +
                   std::to_string(kFrameHeaderSize) + " bytes)");
  }
  Frame f;
  uint64_t payload_len = 0;
  uint32_t crc = 0;
  check_header(bytes.data(), context, &f.type, &payload_len, &crc);
  if (bytes.size() != kFrameHeaderSize + payload_len) {
    throw NetError(context + ": frame length mismatch (header says " +
                   std::to_string(payload_len) + " payload bytes, have " +
                   std::to_string(bytes.size() - kFrameHeaderSize) + ")");
  }
  f.payload.assign(bytes.begin() + kFrameHeaderSize, bytes.end());
  check_crc(f.payload, crc, context);
  return f;
}

void send_frame(const Socket& sock, const Frame& f,
                const std::string& context) {
  std::vector<uint8_t> wire = encode_frame(f);
  if (!sock.send_all(wire.data(), wire.size())) {
    throw NetError(context + ": connection lost sending " +
                   std::string(frame_type_name(f.type)) + " frame");
  }
}

std::optional<Frame> recv_frame(const Socket& sock,
                                const std::string& context) {
  uint8_t header[kFrameHeaderSize];
  // Distinguish clean EOF (no bytes at all) from a mid-header cut: read the
  // first byte separately, then require the rest.
  ssize_t first = sock.recv_some(header, 1);
  if (first == 0) return std::nullopt;
  if (first < 0) throw NetError(context + ": connection error");
  if (!sock.recv_all(header + 1, kFrameHeaderSize - 1)) {
    throw NetError(context + ": connection lost mid frame header");
  }
  Frame f;
  uint64_t payload_len = 0;
  uint32_t crc = 0;
  check_header(header, context, &f.type, &payload_len, &crc);
  f.payload.resize(payload_len);
  if (payload_len > 0 && !sock.recv_all(f.payload.data(), payload_len)) {
    throw NetError(context + ": connection lost mid " +
                   std::string(frame_type_name(f.type)) + " payload");
  }
  check_crc(f.payload, crc, context);
  return f;
}

}  // namespace ge::net
