// Length-prefixed binary framing for the nnr_cached wire protocol, built on
// the serialize/binary_io primitives so the wire shares the file formats'
// integrity contract (magic + FNV-1a trailer verified before a single byte
// is interpreted).
//
// One frame on the wire:
//
//   u32 payload_len (LE)          -- length of everything that follows
//   payload:
//     magic  "NNRC"  (4 bytes)
//     u8     version (kWireVersion; bump on any incompatible change)
//     u8     opcode  (net/cache_protocol.h)
//     body   opcode-specific bytes
//     u64    FNV-1a over version|opcode|body
//
// Requests and responses share this shape; a response echoes the request's
// opcode and its body starts with a one-byte Status. Versioning rule:
// within one version the body layouts in cache_protocol.h are frozen —
// adding or changing a field means bumping kWireVersion, and a server
// drops connections that present any other version (a client treats the
// drop as degrade-to-recompute, so version skew can never corrupt a study,
// only slow it down).
//
// Malformed input (bad magic, version, checksum, truncation, oversized
// length) surfaces as serialize::CheckpointError from decode_frame; both
// endpoints treat it as a fatal connection error, never as data.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "net/socket.h"

namespace nnr::net {

inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::string_view kFrameMagic = "NNRC";
/// Hard ceiling on one frame's payload: comfortably above any serialized
/// RunResult, far below anything that could OOM the daemon on garbage input.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// True when a frame's u32 length prefix is in bounds: at least magic,
/// version, opcode and checksum trailer, at most kMaxFrameBytes. Every
/// receive path (recv_frame_ex and the daemon's buffered reader) drops a
/// connection whose prefix fails it, before allocating a byte.
[[nodiscard]] constexpr bool valid_payload_length(std::uint32_t len) noexcept {
  return len >= kFrameMagic.size() + 2 + sizeof(std::uint64_t) &&
         len <= kMaxFrameBytes;
}

struct Frame {
  std::uint8_t version = 0;
  std::uint8_t opcode = 0;
  std::string body;
};

/// Builds a complete frame (length prefix included) for `opcode`/`body`.
[[nodiscard]] std::string encode_frame(std::uint8_t opcode,
                                       std::string_view body);

/// Parses `payload` (everything after the u32 length prefix). Throws
/// serialize::CheckpointError on bad magic, wrong version, checksum
/// mismatch, or truncation.
[[nodiscard]] Frame decode_frame(std::string_view payload);

/// Sends one frame over a blocking socket. False on any socket error —
/// including a send timeout, because a partially written frame has already
/// desynchronized the stream.
bool send_frame(Socket& sock, std::uint8_t opcode, std::string_view body);

/// How a frame receive ended. kTimeout is the one retryable outcome: the
/// receive window expired before the FIRST byte of a frame arrived, so the
/// stream is still aligned and the same receive can simply be reissued (a
/// slow daemon mid-training-store looks exactly like this). A timeout that
/// strikes after bytes were consumed is a desync and reports kError.
enum class RecvStatus : std::uint8_t {
  kFrame = 0,    // a complete, well-formed frame was received
  kTimeout = 1,  // clean timeout on a frame boundary — retry is safe
  kClosed = 2,   // peer closed the connection (orderly EOF)
  kError = 3,    // socket error, oversized/garbage length, or mid-frame
                 // timeout — the connection is unusable
};

struct RecvFrameResult {
  RecvStatus status = RecvStatus::kError;
  Frame frame;  // meaningful only when status == kFrame
};

/// Receives one frame, distinguishing a clean timeout from a dead or
/// desynchronized connection. Throws serialize::CheckpointError on a
/// malformed payload (the caller should drop the connection).
[[nodiscard]] RecvFrameResult recv_frame_ex(Socket& sock);

}  // namespace nnr::net
