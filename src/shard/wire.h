// Pooled wire codec for inter-shard messaging.
//
// Two shards coordinate only through what crosses this boundary, so the
// frame format carries everything Cameo's timestamp-based scheduling needs:
// the full PriorityContext (PRI_local/PRI_global plus the dataflow-defined
// field and token state), the EventBatch columns, and the batch's stream
// progress -- the watermark that keeps downstream operators' frontiers
// advancing across machines. Reply Contexts (the upstream ack path of
// Algorithm 1) get their own frame kind.
//
// Frame layout (little-endian, fixed-width):
//
//   [u32 magic][u8 kind][u8 version][u16 sack][u64 payload_len]
//   [u64 seq][u64 ack]
//   [payload bytes ...]
//   [u64 trailer: CRC32C over header+payload, zero-extended]
//
// The checksum is CRC32C (Castagnoli). It runs on the SSE4.2 crc32
// instruction when the CPU has it -- chosen once at runtime, so the library
// needs no global -msse4.2 -- and on a table-driven fallback otherwise (the
// only path off x86-64). The 32-bit CRC fills the low half of the 8-byte
// trailer; validation requires the upper half to be zero.
//
// `seq`, `ack` and `sack` are the session layer's fields (session.h): a
// per-channel sequence number, a piggybacked cumulative ack for the reverse
// channel, and the selective-ack bitmap that goes with it (bit i set: the
// receiver holds seq ack+1+i). The bitmap occupies what wire v3 reserved, so
// the frame size did not change. The codec writes all three as zero ("bare"
// frame, no session); StampSession patches them in place -- and recomputes
// the trailing checksum -- once the session has assigned them, so a
// corrupted sequence number or SACK bit is caught by the same checksum that
// guards the payload.
//
// Decoding is defensive: a frame that is truncated, has a bad magic/kind/
// length, or fails the checksum is rejected (DecodeMessage/DecodeReply
// return false) without touching the output message and without leaking
// pooled column buffers -- columns are adopted into the output batch only
// after every bounds check has passed.
//
// Allocation discipline: frame byte buffers are recycled through
// AcquireFrame/ReleaseFrame (a RecycleStash, common/pool.h) and decoded
// batches adopt pooled column capacity, so the steady-state encode->ship->
// decode cycle performs no heap allocation per message (proven in
// tests/alloc_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.h"
#include "dataflow/message.h"

namespace cameo::shard {

/// One serialized frame plus its modeled delivery time (set by the
/// transport's Send; wall-clock transports leave it at the send time).
struct WireFrame {
  std::vector<std::uint8_t> bytes;
  SimTime deliver_at = 0;
};

enum class FrameKind : std::uint8_t {
  kData = 1,   // a Message (PriorityContext + EventBatch columns)
  kReply = 2,  // a ReplyContext ack travelling upstream
  kAck = 3,    // standalone session ack (header only, empty payload)
};

inline constexpr std::uint32_t kWireMagic = 0x43414D39;  // "CAM9"
/// v2: the header grew the session seq/ack fields. v3: the trailer holds a
/// zero-extended CRC32C instead of FNV-1a, so an old frame is rejected for
/// its version rather than as a checksum failure.
inline constexpr std::uint8_t kWireVersion = 3;
/// Header (magic, kind, version, sack, payload_len, seq, ack) + trailing
/// checksum.
inline constexpr std::size_t kWireHeaderSize = 32;
inline constexpr std::size_t kWireTrailerSize = 8;
/// Fixed header offsets of the session fields (StampSession patch targets).
inline constexpr std::size_t kWireSackOffset = 6;
inline constexpr std::size_t kWireSeqOffset = 16;
inline constexpr std::size_t kWireAckOffset = 24;

/// A decoded reply frame: `sender` is the upstream operator the ack is
/// addressed to, `from` the downstream operator that produced it.
struct WireReply {
  OperatorId sender;
  OperatorId from;
  ReplyContext rc;
};

/// Codec statistics (monotone; read-side merge across shards).
struct WireStats {
  std::uint64_t frames_encoded = 0;
  std::uint64_t frames_decoded = 0;
  std::uint64_t bytes_encoded = 0;
  /// Frames rejected by magic/length/checksum validation.
  std::uint64_t rejected = 0;
};

/// CRC32C (reflected polynomial 0x82F63B78, all-ones initial value and final
/// xor) of `n` bytes: the frame checksum. Runs the SSE4.2 crc32 instruction,
/// 8 bytes per step, when HasHardwareCrc32c(), and Crc32cTable otherwise.
std::uint32_t Crc32c(const std::uint8_t* data, std::size_t n);

/// The portable table-driven CRC32C, one byte per step.
std::uint32_t Crc32cTable(const std::uint8_t* data, std::size_t n);

/// Whether this CPU has the SSE4.2 crc32 instruction (probed once; always
/// false off x86-64).
bool HasHardwareCrc32c();

/// Serializes `m` into `frame.bytes` (replacing its contents; capacity is
/// reused). The message itself is not consumed -- the caller still owns its
/// column buffers and recycles them once the frame is shipped.
void EncodeMessage(const Message& m, WireFrame& frame);

/// Serializes a reply ack into `frame.bytes`.
void EncodeReply(OperatorId sender, OperatorId from, const ReplyContext& rc,
                 WireFrame& frame);

/// Serializes a standalone session-ack frame (empty payload; the cumulative
/// ack itself is stamped by StampSession like any other frame).
void EncodeAck(WireFrame& frame);

/// Patches the session seq/ack/sack header fields of an already-encoded
/// frame in place and recomputes the trailing checksum. The session layer
/// calls this at (re)transmission time -- retransmits re-stamp so the
/// piggybacked ack and SACK bitmap are always the freshest values.
void StampSession(WireFrame& frame, std::uint64_t seq, std::uint64_t ack,
                  std::uint16_t sack);

/// Reads the session fields without validating the checksum; returns false
/// when the header is truncated. Receivers must ValidateFrame first -- a
/// corrupted seq would otherwise poison the reorder ring.
bool PeekSession(const WireFrame& frame, std::uint64_t& seq,
                 std::uint64_t& ack, std::uint16_t& sack);

/// Full structural validation (magic, kind, version, length, checksum)
/// without decoding the payload. The session receive path runs this once per
/// frame so corruption is counted and dropped before any session state is
/// touched.
bool ValidateFrame(const WireFrame& frame);

/// Kind of a well-formed frame, without validating the checksum; returns
/// false when the header is truncated or malformed.
bool PeekFrameKind(const WireFrame& frame, FrameKind& kind);

/// Whether a decode recomputes the checksum. kTrusted is only for a frame
/// that has already passed ValidateFrame (the session receive path), so a
/// frame is checksummed once on its way in; its structure is still checked.
enum class Checksum : std::uint8_t { kVerify, kTrusted };

/// Decodes a data frame into `out`. Returns false -- leaving `out` untouched
/// and adopting no pooled buffers -- on any validation failure.
bool DecodeMessage(const WireFrame& frame, Message& out,
                   Checksum crc = Checksum::kVerify);

/// Decodes a reply frame into `out`; same failure contract.
bool DecodeReply(const WireFrame& frame, WireReply& out,
                 Checksum crc = Checksum::kVerify);

/// Takes a recycled frame buffer from the thread-local stash (empty bytes,
/// warm capacity) or constructs a fresh one when the stash is cold.
WireFrame AcquireFrame();

/// Parks `frame`'s buffer for reuse. Call once the frame's last reader is
/// done (after a successful decode, or after a rejected frame is dropped).
void ReleaseFrame(WireFrame frame);

}  // namespace cameo::shard
