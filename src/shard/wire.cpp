#include "shard/wire.h"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

#include "common/check.h"
#include "common/pool.h"

namespace cameo::shard {

namespace {

// ---- CRC32C: SSE4.2 instruction with a table-driven fallback ----

constexpr std::array<std::uint32_t, 256> MakeCrc32cTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ (0x82F63B78u & (0u - (c & 1u)));  // reflected Castagnoli
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32cTable = MakeCrc32cTable();

#if defined(__x86_64__)
// Only this function is compiled for SSE4.2; the rest of the library keeps
// the baseline ISA and reaches it through the runtime check in Crc32c.
__attribute__((target("sse4.2"))) std::uint32_t Crc32cSse42(
    const std::uint8_t* data, std::size_t n) {
  std::uint64_t crc = 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, data += 8) {
    std::uint64_t word;
    std::memcpy(&word, data, sizeof word);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; n > 0; --n) crc32 = _mm_crc32_u8(crc32, *data++);
  return ~crc32;
}
#endif

// ---- little-endian fixed-width cursor writer / bounds-checked reader ----

/// Writes fields through a cursor into a frame BeginFrame has already sized,
/// so assembling a frame costs one resize, not one per field.
class Writer {
 public:
  explicit Writer(std::uint8_t* at) : at_(at) {}

  void U8(std::uint8_t v) { *at_++ = v; }
  void U16(std::uint16_t v) { Raw(&v, sizeof v); }
  void U32(std::uint32_t v) { Raw(&v, sizeof v); }
  void U64(std::uint64_t v) { Raw(&v, sizeof v); }
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void F64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }

  template <typename T>
  void Column(const std::vector<T>& col) {
    static_assert(sizeof(T) == 8);
    if (!col.empty()) Raw(col.data(), col.size() * 8);
  }

  const std::uint8_t* at() const { return at_; }

 private:
  void Raw(const void* p, std::size_t n) {
    std::memcpy(at_, p, n);  // host is little-endian (x86/arm64)
    at_ += n;
  }

  std::uint8_t* at_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool U8(std::uint8_t& v) { return Raw(&v, sizeof v); }
  bool U16(std::uint16_t& v) { return Raw(&v, sizeof v); }
  bool U32(std::uint32_t& v) { return Raw(&v, sizeof v); }
  bool U64(std::uint64_t& v) { return Raw(&v, sizeof v); }
  bool I64(std::int64_t& v) {
    std::uint64_t u;
    if (!U64(u)) return false;
    v = static_cast<std::int64_t>(u);
    return true;
  }
  bool F64(double& v) {
    std::uint64_t bits;
    if (!U64(bits)) return false;
    std::memcpy(&v, &bits, sizeof v);
    return true;
  }

  template <typename T>
  bool Column(std::vector<T>& col, std::size_t rows) {
    static_assert(sizeof(T) == 8);
    if (size_ - pos_ < rows * 8) return false;
    col.resize(rows);
    if (rows > 0) std::memcpy(col.data(), data_ + pos_, rows * 8);
    pos_ += rows * 8;
    return true;
  }

  std::size_t remaining() const { return size_ - pos_; }

 private:
  bool Raw(void* p, std::size_t n) {
    if (size_ - pos_ < n) return false;
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Payload sizes: a data frame is 17 eight-byte fields plus the has_token
/// byte, then three 8-byte columns per row; a reply is five 8-byte fields
/// plus the valid byte.
constexpr std::size_t kDataFixedPayload = 17 * 8 + 1;
constexpr std::size_t kDataRowBytes = 3 * 8;
constexpr std::size_t kReplyPayload = 5 * 8 + 1;

/// Stores the CRC32C of everything before the trailer, zero-extended into
/// the u64 trailer.
void WriteChecksum(std::vector<std::uint8_t>& buf) {
  const std::size_t body = buf.size() - kWireTrailerSize;
  const std::uint64_t sum = Crc32c(buf.data(), body);
  std::memcpy(buf.data() + body, &sum, sizeof sum);
}

/// Sizes `buf` for the whole frame in one resize and writes the header; the
/// session fields stay zero until StampSession patches them. Returns a
/// cursor at the first payload byte.
Writer BeginFrame(std::vector<std::uint8_t>& buf, FrameKind kind,
                  std::size_t payload_len) {
  const std::size_t size = kWireHeaderSize + payload_len + kWireTrailerSize;
  // Grow to a power of two, never to the exact size: pooled buffers cycle
  // through frames of every kind and row count, and exact-fit capacity
  // would make most reuses for a larger frame reallocate.
  if (buf.capacity() < size) buf.reserve(std::bit_ceil(size));
  buf.resize(size);
  Writer w(buf.data());
  w.U32(kWireMagic);
  w.U8(static_cast<std::uint8_t>(kind));
  w.U8(kWireVersion);
  w.U16(0);  // session SACK bitmap (bare frame)
  w.U64(payload_len);
  w.U64(0);  // session seq (bare frame)
  w.U64(0);  // session ack (bare frame)
  return w;
}

/// Checks that the payload filled exactly the size BeginFrame reserved, then
/// writes the checksum trailer.
void FinishFrame(std::vector<std::uint8_t>& buf, const Writer& w) {
  CAMEO_CHECK(w.at() == buf.data() + buf.size() - kWireTrailerSize);
  WriteChecksum(buf);
}

/// Validates magic/version/length and, unless `crc` is kTrusted, the
/// checksum; on success returns a payload reader and the frame kind.
bool OpenFrame(const WireFrame& frame, FrameKind& kind, Reader& payload,
               Checksum crc) {
  const std::vector<std::uint8_t>& b = frame.bytes;
  if (b.size() < kWireHeaderSize + kWireTrailerSize) return false;
  Reader h(b.data(), kWireHeaderSize);
  std::uint32_t magic;
  std::uint8_t k, version;
  std::uint16_t sack;
  std::uint64_t payload_len, seq, ack;
  if (!h.U32(magic) || !h.U8(k) || !h.U8(version) || !h.U16(sack) ||
      !h.U64(payload_len) || !h.U64(seq) || !h.U64(ack)) {
    return false;
  }
  if (magic != kWireMagic || version != kWireVersion) return false;
  if (k != static_cast<std::uint8_t>(FrameKind::kData) &&
      k != static_cast<std::uint8_t>(FrameKind::kReply) &&
      k != static_cast<std::uint8_t>(FrameKind::kAck)) {
    return false;
  }
  if (payload_len != b.size() - kWireHeaderSize - kWireTrailerSize) {
    return false;
  }
  // The 32-bit CRC compares against the whole u64 trailer, so a nonzero
  // upper half is a mismatch too.
  if (crc == Checksum::kVerify) {
    std::uint64_t sum;
    std::memcpy(&sum, b.data() + b.size() - kWireTrailerSize, sizeof sum);
    if (sum != Crc32c(b.data(), b.size() - kWireTrailerSize)) return false;
  }
  kind = static_cast<FrameKind>(k);
  payload = Reader(b.data() + kWireHeaderSize, b.size() - kWireHeaderSize -
                                                   kWireTrailerSize);
  return true;
}

}  // namespace

std::uint32_t Crc32cTable(const std::uint8_t* data, std::size_t n) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ kCrc32cTable[(crc ^ data[i]) & 0xFFu];
  }
  return ~crc;
}

bool HasHardwareCrc32c() {
#if defined(__x86_64__)
  static const bool has = [] {
    // A frame may be checksummed from a static initializer, before the
    // runtime's own CPU probe has run.
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

std::uint32_t Crc32c(const std::uint8_t* data, std::size_t n) {
#if defined(__x86_64__)
  if (HasHardwareCrc32c()) return Crc32cSse42(data, n);
#endif
  return Crc32cTable(data, n);
}

void EncodeMessage(const Message& m, WireFrame& frame) {
  const std::size_t rows = m.batch.keys.size();
  CAMEO_EXPECTS(m.batch.values.size() == rows && m.batch.times.size() == rows);
  Writer w = BeginFrame(frame.bytes, FrameKind::kData,
                        kDataFixedPayload + kDataRowBytes * rows);
  // Message envelope.
  w.I64(m.id.value);
  w.I64(m.target.value);
  w.I64(m.sender.value);
  w.I64(m.event_time);
  w.I64(m.enqueue_time);
  // PriorityContext: the full §5.3 layout -- the receiving shard's scheduler
  // orders this message without any shared-memory state.
  w.I64(m.pc.id.value);
  w.I64(m.pc.pri_local);
  w.I64(m.pc.pri_global);
  w.I64(m.pc.frontier_progress);
  w.I64(m.pc.frontier_time);
  w.I64(m.pc.latency_constraint);
  w.I64(m.pc.job.value);
  w.U8(m.pc.has_token ? 1 : 0);
  w.I64(m.pc.token_tag);
  w.I64(m.pc.token_interval);
  // EventBatch: progress watermark, synthetic face, then the columns.
  w.I64(m.batch.progress);
  w.I64(m.batch.synthetic_count);
  w.U64(rows);
  w.Column(m.batch.keys);
  w.Column(m.batch.values);
  w.Column(m.batch.times);
  FinishFrame(frame.bytes, w);
}

void EncodeReply(OperatorId sender, OperatorId from, const ReplyContext& rc,
                 WireFrame& frame) {
  Writer w = BeginFrame(frame.bytes, FrameKind::kReply, kReplyPayload);
  w.I64(sender.value);
  w.I64(from.value);
  w.I64(rc.cost_m);
  w.I64(rc.cost_path);
  w.I64(rc.queueing_delay);
  w.U8(rc.valid ? 1 : 0);
  FinishFrame(frame.bytes, w);
}

void EncodeAck(WireFrame& frame) {
  const Writer w = BeginFrame(frame.bytes, FrameKind::kAck, 0);
  FinishFrame(frame.bytes, w);
}

void StampSession(WireFrame& frame, std::uint64_t seq, std::uint64_t ack,
                  std::uint16_t sack) {
  std::vector<std::uint8_t>& b = frame.bytes;
  if (b.size() < kWireHeaderSize + kWireTrailerSize) return;
  std::memcpy(b.data() + kWireSackOffset, &sack, sizeof sack);
  std::memcpy(b.data() + kWireSeqOffset, &seq, sizeof seq);
  std::memcpy(b.data() + kWireAckOffset, &ack, sizeof ack);
  WriteChecksum(b);
}

bool PeekSession(const WireFrame& frame, std::uint64_t& seq,
                 std::uint64_t& ack, std::uint16_t& sack) {
  const std::vector<std::uint8_t>& b = frame.bytes;
  if (b.size() < kWireHeaderSize) return false;
  std::memcpy(&sack, b.data() + kWireSackOffset, sizeof sack);
  std::memcpy(&seq, b.data() + kWireSeqOffset, sizeof seq);
  std::memcpy(&ack, b.data() + kWireAckOffset, sizeof ack);
  return true;
}

bool ValidateFrame(const WireFrame& frame) {
  FrameKind kind;
  Reader r(nullptr, 0);
  return OpenFrame(frame, kind, r, Checksum::kVerify);
}

bool PeekFrameKind(const WireFrame& frame, FrameKind& kind) {
  if (frame.bytes.size() < kWireHeaderSize) return false;
  const std::uint8_t k = frame.bytes[4];
  if (k != static_cast<std::uint8_t>(FrameKind::kData) &&
      k != static_cast<std::uint8_t>(FrameKind::kReply) &&
      k != static_cast<std::uint8_t>(FrameKind::kAck)) {
    return false;
  }
  kind = static_cast<FrameKind>(k);
  return true;
}

bool DecodeMessage(const WireFrame& frame, Message& out, Checksum crc) {
  FrameKind kind;
  Reader r(nullptr, 0);
  if (!OpenFrame(frame, kind, r, crc) || kind != FrameKind::kData) return false;

  // Decode into a local first: `out` must stay untouched on failure, and no
  // pooled column capacity is adopted until the row count has been validated
  // against the remaining payload.
  Message m;
  std::uint8_t has_token;
  std::uint64_t rows;
  if (!r.I64(m.id.value) || !r.I64(m.target.value) || !r.I64(m.sender.value) ||
      !r.I64(m.event_time) || !r.I64(m.enqueue_time) ||
      !r.I64(m.pc.id.value) || !r.I64(m.pc.pri_local) ||
      !r.I64(m.pc.pri_global) || !r.I64(m.pc.frontier_progress) ||
      !r.I64(m.pc.frontier_time) || !r.I64(m.pc.latency_constraint) ||
      !r.I64(m.pc.job.value) || !r.U8(has_token) || !r.I64(m.pc.token_tag) ||
      !r.I64(m.pc.token_interval) || !r.I64(m.batch.progress) ||
      !r.I64(m.batch.synthetic_count) || !r.U64(rows)) {
    return false;
  }
  m.pc.has_token = has_token != 0;
  // Exactly three 8-byte columns must remain. The division guard rejects a
  // corrupt row count large enough to wrap `rows * kDataRowBytes`.
  if (rows > r.remaining() / kDataRowBytes ||
      r.remaining() != rows * kDataRowBytes) {
    return false;
  }
  if (rows > 0) {
    // Adopt pooled capacity through the batch's own Append pathway, then
    // bulk-copy: the first Append swaps in recycled column buffers.
    m.batch.Append(0, 0, 0);
    m.batch.keys.clear();
    m.batch.values.clear();
    m.batch.times.clear();
    if (!r.Column(m.batch.keys, rows) || !r.Column(m.batch.values, rows) ||
        !r.Column(m.batch.times, rows)) {
      m.batch.Recycle();  // hand adopted capacity straight back
      return false;
    }
  }
  out = std::move(m);
  return true;
}

bool DecodeReply(const WireFrame& frame, WireReply& out, Checksum crc) {
  FrameKind kind;
  Reader r(nullptr, 0);
  if (!OpenFrame(frame, kind, r, crc) || kind != FrameKind::kReply) {
    return false;
  }
  WireReply reply;
  std::uint8_t valid;
  if (!r.I64(reply.sender.value) || !r.I64(reply.from.value) ||
      !r.I64(reply.rc.cost_m) || !r.I64(reply.rc.cost_path) ||
      !r.I64(reply.rc.queueing_delay) || !r.U8(valid) || r.remaining() != 0) {
    return false;
  }
  reply.rc.valid = valid != 0;
  out = reply;
  return true;
}

WireFrame AcquireFrame() {
  WireFrame f = RecycleStash<WireFrame>::Global().Take().value_or(WireFrame{});
  f.bytes.clear();
  f.deliver_at = 0;
  return f;
}

void ReleaseFrame(WireFrame frame) {
  RecycleStash<WireFrame>::Global().Put(std::move(frame));
}

}  // namespace cameo::shard
