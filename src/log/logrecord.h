// Log record encoding (§5): the one on-disk record format.
//
// "A put operation appends to the query thread's log buffer ... Update
//  version numbers are written into the log along with the operation, and
//  each log record is timestamped."
//
// Log files and checkpoint parts are both streams of this format: a
// checkpoint part is a header followed by one put record per row (see
// checkpoint/checkpoint.h), so one encoder, one compress-or-raw rule
// (plan_column) and one decoder (for_each_record) cover everything on disk.
//
// == Format ==
//
// A stream begins with a 5-byte file header and may contain further
// headers at record boundaries (recovery's seal writes one before its
// kClose marker, and a reused file keeps appending after it):
//
//   "MTLG" u8 format_version            (2 = this format)
//
// A stream that does not start with the header (for instance a
// preallocated, zero-filled file whose first write never landed) has no
// valid records.
//
// Each record is varint-framed (LEB128, canonical — overlong encodings
// are rejected):
//
//   varint payload_len | payload | u32 crc32c(payload)
//
//   payload:
//     u8 tag             bits 0-2: wire type
//                          1 = put (multi-column)   2 = remove
//                          3 = marker               4 = close
//                          5 = put (single column, no ncols/ncol framing)
//                        0x10: timestamp is a zigzag delta
//                        0x20: version field present (version != 0)
//                        other bits must be zero
//     varint ts          absolute microseconds, or zigzag(ts - prev_ts)
//                        when the 0x10 flag is set; `prev_ts` is the
//                        timestamp of the preceding put/remove record in
//                        the stream (markers never carry or update the
//                        delta base, and a format header resets it)
//     [varint version]   only when the 0x20 flag is set
//     varint klen, key   put/remove only
//     columns            put only; single-column puts (tag 5) omit the
//                        count, multi-column puts (tag 1) carry varint
//                        ncols first.  Per column:
//                          varint col
//                          varint h = raw_len * 2 | compressed
//                          [varint stored_len]  only when compressed
//                          stored bytes         (lz block when compressed,
//                                                raw bytes otherwise)
//
// Readers stop at a short or corrupt record: everything after a torn tail
// is discarded, which is exactly the semantics group commit needs.  A
// header with any version other than 2 is different from corruption — the
// file's contents are presumptively valid but unreadable, so decoding
// fail-stops (throws) instead of silently truncating to the last point
// this build understands.
//
// Version policy: changing the format requires a new header version byte;
// readers fail-stop on a version they do not know.  The CRC is CRC-32C
// (hardware-accelerated; see util/crc32.h).
//
// The encoders come in two shapes: exact-size calculators plus in-place
// `encode_*_to(char*)` writers for the wait-free per-worker log buffers
// and the checkpoint writer (the append fast path never allocates —
// column payloads are described by ColPlan entries pointing at
// caller-owned bytes, compressed or raw), and `std::string`-appending
// wrappers for recovery tooling and tests (these prepend a header when
// the string is empty and always write absolute timestamps).
//
// There is one decoder, `for_each_record`: it decodes each record into a
// single reused LogEntry and hands it to a callback, so recovery streams a
// checkpoint part into the tree without a heap allocation per record.
// `decode_all` is the owning-copy wrapper for callers that keep entries.

#ifndef MASSTREE_LOG_LOGRECORD_H_
#define MASSTREE_LOG_LOGRECORD_H_

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/crc32.h"
#include "util/lz.h"
#include "util/varint.h"
#include "value/row.h"

namespace masstree {

enum class LogType : uint8_t {
  kPut = 1,
  kRemove = 2,
  // Timestamp heartbeat: written by idle loggers so a quiet log does not
  // hold back the recovery cutoff t = min over logs of last timestamp (§5).
  kMarker = 3,
  // Clean-completion marker: written when a log's producer detaches (session
  // close, store shutdown). A log whose LAST record is kClose lost nothing,
  // so it contributes its records to recovery without bounding the cutoff —
  // otherwise every dead session's file would pin t at its final write.
  kClose = 4,
};

// A decoded log record (owning copy, used during recovery).
struct LogEntry {
  LogType type;
  uint64_t timestamp_us;
  uint64_t version;
  std::string key;
  std::vector<std::pair<uint16_t, std::string>> columns;
  // Offset one past this record in the decoded buffer.  Variable-length
  // framing (varints, deltas, compression) means the wire size is not
  // reproducible from the decoded fields, so seal/truncate decisions use
  // this instead of re-encoding.
  size_t wire_end = 0;
};

namespace logwire {

// -- File header --------------------------------------------------------

inline constexpr char kLogMagic[4] = {'M', 'T', 'L', 'G'};
inline constexpr uint8_t kFormatV2 = 2;
inline constexpr size_t kHeaderSize = 5;

inline size_t encode_header_to(char* dst) {
  std::memcpy(dst, kLogMagic, 4);
  dst[4] = static_cast<char>(kFormatV2);
  return kHeaderSize;
}

inline void encode_header(std::string* out) {
  char h[kHeaderSize];
  encode_header_to(h);
  out->append(h, kHeaderSize);
}

// -- Wire constants ------------------------------------------------------

// Wire tag for a single-column put (decodes back to LogType::kPut).
inline constexpr uint8_t kTagPutSingle = 5;
inline constexpr uint8_t kFlagDeltaTs = 0x10;
inline constexpr uint8_t kFlagHasVersion = 0x20;

inline constexpr size_t kMinPayload = 2;            // tag + 1-byte ts
inline constexpr size_t kMaxPayload = 1u << 30;     // sanity cap
inline constexpr size_t kMaxColumnRaw = 1u << 28;   // cap decompressed size

// One column of a planned put record.  `data` points at the bytes to be
// stored verbatim (already-compressed bytes when `compressed`); the
// caller owns them (LogShard points these at its stack scratch).
struct ColPlan {
  uint32_t col = 0;
  const char* data = nullptr;
  uint32_t stored_len = 0;
  uint32_t raw_len = 0;  // == stored_len when not compressed
  bool compressed = false;
};

// The compress-or-raw decision for one column.  A column of at least
// `threshold` bytes (0 disables) and at most kMaxColumnRaw is
// lz-compressed into `scratch`, with a budget of raw_len - 1 bytes capped
// by `room`; a column that does not shrink within it is stored raw.
inline ColPlan plan_column(uint32_t col, std::string_view data,
                           size_t threshold, char* scratch, size_t room) {
  ColPlan p{col, data.data(), static_cast<uint32_t>(data.size()),
            static_cast<uint32_t>(data.size()), false};
  if (threshold != 0 && data.size() >= threshold &&
      data.size() <= kMaxColumnRaw) {
    size_t cap = data.size() - 1 < room ? data.size() - 1 : room;
    size_t z = cap == 0 ? 0 : lz::compress(data.data(), data.size(), scratch, cap);
    if (z != 0) {
      p.data = scratch;
      p.stored_len = static_cast<uint32_t>(z);
      p.compressed = true;
    }
  }
  return p;
}

namespace detail {

inline size_t col_plan_bytes(const ColPlan* cols, size_t ncols) {
  size_t n = 0;
  for (size_t i = 0; i < ncols; ++i) {
    const ColPlan& c = cols[i];
    n += vint::size(c.col) +
         vint::size((static_cast<uint64_t>(c.raw_len) << 1) |
                    (c.compressed ? 1 : 0));
    if (c.compressed) n += vint::size(c.stored_len);
    n += c.stored_len;
  }
  return n;
}

inline size_t put_payload_size(std::string_view key, const ColPlan* cols,
                               size_t ncols, uint64_t version,
                               uint64_t ts_field) {
  size_t n = 1 + vint::size(ts_field);
  if (version != 0) n += vint::size(version);
  n += vint::size(key.size()) + key.size();
  if (ncols != 1) n += vint::size(ncols);
  return n + col_plan_bytes(cols, ncols);
}

inline size_t remove_payload_size(std::string_view key, uint64_t version,
                                  uint64_t ts_field) {
  size_t n = 1 + vint::size(ts_field);
  if (version != 0) n += vint::size(version);
  return n + vint::size(key.size()) + key.size();
}

}  // namespace detail

// Record sizes for the in-place encoders.  `ts_field` is the value the
// timestamp varint will actually carry: the absolute microsecond stamp,
// or vint::zigzag(ts - prev_ts) when encoding a delta — varint width
// depends on it.
inline size_t put_record_size(std::string_view key, const ColPlan* cols,
                              size_t ncols, uint64_t version,
                              uint64_t ts_field) {
  size_t payload =
      detail::put_payload_size(key, cols, ncols, version, ts_field);
  return vint::size(payload) + payload + sizeof(uint32_t);
}

inline size_t remove_record_size(std::string_view key, uint64_t version,
                                 uint64_t ts_field) {
  size_t payload = detail::remove_payload_size(key, version, ts_field);
  return vint::size(payload) + payload + sizeof(uint32_t);
}

inline size_t marker_record_size(uint64_t timestamp_us) {
  size_t payload = 1 + vint::size(timestamp_us);
  return vint::size(payload) + payload + sizeof(uint32_t);
}

// In-place encoders.  `dst` must have room for the matching
// *_record_size (computed with the same ts_field).  Return bytes
// written.  `delta` says whether ts_field is a zigzag delta.
inline size_t encode_put_to(char* dst, std::string_view key,
                            const ColPlan* cols, size_t ncols,
                            uint64_t version, uint64_t ts_field,
                            bool delta) {
  size_t payload =
      detail::put_payload_size(key, cols, ncols, version, ts_field);
  char* p = vint::put(dst, payload);
  char* payload_start = p;
  uint8_t tag = ncols == 1 ? kTagPutSingle
                           : static_cast<uint8_t>(LogType::kPut);
  if (delta) tag |= kFlagDeltaTs;
  if (version != 0) tag |= kFlagHasVersion;
  *p++ = static_cast<char>(tag);
  p = vint::put(p, ts_field);
  if (version != 0) p = vint::put(p, version);
  p = vint::put(p, key.size());
  std::memcpy(p, key.data(), key.size());
  p += key.size();
  if (ncols != 1) p = vint::put(p, ncols);
  for (size_t i = 0; i < ncols; ++i) {
    const ColPlan& c = cols[i];
    p = vint::put(p, c.col);
    p = vint::put(p, (static_cast<uint64_t>(c.raw_len) << 1) |
                         (c.compressed ? 1 : 0));
    if (c.compressed) p = vint::put(p, c.stored_len);
    std::memcpy(p, c.data, c.stored_len);
    p += c.stored_len;
  }
  uint32_t crc = crc32(payload_start, static_cast<size_t>(p - payload_start));
  std::memcpy(p, &crc, sizeof(crc));
  p += sizeof(crc);
  return static_cast<size_t>(p - dst);
}

inline size_t encode_remove_to(char* dst, std::string_view key,
                               uint64_t version, uint64_t ts_field,
                               bool delta) {
  size_t payload = detail::remove_payload_size(key, version, ts_field);
  char* p = vint::put(dst, payload);
  char* payload_start = p;
  uint8_t tag = static_cast<uint8_t>(LogType::kRemove);
  if (delta) tag |= kFlagDeltaTs;
  if (version != 0) tag |= kFlagHasVersion;
  *p++ = static_cast<char>(tag);
  p = vint::put(p, ts_field);
  if (version != 0) p = vint::put(p, version);
  p = vint::put(p, key.size());
  std::memcpy(p, key.data(), key.size());
  p += key.size();
  uint32_t crc = crc32(payload_start, static_cast<size_t>(p - payload_start));
  std::memcpy(p, &crc, sizeof(crc));
  p += sizeof(crc);
  return static_cast<size_t>(p - dst);
}

// Markers and kClose always carry an absolute timestamp and never
// participate in delta chains: the log writer stamps them directly into
// the file between arena flushes, so they can land between two records
// whose delta link must survive them.
inline size_t encode_marker_to(char* dst, LogType type,
                               uint64_t timestamp_us) {
  size_t payload = 1 + vint::size(timestamp_us);
  char* p = vint::put(dst, payload);
  char* payload_start = p;
  *p++ = static_cast<char>(static_cast<uint8_t>(type));
  p = vint::put(p, timestamp_us);
  uint32_t crc = crc32(payload_start, static_cast<size_t>(p - payload_start));
  std::memcpy(p, &crc, sizeof(crc));
  p += sizeof(crc);
  return static_cast<size_t>(p - dst);
}

// -- String-appending wrappers (recovery tooling, tests) ----------------
//
// These write records with absolute timestamps and no compression, and
// prepend a format header when `out` is empty so the result is a valid
// standalone stream.

inline void encode_put(std::string* out, std::string_view key,
                       const std::vector<ColumnUpdate>& updates,
                       uint64_t version, uint64_t timestamp_us) {
  if (out->empty()) encode_header(out);
  std::vector<ColPlan> plans(updates.size());
  for (size_t i = 0; i < updates.size(); ++i) {
    plans[i].col = updates[i].col;
    plans[i].data = updates[i].data.data();
    plans[i].stored_len = static_cast<uint32_t>(updates[i].data.size());
    plans[i].raw_len = plans[i].stored_len;
    plans[i].compressed = false;
  }
  size_t old = out->size();
  out->resize(old + put_record_size(key, plans.data(), plans.size(),
                                    version, timestamp_us));
  encode_put_to(out->data() + old, key, plans.data(), plans.size(),
                version, timestamp_us, /*delta=*/false);
}

inline void encode_remove(std::string* out, std::string_view key,
                          uint64_t version, uint64_t timestamp_us) {
  if (out->empty()) encode_header(out);
  size_t old = out->size();
  out->resize(old + remove_record_size(key, version, timestamp_us));
  encode_remove_to(out->data() + old, key, version, timestamp_us,
                   /*delta=*/false);
}

inline void encode_marker(std::string* out, uint64_t timestamp_us) {
  if (out->empty()) encode_header(out);
  size_t old = out->size();
  out->resize(old + marker_record_size(timestamp_us));
  encode_marker_to(out->data() + old, LogType::kMarker, timestamp_us);
}

inline void encode_close(std::string* out, uint64_t timestamp_us) {
  if (out->empty()) encode_header(out);
  size_t old = out->size();
  out->resize(old + marker_record_size(timestamp_us));
  encode_marker_to(out->data() + old, LogType::kClose, timestamp_us);
}

// -- Decoding ------------------------------------------------------------

namespace detail {

// Header probe at a record boundary.  Returns:
//   0  no header here (parse as a record)
//   1  header consumed, pos advanced
//   2  torn header prefix — stop cleanly at pos
// Throws on any version but kFormatV2: that file is presumptively valid
// but unreadable, and truncating it would silently destroy committed data.
inline int probe_header(std::string_view buf, size_t* pos) {
  size_t rem = buf.size() - *pos;
  size_t cmp = rem < 4 ? rem : 4;
  if (cmp == 0 || std::memcmp(buf.data() + *pos, kLogMagic, cmp) != 0) {
    return 0;
  }
  if (rem < kHeaderSize) return 2;  // torn header
  uint8_t ver = static_cast<uint8_t>(buf[*pos + 4]);
  if (ver != kFormatV2) {
    throw std::runtime_error(
        "log: unsupported format version " + std::to_string(ver) +
        " (this build reads version 2); refusing to truncate");
  }
  *pos += kHeaderSize;
  return 1;
}

struct Frame {
  size_t payload_off;
  size_t payload_len;
  size_t end;  // one past the crc
};

// Validate the frame (length varint, bounds, crc) at `pos`.
// Returns false on a torn or corrupt frame (stop at pos).
inline bool check_frame(std::string_view buf, size_t pos, Frame* f) {
  const char* base = buf.data();
  uint64_t len;
  const char* q = vint::get(base + pos, base + buf.size(), &len);
  if (!q || len < kMinPayload || len > kMaxPayload) return false;
  size_t payload_off = static_cast<size_t>(q - base);
  if (buf.size() - payload_off < len + sizeof(uint32_t)) return false;
  uint32_t want_crc;
  std::memcpy(&want_crc, base + payload_off + len, sizeof(uint32_t));
  if (crc32(base + payload_off, static_cast<size_t>(len)) != want_crc) {
    return false;
  }
  f->payload_off = payload_off;
  f->payload_len = static_cast<size_t>(len);
  f->end = payload_off + static_cast<size_t>(len) + sizeof(uint32_t);
  return true;
}

// Tag sanity shared by the cheap validator and the full decoder.
inline bool tag_ok(uint8_t tag) {
  uint8_t type = tag & 0x07;
  if (type < static_cast<uint8_t>(LogType::kPut) || type > kTagPutSingle) {
    return false;
  }
  if (tag & ~uint8_t(0x07 | kFlagDeltaTs | kFlagHasVersion)) return false;
  if (type == static_cast<uint8_t>(LogType::kMarker) ||
      type == static_cast<uint8_t>(LogType::kClose)) {
    // Markers are always absolute and versionless.
    if (tag & (kFlagDeltaTs | kFlagHasVersion)) return false;
  }
  return true;
}

}  // namespace detail

// Length of the valid record prefix of buf: frames and checksums are
// verified, but no entries are materialized — O(1) memory, used by startup
// tail repair, which needs no keys or values (and no decompression).
// Throws on an unknown header version.
inline size_t valid_prefix_bytes(std::string_view buf) {
  size_t pos = 0;
  if (detail::probe_header(buf, &pos) != 1) return 0;  // headerless: nothing
  for (;;) {
    if (pos == buf.size()) return pos;
    int h = detail::probe_header(buf, &pos);
    if (h == 2) return pos;
    if (h == 1) continue;
    detail::Frame f;
    if (!detail::check_frame(buf, pos, &f) ||
        !detail::tag_ok(static_cast<uint8_t>(buf[f.payload_off]))) {
      return pos;
    }
    pos = f.end;
  }
}

namespace detail {

// Decode the record whose frame was already validated into *e, reusing
// its key and column strings (a reused entry keeps their capacity, so a
// stream of similar records decodes without a heap allocation each).
// Returns false on a malformed payload (decoder stops at the record
// start).  Updates the delta base via *prev_ts / *have_prev.
inline bool decode_record(std::string_view buf, const Frame& f,
                             LogEntry* e, uint64_t* prev_ts,
                             bool* have_prev) {
  const char* p = buf.data() + f.payload_off;
  const char* end = p + f.payload_len;
  uint8_t tag = static_cast<uint8_t>(*p++);
  if (!tag_ok(tag)) return false;
  uint8_t type = tag & 0x07;
  uint64_t ts_field;
  p = vint::get(p, end, &ts_field);
  if (!p) return false;
  if (tag & kFlagDeltaTs) {
    if (!*have_prev) return false;  // dangling delta: base was discarded
    e->timestamp_us = *prev_ts +
        static_cast<uint64_t>(vint::unzigzag(ts_field));
  } else {
    e->timestamp_us = ts_field;
  }
  e->version = 0;
  if (tag & kFlagHasVersion) {
    p = vint::get(p, end, &e->version);
    if (!p || e->version == 0) return false;
  }
  if (type == static_cast<uint8_t>(LogType::kMarker) ||
      type == static_cast<uint8_t>(LogType::kClose)) {
    if (p != end) return false;
    e->key.clear();
    e->columns.clear();
    e->type = static_cast<LogType>(type);
    return true;
  }
  uint64_t klen;
  p = vint::get(p, end, &klen);
  if (!p || klen > static_cast<size_t>(end - p)) return false;
  e->key.assign(p, static_cast<size_t>(klen));
  p += klen;
  if (type == static_cast<uint8_t>(LogType::kRemove)) {
    if (p != end) return false;
    e->type = LogType::kRemove;
    e->columns.clear();
  } else {
    e->type = LogType::kPut;
    uint64_t ncols = 1;
    if (type == static_cast<uint8_t>(LogType::kPut)) {
      p = vint::get(p, end, &ncols);
      if (!p || ncols > 0xffff) return false;
    }
    size_t n = 0;  // columns decoded so far; later slots are stale
    for (uint64_t i = 0; i < ncols; ++i) {
      uint64_t col, h;
      p = vint::get(p, end, &col);
      if (!p || col > 0xffff) return false;
      p = vint::get(p, end, &h);
      if (!p) return false;
      uint64_t raw_len = h >> 1;
      if (raw_len > kMaxColumnRaw) return false;
      uint64_t stored_len = raw_len;
      if (h & 1) {
        p = vint::get(p, end, &stored_len);
        if (!p) return false;
      }
      if (stored_len > static_cast<size_t>(end - p)) return false;
      if (n == e->columns.size()) e->columns.emplace_back();
      auto& [c, out] = e->columns[n++];
      c = static_cast<uint16_t>(col);
      if (h & 1) {
        out.resize(static_cast<size_t>(raw_len));
        if (!lz::decompress(p, static_cast<size_t>(stored_len), out.data(),
                            out.size())) {
          return false;
        }
      } else {
        out.assign(p, static_cast<size_t>(raw_len));
      }
      p += stored_len;
    }
    if (p != end) return false;
    e->columns.resize(n);
  }
  // Only data records move the delta base; the caller skips this for
  // markers via the early return above.
  *prev_ts = e->timestamp_us;
  *have_prev = true;
  return true;
}

}  // namespace detail

// The decoder: calls fn(const LogEntry&) for every complete,
// checksum-valid record of buf, in order.  One entry is reused for the
// whole stream, so fn must copy what it keeps.  Stops (without error) at
// a torn or corrupt tail and returns the number of bytes consumed.
// Throws on an unknown format-header version (fail-stop, never truncate).
template <typename F>
size_t for_each_record(std::string_view buf, F&& fn) {
  size_t pos = 0;
  if (detail::probe_header(buf, &pos) != 1) return 0;  // headerless: nothing
  uint64_t prev_ts = 0;
  bool have_prev = false;
  LogEntry e;
  for (;;) {
    if (pos == buf.size()) return pos;
    int h = detail::probe_header(buf, &pos);
    if (h == 2) return pos;
    if (h == 1) {
      have_prev = false;  // a header resets the delta base
      continue;
    }
    detail::Frame f;
    if (!detail::check_frame(buf, pos, &f)) return pos;
    if (!detail::decode_record(buf, f, &e, &prev_ts, &have_prev)) {
      return pos;
    }
    pos = f.end;
    e.wire_end = pos;
    fn(static_cast<const LogEntry&>(e));
  }
}

// for_each_record, keeping an owning copy of every record.
inline size_t decode_all(std::string_view buf, std::vector<LogEntry>* out) {
  return for_each_record(buf, [out](const LogEntry& e) { out->push_back(e); });
}

}  // namespace logwire
}  // namespace masstree

#endif  // MASSTREE_LOG_LOGRECORD_H_
