// LEB128 varints + zigzag, shared by the log and checkpoint framing.
//
// Encoding is canonical: the decoder rejects overlong (non-minimal)
// encodings and anything that overflows 64 bits, so every value has
// exactly one on-disk representation.  That makes record sizes
// reproducible from decoded values and keeps a crafted
// "0x80 0x80 ... 0x00" run from being parsed as a valid zero.

#ifndef MASSTREE_UTIL_VARINT_H_
#define MASSTREE_UTIL_VARINT_H_

#include <cstddef>
#include <cstdint>

namespace masstree {
namespace vint {

// A canonical u64 varint is at most 10 bytes (ceil(64 / 7)).
inline constexpr size_t kMaxBytes = 10;

inline size_t size(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

inline char* put(char* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

// Decode one varint from [p, end).  Returns the pointer past the varint,
// or nullptr if the input is truncated, overlong, or exceeds 64 bits.
inline const char* get(const char* p, const char* end, uint64_t* out) {
  uint64_t v = 0;
  unsigned shift = 0;
  const char* start = p;
  for (;;) {
    if (p == end) return nullptr;  // truncated
    uint8_t b = static_cast<uint8_t>(*p++);
    if (shift == 63 && (b & 0xfe)) return nullptr;  // 10th byte: only 0 or 1
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) {
      if (b == 0 && p - start > 1) return nullptr;  // overlong
      *out = v;
      return p;
    }
    shift += 7;
  }
}

// Zigzag maps small-magnitude signed deltas to small unsigned varints.
inline uint64_t zigzag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t unzigzag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

}  // namespace vint
}  // namespace masstree

#endif  // MASSTREE_UTIL_VARINT_H_
