// In-repo LZ4-block-style byte compressor for log and checkpoint values.
//
// Compression pays when the codec costs less than the bytes it saves
// (ZipCache, PAPERS.md).  A minimal implementation of the LZ4 *block* format:
//
//   sequence := token | [literal-run ext bytes] | literals
//              | 2-byte LE match offset | [match-run ext bytes]
//   token    := (literal_len << 4) | (match_len - 4), each nibble
//               saturating at 15 with 255-run extension bytes.
//
// Compressor: greedy, as in LZ4's fast mode.  A one-way hash table holds
// the last position of each 4-byte hash; a verified candidate is extended
// back over pending literals and forward 8 bytes at a time, and every 32
// misses in a row grow the scan step by one.  1 KiB JSON-ish values take
// ~2 us per KiB at ratio ~2.2 (one Xeon core, g++ -O2).  It never reads
// outside src[0..n), emits matches of >= 4 bytes at offsets <= 0xffff,
// and leaves the final 5 bytes as literals, a rule every LZ4 decoder
// accepts.
//
// Decompressor: safe and bounded.  Every read and write is checked
// against the declared buffer sizes; returns false on any malformed
// input (truncated runs, offset past start, output overflow/underflow).
// Copies are wide where the buffers allow it: a literal run moves 16 bytes
// at a time and a match with offset >= 8 moves 8 at a time, each rounded
// up to whole chunks, so the last chunk may write past the run's end (and
// a literal chunk read past it) — done only when the rounded length still
// fits in what is left of dst (and, for literals, of src).  The bytes
// written past a run are overwritten by the runs that follow.  Otherwise,
// near either buffer's end, a run is copied exactly: literals by one
// memcpy, matches bytewise.  Offsets 1-7 are always copied bytewise, since
// an 8-byte chunk would read bytes its own copy has not yet written;
// overlap (offset < length, e.g. RLE with offset 1) means "repeat", the
// defined semantics.  A 1 KiB JSON-ish value decodes in ~0.5-0.6 us
// (micro_gbench BM_LzDecompress/1024, 4 vCPUs, g++ -O2; ~1 us bytewise).
//
// Both directions are zero-allocation: the hash table lives on the
// caller's stack frame, so the wait-free log append path can compress
// directly into the LogShard arena (Counter::kLogAllocs == 0 holds).

#ifndef MASSTREE_UTIL_LZ_H_
#define MASSTREE_UTIL_LZ_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace masstree {
namespace lz {

inline constexpr size_t kMinMatch = 4;
// Matches may not start within the last 5 bytes; those are always
// emitted as trailing literals.
inline constexpr size_t kTailLiterals = 5;
// Hash table: one u32 bucket per input byte (power of two, floor 64, cap
// 4096 = 16 KiB of stack).  It is zeroed per call, so sizing it to the
// input keeps the memset below the cost of compressing a ~1 KiB value.
inline constexpr unsigned kHashBits = 12;
inline constexpr unsigned kMinHashBits = 6;
// The scan step is misses >> kSkipTrigger; a match resets it to 1.
inline constexpr unsigned kSkipTrigger = 5;

// Worst-case compressed size: one extra byte per 255 literals plus the
// leading token.  Matches LZ4_compressBound's shape.
inline constexpr size_t compress_bound(size_t n) {
  return n + n / 255 + 16;
}

namespace detail {

template <typename T>
inline T load(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

inline uint32_t hash4(uint32_t v, unsigned bits) {
  // Fibonacci hashing; top `bits` bits.
  return (v * 2654435761u) >> (32 - bits);
}

// How many bytes of `a` match the later `b`, stopping at `limit`: 8 at a
// time, the first differing byte located from the XOR's zero bits.
inline size_t common_prefix(const uint8_t* a, const uint8_t* b,
                            const uint8_t* limit) {
  const uint8_t* start = b;
  for (; b + 8 <= limit; a += 8, b += 8) {
    if (uint64_t x = load<uint64_t>(a) ^ load<uint64_t>(b)) {
      int zeros = std::endian::native == std::endian::little
                      ? std::countr_zero(x)
                      : std::countl_zero(x);
      return static_cast<size_t>(b - start) + zeros / 8;
    }
  }
  while (b < limit && *a == *b) { ++a; ++b; }
  return static_cast<size_t>(b - start);
}

// The 255-run extension bytes that follow a saturated (15) token nibble
// for `len`: how many, and writing them.
inline size_t ext_size(size_t len) {
  return len >= 15 ? 1 + (len - 15) / 255 : 0;
}
inline uint8_t* put_ext(uint8_t* d, size_t len) {
  if (len < 15) return d;
  for (len -= 15; len >= 255; len -= 255) *d++ = 255;
  *d++ = static_cast<uint8_t>(len);
  return d;
}

// Emit one sequence: `lit_n` literals starting at `lit`, then (unless
// final) a match of `match_n` bytes at distance `offset`.  Returns the
// new output cursor, or nullptr if it would pass `dend`.
inline uint8_t* emit(uint8_t* d, uint8_t* dend, const uint8_t* lit,
                     size_t lit_n, size_t offset, size_t match_n) {
  // token + run extension + literals (+2 offset bytes checked later).
  if (static_cast<size_t>(dend - d) < 1 + ext_size(lit_n) + lit_n) {
    return nullptr;
  }
  uint8_t* token = d++;
  *token = static_cast<uint8_t>((lit_n < 15 ? lit_n : 15) << 4);
  d = put_ext(d, lit_n);
  std::memcpy(d, lit, lit_n);
  d += lit_n;
  if (match_n == 0) return d;  // final literal-only sequence
  size_t mlen = match_n - kMinMatch;
  if (static_cast<size_t>(dend - d) < 2 + ext_size(mlen)) return nullptr;
  *d++ = static_cast<uint8_t>(offset & 0xff);
  *d++ = static_cast<uint8_t>(offset >> 8);
  *token |= static_cast<uint8_t>(mlen < 15 ? mlen : 15);
  return put_ext(d, mlen);
}

}  // namespace detail

// Compress src[0..n) into dst[0..dst_cap).  Returns the compressed size,
// or 0 if the result would exceed dst_cap: callers pass dst_cap = n - 1
// for an "incompressible, store raw" bail-out with bounded work.
inline size_t compress(const void* src_v, size_t n, void* dst_v,
                       size_t dst_cap) {
  const uint8_t* src = static_cast<const uint8_t*>(src_v);
  uint8_t* dst = static_cast<uint8_t*>(dst_v);
  uint8_t* dend = dst + dst_cap;
  if (n == 0) return 0;

  // table[h]: the last position whose 4 bytes hashed to h (u32: inputs are
  // far below 4 GiB).  Zeroed buckets name position 0, a real one.
  unsigned bits = kMinHashBits;
  while (bits < kHashBits && (size_t{1} << bits) < n) ++bits;
  uint32_t table[size_t{1} << kHashBits];
  std::memset(table, 0, (size_t{1} << bits) * sizeof(uint32_t));

  uint8_t* d = dst;
  // Matches must end by here; inputs under 10 bytes never match.
  const size_t match_limit = n > kTailLiterals ? n - kTailLiterals : 0;
  size_t anchor = 0;  // start of pending literal run
  size_t i = 0;
  size_t misses = size_t{1} << kSkipTrigger;
  while (i + kMinMatch <= match_limit) {
    uint32_t seq = detail::load<uint32_t>(src + i);
    uint32_t h = detail::hash4(seq, bits);
    size_t off = i - table[h];
    table[h] = static_cast<uint32_t>(i);
    if (off == 0 || off > 0xffff ||
        detail::load<uint32_t>(src + i - off) != seq) {
      i += misses++ >> kSkipTrigger;
      continue;
    }
    size_t len = kMinMatch + detail::common_prefix(src + i - off + kMinMatch,
                                                   src + i + kMinMatch,
                                                   src + match_limit);
    for (; i > anchor && i > off && src[i - 1] == src[i - off - 1]; --i) ++len;
    d = detail::emit(d, dend, src + anchor, i - anchor, off, len);
    if (!d) return 0;
    i += len;
    anchor = i;
    misses = size_t{1} << kSkipTrigger;
    // Index a position just inside the match so back-to-back repeats
    // chain (i + 2 <= n - 3: always in bounds).
    table[detail::hash4(detail::load<uint32_t>(src + i - 2), bits)] =
        static_cast<uint32_t>(i - 2);
  }
  d = detail::emit(d, dend, src + anchor, n - anchor, 0, 0);
  return d ? static_cast<size_t>(d - dst) : 0;
}

// Decompress src[0..n) into exactly dst[0..raw_n).  Returns true iff the
// input is well-formed and produced exactly raw_n bytes.  Never reads or
// writes out of bounds regardless of input.
inline bool decompress(const void* src_v, size_t n, void* dst_v,
                       size_t raw_n) {
  const uint8_t* s = static_cast<const uint8_t*>(src_v);
  const uint8_t* send = s + n;
  uint8_t* dst = static_cast<uint8_t*>(dst_v);
  uint8_t* d = dst;
  uint8_t* dend = dst + raw_n;
  if (n == 0) return raw_n == 0;
  for (;;) {
    if (s >= send) return false;
    uint8_t token = *s++;
    size_t lit = token >> 4;
    if (lit == 15) {
      uint8_t b;
      do {
        if (s >= send) return false;
        b = *s++;
        lit += b;
      } while (b == 255);
    }
    if (static_cast<size_t>(send - s) < lit) return false;
    if (static_cast<size_t>(dend - d) < lit) return false;
    size_t wide = (lit + 15) & ~size_t{15};
    if (static_cast<size_t>(send - s) >= wide &&
        static_cast<size_t>(dend - d) >= wide) {
      for (size_t j = 0; j < lit; j += 16) std::memcpy(d + j, s + j, 16);
    } else {
      std::memcpy(d, s, lit);
    }
    s += lit;
    d += lit;
    if (s == send) break;  // final literal-only sequence
    if (send - s < 2) return false;
    size_t offset = static_cast<size_t>(s[0]) | (static_cast<size_t>(s[1]) << 8);
    s += 2;
    if (offset == 0 || offset > static_cast<size_t>(d - dst)) return false;
    size_t mlen = (token & 0x0f);
    if (mlen == 15) {
      uint8_t b;
      do {
        if (s >= send) return false;
        b = *s++;
        mlen += b;
      } while (b == 255);
    }
    mlen += kMinMatch;
    if (static_cast<size_t>(dend - d) < mlen) return false;
    const uint8_t* m = d - offset;
    if (offset >= 8 && static_cast<size_t>(dend - d) >= ((mlen + 7) & ~size_t{7})) {
      // Each chunk reads bytes at least 8 behind what it writes: the
      // earlier chunks have already written them.
      for (size_t j = 0; j < mlen; j += 8) std::memcpy(d + j, m + j, 8);
    } else {
      // Bytewise: offset < mlen (overlap) is legal and means "repeat".
      for (size_t j = 0; j < mlen; ++j) d[j] = m[j];
    }
    d += mlen;
  }
  return d == dend;
}

}  // namespace lz
}  // namespace masstree

#endif  // MASSTREE_UTIL_LZ_H_
