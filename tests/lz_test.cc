// In-repo LZ4-block-style compressor tests: round-trips across value
// shapes (compressible, incompressible, pathological repeats, inputs past
// the 64 KiB offset reach), an every-size sweep, the word-wise match
// extension's end-of-input boundary, format compatibility with a stream
// from the earlier compressor, a ratio floor on JSON-ish log values, and
// fuzz-style safety of the bounded decoder against truncated and
// bit-flipped input (it must fail cleanly, never read or write out of
// bounds — the ASan/UBSan lanes enforce the "never").  The decoder's wide
// copies are checked against a bytewise reference decoder: on hand-built
// streams with every short match offset and runs that end near either
// buffer's end, and on thousands of damaged streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "util/lz.h"

namespace masstree {
namespace {

// Deterministic xorshift so failures reproduce (test code cannot rely on
// wall-clock seeds anyway: reproducibility beats coverage variance).
struct Rng {
  uint64_t s = 0x9e3779b97f4a7c15ull;
  uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

// The decoder before wide copies, kept as the oracle: literals by memcpy,
// matches a byte at a time, the same bounds checks.
bool ReferenceDecompress(const void* src_v, size_t n, void* dst_v,
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
    std::memcpy(d, s, lit);
    s += lit;
    d += lit;
    if (s == send) break;
    if (send - s < 2) return false;
    size_t offset = static_cast<size_t>(s[0]) | (static_cast<size_t>(s[1]) << 8);
    s += 2;
    if (offset == 0 || offset > static_cast<size_t>(d - dst)) return false;
    size_t mlen = token & 0x0f;
    if (mlen == 15) {
      uint8_t b;
      do {
        if (s >= send) return false;
        b = *s++;
        mlen += b;
      } while (b == 255);
    }
    mlen += lz::kMinMatch;
    if (static_cast<size_t>(dend - d) < mlen) return false;
    for (size_t j = 0; j < mlen; ++j) d[j] = d[j - offset];
    d += mlen;
  }
  return d == dend;
}

// Decodes `stream` into raw_n bytes with both decoders and expects the
// same verdict and, on success, the same bytes.  Returns the verdict.
bool DecodersAgree(const std::string& stream, size_t raw_n,
                   const std::string& what) {
  std::string wide(raw_n, '\0');
  std::string exact(raw_n, '\0');
  bool ok = lz::decompress(stream.data(), stream.size(), wide.data(), raw_n);
  bool ref = ReferenceDecompress(stream.data(), stream.size(), exact.data(),
                                 raw_n);
  EXPECT_EQ(ok, ref) << what;
  if (ok && ref) {
    EXPECT_EQ(wide, exact) << what;
  }
  return ok && ref;
}

std::string RoundTrip(const std::string& raw, bool* compressed_out = nullptr) {
  std::string comp(lz::compress_bound(raw.size()), '\0');
  size_t csize =
      lz::compress(raw.data(), raw.size(), comp.data(), comp.size());
  if (compressed_out != nullptr) {
    *compressed_out = csize != 0;
  }
  if (csize == 0) {
    return raw;  // bail-out: caller stores raw
  }
  std::string back(raw.size(), '\0');
  EXPECT_TRUE(lz::decompress(comp.data(), csize, back.data(), back.size()));
  comp.resize(csize);
  EXPECT_TRUE(DecodersAgree(comp, raw.size(), "round trip"));
  return back;
}

TEST(Lz, EmptyAndTiny) {
  EXPECT_EQ(RoundTrip(""), "");
  EXPECT_EQ(RoundTrip("a"), "a");
  EXPECT_EQ(RoundTrip("abcdefgh"), "abcdefgh");
}

TEST(Lz, PathologicalRepeats) {
  EXPECT_EQ(RoundTrip(std::string(100000, 'x')), std::string(100000, 'x'));
  std::string two;
  for (int i = 0; i < 50000; ++i) {
    two += (i & 1) ? 'a' : 'b';
  }
  EXPECT_EQ(RoundTrip(two), two);
  std::string period3;
  for (int i = 0; i < 9999; ++i) {
    period3 += "abc"[i % 3];
  }
  EXPECT_EQ(RoundTrip(period3), period3);
  // Highly repetitive input must actually compress hard.
  std::string comp(lz::compress_bound(100000), '\0');
  size_t csize = lz::compress(std::string(100000, 'x').data(), 100000,
                              comp.data(), comp.size());
  ASSERT_GT(csize, 0u);
  EXPECT_LT(csize, 1000u);
}

TEST(Lz, IncompressibleBailsOutWithTightBudget) {
  Rng rng;
  std::string raw(4096, '\0');
  for (auto& c : raw) {
    c = static_cast<char>(rng.next());
  }
  // The log's calling convention: dst_cap = n - 1, so incompressible data
  // returns 0 (stored raw) instead of expanding.
  std::string comp(raw.size() - 1, '\0');
  EXPECT_EQ(lz::compress(raw.data(), raw.size(), comp.data(), comp.size()),
            0u);
  // With a generous budget it still round-trips whatever it produces.
  EXPECT_EQ(RoundTrip(raw), raw);
}

TEST(Lz, MixedContentRoundTrip) {
  Rng rng;
  std::string raw;
  for (int block = 0; block < 200; ++block) {
    if (rng.next() & 1) {
      raw.append(32 + rng.next() % 200, static_cast<char>('A' + block % 26));
    } else {
      for (unsigned i = 0; i < 64; ++i) {
        raw += static_cast<char>(rng.next());
      }
    }
  }
  bool compressed = false;
  EXPECT_EQ(RoundTrip(raw, &compressed), raw);
  EXPECT_TRUE(compressed);
}

// Every size 0..2048 in three shapes: catches off-by-ones around the
// min-match and tail-literal cutoffs and the wide copies' chunk rounding.
TEST(Lz, EverySmallSizeSweep) {
  Rng rng;
  for (size_t n = 0; n <= 2048; ++n) {
    std::string rep(n, 'r');
    EXPECT_EQ(RoundTrip(rep), rep) << "repeat n=" << n;
    std::string cyc;
    for (size_t i = 0; i < n; ++i) {
      cyc += static_cast<char>('a' + i % 13);
    }
    EXPECT_EQ(RoundTrip(cyc), cyc) << "cyclic n=" << n;
    std::string rnd;
    for (size_t i = 0; i < n; ++i) {
      rnd += static_cast<char>(rng.next());
    }
    EXPECT_EQ(RoundTrip(rnd), rnd) << "random n=" << n;
  }
}

// A repeat that runs to exactly n - k, for every k: the forward match
// extension compares 8 bytes at a time up to the last 5 bytes, so every
// alignment of the repeat's end against that limit must still round-trip.
TEST(Lz, RepeatEndingAtEveryDistanceFromTheEnd) {
  Rng rng;
  for (size_t n = 0; n <= 600; ++n) {
    std::string base(n, '\0');
    for (auto& c : base) {
      c = static_cast<char>(rng.next());
    }
    for (size_t k = 0; k <= n; ++k) {
      size_t dist = 1 + (n + k) % 40;
      size_t end = n - k;
      std::string raw = base;
      for (size_t j = dist; j < end; ++j) {
        raw[j] = raw[j - dist];
      }
      if (k > 0 && end >= dist) {
        raw[end] = static_cast<char>(raw[end - dist] ^ 1);
      }
      ASSERT_EQ(RoundTrip(raw), raw) << "n=" << n << " k=" << k;
    }
  }
}

// Over 64 KiB: positions past 0xffff, and a repeat that lies beyond the
// 2-byte offset's reach must not be taken.
TEST(Lz, LargeInputs) {
  Rng rng;
  std::string far(128 << 10, '\0');
  for (auto& c : far) {
    c = static_cast<char>(rng.next());
  }
  far.append(far, 0, 80 << 10);  // the only repeat: 128 KiB back
  ASSERT_GE(far.size(), 200u << 10);
  EXPECT_EQ(RoundTrip(far), far);
  std::string tight(far.size() - 1, '\0');
  EXPECT_EQ(lz::compress(far.data(), far.size(), tight.data(), tight.size()),
            0u);

  std::string mixed;
  while (mixed.size() < (1u << 20)) {
    size_t run = 16 + rng.next() % 4000;
    switch (rng.next() % 3) {
      case 0:  // random bytes
        for (size_t i = 0; i < run; ++i) {
          mixed += static_cast<char>(rng.next());
        }
        break;
      case 1:  // a byte run
        mixed.append(run, static_cast<char>(rng.next()));
        break;
      default:  // a copy from up to ~96 KiB back
        if (!mixed.empty()) {
          size_t from = mixed.size() - 1 - rng.next() % std::min<size_t>(
                                                      mixed.size(), 96 << 10);
          for (size_t i = 0; i < run; ++i) {
            mixed += mixed[from + i];
          }
        }
    }
  }
  mixed.resize(1u << 20);
  bool compressed = false;
  EXPECT_EQ(RoundTrip(mixed, &compressed), mixed);
  EXPECT_TRUE(compressed);
}

// The input kGoldenStream encodes: JSON-ish records (short matches at
// many offsets), a literal run past 15 bytes, and a 300-byte run (an
// overlapping offset-1 match with 255-extension length bytes).
std::string GoldenInput() {
  std::string s;
  for (int i = 0; i < 12; ++i) {
    s += "{\"id\":" + std::to_string(1000 + i * 37) + ",\"name\":\"" +
         (i % 3 != 0 ? "bravo" : "alpha") + "\"},";
  }
  Rng rng;
  for (int i = 0; i < 40; ++i) {
    s += static_cast<char>('a' + rng.next() % 26);
  }
  s += std::string(300, '=');
  s += "tail";
  return s;
}

// GoldenInput() as compressed by the earlier compressor (two candidates
// per hash bucket), the one that wrote every log and checkpoint before
// the current match finder: files it wrote must still read.
constexpr uint8_t kGoldenStream[] = {
    0xf4, 0x0c, 0x7b, 0x22, 0x69, 0x64, 0x22, 0x3a, 0x31, 0x30, 0x30, 0x30,
    0x2c, 0x22, 0x6e, 0x61, 0x6d, 0x65, 0x22, 0x3a, 0x22, 0x61, 0x6c, 0x70,
    0x68, 0x61, 0x22, 0x7d, 0x2c, 0x1b, 0x00, 0x25, 0x33, 0x37, 0x1b, 0x00,
    0x57, 0x62, 0x72, 0x61, 0x76, 0x6f, 0x1b, 0x00, 0x2f, 0x37, 0x34, 0x1b,
    0x00, 0x05, 0x35, 0x31, 0x31, 0x31, 0x1b, 0x00, 0x0b, 0x51, 0x00, 0x3f,
    0x31, 0x34, 0x38, 0x36, 0x00, 0x06, 0x2f, 0x38, 0x35, 0x1b, 0x00, 0x05,
    0x35, 0x32, 0x32, 0x32, 0x1b, 0x00, 0x0b, 0x51, 0x00, 0x3f, 0x32, 0x35,
    0x39, 0x36, 0x00, 0x06, 0x2f, 0x39, 0x36, 0x1b, 0x00, 0x05, 0x35, 0x33,
    0x33, 0x33, 0x1b, 0x00, 0x0b, 0x51, 0x00, 0x26, 0x33, 0x37, 0x0e, 0x01,
    0x0b, 0xf3, 0x00, 0x2e, 0x34, 0x30, 0x0e, 0x01, 0xff, 0x1a, 0x6c, 0x6b,
    0x6b, 0x79, 0x6d, 0x68, 0x64, 0x6d, 0x64, 0x73, 0x72, 0x7a, 0x6e, 0x67,
    0x76, 0x68, 0x6d, 0x6e, 0x62, 0x70, 0x6c, 0x6a, 0x6b, 0x73, 0x66, 0x65,
    0x70, 0x6e, 0x68, 0x6a, 0x70, 0x6e, 0x75, 0x61, 0x6a, 0x77, 0x75, 0x74,
    0x6e, 0x71, 0x3d, 0x01, 0x00, 0xff, 0x18, 0x50, 0x3d, 0x74, 0x61, 0x69,
    0x6c,
};

TEST(Lz, DecodesStreamFromEarlierCompressor) {
  std::string raw = GoldenInput();
  std::string back(raw.size(), '\0');
  ASSERT_TRUE(lz::decompress(kGoldenStream, sizeof(kGoldenStream), back.data(),
                             back.size()));
  EXPECT_EQ(back, raw);
  EXPECT_TRUE(DecodersAgree(
      std::string(reinterpret_cast<const char*>(kGoldenStream), sizeof(kGoldenStream)),
      raw.size(), "golden"));
  bool compressed = false;
  EXPECT_EQ(RoundTrip(raw, &compressed), raw);
  EXPECT_TRUE(compressed);
}

// 1 KiB values shaped like kvbench's: an 8-byte binary header, then
// JSON records drawn from a small vocabulary.
std::string JsonValue(Rng& rng, size_t size) {
  static constexpr const char* kWords[] = {"alpha", "bravo",   "charlie",
                                           "delta", "echo",    "foxtrot",
                                           "golf",  "hotel"};
  std::string s;
  for (int i = 0; i < 8; ++i) {
    s += static_cast<char>(rng.next());
  }
  while (s.size() < size) {
    char rec[128];
    int n = std::snprintf(
        rec, sizeof(rec),
        "{\"id\":%u,\"name\":\"%s\",\"tags\":[\"%s\",\"%s\"],\"score\":%u},",
        static_cast<unsigned>(rng.next() % 100000), kWords[rng.next() % 8],
        kWords[rng.next() % 8], kWords[rng.next() % 8],
        static_cast<unsigned>(rng.next() % 1000));
    s.append(rec, static_cast<size_t>(n));
  }
  s.resize(size);
  return s;
}

// The earlier compressor's aggregate ratio on the values below; the match
// finder may trade ratio for speed, but by no more than 5%.
constexpr double kEarlierJsonRatio = 2.285;

TEST(Lz, JsonValueRatioFloor) {
  Rng rng;
  size_t raw_bytes = 0, stored_bytes = 0;
  for (int v = 0; v < 64; ++v) {
    std::string raw = JsonValue(rng, 1024);
    // The log's calling convention: dst_cap = n - 1, 0 means stored raw.
    std::string comp(raw.size() - 1, '\0');
    size_t csize =
        lz::compress(raw.data(), raw.size(), comp.data(), comp.size());
    ASSERT_GT(csize, 0u);
    std::string back(raw.size(), '\0');
    ASSERT_TRUE(lz::decompress(comp.data(), csize, back.data(), back.size()));
    ASSERT_EQ(back, raw);
    raw_bytes += raw.size();
    stored_bytes += csize;
  }
  double ratio = static_cast<double>(raw_bytes) / stored_bytes;
  std::printf("json 1 KiB ratio %.4f (earlier compressor %.4f)\n", ratio,
              kEarlierJsonRatio);
  EXPECT_GE(ratio, 0.95 * kEarlierJsonRatio);
}

TEST(Lz, DecoderRejectsTruncatedInput) {
  std::string raw;
  for (int i = 0; i < 500; ++i) {
    raw += "some repeating log value payload " + std::to_string(i % 4);
  }
  std::string comp(lz::compress_bound(raw.size()), '\0');
  size_t csize =
      lz::compress(raw.data(), raw.size(), comp.data(), comp.size());
  ASSERT_GT(csize, 0u);
  std::string back(raw.size(), '\0');
  // Every strict prefix must fail cleanly: raw_n bytes were promised and
  // cannot be produced.
  for (size_t cut = 0; cut < csize; ++cut) {
    EXPECT_FALSE(lz::decompress(comp.data(), cut, back.data(), back.size()))
        << "cut=" << cut;
  }
  EXPECT_TRUE(lz::decompress(comp.data(), csize, back.data(), back.size()));
  EXPECT_EQ(back, raw);
}

TEST(Lz, DecoderSurvivesBitFlips) {
  std::string raw;
  for (int i = 0; i < 300; ++i) {
    raw += "value-" + std::to_string(i) + std::string(i % 17, '=');
  }
  std::string comp(lz::compress_bound(raw.size()), '\0');
  size_t csize =
      lz::compress(raw.data(), raw.size(), comp.data(), comp.size());
  ASSERT_GT(csize, 0u);
  comp.resize(csize);
  std::string back(raw.size(), '\0');
  // Flip every byte (all 8 bits at once) one position at a time. The
  // decoder either fails or produces raw.size() bytes of garbage — both
  // fine — but it must never touch memory outside the two buffers.
  for (size_t i = 0; i < csize; ++i) {
    std::string evil = comp;
    evil[i] = static_cast<char>(~evil[i]);
    (void)lz::decompress(evil.data(), evil.size(), back.data(), back.size());
  }
  // Wrong raw_n promises (too small and too large) must also fail cleanly.
  std::string small_buf(raw.size() / 2, '\0');
  EXPECT_FALSE(lz::decompress(comp.data(), csize, small_buf.data(),
                              small_buf.size()));
  std::string big(raw.size() * 2, '\0');
  EXPECT_FALSE(lz::decompress(comp.data(), csize, big.data(), big.size()));
}

TEST(Lz, DecoderRejectsBogusOffsets) {
  // Hand-built stream: literal run of 4 then a match with offset 9000
  // pointing far before the output start.
  std::string evil;
  evil.push_back('\x4f');  // token: 4 literals, match len 15+
  evil += "abcd";
  evil.push_back('\x28');  // offset 9000 = 0x2328 little-endian
  evil.push_back('\x23');
  evil.push_back('\x00');  // match length extension terminator
  std::string back(64, '\0');
  EXPECT_FALSE(
      lz::decompress(evil.data(), evil.size(), back.data(), back.size()));
  // Offset 0 is always invalid.
  std::string zero;
  zero.push_back('\x40');  // 4 literals, minimal match
  zero += "abcd";
  zero.push_back('\x00');
  zero.push_back('\x00');
  EXPECT_FALSE(
      lz::decompress(zero.data(), zero.size(), back.data(), back.size()));
}

// ---- hand-built streams for the wide copies ----

// Appends one sequence: `lits`, then (unless mlen == 0, the final
// literal-only sequence) a match of mlen >= 4 bytes at `offset`.
void AppendSequence(std::string* out, const std::string& lits, size_t offset,
                    size_t mlen) {
  auto nibble = [](size_t len) { return len < 15 ? len : size_t{15}; };
  auto ext = [out](size_t len) {
    if (len < 15) return;
    for (len -= 15; len >= 255; len -= 255) out->push_back('\xff');
    out->push_back(static_cast<char>(len));
  };
  size_t m = mlen == 0 ? 0 : mlen - lz::kMinMatch;
  out->push_back(static_cast<char>(nibble(lits.size()) << 4 | nibble(m)));
  ext(lits.size());
  *out += lits;
  if (mlen == 0) return;
  out->push_back(static_cast<char>(offset & 0xff));
  out->push_back(static_cast<char>(offset >> 8));
  ext(m);
}

// What a match appends to the output: a byte at a time, the definition.
void ExpandMatch(std::string* raw, size_t offset, size_t mlen) {
  for (size_t j = 0; j < mlen; ++j) raw->push_back((*raw)[raw->size() - offset]);
}

std::string RandomBytes(Rng& rng, size_t n) {
  std::string s(n, '\0');
  for (auto& c : s) c = static_cast<char>(rng.next());
  return s;
}

// Offsets 1-7 must take the bytewise copy (an 8-byte chunk would read
// bytes it has not written yet), even with room for wide copies after
// the match; offsets 8-20 take the chunked copy at the same lengths.
TEST(Lz, ShortMatchOffsetsDecodeBytewise) {
  Rng rng;
  for (size_t offset = 1; offset <= 20; ++offset) {
    for (size_t mlen = 4; mlen <= 80; ++mlen) {
      for (size_t tail : {0, 5, 16, 40}) {
        std::string lits = RandomBytes(rng, offset + rng.next() % 3);
        std::string stream;
        AppendSequence(&stream, lits, offset, mlen);
        std::string raw = lits;
        ExpandMatch(&raw, offset, mlen);
        std::string end = RandomBytes(rng, tail);
        AppendSequence(&stream, end, 0, 0);
        raw += end;
        std::string back(raw.size(), '\0');
        ASSERT_TRUE(lz::decompress(stream.data(), stream.size(), back.data(),
                                   back.size()))
            << "offset=" << offset << " mlen=" << mlen << " tail=" << tail;
        ASSERT_EQ(back, raw) << "offset=" << offset << " mlen=" << mlen
                             << " tail=" << tail;
      }
    }
  }
}

// A literal run and a match that end 0..20 bytes before the end of dst,
// with the literal run 3..23 bytes before the end of src: within 16 bytes
// the decoder must fall back to the exact copy, not write or read past
// either buffer (the ASan lane enforces that).
TEST(Lz, RunsEndingNearBufferEnds) {
  Rng rng;
  std::string head = RandomBytes(rng, 40);
  for (size_t lit = 0; lit <= 40; ++lit) {
    for (size_t offset : {8, 9, 15, 16, 17, 31, 44}) {
      for (size_t mlen = 4; mlen <= 24; ++mlen) {
        for (size_t tail = 0; tail <= 20; ++tail) {
          std::string stream;
          AppendSequence(&stream, head, 40, 4);
          std::string raw = head;
          ExpandMatch(&raw, 40, 4);
          std::string lits = RandomBytes(rng, lit);
          AppendSequence(&stream, lits, offset, mlen);
          raw += lits;
          ExpandMatch(&raw, offset, mlen);
          std::string end = RandomBytes(rng, tail);
          AppendSequence(&stream, end, 0, 0);
          raw += end;
          std::string back(raw.size(), '\0');
          ASSERT_TRUE(lz::decompress(stream.data(), stream.size(), back.data(),
                                     back.size()))
              << "lit=" << lit << " offset=" << offset << " mlen=" << mlen
              << " tail=" << tail;
          ASSERT_EQ(back, raw) << "lit=" << lit << " offset=" << offset
                               << " mlen=" << mlen << " tail=" << tail;
        }
      }
    }
  }
}

// A random valid stream and the bytes it decodes to.  Run lengths
// cluster below 24 (around the 8- and 16-byte chunks) with some long
// ones past the 255-extension; offsets are short or anywhere behind.
std::string RandomStream(Rng& rng, std::string* raw) {
  std::string stream;
  raw->clear();
  int nseq = static_cast<int>(rng.next() % 8);
  for (int i = 0; i < nseq; ++i) {
    size_t lit = rng.next() % 4 == 0 ? rng.next() % 300 : rng.next() % 24;
    if (raw->empty() && lit == 0) lit = 1;
    std::string lits = RandomBytes(rng, lit);
    *raw += lits;
    size_t reach = std::min<size_t>(raw->size(), rng.next() % 2 ? 24 : 0xffff);
    size_t offset = 1 + rng.next() % reach;
    size_t mlen = lz::kMinMatch +
                  (rng.next() % 4 == 0 ? rng.next() % 300 : rng.next() % 24);
    AppendSequence(&stream, lits, offset, mlen);
    ExpandMatch(raw, offset, mlen);
  }
  std::string tail = RandomBytes(rng, rng.next() % 24);
  AppendSequence(&stream, tail, 0, 0);
  *raw += tail;
  return stream;
}

// Thousands of truncated and bit-flipped valid streams: the wide decoder
// must give the reference's verdict, and the reference's bytes whenever
// both succeed (a flipped literal byte still decodes).
TEST(Lz, DamagedStreamsDecodeLikeTheReference) {
  Rng rng;
  size_t damaged = 0, decoded = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::string raw;
    std::string stream = RandomStream(rng, &raw);
    std::string back(raw.size(), '\0');
    ASSERT_TRUE(lz::decompress(stream.data(), stream.size(), back.data(),
                               back.size()));
    ASSERT_EQ(back, raw);
    for (int t = 0; t < 3; ++t) {
      std::string cut = stream.substr(0, rng.next() % stream.size());
      decoded += DecodersAgree(cut, raw.size(), "truncated");
      std::string flip = stream;
      flip[rng.next() % flip.size()] ^= static_cast<char>(1u << (rng.next() % 8));
      decoded += DecodersAgree(flip, raw.size(), "bit flip");
      size_t other = raw.size() + rng.next() % 33 - 16;
      decoded += DecodersAgree(flip, other > (1u << 20) ? 0 : other, "bit flip, raw_n");
      damaged += 3;
    }
  }
  EXPECT_EQ(damaged, 27000u);
  EXPECT_GT(decoded, 0u);  // the success path was compared too
}

}  // namespace
}  // namespace masstree
