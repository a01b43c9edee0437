// kvbench workloads: the four served traffic mixes, their key sets, and the
// self-checking value format every request is verified against.

#ifndef KVBENCH_WORKLOAD_H_
#define KVBENCH_WORKLOAD_H_

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/crc32.h"
#include "util/rand.h"
#include "workload/keys.h"

namespace kvbench {

// Thread and connection budget (one process, 4 CPUs): the server runs 2
// epoll workers, the generator 2 threads with 2 connections each.
inline constexpr unsigned kServerWorkers = 2;
inline constexpr unsigned kGenThreads = 2;
inline constexpr unsigned kConnsPerThread = 2;
inline constexpr unsigned kConns = kGenThreads * kConnsPerThread;
inline constexpr unsigned kClosedDepth = 8;   // request frames in flight per connection
inline constexpr unsigned kOpsPerFrame = 16;  // ops of one type per request frame
inline constexpr uint32_t kMaxScanLen = 100;
inline constexpr size_t kSpanCap = 20000;  // Chrome-trace spans kept per thread

// Threads are told apart by kernel tid, the name /proc/self/task uses.
inline int current_tid() { return static_cast<int>(::syscall(SYS_gettid)); }

struct WorkloadSpec {
  const char* name;
  uint64_t keys;         // generated key indexes; up to 0.2% collide, leaving fewer keys
  uint32_t value_bytes;
  bool compressible;     // JSON-ish payload (lz-compressible) vs random bytes
  double write_frac;     // share of requests that are writes
  double zipf_theta;     // 0 = uniform key choice
  bool scans;            // a request is one scan or one fresh-key put
  uint64_t tail_puts;    // > 0: setup checkpoints, logs this many puts, recovers
  double open_rate;      // open-loop offered load, requests/s (fixed, never derived)
};

// Sizes and rates are fixed here, not derived at run time; README.md says
// why each workload exists. The open-loop rates sit at about a quarter of
// each workload's closed-loop capacity as measured on the seed code
// (requests/s: 162k, 204k, 33k, 352k).
inline const WorkloadSpec kWorkloads[] = {
    {"get_uniform", 8000000, 8, false, 0.0, 0.0, false, 0, 45000},
    {"ycsb_b_zipf", 2000000, 100, false, 0.05, 0.99, false, 0, 50000},
    {"ycsb_a_1kb", 250000, 1024, true, 0.5, 0.0, false, 50000, 8000},
    {"scan_e", 2000000, 8, false, 0.05, 0.0, true, 0, 88000},
};

inline const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

// ---- keys --------------------------------------------------------------
// Keys are the paper's 1-10 byte decimal strings (workload/keys.h
// decimal_key) of splitmix64(index) % 2^31, with the seed selecting the
// index range. Key ids index the DISTINCT key values, so two ids never name
// the same key and each key has exactly one writer.
inline uint32_t key_value(uint64_t seed, uint64_t index) {
  return static_cast<uint32_t>(masstree::splitmix64((seed << 33) + index) %
                               (uint64_t{1} << 31));
}

struct KeyBuf {
  char b[10];
  uint8_t n = 0;
  std::string_view view() const { return std::string_view(b, n); }
};

inline KeyBuf format_key(uint32_t v) {
  char tmp[10];
  int i = 0;
  do {
    tmp[i++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  KeyBuf k;
  k.n = static_cast<uint8_t>(i);
  for (int j = 0; j < i; ++j) {
    k.b[j] = tmp[i - 1 - j];
  }
  return k;
}

// Order-preserving code of a decimal key: digit d at position i becomes the
// nibble d+1 at bit 60-4i, so a prefix (nibble 0) sorts before any
// extension, exactly like the tree's byte order. 0 = not a decimal key.
inline uint64_t lex_code(std::string_view k) {
  if (k.empty() || k.size() > 10) {
    return 0;
  }
  uint64_t c = 0;
  for (size_t i = 0; i < k.size(); ++i) {
    unsigned d = static_cast<unsigned char>(k[i]) - '0';
    if (d > 9) {
      return 0;
    }
    c |= static_cast<uint64_t>(d + 1) << (60 - 4 * i);
  }
  return c;
}

class KeySet {
 public:
  KeySet(uint64_t n, uint64_t seed) : seed_(seed) {
    vals_.resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      vals_[i] = key_value(seed, i);
    }
    std::sort(vals_.begin(), vals_.end());
    vals_.erase(std::unique(vals_.begin(), vals_.end()), vals_.end());
  }

  size_t size() const { return vals_.size(); }
  uint32_t value(size_t id) const { return vals_[id]; }
  KeyBuf key(size_t id) const { return format_key(vals_[id]); }
  bool contains(uint32_t v) const { return std::binary_search(vals_.begin(), vals_.end(), v); }
  // Fresh keys (scan_e inserts) come from an index range the loaded keys
  // never use; one that happens to equal a loaded key is skipped by callers.
  uint32_t fresh_value(uint64_t j) const { return key_value(seed_, (uint64_t{1} << 32) + j); }

 private:
  uint64_t seed_;
  std::vector<uint32_t> vals_;  // sorted numerically; id = position
};

// ---- values ------------------------------------------------------------
// Every value is a pure function of (key, seq): whichever connection writes
// seq s of a key writes the same bytes, so the final-state oracle needs only
// the last acked seq per key.
//   bytes 0-3  crc32c(key)              which key the value belongs to
//   bytes 4-5  seq (low 16 bits)        which write of that key
//   bytes 6-7  check: crc32c of bytes 0-5 and the payload, folded to 16 bits
//   bytes 8-   payload from a template pool, picked by (key hash + seq)
class ValueCodec {
 public:
  static constexpr size_t kHeader = 8;
  static constexpr unsigned kTemplates = 64;

  ValueCodec(uint32_t size, bool compressible, uint64_t seed) : size_(size) {
    size_t payload = size > kHeader ? size - kHeader : 0;
    pool_.resize(static_cast<size_t>(kTemplates) * payload);
    masstree::Rng rng(seed ^ 0x76616c7565ull);
    static constexpr const char* kWords[] = {"alpha", "bravo",  "charlie", "delta",
                                             "echo",  "foxtrot", "golf",   "hotel"};
    for (unsigned t = 0; t < kTemplates; ++t) {
      char* p = pool_.data() + t * payload;
      if (!compressible) {
        for (size_t i = 0; i < payload; ++i) {
          p[i] = static_cast<char>(rng.next());
        }
        continue;
      }
      std::string s;
      while (s.size() < payload) {
        char rec[128];
        int n = std::snprintf(rec, sizeof(rec),
                              "{\"id\":%u,\"name\":\"%s\",\"tags\":[\"%s\",\"%s\"],\"score\":%u},",
                              static_cast<unsigned>(rng.next_range(100000)),
                              kWords[rng.next_range(8)], kWords[rng.next_range(8)],
                              kWords[rng.next_range(8)],
                              static_cast<unsigned>(rng.next_range(1000)));
        s.append(rec, static_cast<size_t>(n));
      }
      std::memcpy(p, s.data(), payload);
    }
  }

  uint32_t size() const { return size_; }

  static uint32_t key_hash(std::string_view key) { return masstree::crc32(key); }
  static unsigned owner(std::string_view key) { return key_hash(key) % kConns; }

  void make(std::string_view key, uint32_t seq, char* out) const {
    uint32_t h = key_hash(key);
    uint16_t s16 = static_cast<uint16_t>(seq);
    std::memcpy(out, &h, 4);
    std::memcpy(out + 4, &s16, 2);
    size_t payload = size_ - kHeader;
    if (payload > 0) {
      std::memcpy(out + kHeader, pool_.data() + ((h + seq) % kTemplates) * payload, payload);
    }
    uint16_t chk = check(out);
    std::memcpy(out + 6, &chk, 2);
  }

  // Header check: right length, right key, intact bytes.
  bool verify(std::string_view key, std::string_view v) const {
    if (v.size() != size_) {
      return false;
    }
    uint32_t h;
    uint16_t chk;
    std::memcpy(&h, v.data(), 4);
    std::memcpy(&chk, v.data() + 6, 2);
    return h == key_hash(key) && chk == check(v.data());
  }

  // Exact check: the bytes of write `seq` of `key`.
  bool equals(std::string_view key, uint32_t seq, std::string_view v) const {
    if (v.size() != size_) {
      return false;
    }
    std::string want(size_, '\0');
    make(key, seq, want.data());
    return v == want;
  }

 private:
  uint16_t check(const char* v) const {
    uint32_t c = masstree::crc32(v, 6);
    c = masstree::crc32(v + kHeader, size_ - kHeader, c);
    return static_cast<uint16_t>(c ^ (c >> 16));
  }

  uint32_t size_;
  std::vector<char> pool_;
};

}  // namespace kvbench

#endif  // KVBENCH_WORKLOAD_H_
