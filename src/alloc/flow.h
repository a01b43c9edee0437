// "Flow" — a Streamflow-like multicore allocator (§6.2).
//
// "Memory allocation often bottlenecks multicore performance. We switch to
//  Flow, our implementation of the Streamflow [32] allocator ('+Flow'). Flow
//  supports 2 MB x86 superpages, which, when introduced ('+Superpage'),
//  improve throughput by 27-37% due to fewer TLB misses and lower kernel
//  overhead for allocation."
//
// Design (following Streamflow's structure):
//  * Memory arrives in 2 MB chunks mapped with mmap; when superpages are
//    enabled the chunk is aligned to 2 MB and marked MADV_HUGEPAGE so the
//    kernel can back it with a transparent huge page. (The paper's testbed
//    used explicit x86 superpages; THP is the container-friendly equivalent
//    that exercises the same allocation path — see DESIGN.md §5.)
//  * Chunks are carved into 64 KB *spans*. A span belongs to one size class
//    and one owning arena; its header lives at the span base, so free()
//    recovers it by masking the object address.
//  * Size classes step by 16 B up to 64 B and by one 64-byte cache line up
//    to 4 KiB, so no request below 4 KiB wastes a cache line or more of its
//    block, and the class index is computed, not searched. Owners that can
//    use spare room (suffix bags) ask class_size_for() and take all of it.
//  * Each thread owns an Arena: per-class bump carving plus a local LIFO free
//    list. Frees from other threads push onto the span's lock-free remote
//    list — the Streamflow local/remote split that avoids allocator lock
//    contention. The free that turns a span's remote list non-empty also
//    pushes the span onto its owner's per-class pending stack (many
//    producers, one consumer), so when the carving span fills, the owner
//    reclaims by popping that stack: a refill visits only the spans that
//    hold remote frees, never every span the arena owns.
//  * Allocations above the largest class map their own span-aligned region.

#ifndef MASSTREE_ALLOC_FLOW_H_
#define MASSTREE_ALLOC_FLOW_H_

#include <sys/mman.h>

#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <new>
#include <vector>

#include "util/compiler.h"

namespace masstree {

class Arena;
class Flow;

namespace internal {

inline constexpr size_t kSpanSize = 1u << 16;  // 64 KB
inline constexpr size_t kSpanMask = kSpanSize - 1;
inline constexpr size_t kChunkSize = 2u << 20;  // 2 MB, one superpage
inline constexpr size_t kObjectStart = kCacheLineSize;  // first object offset in a span

// Size classes: 16, 32, 48 and 64, then every multiple of 64 up to 4096,
// then 8192, 16384 and 32768. Classes of 64 B and up are multiples of 64, so
// tree nodes stay cache-line aligned; the fine 64-byte step bounds the slack
// of every request up to 4 KiB under one cache line (a 1,048-byte 1 KiB row
// takes 1088 B, not 1536). The small classes serve suffix bags and log
// records.
inline constexpr size_t kNumSmallClasses = 4;                  // 16..64 by 16
inline constexpr size_t kMaxLineClassSize = 4096;              // 128..4096 by 64
inline constexpr size_t kNumLineClasses = kMaxLineClassSize / 64 - 1;
inline constexpr size_t kNumPow2Classes = 3;                   // 8192..32768
inline constexpr unsigned kNumClasses =
    static_cast<unsigned>(kNumSmallClasses + kNumLineClasses + kNumPow2Classes);

inline constexpr auto kSizeClasses = [] {
  std::array<size_t, kNumClasses> c{};
  size_t i = 0;
  for (size_t sz = 16; sz <= 64; sz += 16) {
    c[i++] = sz;
  }
  for (size_t sz = 128; sz <= kMaxLineClassSize; sz += 64) {
    c[i++] = sz;
  }
  for (size_t sz = 2 * kMaxLineClassSize; i < kNumClasses; sz *= 2) {
    c[i++] = sz;
  }
  return c;
}();
inline constexpr size_t kMaxClassSize = kSizeClasses[kNumClasses - 1];
static_assert(kMaxClassSize == 32768, "class table must end at 32 KiB");

// Index of the smallest class that holds `bytes` (1 <= bytes), or
// kNumClasses for a large allocation. Pure arithmetic: no walk over the
// table on the allocation path.
inline unsigned size_class_for(size_t bytes) {
  if (bytes <= 48) {
    return static_cast<unsigned>((bytes + 15) / 16 - 1);
  }
  if (bytes <= kMaxLineClassSize) {
    // 49..64 -> 3 (the 64 class), 65..128 -> 4, ..., 4096 -> 66.
    return static_cast<unsigned>((bytes + 63) / 64 + kNumSmallClasses - 2);
  }
  if (bytes <= kMaxClassSize) {
    // 4097..8192 -> 67, 8193..16384 -> 68, 16385..32768 -> 69.
    return static_cast<unsigned>(kNumSmallClasses + kNumLineClasses +
                                 std::bit_width(bytes - 1) - std::bit_width(kMaxLineClassSize));
  }
  return kNumClasses;  // large
}

// Bytes a request of `bytes` actually occupies: its class size, or `bytes`
// itself for a large allocation.
inline size_t class_size_for(size_t bytes) {
  unsigned ci = size_class_for(bytes);
  return ci == kNumClasses ? bytes : kSizeClasses[ci];
}

struct FreeNode {
  FreeNode* next;
};

struct SpanHeader {
  Arena* owner;           // nullptr for large (direct-mapped) allocations
  unsigned size_class;
  size_t mapped_bytes;    // for large allocations: munmap length
  std::atomic<FreeNode*> remote_free{nullptr};
  // Link in the owner's pending stack. Written by the free that made
  // remote_free non-empty, before its release push; read by the draining
  // owner after its acquire pop.
  SpanHeader* next_pending = nullptr;
  char* bump = nullptr;   // carve cursor (owner thread only)
  char* end = nullptr;
};

static_assert(sizeof(SpanHeader) <= kObjectStart + kCacheLineSize,
              "span header must fit before objects");

}  // namespace internal

// Allocation statistics, per arena. Owner-thread counters; read racily by
// reporting code.
struct ArenaStats {
  uint64_t allocated_objects = 0;
  uint64_t freed_objects = 0;
  uint64_t spans = 0;
  uint64_t large_bytes = 0;
  uint64_t remote_spans_drained = 0;  // spans popped off the pending stacks
};

// Per-thread allocator front end. allocate() must only be called by the
// owning thread; deallocate() is safe from any thread.
class Arena {
 public:
  explicit Arena(Flow* flow) : flow_(flow) {
    for (unsigned i = 0; i < internal::kNumClasses; ++i) {
      free_[i] = nullptr;
      carving_[i] = nullptr;
      pending_[i].store(nullptr, std::memory_order_relaxed);
    }
  }

  void* allocate(size_t bytes);

  // Thread-safe free of any pointer returned by any Arena of any Flow.
  static void deallocate(void* ptr);

  const ArenaStats& stats() const { return stats_; }
  Flow* flow() const { return flow_; }

 private:
  friend class Flow;

  void* allocate_class(unsigned ci);
  bool drain_remote(unsigned ci);

  Flow* flow_;
  internal::FreeNode* free_[internal::kNumClasses];
  internal::SpanHeader* carving_[internal::kNumClasses];
  // Spans of this arena whose remote_free list is non-empty. A span is on
  // the stack (or in a drain's detached list) exactly when its remote list
  // is non-empty, so it is never queued twice and every pop yields a chain.
  std::atomic<internal::SpanHeader*> pending_[internal::kNumClasses];
  ArenaStats stats_;
};

struct FlowConfig {
  // Request transparent huge pages for chunks ("+Superpage").
  bool use_superpages = true;
};

// Chunk source and arena registry. One Flow per process is typical
// (Flow::global()); benchmarks build private instances to compare
// configurations.
class Flow {
 public:
  explicit Flow(FlowConfig config = FlowConfig{}) : config_(config) {}

  Flow(const Flow&) = delete;
  Flow& operator=(const Flow&) = delete;

  ~Flow() {
    for (auto& m : mappings_) {
      ::munmap(m.base, m.bytes);
    }
    for (Arena* a : arenas_) {
      delete a;
    }
  }

  // Process-wide instance; intentionally never destroyed so that epoch-
  // deferred frees during static teardown remain valid.
  static Flow& global() {
    static Flow* flow = new Flow();
    return *flow;
  }

  // Returns an arena for exclusive use by the calling thread. Arenas are
  // pooled: release_arena() returns one for reuse by future threads.
  Arena* acquire_arena() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!idle_arenas_.empty()) {
      Arena* a = idle_arenas_.back();
      idle_arenas_.pop_back();
      return a;
    }
    auto* a = new Arena(this);
    arenas_.push_back(a);
    return a;
  }

  void release_arena(Arena* arena) {
    std::lock_guard<std::mutex> lock(mu_);
    idle_arenas_.push_back(arena);
  }

  bool superpages_enabled() const { return config_.use_superpages; }
  uint64_t chunks_mapped() const { return chunks_mapped_.load(std::memory_order_relaxed); }

 private:
  friend class Arena;

  struct Mapping {
    void* base;
    size_t bytes;
  };

  internal::SpanHeader* allocate_span() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_spans_.empty()) {
      map_chunk();
    }
    internal::SpanHeader* s = free_spans_.back();
    free_spans_.pop_back();
    return s;
  }

  void map_chunk() {
    size_t bytes = internal::kChunkSize + internal::kSpanSize;
    void* raw = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) {
      throw std::bad_alloc();
    }
    mappings_.push_back(Mapping{raw, bytes});
    chunks_mapped_.fetch_add(1, std::memory_order_relaxed);
    uintptr_t base = reinterpret_cast<uintptr_t>(raw);
    uintptr_t aligned = (base + internal::kSpanMask) & ~uintptr_t(internal::kSpanMask);
#ifdef MADV_HUGEPAGE
    if (config_.use_superpages) {
      ::madvise(reinterpret_cast<void*>(aligned), internal::kChunkSize, MADV_HUGEPAGE);
    }
#endif
    for (size_t off = 0; off + internal::kSpanSize <= internal::kChunkSize;
         off += internal::kSpanSize) {
      auto* span = reinterpret_cast<internal::SpanHeader*>(aligned + off);
      new (span) internal::SpanHeader();
      free_spans_.push_back(span);
    }
  }

  // Large allocations: their own span-aligned mapping so deallocate() can
  // recover the header by masking.
  static void* allocate_large(size_t bytes) {
    size_t need = internal::kObjectStart + bytes;
    size_t total = (need + internal::kSpanMask) & ~internal::kSpanMask;
    size_t mapped = total + internal::kSpanSize;
    void* raw = ::mmap(nullptr, mapped, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) {
      throw std::bad_alloc();
    }
    uintptr_t base = reinterpret_cast<uintptr_t>(raw);
    uintptr_t aligned = (base + internal::kSpanMask) & ~uintptr_t(internal::kSpanMask);
    // Trim the unaligned prefix/suffix so munmap in deallocate() is exact.
    if (aligned != base) {
      ::munmap(raw, aligned - base);
    }
    size_t tail = (base + mapped) - (aligned + total);
    if (tail != 0) {
      ::munmap(reinterpret_cast<void*>(aligned + total), tail);
    }
    auto* span = reinterpret_cast<internal::SpanHeader*>(aligned);
    new (span) internal::SpanHeader();
    span->owner = nullptr;
    span->mapped_bytes = total;
    return reinterpret_cast<char*>(aligned) + internal::kObjectStart;
  }

  FlowConfig config_;
  std::mutex mu_;
  std::vector<Mapping> mappings_;
  std::vector<internal::SpanHeader*> free_spans_;
  std::vector<Arena*> arenas_;
  std::vector<Arena*> idle_arenas_;
  std::atomic<uint64_t> chunks_mapped_{0};
};

inline void* Arena::allocate(size_t bytes) {
  if (bytes == 0) {
    bytes = 1;
  }
  unsigned ci = internal::size_class_for(bytes);
  if (MT_UNLIKELY(ci == internal::kNumClasses)) {
    stats_.large_bytes += bytes;
    ++stats_.allocated_objects;
    return Flow::allocate_large(bytes);
  }
  return allocate_class(ci);
}

inline void* Arena::allocate_class(unsigned ci) {
  ++stats_.allocated_objects;
  // 1. Local free list.
  if (internal::FreeNode* n = free_[ci]) {
    free_[ci] = n->next;
    return n;
  }
  // 2. Carve from the current span.
  internal::SpanHeader* span = carving_[ci];
  size_t sz = internal::kSizeClasses[ci];
  if (span != nullptr && span->bump + sz <= span->end) {
    void* p = span->bump;
    span->bump += sz;
    return p;
  }
  // 3. Steal back remote frees.
  if (drain_remote(ci)) {
    internal::FreeNode* n = free_[ci];
    free_[ci] = n->next;
    return n;
  }
  // 4. New span: becomes the carving span for this class.
  span = flow_->allocate_span();
  span->owner = this;
  span->size_class = ci;
  span->remote_free.store(nullptr, std::memory_order_relaxed);
  carving_[ci] = span;
  char* base = reinterpret_cast<char*>(span);
  span->bump = base + internal::kObjectStart;
  span->end = base + internal::kSpanSize;
  ++stats_.spans;
  void* p = span->bump;
  span->bump += sz;
  return p;
}

inline bool Arena::drain_remote(unsigned ci) {
  // Taking the whole stack at once has no ABA problem.
  internal::SpanHeader* s = pending_[ci].exchange(nullptr, std::memory_order_acquire);
  while (s != nullptr) {
    // Read the link first: once remote_free is empty again, the next remote
    // free may push this span anew and overwrite next_pending.
    internal::SpanHeader* next = s->next_pending;
    internal::FreeNode* chain = s->remote_free.exchange(nullptr, std::memory_order_acq_rel);
    ++stats_.remote_spans_drained;
    while (chain != nullptr) {
      internal::FreeNode* n = chain->next;
      chain->next = free_[ci];
      free_[ci] = chain;
      chain = n;
    }
    s = next;
  }
  return free_[ci] != nullptr;  // the caller found the local list empty
}

namespace internal {
// The arena currently bound to this thread (set by ThreadContext). Used to
// decide local vs remote free.
inline thread_local Arena* tl_arena = nullptr;
}  // namespace internal

inline void Arena::deallocate(void* ptr) {
  if (ptr == nullptr) {
    return;
  }
  uintptr_t base = reinterpret_cast<uintptr_t>(ptr) & ~uintptr_t(internal::kSpanMask);
  auto* span = reinterpret_cast<internal::SpanHeader*>(base);
  if (MT_UNLIKELY(span->owner == nullptr)) {
    ::munmap(span, span->mapped_bytes);
    return;
  }
  Arena* owner = span->owner;
  auto* node = static_cast<internal::FreeNode*>(ptr);
  if (owner == internal::tl_arena) {
    node->next = owner->free_[span->size_class];
    owner->free_[span->size_class] = node;
    ++owner->stats_.freed_objects;
  } else {
    internal::FreeNode* head = span->remote_free.load(std::memory_order_relaxed);
    do {
      node->next = head;
    } while (!span->remote_free.compare_exchange_weak(head, node, std::memory_order_acq_rel,
                                                      std::memory_order_relaxed));
    if (head == nullptr) {
      // This free made the list non-empty: queue the span for its owner.
      std::atomic<internal::SpanHeader*>& pending = owner->pending_[span->size_class];
      internal::SpanHeader* top = pending.load(std::memory_order_relaxed);
      do {
        span->next_pending = top;
      } while (!pending.compare_exchange_weak(top, span, std::memory_order_release,
                                              std::memory_order_relaxed));
    }
  }
}

// Binds/unbinds the calling thread's arena for local-free detection.
inline void bind_thread_arena(Arena* arena) { internal::tl_arena = arena; }
inline Arena* current_thread_arena() { return internal::tl_arena; }

}  // namespace masstree

#endif  // MASSTREE_ALLOC_FLOW_H_
