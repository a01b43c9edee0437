// Flow allocator tests (§6.2): size classes, span recovery, remote frees.

#include "alloc/flow.h"

#include <gtest/gtest.h>

#include <cstring>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_set>
#include <vector>

namespace masstree {
namespace {

TEST(Flow, SizeClassLookup) {
  using internal::size_class_for;
  using internal::kSizeClasses;
  EXPECT_EQ(kSizeClasses[size_class_for(1)], 16u);
  EXPECT_EQ(kSizeClasses[size_class_for(16)], 16u);
  EXPECT_EQ(kSizeClasses[size_class_for(17)], 32u);
  EXPECT_EQ(kSizeClasses[size_class_for(64)], 64u);
  EXPECT_EQ(kSizeClasses[size_class_for(65)], 128u);
  EXPECT_EQ(kSizeClasses[size_class_for(4096)], 4096u);
  EXPECT_EQ(size_class_for(100000), internal::kNumClasses);  // large
}

TEST(Flow, SizeClassesBoundSlack) {
  using internal::kNumClasses;
  using internal::kSizeClasses;
  for (size_t i = 0; i < kNumClasses; ++i) {
    if (kSizeClasses[i] >= 64) {
      EXPECT_EQ(kSizeClasses[i] % 64, 0u) << "class " << kSizeClasses[i];
    }
  }
  for (size_t bytes = 1; bytes <= internal::kMaxClassSize; ++bytes) {
    unsigned ci = internal::size_class_for(bytes);
    unsigned linear = 0;
    while (kSizeClasses[linear] < bytes) {
      ++linear;
    }
    ASSERT_EQ(ci, linear) << "bytes " << bytes;
    size_t sz = kSizeClasses[ci];
    ASSERT_GE(sz, bytes);
    ASSERT_EQ(internal::class_size_for(bytes), sz);
    if (bytes <= 64) {
      ASSERT_LT(sz - bytes, 16u) << "bytes " << bytes;
    } else if (bytes <= 4096) {
      ASSERT_LT(sz - bytes, 64u) << "bytes " << bytes;
    }
  }
  EXPECT_EQ(internal::size_class_for(internal::kMaxClassSize + 1), kNumClasses);
  EXPECT_EQ(internal::class_size_for(internal::kMaxClassSize + 1), internal::kMaxClassSize + 1);
}

TEST(Flow, KiBRowsPackSixtyPerSpan) {
  // A 1 KiB single-column row asks for 1,048 B (16 B header, 8 B offsets,
  // 1,024 B data). Its 1088-byte class fits 60 per 64 KB span; a 1536-byte
  // class would fit 42 and need 29 spans here.
  Flow flow;
  Arena* a = flow.acquire_arena();
  for (int i = 0; i < 1200; ++i) {
    a->allocate(1048);
  }
  EXPECT_EQ(a->stats().spans, 20u);
  flow.release_arena(a);
}

TEST(Flow, AllocateWriteFree) {
  Flow flow;
  Arena* a = flow.acquire_arena();
  bind_thread_arena(a);
  void* p = a->allocate(100);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xAB, 100);
  Arena::deallocate(p);
  bind_thread_arena(nullptr);
  flow.release_arena(a);
}

TEST(Flow, NodesAreCacheLineAligned) {
  Flow flow;
  Arena* a = flow.acquire_arena();
  for (int i = 0; i < 100; ++i) {
    void* p = a->allocate(256 + (i % 3) * 64);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % kCacheLineSize, 0u);
  }
  flow.release_arena(a);
}

TEST(Flow, LocalFreeListReuse) {
  Flow flow;
  Arena* a = flow.acquire_arena();
  bind_thread_arena(a);
  void* p1 = a->allocate(64);
  Arena::deallocate(p1);
  void* p2 = a->allocate(64);
  EXPECT_EQ(p1, p2);  // LIFO reuse
  bind_thread_arena(nullptr);
  flow.release_arena(a);
}

TEST(Flow, DistinctAllocations) {
  Flow flow;
  Arena* a = flow.acquire_arena();
  std::set<void*> seen;
  for (int i = 0; i < 10000; ++i) {
    void* p = a->allocate(48);
    EXPECT_TRUE(seen.insert(p).second);
  }
  flow.release_arena(a);
}

TEST(Flow, LargeAllocation) {
  Flow flow;
  Arena* a = flow.acquire_arena();
  size_t big = 3u << 20;  // 3 MB, above the largest class
  char* p = static_cast<char*>(a->allocate(big));
  ASSERT_NE(p, nullptr);
  p[0] = 'x';
  p[big - 1] = 'y';
  Arena::deallocate(p);
  flow.release_arena(a);
}

TEST(Flow, RemoteFreeDrains) {
  Flow flow;
  Arena* a = flow.acquire_arena();
  bind_thread_arena(a);
  // Exhaust one span's worth so the drain path triggers.
  std::vector<void*> ptrs;
  for (int i = 0; i < 1000; ++i) {
    ptrs.push_back(a->allocate(64));
  }
  std::thread other([&] {
    // Not the owner: frees go onto the span's remote list.
    for (void* p : ptrs) {
      Arena::deallocate(p);
    }
  });
  other.join();
  // Owner reallocates; must be able to drain the remote frees rather than
  // mapping fresh chunks forever.
  uint64_t chunks_before = flow.chunks_mapped();
  std::set<void*> reused(ptrs.begin(), ptrs.end());
  int hits = 0;
  for (int i = 0; i < 1000; ++i) {
    void* p = a->allocate(64);
    if (reused.count(p)) {
      ++hits;
    }
  }
  EXPECT_GT(hits, 0);
  EXPECT_LE(flow.chunks_mapped(), chunks_before + 1);
  bind_thread_arena(nullptr);
  flow.release_arena(a);
}

TEST(Flow, SpansAreCarvedNotBurned) {
  // Regression: a fresh span must become the carving span, so consecutive
  // allocations fill it instead of mapping a new span per object.
  Flow flow;
  Arena* a = flow.acquire_arena();
  for (int i = 0; i < 10000; ++i) {
    a->allocate(256);
  }
  // 10000 x 256B = 2.44 MB; spans are 64 KB, so ~40 spans and 1-2 chunks.
  EXPECT_LT(a->stats().spans, 60u);
  EXPECT_LE(flow.chunks_mapped(), 2u);
  flow.release_arena(a);
}

TEST(Flow, ArenaPoolingReusesArenas) {
  Flow flow;
  Arena* a = flow.acquire_arena();
  flow.release_arena(a);
  Arena* b = flow.acquire_arena();
  EXPECT_EQ(a, b);
  flow.release_arena(b);
}

TEST(Flow, StatsCount) {
  Flow flow;
  Arena* a = flow.acquire_arena();
  bind_thread_arena(a);
  uint64_t before = a->stats().allocated_objects;
  void* p = a->allocate(32);
  EXPECT_EQ(a->stats().allocated_objects, before + 1);
  Arena::deallocate(p);
  EXPECT_EQ(a->stats().freed_objects, 1u);
  bind_thread_arena(nullptr);
  flow.release_arena(a);
}

TEST(Flow, ConcurrentAllocFreeStress) {
  Flow flow;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&flow, t] {
      Arena* a = flow.acquire_arena();
      bind_thread_arena(a);
      std::vector<void*> live;
      uint64_t rng = 0x12345 + t;
      for (int i = 0; i < kIters; ++i) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        size_t sz = 16 + (rng % 512);
        void* p = a->allocate(sz);
        std::memset(p, static_cast<int>(rng & 0xff), sz > 16 ? 16 : sz);
        live.push_back(p);
        if (live.size() > 64) {
          size_t idx = rng % live.size();
          Arena::deallocate(live[idx]);
          live[idx] = live.back();
          live.pop_back();
        }
      }
      for (void* p : live) {
        Arena::deallocate(p);
      }
      bind_thread_arena(nullptr);
      flow.release_arena(a);
    });
  }
  for (auto& th : threads) {
    th.join();
  }
}

TEST(Flow, RefillVisitsOnlySpansWithRemoteFrees) {
  // A refill reclaims from the spans that hold remote frees, not from every
  // span the arena has ever carved: the cost of a refill must not grow with
  // the arena.
  Flow flow;
  Arena* a = flow.acquire_arena();
  bind_thread_arena(a);
  constexpr size_t kObj = 1024;
  constexpr size_t kPerSpan = (internal::kSpanSize - internal::kObjectStart) / kObj;
  constexpr size_t kSpans = 200;
  std::vector<void*> ptrs;
  for (size_t i = 0; i < kSpans * kPerSpan; ++i) {
    ptrs.push_back(a->allocate(kObj));
  }
  ASSERT_EQ(a->stats().spans, kSpans);  // every span carved full
  // Remote frees land in spans 3, 90 and 170; span 3 gets two.
  std::thread other([&] {
    for (size_t i : {3 * kPerSpan, 3 * kPerSpan + 5, 90 * kPerSpan + 1, 170 * kPerSpan + 7}) {
      Arena::deallocate(ptrs[i]);
    }
  });
  other.join();
  uint64_t drained = a->stats().remote_spans_drained;
  // The carving span is full and the local list is empty: this refills.
  void* p = a->allocate(kObj);
  EXPECT_EQ(a->stats().remote_spans_drained, drained + 3);
  EXPECT_EQ(a->stats().spans, kSpans);  // reclaimed, no new span
  std::set<void*> freed{ptrs[3 * kPerSpan], ptrs[3 * kPerSpan + 5], ptrs[90 * kPerSpan + 1],
                        ptrs[170 * kPerSpan + 7]};
  EXPECT_EQ(freed.count(p), 1u);
  bind_thread_arena(nullptr);
  flow.release_arena(a);
}

TEST(Flow, CrossThreadFreeStormReturnsEveryObjectOnce) {
  // Every thread allocates and hands its objects to the next thread, which
  // frees them remotely while the owner keeps allocating (and draining).
  // Afterwards each owner must get every freed object back, and no object
  // may ever be handed out while it is still live.
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  constexpr int kBatch = 128;
  constexpr size_t kObj = 64;
  constexpr size_t kPerSpan = (internal::kSpanSize - internal::kObjectStart) / kObj;
  Flow flow;
  struct Inbox {
    std::mutex mu;
    std::vector<void*> ptrs;
  };
  Inbox inbox[kThreads];
  // Word 1 of a live object holds its owner's tag; the freer clears it, so
  // a non-zero tag on a fresh allocation means a live object came back.
  auto tag_of = [](void* p) { return static_cast<uint64_t*>(p) + 1; };
  auto free_inbox = [&](int t) {
    std::vector<void*> got;
    {
      std::lock_guard<std::mutex> lock(inbox[t].mu);
      got.swap(inbox[t].ptrs);
    }
    for (void* p : got) {
      EXPECT_EQ(*tag_of(p), static_cast<uint64_t>((t + kThreads - 1) % kThreads + 1));
      *tag_of(p) = 0;
      Arena::deallocate(p);
    }
  };
  std::vector<std::unordered_set<void*>> handed(kThreads);
  std::vector<Arena*> arenas(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Arena* a = arenas[t] = flow.acquire_arena();
      bind_thread_arena(a);
      for (int r = 0; r < kRounds; ++r) {
        std::vector<void*> batch;
        for (int i = 0; i < kBatch; ++i) {
          void* p = a->allocate(kObj);
          EXPECT_EQ(*tag_of(p), 0u) << "live object handed out twice";
          *tag_of(p) = static_cast<uint64_t>(t + 1);
          handed[t].insert(p);
          batch.push_back(p);
        }
        {
          Inbox& next = inbox[(t + 1) % kThreads];
          std::lock_guard<std::mutex> lock(next.mu);
          next.ptrs.insert(next.ptrs.end(), batch.begin(), batch.end());
        }
        free_inbox(t);
      }
      bind_thread_arena(nullptr);
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  threads.clear();
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { free_inbox(t); });  // still remote frees
  }
  for (auto& th : threads) {
    th.join();
  }
  // Every object each owner handed out is now free. Reallocating takes at
  // most what is left of the carving span before all of them come back.
  for (int t = 0; t < kThreads; ++t) {
    Arena* a = arenas[t];
    bind_thread_arena(a);
    std::unordered_set<void*> missing = handed[t];
    std::unordered_set<void*> live;
    size_t budget = missing.size() + kPerSpan;
    for (size_t i = 0; i < budget && !missing.empty(); ++i) {
      void* p = a->allocate(kObj);
      ASSERT_TRUE(live.insert(p).second) << "object handed out twice";
      EXPECT_EQ(*tag_of(p), 0u);
      missing.erase(p);
    }
    EXPECT_TRUE(missing.empty()) << missing.size() << " freed objects never came back";
    EXPECT_GT(a->stats().remote_spans_drained, 0u);
    for (void* p : live) {
      Arena::deallocate(p);
    }
    bind_thread_arena(nullptr);
    flow.release_arena(a);
  }
}

}  // namespace
}  // namespace masstree
