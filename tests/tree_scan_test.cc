// Range-query (getrange/scan, §3) tests: multi-layer traversal, oracle
// comparisons against std::map for Tree::scan and the
// raw ScanCursor (including detach/re-attach resume), the allocation-free
// steady-state guarantee, and scans racing splits + empty-layer GC.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "core/tree.h"
#include "support/test_support.h"
#include "util/rand.h"

namespace masstree {
namespace {

using test_support::ChurnDriver;

// How each oracle comparison drives the tree.
enum class Mode {
  kScan,          // Tree::scan — cursor + next-border prefetch
  kCursorDetach,  // raw cursor, detach()/re-attach between every batch
};

class ScanTest : public ::testing::Test {
 protected:
  ScanTest() : tree_(ti_) {}

  void Put(const std::string& k, uint64_t v) {
    uint64_t old;
    tree_.insert(k, v, &old, ti_);
    oracle_[k] = v;
  }
  void Remove(const std::string& k) {
    uint64_t old;
    tree_.remove(k, &old, ti_);
    oracle_.erase(k);
  }

  std::vector<std::pair<std::string, uint64_t>> Scan(const std::string& first, size_t limit,
                                                     Mode mode = Mode::kScan) {
    std::vector<std::pair<std::string, uint64_t>> out;
    auto emit = [&](std::string_view k, uint64_t v) {
      out.emplace_back(std::string(k), v);
      return true;
    };
    switch (mode) {
      case Mode::kScan:
        tree_.scan(first, limit, emit, ti_);
        break;
      case Mode::kCursorDetach: {
        // Chunked drive: one epoch guard per batch with a detach in between,
        // the way Store::getrange pages an arbitrarily long range.
        auto cur = tree_.scan_cursor(first);
        while (out.size() < limit) {
          EpochGuard guard(ti_.slot());
          size_t n = cur.next_batch(&ti_.counters());
          if (n == 0) {
            break;
          }
          cur.prefetch_pending();
          for (size_t i = 0; i < n && out.size() < limit; ++i) {
            out.emplace_back(std::string(cur.key(i)), cur.value(i));
          }
          cur.detach();
        }
        break;
      }
    }
    return out;
  }

  std::vector<std::pair<std::string, uint64_t>> OracleScan(const std::string& first,
                                                           size_t limit) {
    std::vector<std::pair<std::string, uint64_t>> out;
    for (auto it = oracle_.lower_bound(first); it != oracle_.end() && out.size() < limit; ++it) {
      out.emplace_back(it->first, it->second);
    }
    return out;
  }

  void ExpectScanMatchesOracle(const std::string& first, size_t limit) {
    for (Mode mode : {Mode::kScan, Mode::kCursorDetach}) {
      auto got = Scan(first, limit, mode);
      auto want = OracleScan(first, limit);
      ASSERT_EQ(got.size(), want.size())
          << "first=" << first << " mode=" << static_cast<int>(mode);
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].first, want[i].first) << "i=" << i << " mode=" << static_cast<int>(mode);
        EXPECT_EQ(got[i].second, want[i].second)
            << "i=" << i << " mode=" << static_cast<int>(mode);
      }
    }
  }

  ThreadContext ti_;
  Tree tree_;
  std::map<std::string, uint64_t> oracle_;
};

TEST_F(ScanTest, EmptyTree) { EXPECT_TRUE(Scan("", 10).empty()); }

TEST_F(ScanTest, SortedOrderSingleNode) {
  Put("banana", 2);
  Put("apple", 1);
  Put("cherry", 3);
  auto got = Scan("", 10);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].first, "apple");
  EXPECT_EQ(got[1].first, "banana");
  EXPECT_EQ(got[2].first, "cherry");
}

TEST_F(ScanTest, InclusiveStart) {
  Put("a", 1);
  Put("b", 2);
  Put("c", 3);
  auto got = Scan("b", 10);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].first, "b");  // §3: "starting with the next key at or after k"
}

TEST_F(ScanTest, StartBetweenKeys) {
  Put("aa", 1);
  Put("cc", 3);
  auto got = Scan("bb", 10);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, "cc");
}

TEST_F(ScanTest, LimitRespected) {
  for (int i = 0; i < 100; ++i) {
    char buf[8];
    snprintf(buf, sizeof(buf), "%03d", i);
    Put(buf, i);
  }
  EXPECT_EQ(Scan("", 17).size(), 17u);
  ExpectScanMatchesOracle("", 17);
  ExpectScanMatchesOracle("050", 25);
}

TEST_F(ScanTest, CallbackCanStopEarly) {
  for (int i = 0; i < 50; ++i) {
    Put("k" + std::to_string(100 + i), i);
  }
  int seen = 0;
  tree_.scan(
      "", 1000,
      [&](std::string_view, uint64_t) {
        ++seen;
        return seen < 5;
      },
      ti_);
  EXPECT_EQ(seen, 5);
}

TEST_F(ScanTest, AcrossManyNodes) {
  for (int i = 0; i < 3000; ++i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "%07d", i * 3);
    Put(buf, i);
  }
  ExpectScanMatchesOracle("", 3000);
  ExpectScanMatchesOracle("0004500", 100);
  ExpectScanMatchesOracle("0004501", 100);  // non-existent start
  ExpectScanMatchesOracle("0008999", 10);
  ExpectScanMatchesOracle("9999999", 10);  // past the end
}

TEST_F(ScanTest, AcrossLayers) {
  // Keys sharing long prefixes live in deep layers; scans must stitch the
  // prefix back together and keep global order.
  Put("0123456789AB", 1);
  Put("0123456789CD", 2);
  Put("01234567", 3);
  Put("0123", 4);
  Put("01234567AAAAAAAAZZ", 5);
  Put("1", 6);
  ExpectScanMatchesOracle("", 100);
  ExpectScanMatchesOracle("01234567", 100);
  ExpectScanMatchesOracle("0123456789B", 100);
  ExpectScanMatchesOracle("01234567AAAAAAAA", 100);
}

TEST_F(ScanTest, DeepLayersWithSharedPrefix) {
  std::string prefix(32, 'q');
  for (int i = 0; i < 300; ++i) {
    char buf[8];
    snprintf(buf, sizeof(buf), "%04d", i);
    Put(prefix + buf, i);
  }
  ExpectScanMatchesOracle("", 1000);
  ExpectScanMatchesOracle(prefix + "0150", 20);
  ExpectScanMatchesOracle(prefix, 20);
  // Start strictly inside the prefix region.
  ExpectScanMatchesOracle(prefix.substr(0, 10), 20);
}

TEST_F(ScanTest, BinaryKeys) {
  Put(std::string("\x00", 1), 1);
  Put(std::string("\x00\x00", 2), 2);
  Put(std::string("\x00\xff", 2), 3);
  Put(std::string("\xff", 1), 4);
  Put("", 5);
  ExpectScanMatchesOracle("", 10);
  ExpectScanMatchesOracle(std::string("\x00", 1), 10);
  ExpectScanMatchesOracle(std::string("\x00\x01", 2), 10);
}

TEST_F(ScanTest, AfterRemovals) {
  for (int i = 0; i < 500; ++i) {
    Put("key" + std::to_string(1000 + i), i);
  }
  for (int i = 0; i < 500; i += 3) {
    Remove("key" + std::to_string(1000 + i));
  }
  ExpectScanMatchesOracle("", 1000);
  ExpectScanMatchesOracle("key1250", 50);
}

TEST_F(ScanTest, RandomizedOracle) {
  Rng rng(99);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 400; ++i) {
      std::string k = std::to_string(rng.next_range(1u << 31));
      if (rng.next_range(100) < 15 && !oracle_.empty()) {
        auto it = oracle_.lower_bound(k);
        if (it == oracle_.end()) {
          it = oracle_.begin();
        }
        Remove(it->first);
      } else {
        Put(k, rng.next());
      }
    }
    ExpectScanMatchesOracle("", 10000);
    ExpectScanMatchesOracle(std::to_string(rng.next_range(1u << 31)), 37);
  }
}

TEST_F(ScanTest, GetrangeSemantics) {
  // getrange(k, n): up to n pairs from the next key at or after k (§3).
  for (int i = 0; i < 10; ++i) {
    Put("row" + std::to_string(i), i);
  }
  auto got = Scan("row3", 4);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].first, "row3");
  EXPECT_EQ(got[3].first, "row6");
}

TEST_F(ScanTest, ResumeAtEveryBoundary) {
  // Start the scan at EVERY existing key (and just past it): exact-border
  // start keys — including each node's first key after splits — must resume
  // inclusively, and key+'\0' exclusively, in every mode.
  for (int i = 0; i < 700; ++i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "%06d", i * 7);
    Put(buf, i);
  }
  int step = 0;
  for (const auto& [k, v] : oracle_) {
    if (step++ % 13 != 0) {  // every 13th key keeps the test fast
      continue;
    }
    ExpectScanMatchesOracle(k, 5);
    ExpectScanMatchesOracle(k + '\0', 5);
  }
}

TEST_F(ScanTest, ResumeSpanningLayerPop) {
  // A deep shared-prefix region (layer-h trees) followed by keys after it:
  // scans that start inside the layers and run past their end exercise the
  // layer-pop resume, and the detach mode re-descends through the full layer
  // stack from a key-valued resume point.
  std::string prefix(24, 'm');
  for (int i = 0; i < 120; ++i) {
    char buf[8];
    snprintf(buf, sizeof(buf), "%03d", i);
    Put(prefix + buf, i);
  }
  Put("mzzz", 9001);  // after the whole prefix region
  Put("n", 9002);
  Put(prefix.substr(0, 9), 9000);  // inside the region, shallower layer
  ExpectScanMatchesOracle(prefix + "100", 100);  // spans the pop out of the layers
  ExpectScanMatchesOracle(prefix.substr(0, 12), 200);
  ExpectScanMatchesOracle(prefix, 200);
}

TEST_F(ScanTest, CursorSteadyStateAllocationFree) {
  // The perf claim, enforced: after warm-up, the chain walk over uniformly
  // shaped keys performs zero buffer growth per node visit.
  uint64_t old;
  for (int i = 0; i < 20000; ++i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "%016d", i);  // 2 slices: suffix bags in play
    tree_.insert(buf, i, &old, ti_);
  }
  auto cur = tree_.scan_cursor("");
  EpochGuard guard(ti_.slot());
  uint64_t nodes0 = ti_.counters().get(Counter::kScanNodes);
  int batches = 0;
  uint32_t warm_allocs = 0;
  uint64_t pairs = 0;
  for (;;) {
    size_t n = cur.next_batch(&ti_.counters());
    if (n == 0) {
      break;
    }
    for (size_t i = 0; i < n; ++i) {
      pairs += cur.key(i).size() != 0;
    }
    if (++batches == 20) {
      warm_allocs = cur.alloc_events();
    }
  }
  uint64_t nodes = ti_.counters().get(Counter::kScanNodes) - nodes0;
  EXPECT_EQ(pairs, 20000u);
  ASSERT_GT(batches, 100);  // the walk really was long
  ASSERT_GT(nodes, 100u);
  EXPECT_EQ(cur.alloc_events(), warm_allocs)
      << "chain walk allocated after warm-up (" << nodes << " node visits)";
}

TEST_F(ScanTest, ScanCountersAdvance) {
  for (int i = 0; i < 3000; ++i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "c%06d", i);  // 7 bytes: one flat layer
    Put(buf, i);
  }
  uint64_t nodes0 = ti_.counters().get(Counter::kScanNodes);
  uint64_t redesc0 = ti_.counters().get(Counter::kScanRedescents);
  ASSERT_EQ(Scan("", 100000).size(), oracle_.size());
  uint64_t nodes_full = ti_.counters().get(Counter::kScanNodes) - nodes0;
  uint64_t redesc_full = ti_.counters().get(Counter::kScanRedescents) - redesc0;
  EXPECT_GE(nodes_full, oracle_.size() / Tree::Border::kWidth);
  // One flat layer, chain-walked: exactly the initial locate, no re-descents.
  EXPECT_EQ(redesc_full, 1u);

  // The detach-per-batch drive re-descends once per batch by design.
  redesc0 = ti_.counters().get(Counter::kScanRedescents);
  ASSERT_EQ(Scan("", 100000, Mode::kCursorDetach).size(), oracle_.size());
  EXPECT_GT(ti_.counters().get(Counter::kScanRedescents) - redesc0, nodes_full / 2);
}

TEST_F(ScanTest, ScanUnderChurn) {
  // Readers scan while the writer splits nodes, creates layers, empties them
  // again, and runs the deferred empty-layer GC. Non-atomic scans may miss
  // concurrent churn keys, but they must stay sorted and never miss a stable
  // key that existed for the whole test.
  constexpr int kStable = 400;
  for (int i = 0; i < kStable; ++i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "k%05d", i * 2);
    Put(buf, i);
  }
  const std::map<std::string, uint64_t> stable = oracle_;

  ChurnDriver churn;
  churn.spawn(2, [&](ThreadContext& ti, Rng& rng) {
    char buf[16];
    snprintf(buf, sizeof(buf), "k%05d", static_cast<int>(rng.next_range(2 * kStable)));
    std::string first(buf);
    std::vector<std::pair<std::string, uint64_t>> got;
    tree_.scan(
        first, 50,
        [&](std::string_view k, uint64_t v) {
          got.emplace_back(std::string(k), v);
          return true;
        },
        ti);
    // Sorted, strictly increasing.
    for (size_t i = 1; i < got.size(); ++i) {
      if (got[i - 1].first >= got[i].first) {
        return false;
      }
    }
    if (!got.empty() && got.front().first < first) {
      return false;
    }
    // Every stable key in [first, end-of-scan] must be present with its
    // value: a limit-filled scan bounds the check at its last pair, an
    // exhausted scan covers the whole tail.
    size_t gi = 0;
    for (auto it = stable.lower_bound(first); it != stable.end(); ++it) {
      if (got.size() == 50 && it->first > got.back().first) {
        break;  // beyond what this scan could see
      }
      while (gi < got.size() && got[gi].first < it->first) {
        ++gi;
      }
      if (gi == got.size() || got[gi].first != it->first || got[gi].second != it->second) {
        return false;  // stable key missing or corrupted
      }
    }
    return true;
  });

  // Writer: churn keys between the stable ones, with long shared prefixes so
  // layers are created (§4.6.3), emptied, and GC'd (§4.6.5) under the scans.
  // Runs for a minimum wall time so the readers get real overlap.
  Rng rng(4242);
  uint64_t old;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  for (int round = 0; round < 1000 || std::chrono::steady_clock::now() < deadline; ++round) {
    int slot = static_cast<int>(rng.next_range(kStable)) * 2 + 1;
    char buf[16];
    snprintf(buf, sizeof(buf), "k%05d", slot);
    std::string p = std::string(buf) + std::string(16, 'q');
    tree_.insert(p + "aaaa", round, &old, ti_);
    tree_.insert(p + "bbbb", round, &old, ti_);
    tree_.remove(p + "aaaa", &old, ti_);
    tree_.remove(p + "bbbb", &old, ti_);
    if ((round & 15) == 0) {
      tree_.run_maintenance(ti_);
      ti_.reclaim();
    }
  }
  tree_.run_maintenance(ti_);
  EXPECT_EQ(churn.stop_and_join(), 0);
  ExpectScanMatchesOracle("", 100000);
  EXPECT_TRUE(test_support::rep_ok(tree_));
}

}  // namespace
}  // namespace masstree
