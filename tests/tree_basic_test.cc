// Masstree functional tests, single-threaded: §4.1's layering examples,
// inserts/updates/removes, splits, and oracle comparison against std::map.

#include "core/tree.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/rand.h"

namespace masstree {
namespace {

class TreeTest : public ::testing::Test {
 protected:
  TreeTest() : tree_(ti_) {}

  std::optional<uint64_t> Get(std::string_view k) {
    uint64_t v;
    if (tree_.get(k, &v, ti_)) {
      return v;
    }
    return std::nullopt;
  }
  bool Put(std::string_view k, uint64_t v) {
    uint64_t old;
    return tree_.insert(k, v, &old, ti_);
  }
  bool Remove(std::string_view k) {
    uint64_t old;
    return tree_.remove(k, &old, ti_);
  }

  ThreadContext ti_;
  Tree tree_;
};

TEST_F(TreeTest, EmptyTree) {
  EXPECT_FALSE(Get("anything"));
  EXPECT_FALSE(Get(""));
  EXPECT_FALSE(Remove("anything"));
}

TEST_F(TreeTest, SingleKey) {
  EXPECT_TRUE(Put("hello", 42));
  EXPECT_EQ(Get("hello"), 42u);
  EXPECT_FALSE(Get("hell"));
  EXPECT_FALSE(Get("hello!"));
}

TEST_F(TreeTest, UpdateReturnsOldValue) {
  Put("k", 1);
  uint64_t old = 0;
  EXPECT_FALSE(tree_.insert("k", 2, &old, ti_));  // update, not insert
  EXPECT_EQ(old, 1u);
  EXPECT_EQ(Get("k"), 2u);
}

TEST_F(TreeTest, EmptyKeyIsAValidKey) {
  EXPECT_TRUE(Put("", 9));
  EXPECT_EQ(Get(""), 9u);
  EXPECT_TRUE(Remove(""));
  EXPECT_FALSE(Get(""));
}

TEST_F(TreeTest, PaperLayerExample) {
  // §4.1's worked example.
  EXPECT_TRUE(Put("01234567AB", 1));  // stored with suffix "AB"
  EXPECT_EQ(Get("01234567AB"), 1u);

  // Same 8-byte prefix: must create a layer-1 tree holding "AB" and "XY".
  EXPECT_TRUE(Put("01234567XY", 2));
  EXPECT_EQ(Get("01234567AB"), 1u);  // remains visible throughout
  EXPECT_EQ(Get("01234567XY"), 2u);
  TreeStats st = tree_.collect_stats();
  EXPECT_EQ(st.layers, 2u);
  EXPECT_EQ(st.layer_links, 1u);

  // remove("01234567XY") deletes "XY" from the layer-1 tree; "AB" stays.
  EXPECT_TRUE(Remove("01234567XY"));
  EXPECT_FALSE(Get("01234567XY"));
  EXPECT_EQ(Get("01234567AB"), 1u);
}

TEST_F(TreeTest, StatsSplitBorderNodesAndKeysByLayer) {
  // Two keys that share their first 8-byte slice move into one layer-1
  // border node; a short key stays in layer 0 beside the layer link.
  EXPECT_TRUE(Put("01234567AB", 1));
  EXPECT_TRUE(Put("01234567XY", 2));
  EXPECT_TRUE(Put("short", 3));
  TreeStats st = tree_.collect_stats();
  EXPECT_EQ(st.border_nodes, 2u);
  EXPECT_EQ(st.keys, 3u);
  EXPECT_EQ(st.layer0_border_nodes, 1u);
  EXPECT_EQ(st.layer0_keys, 1u);
  EXPECT_EQ(st.layer0_slots, 2u);  // "short" and the layer link
  EXPECT_DOUBLE_EQ(st.layer0_slot_fill(), 2.0);
  EXPECT_EQ(st.deep_border_nodes(), 1u);
  EXPECT_EQ(st.deep_keys(), 2u);
}

TEST_F(TreeTest, SameSliceDifferentLengths) {
  // Keys of length 0..8 sharing one slice all coexist in one border node,
  // plus one suffixed key (§4.2: "at most 10 keys with the same slice").
  std::string base = "AAAAAAAA";
  for (size_t len = 0; len <= 8; ++len) {
    EXPECT_TRUE(Put(std::string_view(base).substr(0, len), len + 100));
  }
  EXPECT_TRUE(Put(base + "tail", 200));
  for (size_t len = 0; len <= 8; ++len) {
    EXPECT_EQ(Get(std::string_view(base).substr(0, len)), len + 100);
  }
  EXPECT_EQ(Get(base + "tail"), 200u);
}

TEST_F(TreeTest, EmbeddedNulKeys) {
  std::string k7("ABCDEFG");
  std::string k8("ABCDEFG\0", 8);
  std::string k9("ABCDEFG\0\0", 9);
  EXPECT_TRUE(Put(k7, 7));
  EXPECT_TRUE(Put(k8, 8));
  EXPECT_TRUE(Put(k9, 9));
  EXPECT_EQ(Get(k7), 7u);
  EXPECT_EQ(Get(k8), 8u);
  EXPECT_EQ(Get(k9), 9u);
}

TEST_F(TreeTest, SplitsOnSequentialInsert) {
  for (int i = 0; i < 1000; ++i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "%08d", i);
    ASSERT_TRUE(Put(buf, i));
  }
  for (int i = 0; i < 1000; ++i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "%08d", i);
    ASSERT_EQ(Get(buf), static_cast<uint64_t>(i)) << buf;
  }
  TreeStats st = tree_.collect_stats();
  EXPECT_GT(st.border_nodes, 60u);  // must have split many times
  EXPECT_GT(st.interior_nodes, 0u);
  // Sequential optimization: nodes should be densely packed, not half full.
  EXPECT_GT(st.avg_border_fill(15), 0.85);
}

// Loads "%08d" keys 0..n-1 in `order`; returns layer-0 slots per node.
double LoadAndMeasureFill(Tree& tree, ThreadContext& ti, const std::vector<int>& order) {
  for (int i : order) {
    char buf[16];
    snprintf(buf, sizeof(buf), "%08d", i);
    uint64_t old;
    EXPECT_TRUE(tree.insert(buf, static_cast<uint64_t>(i), &old, ti)) << buf;
  }
  TreeStats st = tree.collect_stats();
  EXPECT_EQ(st.keys, order.size());
  return st.layer0_slot_fill();
}

// An ascending run into the middle of the tree splits at its insert point.
// Every 8th key goes in first: the rightmost-append rule leaves full nodes
// of 15 keys, each spanning 120 keys of the range. Then the other seven in
// eight go in, ascending. A middle split gives 8 keys per node (2,400
// nodes here). With the run rule, a node keeps the run's keys before the
// new key, and the every-8th keys ahead travel with the run into the next
// node, so each 120-key stretch ends in exactly 11 nodes: 10, 11, 13, 8, 14
// below the stretch's first middle split and 8, 10, 11, 13, 8, 14 above it
// (10.9 slots per node). A rule that reaches 12 (10 nodes per stretch)
// must know where the run will stop: the best split sequence with the
// whole load in view packs a stretch into 9 nodes.
TEST_F(TreeTest, AscendingRunsSplitAtTheInsertPoint) {
  const int n = 160 * 120;
  std::vector<int> order;
  for (int i = 0; i < n; i += 8) {
    order.push_back(i);
  }
  for (int i = 0; i < n; ++i) {
    if (i % 8 != 0) {
      order.push_back(i);
    }
  }
  LoadAndMeasureFill(tree_, ti_, order);
  TreeStats st = tree_.collect_stats();
  EXPECT_EQ(st.layer0_border_nodes, static_cast<uint64_t>(n / 120 * 11));
  EXPECT_NEAR(st.layer0_slot_fill(), 120.0 / 11, 1e-9);
  for (int i = 0; i < n; ++i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "%08d", i);
    ASSERT_EQ(Get(buf), static_cast<uint64_t>(i)) << buf;
  }
}

// Random order rarely meets the run rule: fill stays within 2% of the
// middle-split-only rule's 10.52 slots per node on this load.
TEST_F(TreeTest, RandomOrderFillUnchanged) {
  const int n = 20000;
  std::vector<int> order;
  for (int i = 0; i < n; ++i) {
    order.push_back(i);
  }
  Rng rng(7);
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next_range(static_cast<uint64_t>(i) + 1)]);
  }
  EXPECT_GE(LoadAndMeasureFill(tree_, ti_, order), 0.98 * 10.52);
}

TEST_F(TreeTest, SplitsOnRandomInsert) {
  Rng rng(7);
  std::map<std::string, uint64_t> oracle;
  for (int i = 0; i < 5000; ++i) {
    std::string k = std::to_string(rng.next_range(100000000));
    uint64_t v = rng.next();
    uint64_t old;
    bool inserted = tree_.insert(k, v, &old, ti_);
    EXPECT_EQ(inserted, oracle.find(k) == oracle.end());
    oracle[k] = v;
  }
  for (const auto& [k, v] : oracle) {
    ASSERT_EQ(Get(k), v) << k;
  }
}

TEST_F(TreeTest, LongSharedPrefixes) {
  // 40-byte shared prefix forces 5+ trie layers (§4.1 "Balance").
  std::string prefix(40, 'P');
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(Put(prefix + std::to_string(i), i));
  }
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(Get(prefix + std::to_string(i)), static_cast<uint64_t>(i));
  }
  EXPECT_FALSE(Get(prefix));  // the prefix itself was never inserted
  TreeStats st = tree_.collect_stats();
  EXPECT_GE(st.layers, 6u);
}

TEST_F(TreeTest, RemoveThenReinsert) {
  for (int i = 0; i < 100; ++i) {
    Put("key" + std::to_string(i), i);
  }
  for (int i = 0; i < 100; i += 2) {
    EXPECT_TRUE(Remove("key" + std::to_string(i)));
  }
  for (int i = 0; i < 100; ++i) {
    if (i % 2 == 0) {
      EXPECT_FALSE(Get("key" + std::to_string(i)));
    } else {
      EXPECT_EQ(Get("key" + std::to_string(i)), static_cast<uint64_t>(i));
    }
  }
  for (int i = 0; i < 100; i += 2) {
    EXPECT_TRUE(Put("key" + std::to_string(i), i + 1000));
  }
  for (int i = 0; i < 100; i += 2) {
    EXPECT_EQ(Get("key" + std::to_string(i)), static_cast<uint64_t>(i + 1000));
  }
}

TEST_F(TreeTest, RemoveReturnsOldValue) {
  Put("x", 123);
  uint64_t old = 0;
  EXPECT_TRUE(tree_.remove("x", &old, ti_));
  EXPECT_EQ(old, 123u);
  EXPECT_FALSE(tree_.remove("x", &old, ti_));
}

TEST_F(TreeTest, MassRemoveEmptiesNodes) {
  std::vector<std::string> keys;
  for (int i = 0; i < 2000; ++i) {
    keys.push_back("k" + std::to_string(i * 7919 % 100000));
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    Put(keys[i], i);
  }
  for (const auto& k : keys) {
    Remove(k);
  }
  for (const auto& k : keys) {
    EXPECT_FALSE(Get(k));
  }
  // Empty borders are deleted; tree shrinks back toward a single node.
  TreeStats st = tree_.collect_stats();
  EXPECT_EQ(st.keys, 0u);
  EXPECT_LT(st.border_nodes, 20u);
}

TEST_F(TreeTest, EmptyLayerGcViaMaintenance) {
  Put("01234567AB", 1);
  Put("01234567XY", 2);
  ASSERT_EQ(tree_.collect_stats().layers, 2u);
  Remove("01234567AB");
  Remove("01234567XY");
  // Layer-1 tree is now empty; a maintenance task was scheduled (§4.6.5).
  EXPECT_GT(tree_.pending_maintenance(), 0u);
  tree_.run_maintenance(ti_);
  TreeStats st = tree_.collect_stats();
  EXPECT_EQ(st.layer_links, 0u);
  EXPECT_EQ(st.keys, 0u);
  // Reinsert still works afterwards.
  EXPECT_TRUE(Put("01234567AB", 3));
  EXPECT_EQ(Get("01234567AB"), 3u);
}

TEST_F(TreeTest, SuffixBagGrowth) {
  // Many long-suffix keys landing in one node force bag growth.
  uint64_t growths0 = ti_.counters().get(Counter::kSuffixBagGrowths);
  for (int i = 0; i < 8; ++i) {
    std::string k = std::string(1, 'a' + i) + "2345678" + std::string(100, 'x') +
                    std::to_string(i);
    ASSERT_TRUE(Put(k, i));
  }
  EXPECT_GT(ti_.counters().get(Counter::kSuffixBagGrowths), growths0);
  for (int i = 0; i < 8; ++i) {
    std::string k = std::string(1, 'a' + i) + "2345678" + std::string(100, 'x') +
                    std::to_string(i);
    ASSERT_EQ(Get(k), static_cast<uint64_t>(i));
  }
}

TEST_F(TreeTest, ShortSuffixBagUsesItsWholeSizeClass) {
  // 15 ten-byte keys with distinct 8-byte slices fill one border, each with
  // a 2-byte suffix. The first bag asks for 2 + 24 data bytes; its size
  // class has room for all 15 suffixes, and the bag must use that room
  // instead of growing (a bag that used only its request grew at key 14).
  auto key = [](int i) {
    char k[11];
    std::snprintf(k, sizeof(k), "key%05dzz", i);
    return std::string(k, 10);
  };
  uint64_t growths0 = ti_.counters().get(Counter::kSuffixBagGrowths);
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(Put(key(i), i));
  }
  EXPECT_EQ(ti_.counters().get(Counter::kSuffixBagGrowths), growths0);
  TreeStats st = tree_.collect_stats();
  EXPECT_EQ(st.border_nodes, 1u);
  // The bag's capacity is the whole block it was given: a class size.
  EXPECT_EQ(st.suffix_bytes, internal::class_size_for(st.suffix_bytes));
  EXPECT_LE(st.suffix_used_bytes, st.suffix_bytes);
  for (int i = 0; i < 15; ++i) {
    EXPECT_EQ(Get(key(i)), static_cast<uint64_t>(i));
  }
}

// Regression: the §4.3 rightmost-append split optimization (new key goes to
// a fresh right sibling alone) must not fire when the new key shares its
// 8-byte slice with the node's current last entry — the sibling's lowkey is
// a slice, so splitting a same-slice pair across the boundary routed gets
// for the kept entry to the new node, where they missed. Scan still saw the
// key (B-link walk), only point lookups lost it.
TEST_F(TreeTest, RightmostSplitKeepsSameSliceEntriesTogether) {
  // Fill one border to kWidth with ascending keys so the next insert is a
  // rightmost append into a full node with no next sibling...
  for (int i = 0; i < 14; ++i) {
    ASSERT_TRUE(Put("fill-" + std::string(1, 'a' + i), i));
  }
  ASSERT_TRUE(Put("same8tag", 100));  // exactly 8 bytes: ord 8, last entry
  // ...where the appended key shares the slice "same8tag" but carries a
  // suffix (ord 9): the split must keep both on one side.
  ASSERT_TRUE(Put("same8tag-suffixed", 101));
  EXPECT_EQ(Get("same8tag"), 100u);
  EXPECT_EQ(Get("same8tag-suffixed"), 101u);
  for (int i = 0; i < 14; ++i) {
    EXPECT_EQ(Get("fill-" + std::string(1, 'a' + i)), static_cast<uint64_t>(i));
  }
}

TEST_F(TreeTest, DecimalWorkloadSmoke) {
  // The paper's 1-to-10-byte decimal key distribution (§6.1).
  Rng rng(1234);
  std::map<std::string, uint64_t> oracle;
  for (int i = 0; i < 20000; ++i) {
    std::string k = std::to_string(rng.next_range(1u << 31));
    oracle[k] = i;
    uint64_t old;
    tree_.insert(k, i, &old, ti_);
  }
  TreeStats st = tree_.collect_stats();
  EXPECT_EQ(st.keys, oracle.size());
  EXPECT_GE(st.layers, 2u);  // 9-10 byte keys create layer-1 trees
  for (const auto& [k, v] : oracle) {
    ASSERT_EQ(Get(k), v);
  }
}

}  // namespace
}  // namespace masstree
