// multiput/multiremove (§4.8 software-pipelined batched writes) tests:
// oracle-diffing against sequential puts over mixed short/suffix/layer-deep
// keys, mixed put/remove batches, duplicate-key last-write-wins semantics,
// counter bookkeeping, a ChurnDriver writer-vs-writer stress run (this suite
// is in the tier-2 TSan lane), and Store-level recovery-replay equivalence
// proving batch-logged state replays identically to sequential puts.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/tree.h"
#include "kvstore/store.h"
#include "support/test_support.h"
#include "util/rand.h"

namespace masstree {
namespace {

namespace fs = std::filesystem;

using test_support::ChurnDriver;
using test_support::Oracle;
using test_support::seeded_rng;

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Apply `reqs` via multiput to `batched` and one-by-one to `sequential`,
// then assert both trees hold the same state and the batch reported the same
// per-request inserted/found flags the sequential run produced. Both trees
// share apply_locked(), so `oracle` (a std::map shadow carried across calls)
// replays the requests too, and every flag and both trees' full contents are
// diffed against it as an independent reference.
void expect_matches_sequential(Tree& batched, Tree& sequential, Oracle& oracle,
                               std::vector<Tree::PutRequest> reqs,
                               ThreadContext& ti, const char* context) {
  std::vector<Tree::PutRequest> seq = reqs;
  size_t seq_applied = 0;
  for (Tree::PutRequest& rq : seq) {
    uint64_t old = 0;
    std::string key(rq.key);
    if (rq.remove) {
      rq.found = sequential.remove(rq.key, &old, ti);
      seq_applied += rq.found;
      ASSERT_EQ(rq.found, oracle.note_remove(key)) << context << " key=" << key;
    } else {
      rq.inserted = sequential.insert(rq.key, rq.value, &old, ti);
      rq.found = !rq.inserted;
      ++seq_applied;
      ASSERT_EQ(rq.inserted, oracle.note_insert(key, rq.value)) << context << " key=" << key;
    }
  }
  size_t applied = batched.multiput(std::span<Tree::PutRequest>(reqs), ti);
  ASSERT_EQ(applied, seq_applied) << context;
  for (size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_EQ(reqs[i].inserted, seq[i].inserted)
        << context << " i=" << i << " key=" << reqs[i].key;
    ASSERT_EQ(reqs[i].found, seq[i].found)
        << context << " i=" << i << " key=" << reqs[i].key;
  }
  test_support::check_tree_matches_oracle(batched, oracle, ti, context);
  test_support::check_tree_matches_oracle(sequential, oracle, ti, context);
}

// A key mix that exercises every cursor state: short keys (end inside the
// first slice), exact-8-byte keys, suffixed keys, and keys sharing long
// prefixes so the tree grows multiple trie layers.
std::vector<std::string> mixed_keys(int n) {
  std::vector<std::string> keys;
  for (int i = 0; i < n; ++i) {
    std::string num = std::to_string(i);
    keys.push_back(num);                                  // short
    keys.push_back("eight_" + std::string(2 - (num.size() > 2), '0') + num);  // ~8 bytes
    keys.push_back("suffixed-key-" + num);                // suffix in the bag
    keys.push_back(std::string(24, 'L') + num);           // shared 3-slice prefix
    keys.push_back("deep" + std::string(40, 'p') + num);  // 5+ layers deep
  }
  return keys;
}

TEST(TreeMultiput, EmptyBatch) {
  ThreadContext ti;
  Tree tree(ti);
  std::vector<Tree::PutRequest> reqs;
  EXPECT_EQ(tree.multiput(std::span<Tree::PutRequest>(reqs), ti), 0u);
}

TEST(TreeMultiput, MixedKeysMatchSequentialPuts) {
  ThreadContext ti;
  Tree batched(ti), sequential(ti);
  Oracle oracle;
  std::vector<std::string> keys = mixed_keys(60);

  // Batch sizes below, at, and crossing the in-flight window. Every pass
  // revisits the same keys with new values, so later passes exercise the
  // replace path (and splits/layer creation from earlier passes persist).
  uint64_t stamp = 1;
  for (size_t batch : {size_t{1}, size_t{5}, Tree::kMultigetWindow,
                       Tree::kMultigetWindow + 1, size_t{37}, keys.size()}) {
    for (size_t start = 0; start + batch <= keys.size(); start += batch) {
      std::vector<Tree::PutRequest> reqs(batch);
      for (size_t i = 0; i < batch; ++i) {
        reqs[i].key = keys[start + i];
        reqs[i].value = stamp++;
      }
      expect_matches_sequential(batched, sequential, oracle, reqs, ti, "mixed");
    }
  }
  EXPECT_TRUE(test_support::rep_ok(batched));
}

TEST(TreeMultiput, MixedPutAndRemoveBatches) {
  ThreadContext ti;
  Tree batched(ti), sequential(ti);
  Oracle oracle;
  Rng rng = seeded_rng(0x4D5052);  // "MPR"
  std::vector<std::string> keys = mixed_keys(40);
  for (int round = 0; round < 30; ++round) {
    std::vector<Tree::PutRequest> reqs(Tree::kMultigetWindow * 2 + 3);
    for (auto& rq : reqs) {
      rq.key = keys[rng.next_range(keys.size())];
      rq.value = rng.next();
      rq.remove = (rng.next() & 3) == 0;  // ~25% removes, often of absent keys
    }
    expect_matches_sequential(batched, sequential, oracle, reqs, ti,
                              ("round " + std::to_string(round)).c_str());
  }
  EXPECT_TRUE(test_support::rep_ok(batched));
  EXPECT_TRUE(test_support::rep_ok(sequential));
}

TEST(TreeMultiput, MultiremoveMatchesSequentialRemoves) {
  ThreadContext ti;
  Tree batched(ti), sequential(ti);
  std::vector<std::string> keys = mixed_keys(20);
  uint64_t old;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i % 2 == 0) {  // half the removes will miss
      batched.insert(keys[i], i, &old, ti);
      sequential.insert(keys[i], i, &old, ti);
    }
  }
  std::vector<Tree::PutRequest> reqs(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    reqs[i].key = keys[i];
  }
  size_t seq_removed = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    seq_removed += sequential.remove(keys[i], &old, ti);
  }
  EXPECT_EQ(batched.multiremove(std::span<Tree::PutRequest>(reqs), ti), seq_removed);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(reqs[i].found, i % 2 == 0) << keys[i];
    uint64_t v;
    EXPECT_FALSE(batched.get(keys[i], &v, ti)) << keys[i];
  }
  EXPECT_TRUE(test_support::rep_ok(batched));
}

// Duplicate keys in one batch: last write wins, and the response flags still
// read as if the requests had been applied one at a time in span order.
TEST(TreeMultiput, DuplicateKeysLastWriteWins) {
  ThreadContext ti;
  Tree tree(ti);
  uint64_t old;
  tree.insert("pre", 7, &old, ti);

  std::vector<Tree::PutRequest> reqs(6);
  // Run on a pre-existing key: put, put — first reads found, second too.
  reqs[0] = Tree::PutRequest{"pre", 100};
  reqs[1] = Tree::PutRequest{"pre", 101};
  // Run on a fresh key: put, put, put — first inserts, later ones "replace".
  reqs[2] = Tree::PutRequest{"fresh", 200};
  reqs[3] = Tree::PutRequest{"fresh", 201};
  reqs[4] = Tree::PutRequest{"fresh", 202};
  // Singleton for contrast.
  reqs[5] = Tree::PutRequest{"solo", 300};
  EXPECT_EQ(tree.multiput(std::span<Tree::PutRequest>(reqs), ti), 6u);

  EXPECT_FALSE(reqs[0].inserted);
  EXPECT_TRUE(reqs[0].found);
  EXPECT_FALSE(reqs[1].inserted);
  EXPECT_TRUE(reqs[1].found);
  EXPECT_TRUE(reqs[2].inserted);
  EXPECT_FALSE(reqs[2].found);
  EXPECT_FALSE(reqs[3].inserted);
  EXPECT_TRUE(reqs[3].found);
  EXPECT_FALSE(reqs[4].inserted);
  EXPECT_TRUE(reqs[4].found);
  EXPECT_TRUE(reqs[5].inserted);

  uint64_t v;
  ASSERT_TRUE(tree.get("pre", &v, ti));
  EXPECT_EQ(v, 101u);  // last write won
  ASSERT_TRUE(tree.get("fresh", &v, ti));
  EXPECT_EQ(v, 202u);
  ASSERT_TRUE(tree.get("solo", &v, ti));
  EXPECT_EQ(v, 300u);
}

TEST(TreeMultiput, DuplicateMixedPutRemoveRuns) {
  ThreadContext ti;
  Tree tree(ti);
  uint64_t old;
  tree.insert("a", 1, &old, ti);

  // put then remove on an existing key: survivor is the remove.
  // remove then put on an absent key: survivor is the put.
  std::vector<Tree::PutRequest> reqs(4);
  reqs[0] = Tree::PutRequest{"a", 10};
  reqs[1] = Tree::PutRequest{"a", 0, true};
  reqs[2] = Tree::PutRequest{"b", 0, true};
  reqs[3] = Tree::PutRequest{"b", 20};
  // As-if-sequential modifications: the "a" put, the "a" remove (which
  // finds the key the put just wrote), and the "b" put — the "b" remove
  // misses. Physically only the two survivors touch the tree, but the
  // reported count matches what sequential application would return.
  EXPECT_EQ(tree.multiput(std::span<Tree::PutRequest>(reqs), ti), 3u);

  EXPECT_TRUE(reqs[0].found);       // as-if-sequential: "a" existed
  EXPECT_TRUE(reqs[1].found);       // the put before it "created" the key
  EXPECT_FALSE(reqs[2].found);      // "b" absent: remove misses
  EXPECT_TRUE(reqs[3].inserted);    // the put after it inserts
  uint64_t v;
  EXPECT_FALSE(tree.get("a", &v, ti));
  ASSERT_TRUE(tree.get("b", &v, ti));
  EXPECT_EQ(v, 20u);
}

TEST(TreeMultiput, BatchAndRetryCountersAdvance) {
  ThreadContext ti;
  Tree tree(ti);
  uint64_t batches = ti.counters().get(Counter::kMultiputBatches);
  uint64_t retries = ti.counters().get(Counter::kMultiputRetries);
  // Suffix-conflicting keys under one slice force make_layer fallbacks, and
  // enough keys force node splits: both paths count kMultiputRetries.
  std::vector<std::string> keys;
  for (int i = 0; i < 400; ++i) {
    keys.push_back("conflict" + std::string(9, 'x') + std::to_string(i));
  }
  std::vector<Tree::PutRequest> reqs(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    reqs[i].key = keys[i];
    reqs[i].value = i;
  }
  EXPECT_EQ(tree.multiput(std::span<Tree::PutRequest>(reqs), ti), keys.size());
  EXPECT_EQ(ti.counters().get(Counter::kMultiputBatches), batches + 1);
  EXPECT_GT(ti.counters().get(Counter::kMultiputRetries), retries);
  uint64_t v;
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(tree.get(keys[i], &v, ti)) << keys[i];
    ASSERT_EQ(v, i);
  }
  EXPECT_TRUE(test_support::rep_ok(tree));
}

TEST(TreeMultiput, LargeRandomBatchesAgainstOracle) {
  ThreadContext ti;
  Tree tree(ti);
  Oracle oracle;
  Rng rng = seeded_rng(0x4D50);  // "MP"
  for (int round = 0; round < 8; ++round) {
    std::vector<std::string> keys;
    std::vector<Tree::PutRequest> reqs(500);
    keys.reserve(reqs.size());
    for (auto& rq : reqs) {
      keys.push_back(test_support::padded_key(rng.next_range(3000)));
      rq.key = keys.back();
      rq.value = rng.next();
      rq.remove = (rng.next() & 7) == 0;
    }
    tree.multiput(std::span<Tree::PutRequest>(reqs), ti);
    // Replay the span in order against the oracle (oracle is sequential, so
    // LWW falls out naturally).
    for (const auto& rq : reqs) {
      if (rq.remove) {
        oracle.note_remove(std::string(rq.key));
      } else {
        oracle.note_insert(std::string(rq.key), rq.value);
      }
    }
  }
  test_support::check_tree_matches_oracle(tree, oracle, ti);
  EXPECT_TRUE(test_support::rep_ok(tree));
}

// Writer-vs-writer stress: concurrent multiput batches from several threads
// over a shared key space, each thread writing values tagged with its id.
// Any value read back must be one some thread actually wrote, and the tree's
// invariants must hold throughout (tier-2 runs this under TSan).
TEST(TreeMultiput, ChurnWritersVsWriters) {
  ThreadContext ti;
  Tree tree(ti);
  constexpr int kKeys = 300;
  auto key_at = [](int i) {
    return std::string(12, 'w') + std::to_string(i);  // shared prefix: layer churn
  };

  ChurnDriver churn;
  churn.spawn(3, [&](ThreadContext& wti, Rng& rng) {
    constexpr size_t kBatch = Tree::kMultigetWindow + 3;
    Tree::PutRequest reqs[kBatch];
    std::string keys[kBatch];
    int kidx[kBatch];
    for (size_t i = 0; i < kBatch; ++i) {
      kidx[i] = static_cast<int>(rng.next_range(kKeys));
      keys[i] = key_at(kidx[i]);
      reqs[i] = Tree::PutRequest{keys[i], (rng.next() << 16) | unsigned(kidx[i])};
      reqs[i].remove = (rng.next() & 7) == 0;
    }
    tree.multiput(std::span<Tree::PutRequest>(reqs, kBatch), wti);
    for (size_t i = 0; i < kBatch; ++i) {
      // A replaced/removed value must carry the tag of its own key.
      if (reqs[i].found && reqs[i].old_value != 0 &&
          (reqs[i].old_value & 0xFFFFu) != static_cast<uint64_t>(kidx[i])) {
        return false;
      }
    }
    return true;
  });

  uint64_t old;
  for (uint64_t round = 1; round <= 50; ++round) {
    for (int i = 0; i < kKeys; i += 3) {
      tree.insert(key_at(i), (round << 16) | unsigned(i), &old, ti);
    }
    for (int i = 0; i < kKeys; i += 6) {
      tree.remove(key_at(i), &old, ti);
    }
    tree.run_maintenance(ti);
    ti.reclaim();
  }
  EXPECT_EQ(churn.stop_and_join(), 0);
  EXPECT_TRUE(test_support::rep_ok(tree));
  uint64_t v;
  for (int i = 0; i < kKeys; ++i) {
    if (tree.get(key_at(i), &v, ti)) {
      ASSERT_EQ(v & 0xFFFFu, static_cast<uint64_t>(i)) << key_at(i);
    }
  }
}

// ---- Store-level batched-write semantics ----

// One log record per surviving write: a batch with duplicate keys must log
// exactly as many records as survive dedupe, never one per request — else
// recovery would replay overwritten intermediates (or resurrect removes).
TEST(StoreMultiput, DuplicatesLogOneRecordPerSurvivingWrite) {
  std::string dir = FreshDir("multiput_dedupe_logs");
  Store::Options opt;
  opt.log_dir = dir;
  Store store(opt);
  Store::Session s(store, 0);

  // Warm the session's log shard: the first-ever append allocates the two
  // arena halves (the documented one-time cost single puts pay too); after
  // that the batched path must stay allocation-free.
  store.put("warm", {{0, "w"}}, s);
  uint64_t before = s.ti().counters().get(Counter::kLogAppends);
  uint64_t allocs_before = s.ti().counters().get(Counter::kLogAllocs);
  const ColumnUpdate a0[] = {{0, "first"}};
  const ColumnUpdate a1[] = {{0, "second"}};
  const ColumnUpdate b0[] = {{0, "only"}};
  std::vector<Store::PutOp> ops(4);
  ops[0] = Store::PutOp{"dupkey", a0};
  ops[1] = Store::PutOp{"dupkey", a1};         // survivor for "dupkey"
  ops[2] = Store::PutOp{"other", b0};          // survivor for "other"
  ops[3] = Store::PutOp{"absent", {}, true};   // remove of absent key: no record
  EXPECT_EQ(store.multiput(std::span<Store::PutOp>(ops), s), 3u);
  // 2 surviving writes -> exactly 2 appended records.
  EXPECT_EQ(s.ti().counters().get(Counter::kLogAppends), before + 2);
  // The batched append path must stay allocation-free, like single puts.
  EXPECT_EQ(s.ti().counters().get(Counter::kLogAllocs), allocs_before);

  std::vector<std::string> out;
  ASSERT_TRUE(store.get("dupkey", {}, &out, s));
  EXPECT_EQ(out[0], "second");
  store.sync_logs();

  // Recovery sees only the surviving records: no resurrection divergence.
  Store::Options ropt;
  ropt.log_dir = dir;
  Store recovered(ropt);
  recovered.recover("", dir, 2);
  Store::Session rs(recovered, 0);
  ASSERT_TRUE(recovered.get("dupkey", {}, &out, rs));
  EXPECT_EQ(out[0], "second");
  ASSERT_TRUE(recovered.get("other", {}, &out, rs));
  EXPECT_EQ(out[0], "only");
  EXPECT_FALSE(recovered.get("absent", {}, &out, rs));
}

// Recovery-replay equivalence: a store driven by multiput batches (with
// duplicate keys and interleaved removes) must recover from its log to
// exactly the state an identically-driven sequential store recovers to.
TEST(StoreMultiput, RecoveryReplayMatchesSequentialPuts) {
  std::string bdir = FreshDir("multiput_replay_batched");
  std::string sdir = FreshDir("multiput_replay_sequential");
  Rng rng = seeded_rng(0x5250);  // "RP"
  std::vector<std::string> keys;
  for (int i = 0; i < 120; ++i) {
    keys.push_back("rk" + std::to_string(i));
  }
  // Pre-generate the op stream so both stores see the identical sequence.
  struct Op {
    std::string key, val;
    bool remove;
  };
  std::vector<std::vector<Op>> batches;
  for (int round = 0; round < 40; ++round) {
    std::vector<Op> batch(Tree::kMultigetWindow + 5);
    for (auto& op : batch) {
      op.key = keys[rng.next_range(keys.size())];
      op.val = "v" + std::to_string(rng.next());
      op.remove = (rng.next() & 3) == 0;
    }
    batches.push_back(std::move(batch));
  }

  {
    Store::Options opt;
    opt.log_dir = bdir;
    Store batched(opt);
    Store::Session s(batched, 0);
    for (const auto& batch : batches) {
      std::vector<ColumnUpdate> upds(batch.size());
      std::vector<Store::PutOp> ops(batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        upds[i] = ColumnUpdate{0, batch[i].val};
        ops[i].key = batch[i].key;
        ops[i].remove = batch[i].remove;
        if (!batch[i].remove) {
          ops[i].updates = std::span<const ColumnUpdate>(&upds[i], 1);
        }
      }
      batched.multiput(std::span<Store::PutOp>(ops), s);
    }
    batched.sync_logs();
  }
  {
    Store::Options opt;
    opt.log_dir = sdir;
    Store sequential(opt);
    Store::Session s(sequential, 0);
    for (const auto& batch : batches) {
      for (const Op& op : batch) {
        if (op.remove) {
          sequential.remove(op.key, s);
        } else {
          sequential.put(op.key, {{0, op.val}}, s);
        }
      }
    }
    sequential.sync_logs();
  }

  Store::Options bopt, sopt;
  bopt.log_dir = bdir;
  sopt.log_dir = sdir;
  Store rb(bopt), rs(sopt);
  rb.recover("", bdir, 2);
  rs.recover("", sdir, 2);
  Store::Session sb(rb, 0), ss(rs, 0);
  for (const std::string& k : keys) {
    std::vector<std::string> vb, vs;
    bool fb = rb.get(k, {}, &vb, sb);
    bool fs = rs.get(k, {}, &vs, ss);
    ASSERT_EQ(fb, fs) << k;
    if (fb) {
      ASSERT_EQ(vb, vs) << k;
    }
  }
}

}  // namespace
}  // namespace masstree
