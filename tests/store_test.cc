// End-to-end Store tests (§3, §4.7, §5): columns, atomic multi-column puts,
// range queries, logging + crash recovery, checkpoints.

#include "kvstore/store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace masstree {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(Store, PutGetColumns) {
  Store store;
  Store::Session s(store, 0);
  EXPECT_TRUE(store.put("user1", {{0, "alice"}, {1, "42"}}, s));
  std::vector<std::string> out;
  ASSERT_TRUE(store.get("user1", {}, &out, s));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "alice");
  EXPECT_EQ(out[1], "42");
  // Column subset (the getc(k) column-list parameter, §3).
  ASSERT_TRUE(store.get("user1", {1}, &out, s));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "42");
}

TEST(Store, PartialColumnUpdatePreservesOthers) {
  Store store;
  Store::Session s(store, 0);
  store.put("k", {{0, "a"}, {1, "b"}, {2, "c"}}, s);
  EXPECT_FALSE(store.put("k", {{1, "B"}}, s));  // update, not insert
  std::vector<std::string> out;
  store.get("k", {}, &out, s);
  EXPECT_EQ(out[0], "a");
  EXPECT_EQ(out[1], "B");
  EXPECT_EQ(out[2], "c");
}

TEST(Store, RemoveFreesRow) {
  Store store;
  Store::Session s(store, 0);
  store.put("k", {{0, "v"}}, s);
  EXPECT_TRUE(store.remove("k", s));
  EXPECT_FALSE(store.remove("k", s));
  std::vector<std::string> out;
  EXPECT_FALSE(store.get("k", {}, &out, s));
}

TEST(Store, GetRange) {
  Store store;
  Store::Session s(store, 0);
  for (int i = 0; i < 50; ++i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "row%03d", i);
    store.put(buf, {{0, "c0-" + std::to_string(i)}, {1, "c1-" + std::to_string(i)}}, s);
  }
  std::vector<std::pair<std::string, std::string>> got;
  size_t n = store.getrange(
      "row010", 5, 1,
      [&](std::string_view k, std::string_view col, const Row*) {
        got.emplace_back(std::string(k), std::string(col));
        return true;
      },
      s);
  EXPECT_EQ(n, 5u);
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[0].first, "row010");
  EXPECT_EQ(got[0].second, "c1-10");
  EXPECT_EQ(got[4].first, "row014");
}

TEST(Store, GetRangeCrossesEpochChunkBoundary) {
  // getrange re-acquires its epoch guard (cursor detach/re-attach) every
  // kGetrangeChunk pairs; a range several chunks long must come back exactly
  // once each, in order, across every seam.
  Store store;
  Store::Session s(store, 0);
  constexpr size_t kKeys = Store::kGetrangeChunk * 2 + 700;
  for (size_t i = 0; i < kKeys; ++i) {
    char buf[24];
    snprintf(buf, sizeof(buf), "ck%06zu", i * 3);
    store.put(buf, {{0, std::to_string(i)}}, s);
  }
  std::vector<std::pair<std::string, std::string>> got;
  size_t n = store.getrange(
      "ck",  kKeys + 10, 0,
      [&](std::string_view k, std::string_view col, const Row*) {
        got.emplace_back(std::string(k), std::string(col));
        return true;
      },
      s);
  ASSERT_EQ(n, kKeys);
  ASSERT_EQ(got.size(), kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    char buf[24];
    snprintf(buf, sizeof(buf), "ck%06zu", i * 3);
    ASSERT_EQ(got[i].first, buf) << i;
    ASSERT_EQ(got[i].second, std::to_string(i)) << i;
  }

  // A limit landing exactly on the chunk seam, and one pair past it.
  for (size_t lim : {Store::kGetrangeChunk, Store::kGetrangeChunk + 1}) {
    got.clear();
    n = store.getrange(
        "ck", lim, 0,
        [&](std::string_view k, std::string_view col, const Row*) {
          got.emplace_back(std::string(k), std::string(col));
          return true;
        },
        s);
    ASSERT_EQ(n, lim);
    ASSERT_EQ(got.size(), lim);
    ASSERT_EQ(got.front().first, "ck000000");
    char buf[24];
    snprintf(buf, sizeof(buf), "ck%06zu", (lim - 1) * 3);
    ASSERT_EQ(got.back().first, buf);
  }
}

TEST(Store, AtomicMultiColumnPutUnderReaders) {
  // §4.7: "a concurrent get will see either all or none of a put's column
  // modifications". Writer alternates (i, i); readers must never see a
  // mixed row.
  Store store;
  Store::Session writer(store, 0);
  store.put("acct", {{0, "0"}, {1, "0"}}, writer);
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::thread reader([&] {
    Store::Session s(store, 1);
    std::vector<std::string> out;
    while (!stop.load(std::memory_order_acquire)) {
      if (store.get("acct", {}, &out, s) && out.size() == 2 && out[0] != out[1]) {
        ++torn;
      }
    }
  });
  for (int i = 1; i <= 20000; ++i) {
    std::string v = std::to_string(i);
    store.put("acct", {{0, v}, {1, v}}, writer);
  }
  stop = true;
  reader.join();
  EXPECT_EQ(torn.load(), 0);
}

TEST(Store, ValueVersionsIncreasePerKey) {
  Store store;
  Store::Session s(store, 0);
  store.put("k", {{0, "1"}}, s);
  std::vector<uint64_t> versions;
  for (int i = 0; i < 10; ++i) {
    store.put("k", {{0, std::to_string(i)}}, s);
    store.getrange(
        "k", 1, Store::kAllColumns,
        [&](std::string_view, std::string_view, const Row* row) {
          versions.push_back(row->version());
          return true;
        },
        s);
  }
  for (size_t i = 1; i < versions.size(); ++i) {
    EXPECT_GT(versions[i], versions[i - 1]);
  }
}

TEST(Store, LogRecoveryRoundTrip) {
  std::string dir = FreshDir("store_logrec");
  {
    Store::Options opt;
    opt.log_dir = dir;
    opt.log_partitions = 4;
    opt.logger.flush_interval_ms = 5;
    Store store(opt);
    Store::Session s(store, 0);
    for (int i = 0; i < 500; ++i) {
      store.put("key" + std::to_string(i), {{0, "val" + std::to_string(i)}}, s);
    }
    for (int i = 0; i < 500; i += 3) {
      store.remove("key" + std::to_string(i), s);
    }
    for (int i = 0; i < 500; i += 5) {
      store.put("key" + std::to_string(i), {{0, "fresh" + std::to_string(i)}}, s);
    }
    store.sync_logs();
  }  // "crash"

  Store::Options opt;
  opt.log_dir = dir;
  opt.log_partitions = 4;
  Store recovered(opt);
  auto res = recovered.recover("", dir, 2);
  EXPECT_FALSE(res.used_checkpoint);
  EXPECT_GT(res.log_entries_applied, 0u);

  Store::Session s(recovered, 0);
  std::vector<std::string> out;
  for (int i = 0; i < 500; ++i) {
    std::string k = "key" + std::to_string(i);
    bool want_present = (i % 3 != 0) || (i % 5 == 0);
    ASSERT_EQ(recovered.get(k, {}, &out, s), want_present) << k;
    if (want_present) {
      std::string want =
          (i % 5 == 0) ? "fresh" + std::to_string(i) : "val" + std::to_string(i);
      EXPECT_EQ(out[0], want) << k;
    }
  }
}

TEST(Store, MultiWorkerLogsRecoverConsistently) {
  std::string dir = FreshDir("store_multilog");
  {
    Store::Options opt;
    opt.log_dir = dir;
    opt.log_partitions = 3;
    Store store(opt);
    std::vector<std::thread> workers;
    for (int w = 0; w < 3; ++w) {
      workers.emplace_back([&store, w] {
        Store::Session s(store, static_cast<unsigned>(w));
        for (int i = 0; i < 300; ++i) {
          // Overlapping keys across workers: version order must win.
          store.put("shared" + std::to_string(i % 100),
                    {{0, "w" + std::to_string(w) + "-" + std::to_string(i)}}, s);
        }
      });
    }
    for (auto& t : workers) {
      t.join();
    }
    // Raise every log's last timestamp past the real records, so the §5
    // cutoff (min over logs of max timestamp) does not drop any of them.
    for (unsigned w = 0; w < 3; ++w) {
      Store::Session sw(store, w);
      store.put("zzz-sentinel" + std::to_string(w), {{0, "s"}}, sw);
    }
    store.sync_logs();

    // Record the live state, then recover from logs and compare.
    Store::Session s(store, 0);
    std::vector<std::string> live(100);
    for (int i = 0; i < 100; ++i) {
      std::vector<std::string> out;
      ASSERT_TRUE(store.get("shared" + std::to_string(i), {}, &out, s));
      live[i] = out[0];
    }

    Store::Options ropt;
    ropt.log_dir = dir;
    ropt.log_partitions = 3;
    Store recovered(ropt);
    recovered.recover("", dir, 3);
    Store::Session rs(recovered, 0);
    for (int i = 0; i < 100; ++i) {
      std::vector<std::string> out;
      ASSERT_TRUE(recovered.get("shared" + std::to_string(i), {}, &out, rs));
      // The recovered value must match the final live value: version order
      // assigned under the border lock makes replay deterministic (§5).
      EXPECT_EQ(out[0], live[i]) << i;
    }
  }
}

TEST(Store, CheckpointAndRecover) {
  std::string log_dir = FreshDir("store_ckpt_logs");
  std::string ckpt_dir = FreshDir("store_ckpt");
  {
    Store::Options opt;
    opt.log_dir = log_dir;
    opt.log_partitions = 2;
    Store store(opt);
    Store::Session s(store, 0);
    for (int i = 0; i < 1000; ++i) {
      store.put("ck" + std::to_string(i), {{0, "before" + std::to_string(i)}}, s);
    }
    ASSERT_TRUE(store.checkpoint(ckpt_dir, 3));
    // Post-checkpoint traffic lands only in the logs.
    for (int i = 0; i < 200; ++i) {
      store.put("ck" + std::to_string(i), {{0, "after" + std::to_string(i)}}, s);
    }
    for (int i = 500; i < 520; ++i) {
      store.remove("ck" + std::to_string(i), s);
    }
    store.sync_logs();
  }

  Store::Options opt;
  opt.log_dir = log_dir;
  opt.log_partitions = 2;
  Store recovered(opt);
  auto res = recovered.recover(ckpt_dir, log_dir, 2);
  EXPECT_TRUE(res.used_checkpoint);
  EXPECT_EQ(res.checkpoint_records, 1000u);

  Store::Session s(recovered, 0);
  std::vector<std::string> out;
  for (int i = 0; i < 1000; ++i) {
    std::string k = "ck" + std::to_string(i);
    bool removed = i >= 500 && i < 520;
    ASSERT_EQ(recovered.get(k, {}, &out, s), !removed) << k;
    if (!removed) {
      std::string want =
          i < 200 ? "after" + std::to_string(i) : "before" + std::to_string(i);
      EXPECT_EQ(out[0], want) << k;
    }
  }
}

TEST(Store, LogTruncationAfterCheckpoint) {
  // §5: checkpoints allow log space to be reclaimed. After checkpoint +
  // truncate, recovery = checkpoint state + only the new log records.
  std::string log_dir = FreshDir("store_trunc_logs");
  std::string ckpt_dir = FreshDir("store_trunc_ckpt");
  {
    Store::Options opt;
    opt.log_dir = log_dir;
    opt.log_partitions = 2;
    Store store(opt);
    Store::Session s(store, 0);
    for (int i = 0; i < 300; ++i) {
      store.put("t" + std::to_string(i), {{0, "old" + std::to_string(i)}}, s);
    }
    store.sync_logs();
    ASSERT_TRUE(store.checkpoint(ckpt_dir, 2));
    // The session's first write after the checkpoint moves it to a fresh
    // file, and truncation unlinks the closed one: every record left on
    // disk is one the checkpoint does not hold.
    store.put("t0", {{0, "new0"}}, s);
    store.truncate_logs();
    uint64_t start_ts_us = read_manifest(ckpt_dir).start_ts_us;
    size_t records = 0;
    for (const auto& p : list_log_files(log_dir)) {
      for (const LogEntry& e : read_log_file(p)) {
        EXPECT_GE(e.timestamp_us, start_ts_us) << p;
        ++records;
      }
    }
    EXPECT_GT(records, 0u);
    for (int i = 1; i < 50; ++i) {
      store.put("t" + std::to_string(i), {{0, "new" + std::to_string(i)}}, s);
    }
    store.sync_logs();
  }
  Store::Options opt;
  opt.log_dir = log_dir;
  opt.log_partitions = 2;
  Store recovered(opt);
  auto res = recovered.recover(ckpt_dir, log_dir, 2);
  EXPECT_TRUE(res.used_checkpoint);
  Store::Session s(recovered, 0);
  std::vector<std::string> out;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(recovered.get("t" + std::to_string(i), {}, &out, s)) << i;
    EXPECT_EQ(out[0], (i < 50 ? "new" : "old") + std::to_string(i)) << i;
  }
}

TEST(Store, IncompleteCheckpointIgnored) {
  std::string ckpt_dir = FreshDir("store_ckpt_incomplete");
  // Parts exist but no MANIFEST: recovery must not use them.
  std::ofstream(checkpoint_part_path(ckpt_dir, 1, 0), std::ios::binary) << "garbage";
  Store store;
  auto res = store.recover(ckpt_dir, "", 1);
  EXPECT_FALSE(res.used_checkpoint);
}

TEST(Store, CheckpointConcurrentWithWrites) {
  // §5: "Checkpoints run in parallel with request processing."
  std::string ckpt_dir = FreshDir("store_ckpt_concurrent");
  Store store;
  Store::Session setup(store, 0);
  for (int i = 0; i < 5000; ++i) {
    store.put("base" + std::to_string(i), {{0, "v"}}, setup);
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Store::Session s(store, 1);
    for (int i = 0; !stop.load(std::memory_order_acquire); ++i) {
      store.put("hot" + std::to_string(i % 1000), {{0, std::to_string(i)}}, s);
    }
  });
  ASSERT_TRUE(store.checkpoint(ckpt_dir, 2));
  stop = true;
  writer.join();
  // The checkpoint must contain at least every base key.
  uint64_t total = 0;
  uint64_t start_ts_us = read_manifest(ckpt_dir).start_ts_us;
  for (unsigned p = 0; p < 2; ++p) {
    total += read_log_file(checkpoint_part_path(ckpt_dir, start_ts_us, p)).size();
  }
  EXPECT_GE(total, 5000u);
}

TEST(Store, BackgroundMaintenanceDrainsLayerGC) {
  // With the maintenance thread on (the default), deferred empty-layer
  // cleanups drain without any foreground thread ever running them.
  Store store;
  Store::Session s(store, 0);
  // Keys sharing a long prefix force trie layers (§4.6.3); removing them
  // queues empty-layer GC tasks.
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 64; ++i) {
      store.put("prefix-8bytes-layer" + std::to_string(round) + "-deep-" +
                    std::to_string(i),
                {{0, "v"}}, s);
    }
    for (int i = 0; i < 64; ++i) {
      store.remove("prefix-8bytes-layer" + std::to_string(round) + "-deep-" +
                       std::to_string(i),
                   s);
    }
  }
  for (int tries = 0; tries < 500 && store.tree().pending_maintenance() != 0; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(store.tree().pending_maintenance(), 0u);
}

// Each session writes its own file and closes it for good when it ends;
// a checkpoint then makes all of them reclaimable.
TEST(Store, SessionChurnClosesEachFile) {
  std::string dir = FreshDir("store_churn_logs");
  std::string ckpt_dir = FreshDir("store_churn_ckpt");
  Store::Options opt;
  opt.log_dir = dir;
  opt.log_partitions = 2;
  Store store(opt);
  for (int i = 0; i < 30; ++i) {
    Store::Session s(store, 0);
    store.put("churn" + std::to_string(i), {{0, "v"}}, s);
    EXPECT_EQ(s.ti().counters().get(Counter::kLogAppends), 1u);
  }
  store.sync_logs();
  std::vector<std::string> files = list_log_files(dir);
  EXPECT_EQ(files.size(), 30u);
  for (const std::string& f : files) {
    std::vector<LogEntry> entries = read_log_file(f);
    ASSERT_FALSE(entries.empty()) << f;
    EXPECT_EQ(entries.back().type, LogType::kClose) << f;
  }
  EXPECT_EQ(store.log_error(), 0);
  EXPECT_GT(store.log_totals().flush_bytes, 0u);
  // Every one of those 30 sessions' records recovers.
  Store recovered;
  auto res = recovered.recover("", dir, 2);
  EXPECT_EQ(res.log_entries_applied, 30u);
  ASSERT_TRUE(store.checkpoint(ckpt_dir, 1));
  store.truncate_logs();
  EXPECT_EQ(list_log_files(dir).size(), 0u);
}

// A store opened over existing logs only lists them: it leaves their bytes
// alone (a torn tail included) until recover() reads and seals them, its
// sessions write to fresh files, and truncate_logs unlinks the old files
// once a checkpoint has committed.
TEST(Store, RestartWritesOnlyToFreshFiles) {
  std::string log_dir = FreshDir("store_restart_logs");
  std::string ckpt_dir = FreshDir("store_restart_ckpt");
  Store::Options opt;
  opt.log_dir = log_dir;
  opt.log_partitions = 1;
  {
    Store store(opt);
    Store::Session s(store, 0);
    for (int i = 0; i < 100; ++i) {
      store.put("old" + std::to_string(i), {{0, "v"}}, s);
    }
  }
  std::vector<std::string> files = list_log_files(log_dir);
  ASSERT_EQ(files.size(), 1u);
  const std::string old = files[0];
  std::ofstream(old, std::ios::binary | std::ios::app) << "\x05" "ab";  // a torn record
  const std::string old_bytes = read_whole_file(old);
  {
    Store store(opt);
    EXPECT_EQ(read_whole_file(old), old_bytes);
    store.recover("", log_dir, 1);
    const std::string sealed = read_whole_file(old);
    Store::Session s(store, 0);
    for (int i = 0; i < 100; ++i) {
      store.put("new" + std::to_string(i), {{0, "w"}}, s);
    }
    store.sync_logs();
    EXPECT_EQ(read_whole_file(old), sealed);
    files = list_log_files(log_dir);
    ASSERT_EQ(files.size(), 2u);
    const std::string fresh = files[0] == old ? files[1] : files[0];
    ASSERT_TRUE(store.checkpoint(ckpt_dir, 1));
    store.truncate_logs();
    EXPECT_FALSE(fs::exists(old));
    EXPECT_TRUE(fs::exists(fresh));  // its session has not written since
    store.put("after", {{0, "x"}}, s);
  }
  Store recovered;
  auto res = recovered.recover(ckpt_dir, log_dir, 1);
  EXPECT_EQ(res.checkpoint_records, 200u);
  Store::Session s(recovered, 0);
  std::vector<std::string> out;
  EXPECT_TRUE(recovered.get("old99", {}, &out, s));
  EXPECT_TRUE(recovered.get("new99", {}, &out, s));
  EXPECT_TRUE(recovered.get("after", {}, &out, s));
}

size_t OpenFds() {
  size_t n = 0;
  for (const auto& e : fs::directory_iterator("/proc/self/fd")) {
    (void)e;
    ++n;
  }
  return n;
}

// A checkpoint moves each writing session to a fresh file at its next
// batch, through the same roll a full segment takes: the old file is
// closed with kClose and its descriptor freed.
TEST(Store, CheckpointRollsWritingSessions) {
  std::string log_dir = FreshDir("store_roll_logs");
  std::string ckpt_dir = FreshDir("store_roll_ckpt");
  Store::Options opt;
  opt.log_dir = log_dir;
  opt.log_partitions = 1;
  std::map<std::string, std::string> oracle;
  {
    Store store(opt);
    Store::Session s(store, 0);
    auto put = [&](const std::string& k, const std::string& v) {
      store.put(k, {{0, v}}, s);
      oracle[k] = v;
    };
    for (int i = 0; i < 100; ++i) {
      put("k" + std::to_string(i), "before");
    }
    store.sync_logs();
    std::vector<std::string> files = list_log_files(log_dir);
    ASSERT_EQ(files.size(), 1u);
    const std::string old = files[0];
    size_t fds = OpenFds();
    ASSERT_TRUE(store.checkpoint(ckpt_dir, 2));
    EXPECT_EQ(list_log_files(log_dir).size(), 1u);  // rolls at the next write
    put("k0", "after");
    store.sync_logs();
    EXPECT_EQ(OpenFds(), fds);
    std::vector<LogEntry> entries = read_log_file(old);
    ASSERT_FALSE(entries.empty());
    EXPECT_EQ(entries.back().type, LogType::kClose);
    files = list_log_files(log_dir);
    ASSERT_EQ(files.size(), 2u);
    const std::string fresh = files[0] == old ? files[1] : files[0];
    size_t puts = 0;
    for (const LogEntry& e : read_log_file(fresh)) {
      if (e.type == LogType::kPut) {
        EXPECT_EQ(e.key, "k0");
        ++puts;
      }
    }
    EXPECT_EQ(puts, 1u);
    for (int i = 50; i < 150; ++i) {
      put("k" + std::to_string(i), "after");
    }
  }
  Store recovered;
  recovered.recover(ckpt_dir, log_dir, 2);
  Store::Session s(recovered, 0);
  std::vector<std::string> out;
  for (const auto& [k, v] : oracle) {
    ASSERT_TRUE(recovered.get(k, {}, &out, s)) << k;
    EXPECT_EQ(out[0], v) << k;
  }
  size_t n = recovered.getrange("", 1000, 0, [](auto, auto, auto) { return true; }, s);
  EXPECT_EQ(n, oracle.size());
}

// Writers keep re-putting their keys through checkpoint + truncate_logs and
// stop only after it: every write acknowledged by the final sync recovers
// with its last value. Truncation used to empty the live logs, losing the
// writes made after the checkpoint began.
TEST(Store, TruncateUnderLiveWritersKeepsAcknowledgedWrites) {
  constexpr unsigned kWriters = 2;
  constexpr int kKeys = 20000;
  std::string log_dir = FreshDir("store_live_trunc_logs");
  std::string ckpt_dir = FreshDir("store_live_trunc_ckpt");
  Store::Options opt;
  opt.log_dir = log_dir;
  opt.log_partitions = 2;
  auto key = [](unsigned w, int i) {
    return "w" + std::to_string(w) + "/" + std::to_string(100000 + i);
  };
  std::vector<std::vector<uint32_t>> last(kWriters, std::vector<uint32_t>(kKeys, 0));
  {
    Store store(opt);
    std::atomic<bool> stop{false};
    std::atomic<unsigned> loaded{0};
    std::vector<std::thread> writers;
    for (unsigned w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        Store::Session s(store, w);
        for (uint32_t seq = 1; !stop.load(std::memory_order_acquire); ++seq) {
          for (int i = 0; i < kKeys && !stop.load(std::memory_order_acquire); ++i) {
            store.put(key(w, i), {{0, std::to_string(seq)}}, s);
            last[w][i] = seq;
          }
          if (seq == 1) {
            loaded.fetch_add(1);
          }
        }
      });
    }
    while (loaded.load() < kWriters) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(store.checkpoint(ckpt_dir, 2));
    store.truncate_logs();
    stop.store(true, std::memory_order_release);
    for (auto& t : writers) {
      t.join();
    }
    store.sync_logs();
  }
  Store recovered;
  recovered.recover(ckpt_dir, log_dir, 2);
  Store::Session s(recovered, 0);
  std::vector<std::string> out;
  size_t wrong = 0;
  for (unsigned w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kKeys; ++i) {
      bool found = recovered.get(key(w, i), {}, &out, s);
      if (!found || out[0] != std::to_string(last[w][i])) {
        if (++wrong <= 3) {
          ADD_FAILURE() << key(w, i) << " recovered "
                        << (found ? out[0] : std::string("<absent>")) << ", want "
                        << last[w][i];
        }
      }
    }
  }
  EXPECT_EQ(wrong, 0u) << "of " << kWriters * kKeys << " keys";
}

// Options::logger.compress_threshold is the Store's one compression knob:
// 0 must keep a compressible 1 KiB value raw in the log, while the default
// threshold compresses the same value.
TEST(Store, LoggerCompressThresholdGovernsLogCompression) {
  const std::string value(1024, 'x');
  for (size_t threshold : {size_t{0}, Logger::Options().compress_threshold}) {
    std::string dir = FreshDir("store_compress_" + std::to_string(threshold));
    Store::Options opt;
    opt.log_dir = dir;
    opt.log_partitions = 1;
    opt.logger.compress_threshold = threshold;
    Store store(opt);
    Store::Session s(store, 0);
    store.put("k", {{0, value}}, s);
    EXPECT_EQ(s.ti().counters().get(Counter::kLogCompressedRecords),
              threshold == 0 ? 0u : 1u)
        << "threshold " << threshold;
  }
}

}  // namespace
}  // namespace masstree
