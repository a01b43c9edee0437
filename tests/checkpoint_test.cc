// Checkpoint subsystem tests (§5): what the part writer puts in its log
// stream, full checkpoint -> restore against an oracle, log-tail replay on
// top of a checkpoint, and recovery after torn/truncated checkpoint files,
// an interrupted (manifest-less) checkpoint, or an old MANIFEST version.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "kvstore/store.h"
#include "support/test_support.h"
#include "workload/keys.h"

namespace masstree {
namespace {

namespace fs = std::filesystem;
namespace ts = test_support;

class TempDir {
 public:
  explicit TempDir(const char* tag) {
    path_ = fs::temp_directory_path() / ("masstree-ckpt-test-" + std::string(tag));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  fs::path path_;
};

using RowOracle = std::map<std::string, std::vector<std::string>>;

// Random multi-column rows over adversarial keys: shared prefixes (layer
// creation), binary bytes, slice-boundary lengths, and 0..3 columns.
std::string oracle_key(Rng& rng, uint64_t i) {
  switch (i % 4) {
    case 0:
      return "plain" + ts::padded_key(i);
    case 1:
      return std::string(24, 'p') + std::to_string(i);  // three shared layers
    case 2: {
      std::string k = "bin";
      for (int j = 0; j < static_cast<int>(i % 14); ++j) {
        k.push_back(static_cast<char>(rng.next_range(3)));
      }
      return k + std::to_string(i);
    }
    default:
      return std::string(i % 17, 'x') + std::to_string(i);
  }
}

void fill_store(Store& store, Store::Session& s, RowOracle* oracle, int nkeys,
                uint64_t salt) {
  Rng rng = ts::seeded_rng(salt);
  for (int i = 0; i < nkeys; ++i) {
    std::string key = oracle_key(rng, i);
    unsigned ncols = 1 + static_cast<unsigned>(rng.next_range(3));
    std::vector<ColumnUpdate> updates;
    std::vector<std::string> cols(ncols);
    for (unsigned c = 0; c < ncols; ++c) {
      cols[c].assign(rng.next_range(40), static_cast<char>('a' + (i + c) % 26));
      cols[c] += std::to_string(rng.next());
    }
    for (unsigned c = 0; c < ncols; ++c) {
      updates.push_back(ColumnUpdate{c, cols[c]});
    }
    store.put(key, updates, s);
    // A put over a wider row keeps the columns it does not name.
    std::vector<std::string>& row = (*oracle)[key];
    row.resize(std::max(row.size(), cols.size()));
    std::move(cols.begin(), cols.end(), row.begin());
  }
}

void expect_store_matches(Store& store, const RowOracle& oracle) {
  Store::Session s(store, 0);
  ASSERT_EQ(store.stats().keys, oracle.size());
  for (const auto& [key, cols] : oracle) {
    std::vector<std::string> got;
    ASSERT_TRUE(store.get(key, {}, &got, s)) << "missing key=" << key;
    ASSERT_EQ(got, cols) << "wrong columns for key=" << key;
  }
  ASSERT_TRUE(ts::rep_ok(store.tree()));
}

// ---------------- part-file format ----------------
//
// A part is a log stream read back by read_log_file, so these check what
// the checkpoint writer puts into it; log_test covers the decoder itself.

// A decoded checkpoint record's columns, which the writer numbers 0..n-1.
std::vector<std::string> row_cols(const LogEntry& e) {
  std::vector<std::string> cols;
  for (const auto& [c, d] : e.columns) {
    EXPECT_EQ(c, cols.size());
    cols.push_back(d);
  }
  return cols;
}

TEST(CheckpointFormat, PartFileRoundTripsBinaryRecords) {
  TempDir dir("format");
  std::string path = checkpoint_part_path(dir.str(), 1, 0);
  {
    CheckpointPartWriter out(path);
    ASSERT_TRUE(out.ok());
    out.add(std::string("k\0ey", 4), 7, {"colA", std::string("\0\1\2", 3), ""});
    out.add("", 8, {});  // empty key, zero columns
    out.add(std::string(300, 'L'), 9, {std::string(5000, 'v')});
    EXPECT_EQ(out.records(), 3u);
    out.finish();
  }
  auto records = read_log_file(path);
  ASSERT_EQ(records.size(), 3u);
  for (const LogEntry& e : records) {
    EXPECT_EQ(e.type, LogType::kPut);
    EXPECT_EQ(e.timestamp_us, 0u);
  }
  EXPECT_EQ(records[0].key, std::string("k\0ey", 4));
  EXPECT_EQ(records[0].version, 7u);
  EXPECT_EQ(row_cols(records[0]),
            (std::vector<std::string>{"colA", std::string("\0\1\2", 3), ""}));
  EXPECT_EQ(records[1].key, "");
  EXPECT_TRUE(records[1].columns.empty());
  EXPECT_EQ(records[2].key, std::string(300, 'L'));
  EXPECT_EQ(row_cols(records[2]), std::vector<std::string>{std::string(5000, 'v')});
}

TEST(CheckpointFormat, CompressibleColumnsShrinkPartFile) {
  TempDir dir("compress");
  std::string path = checkpoint_part_path(dir.str(), 1, 0);
  std::string big;
  for (int i = 0; i < 500; ++i) {
    big += "row-payload-" + std::to_string(i % 9);
  }
  std::string incompressible;
  Rng rng = ts::seeded_rng(42);
  for (int i = 0; i < 4000; ++i) {
    incompressible += static_cast<char>(rng.next());
  }
  {
    CheckpointPartWriter out(path);
    ASSERT_TRUE(out.ok());
    out.add("compressible", 1, {big});
    out.add("random", 2, {incompressible});  // bail-out path: stored raw
    out.add("small", 3, {"tiny"});           // below threshold: stored raw
    out.finish();
  }
  // The compressible row dominates raw size; the file must be far smaller.
  EXPECT_LT(fs::file_size(path), big.size() / 2 + incompressible.size() + 256);
  auto records = read_log_file(path);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(row_cols(records[0]), std::vector<std::string>{big});
  EXPECT_EQ(row_cols(records[1]), std::vector<std::string>{incompressible});
  EXPECT_EQ(row_cols(records[2]), std::vector<std::string>{"tiny"});
}

TEST(CheckpointFormat, UnknownPartVersionThrows) {
  TempDir dir("future");
  std::string path = checkpoint_part_path(dir.str(), 1, 0);
  {
    CheckpointPartWriter out(path);
    out.add("k", 1, {"v"});
    out.finish();
  }
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(4);
  f.put('\x09');  // future format version
  f.close();
  EXPECT_THROW(read_log_file(path), std::runtime_error);
  // Recovery reads parts on worker threads; the error must reach the
  // caller rather than end the process.
  CheckpointManifest m;
  m.start_ts_us = 1;
  m.parts = 1;
  ASSERT_TRUE(write_manifest(dir.str(), m));
  Store restored;
  EXPECT_THROW(restored.recover(dir.str(), "", 1), std::runtime_error);
  // A torn header (file shorter than 5 bytes) reads as empty, not a throw.
  std::string torn = checkpoint_part_path(dir.str(), 1, 1);
  std::ofstream(torn, std::ios::binary) << "MTLG";
  EXPECT_TRUE(read_log_file(torn).empty());
  // So does a part with no header at all.
  std::string headerless = checkpoint_part_path(dir.str(), 1, 2);
  std::ofstream(headerless, std::ios::binary) << std::string(64, '\0');
  EXPECT_TRUE(read_log_file(headerless).empty());
}

TEST(CheckpointFormat, CorruptedRecordStopsCleanly) {
  TempDir dir("corrupt");
  std::string path = checkpoint_part_path(dir.str(), 1, 0);
  {
    CheckpointPartWriter out(path);
    out.add("first", 1, {"v1"});
    out.add("second", 2, {"v2"});
    out.finish();
  }
  // Flip one payload byte of the second record; its CRC must reject it.
  auto size = fs::file_size(path);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(size) - 8);
    f.put('!');
  }
  auto records = read_log_file(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "first");
}

TEST(CheckpointFormat, ManifestRoundTripAndRejection) {
  TempDir dir("manifest");
  CheckpointManifest m;
  m.start_ts_us = 123456;
  m.version_floor = 99;
  m.parts = 4;
  ASSERT_TRUE(write_manifest(dir.str(), m));
  CheckpointManifest got = read_manifest(dir.str());
  EXPECT_TRUE(got.valid);
  EXPECT_EQ(got.start_ts_us, 123456u);
  EXPECT_EQ(got.version_floor, 99u);
  EXPECT_EQ(got.parts, 4u);

  EXPECT_FALSE(read_manifest(dir.str() + "/nonexistent").valid);
  {
    std::ofstream bad(checkpoint_manifest_path(dir.str()), std::ios::trunc);
    bad << "not-a-masstree-checkpoint\n";
  }
  EXPECT_FALSE(read_manifest(dir.str()).valid);
  EXPECT_FALSE(read_manifest(dir.str()).unsupported);
  Store empty;
  EXPECT_FALSE(empty.recover(dir.str(), "", 1).used_checkpoint);

  // A MANIFEST of another format version names parts this build cannot
  // read (a v1 part has no log header, so it would decode as empty):
  // recovery throws instead of restoring nothing.
  std::string v1_part = checkpoint_part_path(dir.str(), 5, 0);
  {
    std::ofstream bad(checkpoint_manifest_path(dir.str()), std::ios::trunc);
    bad << "masstree-checkpoint v1\nstart_ts_us 5\nversion_floor 1\nparts 1\n";
    std::ofstream(v1_part, std::ios::binary) << "MTCK\x02";
  }
  EXPECT_FALSE(read_manifest(dir.str()).valid);
  EXPECT_TRUE(read_manifest(dir.str()).unsupported);
  Store stale;
  EXPECT_THROW(stale.recover(dir.str(), "", 1), std::runtime_error);
  // A new checkpoint still commits over it and unlinks the old part.
  Store store;
  Store::Session s(store, 0);
  store.put("k", {{0, "v"}}, s);
  ASSERT_TRUE(store.checkpoint(dir.str(), 1));
  EXPECT_FALSE(fs::exists(v1_part));
  Store restored;
  EXPECT_EQ(restored.recover(dir.str(), "", 1).checkpoint_records, 1u);
}

// ---------------- checkpoint -> restore round-trip ----------------

TEST(CheckpointRestore, RoundTripRestoresEverything) {
  TempDir ckpt("roundtrip");
  RowOracle oracle;
  {
    Store store;
    Store::Session s(store, 0);
    fill_store(store, s, &oracle, 4000, /*salt=*/1);
    ASSERT_TRUE(store.checkpoint(ckpt.str(), /*nworkers=*/3));
  }
  Store restored;
  Store::RecoveryResult res = restored.recover(ckpt.str(), /*log_dir=*/"", 2);
  EXPECT_TRUE(res.used_checkpoint);
  EXPECT_EQ(res.checkpoint_records, oracle.size());
  EXPECT_EQ(res.log_entries_applied, 0u);
  expect_store_matches(restored, oracle);
}

TEST(CheckpointRestore, LogTailReplaysOnTopOfCheckpoint) {
  TempDir ckpt("tail-ckpt");
  TempDir logs("tail-logs");
  RowOracle oracle;
  {
    Store::Options opt;
    opt.log_dir = logs.str();
    Store store(opt);
    Store::Session s(store, 0);
    fill_store(store, s, &oracle, 2000, /*salt=*/2);
    ASSERT_TRUE(store.checkpoint(ckpt.str(), 2));
    // Post-checkpoint tail: overwrites, fresh keys, and removals, all of
    // which must come back from the log, not the checkpoint.
    Rng rng = ts::seeded_rng(3);
    for (int i = 0; i < 500; ++i) {
      std::string key = oracle_key(rng, static_cast<uint64_t>(rng.next_range(2000)));
      if (oracle.count(key) != 0 && rng.next_range(3) == 0) {
        store.remove(key, s);
        oracle.erase(key);
      } else {
        std::string v = "tail" + std::to_string(i);
        store.put(key, {{0, v}}, s);
        auto& cols = oracle[key];
        if (cols.empty()) {
          cols.resize(1);
        }
        cols[0] = v;
      }
    }
    store.sync_logs();
  }
  Store::Options opt;
  opt.log_dir = logs.str();
  Store restored(opt);
  Store::RecoveryResult res = restored.recover(ckpt.str(), logs.str(), 2);
  EXPECT_TRUE(res.used_checkpoint);
  EXPECT_GT(res.log_entries_applied, 0u);
  expect_store_matches(restored, oracle);
}

// A zero worker or thread count means one: checkpoint(dir, 0) must not
// commit an unreadable MANIFEST and unlink the committed checkpoint's
// parts, and recover(..., 0) must not divide by zero.
TEST(CheckpointRestore, ZeroWorkerCheckpointKeepsEveryKey) {
  TempDir ckpt("zero-workers");
  TempDir logs("zero-workers-logs");
  RowOracle oracle;
  Store::Options opt;
  opt.log_dir = logs.str();
  {
    Store store(opt);
    Store::Session s(store, 0);
    fill_store(store, s, &oracle, 500, /*salt=*/8);
    ASSERT_TRUE(store.checkpoint(ckpt.str(), 2));
    ASSERT_TRUE(store.checkpoint(ckpt.str(), 0));
    store.truncate_logs();
  }
  Store restored(opt);
  Store::RecoveryResult res = restored.recover(ckpt.str(), logs.str(), 2);
  EXPECT_TRUE(res.used_checkpoint);
  EXPECT_EQ(res.checkpoint_records, oracle.size());
  expect_store_matches(restored, oracle);
}

TEST(CheckpointRestore, ZeroReplayThreadsReplayLogs) {
  TempDir logs("zero-threads");
  RowOracle oracle;
  Store::Options opt;
  opt.log_dir = logs.str();
  {
    Store store(opt);
    Store::Session s(store, 0);
    fill_store(store, s, &oracle, 300, /*salt=*/9);
  }
  Store restored(opt);
  Store::RecoveryResult res = restored.recover("", logs.str(), 0);
  EXPECT_FALSE(res.used_checkpoint);
  EXPECT_GE(res.log_entries_applied, oracle.size());
  expect_store_matches(restored, oracle);
}

// Four sessions write eight logs around a 4-part checkpoint; one replay
// thread must restore all of it, the logs read one at a time.
TEST(CheckpointRestore, OneThreadRestoresFourPartsAndFourLogs) {
  TempDir ckpt("one-thread");
  TempDir logs("one-thread-logs");
  RowOracle oracle;
  Store::Options opt;
  opt.log_dir = logs.str();
  {
    Store store(opt);
    std::vector<std::unique_ptr<Store::Session>> sessions;
    for (unsigned w = 0; w < 4; ++w) {
      sessions.push_back(std::make_unique<Store::Session>(store, w));
      fill_store(store, *sessions[w], &oracle, 400, /*salt=*/20 + w);
    }
    ASSERT_TRUE(store.checkpoint(ckpt.str(), 4));
    for (unsigned w = 0; w < 4; ++w) {
      fill_store(store, *sessions[w], &oracle, 150 + 50 * w, /*salt=*/30 + w);
    }
  }
  EXPECT_EQ(read_manifest(ckpt.str()).parts, 4u);
  // Each session writes one file before the checkpoint and, having rolled
  // at its first write after it, one after.
  EXPECT_EQ(list_log_files(logs.str()).size(), 8u);
  Store restored;
  Store::RecoveryResult res = restored.recover(ckpt.str(), logs.str(), 1);
  EXPECT_TRUE(res.used_checkpoint);
  EXPECT_GT(res.log_entries_applied, 0u);
  expect_store_matches(restored, oracle);
}

// The calling process's thread count, from /proc/self/stat (field 20).
unsigned process_threads() {
  std::ifstream f("/proc/self/stat");
  std::string stat((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  size_t p = stat.rfind(')');  // the command name may hold spaces
  std::istringstream rest(p == std::string::npos ? std::string() : stat.substr(p + 2));
  std::string field;
  for (int i = 3; i < 20 && (rest >> field); ++i) {
  }
  unsigned n = 0;
  rest >> n;
  return n;
}

// recover(..., 1) loads a 4-part checkpoint on one thread, not one per
// part: a sampler watches the process's thread count for the whole
// recovery, and it never rises more than one above where it started.
TEST(CheckpointRestore, PartLoadRespectsNthreads) {
  TempDir ckpt("nthreads");
  {
    Store store;
    Store::Session s(store, 0);
    std::string val(200, 'v');
    for (int i = 0; i < 80000; ++i) {
      store.put(ts::padded_key(static_cast<uint64_t>(i)), {{0, val}}, s);
    }
    ASSERT_TRUE(store.checkpoint(ckpt.str(), 4));
  }
  ASSERT_EQ(read_manifest(ckpt.str()).parts, 4u);
  Store restored;
  std::atomic<bool> done{false};
  std::atomic<unsigned> peak{0};
  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire)) {
      unsigned n = process_threads();
      if (n > peak.load(std::memory_order_relaxed)) {
        peak.store(n, std::memory_order_relaxed);
      }
    }
  });
  // The sampler is running before the base is read, so it is counted in it.
  while (peak.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  unsigned base = process_threads();
  ASSERT_GT(base, 0u);
  Store::RecoveryResult res = restored.recover(ckpt.str(), "", 1);
  done.store(true, std::memory_order_release);
  sampler.join();
  EXPECT_EQ(res.checkpoint_records, 80000u);
  EXPECT_LE(peak.load(), base + 1);
}

// A log this build cannot read (unknown header version) throws from the
// thread that read it; recover rethrows it instead of ending the process.
TEST(CheckpointRestore, UnknownLogVersionThrowsFromRecover) {
  TempDir logs("log-version");
  RowOracle oracle;
  Store::Options opt;
  opt.log_dir = logs.str();
  {
    Store store(opt);
    std::vector<std::unique_ptr<Store::Session>> sessions;
    for (unsigned w = 0; w < 4; ++w) {
      sessions.push_back(std::make_unique<Store::Session>(store, w));
      fill_store(store, *sessions[w], &oracle, 100, /*salt=*/40 + w);
    }
  }
  std::vector<std::string> paths = list_log_files(logs.str());
  ASSERT_EQ(paths.size(), 4u);
  {
    std::fstream f(paths[2], std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    f.put('\x03');  // the version byte of "MTLG" 2
  }
  for (unsigned nthreads : {1u, 4u}) {
    Store restored;
    EXPECT_THROW(restored.recover("", logs.str(), nthreads), std::runtime_error)
        << nthreads << " threads";
  }
}

// Recovery decodes every record of a stream into one reused entry. A
// stream that shrinks each time (3 columns then 1, a long compressed
// column then a short raw one, a remove, an empty key) must restore each
// row byte for byte, as a checkpoint part and as a log: no column, key
// byte or value byte may carry over from the record before.
TEST(CheckpointRestore, ReusedDecodeEntryLeaksNothingBetweenRecords) {
  std::string zipped;
  while (zipped.size() < 2000) {
    zipped += "{\"id\":" + std::to_string(zipped.size()) + ",\"name\":\"alpha\"},";
  }
  struct Op {
    std::string key;
    std::vector<std::string> cols;  // empty: a remove
  };
  const std::vector<Op> ops = {
      {"three", {"column zero", "column one, the longest of the three", "two"}},
      {"one", {"1"}},
      {"zipped", {zipped}},
      {"raw", {"short raw"}},
      {"gone", {"doomed row", "and its second column"}},
      {"gone", {}},
      {"", {"the empty key's row"}},
      {"after", {"a", "b"}},
  };
  std::string stream;
  logwire::encode_header(&stream);
  uint64_t version = 0;
  for (const Op& op : ops) {
    ++version;
    if (op.cols.empty()) {
      logwire::encode_remove(&stream, op.key, version, 0);
      continue;
    }
    std::vector<logwire::ColPlan> plans;
    std::vector<std::string> scratch(op.cols.size());
    for (size_t c = 0; c < op.cols.size(); ++c) {
      scratch[c].resize(op.cols[c].size());
      plans.push_back(logwire::plan_column(static_cast<uint32_t>(c), op.cols[c],
                                           /*threshold=*/64, scratch[c].data(),
                                           scratch[c].size()));
    }
    size_t old = stream.size();
    stream.resize(old + logwire::put_record_size(op.key, plans.data(), plans.size(),
                                                 version, 0));
    logwire::encode_put_to(stream.data() + old, op.key, plans.data(), plans.size(),
                           version, 0, /*delta=*/false);
  }
  ASSERT_LT(stream.size(), 1500u) << "the 2000-byte column must be compressed";
  RowOracle oracle;
  for (const Op& op : ops) {
    if (op.cols.empty()) {
      oracle.erase(op.key);
    } else {
      oracle[op.key] = op.cols;
    }
  }

  TempDir ckpt("reuse-ckpt");
  CheckpointManifest m;
  m.start_ts_us = 1000;
  m.parts = 1;
  std::ofstream(checkpoint_part_path(ckpt.str(), m.start_ts_us, 0), std::ios::binary)
      << stream;
  ASSERT_TRUE(write_manifest(ckpt.str(), m));
  Store from_part;
  EXPECT_EQ(from_part.recover(ckpt.str(), "", 1).checkpoint_records, ops.size());
  expect_store_matches(from_part, oracle);

  TempDir logs("reuse-logs");
  std::ofstream(Store::log_path(logs.str(), 0), std::ios::binary) << stream;
  Store from_log;
  EXPECT_EQ(from_log.recover("", logs.str(), 1).log_entries_applied, ops.size());
  expect_store_matches(from_log, oracle);
}

// ---------------- damaged checkpoints ----------------

TEST(CheckpointRestore, TruncatedPartLoadsIntactPrefixOnly) {
  TempDir ckpt("torn");
  RowOracle oracle;
  {
    Store store;
    Store::Session s(store, 0);
    fill_store(store, s, &oracle, 3000, /*salt=*/4);
    ASSERT_TRUE(store.checkpoint(ckpt.str(), 2));
  }
  // Tear part 0 mid-record, as a crashed disk would.
  std::string part0 =
      checkpoint_part_path(ckpt.str(), read_manifest(ckpt.str()).start_ts_us, 0);
  auto size = fs::file_size(part0);
  ASSERT_GT(size, 100u);
  fs::resize_file(part0, size / 2 + 3);

  Store restored;
  Store::RecoveryResult res = restored.recover(ckpt.str(), "", 2);
  EXPECT_TRUE(res.used_checkpoint);
  EXPECT_LT(res.checkpoint_records, oracle.size());
  EXPECT_GT(res.checkpoint_records, 0u);
  // Every record that did load must be intact — correct columns, no garbage.
  Store::Session s(restored, 0);
  size_t seen = 0;
  restored.getrange(
      "", ~size_t{0}, Store::kAllColumns,
      [&](std::string_view k, std::string_view, const Row* row) {
        ++seen;
        auto it = oracle.find(std::string(k));
        EXPECT_NE(it, oracle.end()) << "recovered key not in oracle";
        if (it != oracle.end()) {
          EXPECT_EQ(row->ncols(), it->second.size());
          for (unsigned c = 0; c < row->ncols() && c < it->second.size(); ++c) {
            EXPECT_EQ(row->col(c), it->second[c]);
          }
        }
        return true;
      },
      s);
  EXPECT_EQ(seen, res.checkpoint_records);
  EXPECT_TRUE(ts::rep_ok(restored.tree()));
}

// A committed MANIFEST's parts are never removed, so one that is missing
// (damage, or a directory in another layout) fails recovery loudly instead
// of restoring an empty store.
TEST(CheckpointRestore, MissingNamedPartThrows) {
  TempDir ckpt("missing-part");
  RowOracle oracle;
  {
    Store store;
    Store::Session s(store, 0);
    fill_store(store, s, &oracle, 500, /*salt=*/6);
    ASSERT_TRUE(store.checkpoint(ckpt.str(), 2));
  }
  CheckpointManifest m = read_manifest(ckpt.str());
  ASSERT_TRUE(m.valid);
  ASSERT_TRUE(fs::remove(checkpoint_part_path(ckpt.str(), m.start_ts_us, 1)));
  Store restored;
  EXPECT_THROW(restored.recover(ckpt.str(), "", 2), std::runtime_error);
}

// A second checkpoint into the same directory writes new part files and
// unlinks the old ones (and an interrupted checkpoint's leftovers) only
// after its MANIFEST commits.
TEST(CheckpointRestore, RecheckpointReplacesPartsAfterCommit) {
  TempDir ckpt("recheckpoint");
  RowOracle oracle;
  Store store;
  Store::Session s(store, 0);
  fill_store(store, s, &oracle, 1000, /*salt=*/7);
  ASSERT_TRUE(store.checkpoint(ckpt.str(), 2));
  CheckpointManifest first = read_manifest(ckpt.str());
  ASSERT_TRUE(first.valid);
  std::string orphan = checkpoint_part_path(ckpt.str(), 1, 0);
  std::ofstream(orphan, std::ios::binary) << "interrupted";
  store.put("after-first", {{0, "x"}}, s);
  oracle["after-first"] = {"x"};
  // A trailing slash must not make the new parts look stale.
  ASSERT_TRUE(store.checkpoint(ckpt.str() + "/", 3));
  CheckpointManifest second = read_manifest(ckpt.str());
  ASSERT_TRUE(second.valid);
  EXPECT_NE(second.start_ts_us, first.start_ts_us);
  std::vector<std::string> parts;
  for (const auto& entry : fs::directory_iterator(ckpt.path())) {
    std::string name = entry.path().filename().string();
    if (name.rfind("part-", 0) == 0) {
      parts.push_back(entry.path().string());
    }
  }
  std::sort(parts.begin(), parts.end());
  std::vector<std::string> want;
  for (unsigned w = 0; w < 3; ++w) {
    want.push_back(checkpoint_part_path(ckpt.str(), second.start_ts_us, w));
  }
  std::sort(want.begin(), want.end());
  EXPECT_EQ(parts, want);

  Store restored;
  Store::RecoveryResult res = restored.recover(ckpt.str(), "", 2);
  EXPECT_TRUE(res.used_checkpoint);
  EXPECT_EQ(res.checkpoint_records, oracle.size());
  expect_store_matches(restored, oracle);
}

TEST(CheckpointRestore, InterruptedCheckpointIsInvisible) {
  TempDir ckpt("no-manifest");
  RowOracle oracle;
  {
    Store store;
    Store::Session s(store, 0);
    fill_store(store, s, &oracle, 500, /*salt=*/5);
    ASSERT_TRUE(store.checkpoint(ckpt.str(), 2));
  }
  // A checkpoint that never finished has parts but no MANIFEST.
  fs::remove(checkpoint_manifest_path(ckpt.str()));
  Store restored;
  Store::RecoveryResult res = restored.recover(ckpt.str(), "", 2);
  EXPECT_FALSE(res.used_checkpoint);
  EXPECT_EQ(res.checkpoint_records, 0u);
  EXPECT_EQ(restored.stats().keys, 0u);
}

TEST(CheckpointRestore, PartsSplitEvenlyAcrossWorkers) {
  // §5: each checkpoint thread covers a key range. The ranges are cut at
  // the tree's own separators, so a narrow key alphabet (decimal digits) or
  // a long shared prefix (which puts every key in a deeper layer) still
  // spreads records evenly over the parts.
  constexpr unsigned kWorkers = 4;
  auto check = [&](const char* tag, const std::vector<std::string>& keys, bool balanced) {
    SCOPED_TRACE(tag);
    TempDir ckpt(tag);
    RowOracle oracle;
    {
      Store store;
      Store::Session s(store, 0);
      for (const std::string& k : keys) {
        std::vector<std::string> cols{"v" + k};
        store.put(k, {{0, cols[0]}}, s);
        oracle[k] = std::move(cols);
      }
      ASSERT_TRUE(store.checkpoint(ckpt.str(), kWorkers));
    }
    CheckpointManifest m = read_manifest(ckpt.str());
    ASSERT_TRUE(m.valid);
    ASSERT_EQ(m.parts, kWorkers);
    size_t total = 0;
    for (unsigned w = 0; w < kWorkers; ++w) {
      size_t n = read_log_file(checkpoint_part_path(ckpt.str(), m.start_ts_us, w)).size();
      total += n;
      if (balanced) {
        double share = static_cast<double>(n) * kWorkers / static_cast<double>(oracle.size());
        EXPECT_GE(share, 0.5) << "part " << w << " holds " << n;
        EXPECT_LE(share, 1.5) << "part " << w << " holds " << n;
      }
    }
    EXPECT_EQ(total, oracle.size());
    Store restored;
    Store::RecoveryResult res = restored.recover(ckpt.str(), "", 2);
    EXPECT_EQ(res.checkpoint_records, oracle.size());
    expect_store_matches(restored, oracle);
  };
  std::vector<std::string> decimal, prefixed;
  for (uint64_t i = 0; i < 20000; ++i) {
    decimal.push_back(decimal_key(i));
    prefixed.push_back("https://example.com/item/" + std::to_string(i));
  }
  check("split-decimal", decimal, true);
  check("split-prefixed", prefixed, true);
  // Tiny trees yield fewer bounds than parts; the rest are written empty.
  check("split-three", {"a", "b", "c"}, false);
  check("split-one", {"a"}, false);
  check("split-empty", {}, false);
}

TEST(CheckpointRestore, CheckpointRunsConcurrentlyWithWrites) {
  // §5: checkpoints proceed while normal puts continue. The checkpoint must
  // capture a superset of pre-checkpoint state and never a torn row.
  TempDir ckpt("concurrent");
  Store store;
  Store::Session s(store, 0);
  RowOracle stable;
  fill_store(store, s, &stable, 1500, /*salt=*/6);

  test_support::ChurnDriver churn;
  std::atomic<uint64_t> churn_i{0};
  std::atomic<unsigned> next_worker{1};
  churn.spawn_with_setup(2, [&](ThreadContext&, Rng&) {
    // One Session per thread (distinct worker ids), built once — the loop
    // body must spend its time racing the checkpoint, not re-registering
    // epoch slots.
    auto ws = std::make_shared<Store::Session>(store, next_worker.fetch_add(1));
    return [&, ws] {
      uint64_t i = churn_i.fetch_add(1);
      store.put("churn/" + ts::padded_key(i), {{0, "c" + std::to_string(i)}}, *ws);
      return true;
    };
  });
  bool ok = store.checkpoint(ckpt.str(), 3);
  churn.stop_and_join();
  ASSERT_TRUE(ok);

  Store restored;
  Store::RecoveryResult res = restored.recover(ckpt.str(), "", 2);
  EXPECT_TRUE(res.used_checkpoint);
  EXPECT_GE(res.checkpoint_records, stable.size());
  // All stable rows must be present and exact.
  Store::Session rs(restored, 0);
  for (const auto& [key, cols] : stable) {
    std::vector<std::string> got;
    ASSERT_TRUE(restored.get(key, {}, &got, rs)) << key;
    ASSERT_EQ(got, cols) << key;
  }
  EXPECT_TRUE(ts::rep_ok(restored.tree()));
}

}  // namespace
}  // namespace masstree
