// Crash-point recovery torture (§5 durability, end to end).
//
// A fault-free run of a logged-put + checkpoint + truncate workload (with a
// second checkpoint + truncate into the same directory) is
// traced through the io:: seam to enumerate its syscall boundaries. The
// workload is then re-run once per cut point with an in-process "power
// cut" armed: from that call on every mutating file syscall silently
// succeeds without touching the frozen file image, page-cache bytes not
// covered by a real fdatasync are rolled back, and (for sampled write
// boundaries) the dying write applies only a torn byte prefix. Recovery
// then runs against the frozen image and is diffed against the oracle:
//
//   * every write acknowledged by a sync_logs() that completed before the
//     cut must survive recovery (acked-durable data is never lost);
//   * unacknowledged writes may vanish, but only back to the acked state —
//     and a key removed in an acked phase must never resurrect;
//   * recovery itself must never crash, whatever the cut point.
//
// Tier-1 runs a strided sweep; MT_TORTURE_FULL=1 (the tier-2 ASan lane)
// sweeps every syscall boundary plus torn mid-write offsets.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kvstore/store.h"
#include "util/io.h"

namespace masstree {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// One phase's writes: key -> new value, or nullopt for a remove. Each phase
// ends with a sync_logs() acknowledgement barrier, so "the cut landed after
// phase P's sync" pins every phase <= P as durable.
using PhaseOp = std::pair<std::string, std::optional<std::string>>;
using Phase = std::vector<PhaseOp>;

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%03d", i);
  return buf;
}

std::vector<Phase> MakeWorkload() {
  Phase a, b, c, d;
  for (int i = 0; i < 20; ++i) {
    a.emplace_back(Key(i), "A" + std::to_string(i));
  }
  for (int i = 20; i < 40; ++i) {
    b.emplace_back(Key(i), "B" + std::to_string(i));
  }
  for (int i = 0; i < 5; ++i) {
    b.emplace_back(Key(i), std::nullopt);  // acked removes must stay gone
  }
  for (int i = 40; i < 60; ++i) {
    c.emplace_back(Key(i), "C" + std::to_string(i));
  }
  for (int i = 10; i < 15; ++i) {
    c.emplace_back(Key(i), "C" + std::to_string(i));  // overwrite acked values
  }
  for (int i = 60; i < 66; ++i) {
    d.emplace_back(Key(i), "D" + std::to_string(i));
  }
  for (int i = 40; i < 43; ++i) {
    d.emplace_back(Key(i), std::nullopt);
  }
  for (int i = 20; i < 23; ++i) {
    d.emplace_back(Key(i), "D" + std::to_string(i));
  }
  return {a, b, c, d};
}

// Per-key state snapshots after each phase: timeline[k][p] is key k's value
// after phases 0..p-1 applied (p = 0 is the empty store).
std::map<std::string, std::vector<std::optional<std::string>>> MakeTimeline(
    const std::vector<Phase>& phases) {
  std::map<std::string, std::optional<std::string>> state;
  for (const auto& ph : phases) {
    for (const auto& [k, v] : ph) {
      state[k];  // ensure every touched key has a row
    }
  }
  std::map<std::string, std::vector<std::optional<std::string>>> timeline;
  for (const auto& [k, v] : state) {
    timeline[k].push_back(std::nullopt);
  }
  for (const auto& ph : phases) {
    for (const auto& [k, v] : ph) {
      state[k] = v;
    }
    for (auto& [k, tl] : timeline) {
      tl.push_back(state[k]);
    }
  }
  return timeline;
}

struct RunResult {
  // Phases whose end-of-phase sync_logs() returned with the cut not yet
  // fired: everything up to and including phase `acked` is durable.
  int acked_phases = 0;
  // Phases covered by the last checkpoint() that completed with the cut
  // not yet fired: its manifest rename landed on the frozen image.
  int ckpt_phases = 0;
};

// Drives the workload against a fresh store. `plan` (may be null) is
// already armed by the caller; this only queries cut_fired() to build the
// acked oracle. Writes go through put_checked/remove_checked so a tripped
// store (the EIO tests) cannot throw mid-workload.
RunResult RunWorkload(const std::string& log_dir, const std::string& ckpt_dir,
                      const std::vector<Phase>& phases, io::FaultPlan* plan) {
  auto pre_cut = [&] { return plan == nullptr || !plan->cut_fired(); };
  RunResult rr;
  Store::Options opt;
  opt.log_dir = log_dir;
  opt.log_partitions = 1;
  Store store(opt);
  Store::Session s(store, 0);
  auto run_phase = [&](const Phase& ph) {
    for (const auto& [k, v] : ph) {
      if (v.has_value()) {
        store.put_checked(k, {{0, *v}}, s);
      } else {
        store.remove_checked(k, s);
      }
    }
    store.sync_logs();
  };
  run_phase(phases[0]);
  if (pre_cut()) {
    rr.acked_phases = 1;
  }
  run_phase(phases[1]);
  if (pre_cut()) {
    rr.acked_phases = 2;
  }
  // Checkpoint between the acked phases and the tail, then reclaim the log
  // space it covers only after the next phase's writes are acknowledged —
  // the §5 sequence whose crash windows (manifest renamed but logs not yet
  // unlinked, or vice versa) the sweep must cross, and the order in which
  // truncation once dropped acknowledged writes made after the checkpoint.
  auto checkpoint = [&](int covered) {
    bool ck = store.checkpoint(ckpt_dir, 2);
    if (ck && pre_cut()) {
      rr.ckpt_phases = covered;
    }
    return ck;
  };
  bool first = checkpoint(2);
  run_phase(phases[2]);
  if (pre_cut()) {
    rr.acked_phases = 3;
  }
  if (first) {
    store.truncate_logs();
  }
  // Re-checkpoint into the same directory: the committed manifest's parts
  // must stay intact until the new manifest is durable, or a cut in here
  // loses phases A+B (their log records were unlinked above).
  bool second = checkpoint(3);
  run_phase(phases[3]);
  if (pre_cut()) {
    rr.acked_phases = 4;
  }
  if (second) {
    store.truncate_logs();
  }
  return rr;
}

// Recover from the frozen on-disk image (caller must have disarmed) and
// diff against the oracle: each key's recovered value must be one of its
// timeline states from the last acked phase onward.
void CheckRecovered(const std::string& log_dir, const std::string& ckpt_dir,
                    const std::vector<Phase>& phases, const RunResult& rr,
                    const std::string& label) {
  int floor = std::max(rr.acked_phases, rr.ckpt_phases);
  Store rec;
  rec.recover(ckpt_dir, log_dir, 2);
  Store::Session s(rec, 0);
  auto timeline = MakeTimeline(phases);
  std::vector<std::string> out;
  for (const auto& [k, tl] : timeline) {
    std::optional<std::string> got;
    if (rec.get(k, {0}, &out, s) && !out.empty()) {
      got = out[0];
    }
    bool allowed = false;
    for (size_t p = static_cast<size_t>(floor); p < tl.size(); ++p) {
      if (tl[p] == got) {
        allowed = true;
        break;
      }
    }
    EXPECT_TRUE(allowed) << label << ": key " << k << " recovered as "
                         << (got ? ("\"" + *got + "\"") : std::string("<absent>"))
                         << " but phases <= " << floor
                         << " were acknowledged durable";
  }
}

bool FullSweep() {
  const char* v = std::getenv("MT_TORTURE_FULL");
  return v != nullptr && v[0] == '1';
}

// Fault-free traced run: enumerates the workload's syscall boundaries and
// proves the oracle holds with no fault at all (acked == everything).
TEST(CrashTorture, TraceRunRecoversEverything) {
  auto phases = MakeWorkload();
  std::string log_dir = FreshDir("torture_trace_logs");
  std::string ckpt_dir = FreshDir("torture_trace_ckpt");
  io::FaultPlan plan;
  plan.trace = true;
  RunResult rr;
  {
    io::Armed armed(&plan);
    rr = RunWorkload(log_dir, ckpt_dir, phases, &plan);
  }
  EXPECT_EQ(rr.acked_phases, 4);
  EXPECT_EQ(rr.ckpt_phases, 3);
  EXPECT_FALSE(plan.cut_fired());
  // The workload must actually exercise the whole seam: appends, syncs,
  // extent preallocation, checkpoint part writes, and the manifest commit.
  auto trace = plan.trace_log();
  ASSERT_GT(trace.size(), 20u);
  bool saw_pwritev = false, saw_sync = false, saw_rename = false, saw_unlink = false;
  for (const auto& r : trace) {
    saw_pwritev |= std::string_view(r.name) == "pwritev";
    saw_sync |= std::string_view(r.name) == "fdatasync";
    saw_rename |= std::string_view(r.name) == "rename";
    saw_unlink |= std::string_view(r.name) == "unlink";
  }
  EXPECT_TRUE(saw_pwritev);
  EXPECT_TRUE(saw_sync);
  EXPECT_TRUE(saw_rename);
  EXPECT_TRUE(saw_unlink);  // the re-checkpoint removed the first one's parts
  CheckRecovered(log_dir, ckpt_dir, phases, rr, "trace");
}

// The sweep: cut at (a stride over / every one of) the traced syscall
// boundaries, recover, diff. drop_unsynced_at_cut makes each cut a real
// power cut — bytes no completed fdatasync covered are rolled back.
TEST(CrashTorture, CutEverySyscallBoundary) {
  auto phases = MakeWorkload();
  uint64_t total;
  {
    std::string log_dir = FreshDir("torture_count_logs");
    std::string ckpt_dir = FreshDir("torture_count_ckpt");
    io::FaultPlan plan;
    io::Armed armed(&plan);
    RunWorkload(log_dir, ckpt_dir, phases, &plan);
    total = plan.calls();
  }
  ASSERT_GT(total, 0u);
  uint64_t stride = FullSweep() ? 1 : std::max<uint64_t>(1, total / 16);
  for (uint64_t cut = 1; cut <= total; cut += stride) {
    std::string tag = "cut@" + std::to_string(cut);
    std::string log_dir = FreshDir("torture_cut_logs");
    std::string ckpt_dir = FreshDir("torture_cut_ckpt");
    io::FaultPlan plan;
    plan.cut_at_call = cut;
    plan.drop_unsynced_at_cut = true;
    RunResult rr;
    {
      io::Armed armed(&plan);
      rr = RunWorkload(log_dir, ckpt_dir, phases, &plan);
    }
    CheckRecovered(log_dir, ckpt_dir, phases, rr, tag);
  }
}

// The same phases written below the Store, straight into log shards whose
// segment size is one byte: every write is synced and then releases its
// file (the Store's roll — kClose, buffers and descriptor freed, never
// written again) for a fresh log-<n>.bin, whose directory entry is synced
// before the commit that acknowledges its first record.
RunResult RunSegmentedLogWorkload(const std::string& log_dir, const std::vector<Phase>& phases,
                                  io::FaultPlan* plan) {
  auto pre_cut = [&] { return plan == nullptr || !plan->cut_fired(); };
  RunResult rr;
  LogWriter writer(LogWriter::Options{});
  std::vector<std::unique_ptr<LogShard>> files;
  auto roll = [&] {
    std::string path = Store::log_path(log_dir, static_cast<unsigned>(files.size()));
    files.push_back(std::make_unique<LogShard>(path, 4 << 10, nullptr, 128,
                                               /*segment_bytes=*/1));
    writer.add_shard(files.back().get());
  };
  roll();
  writer.start();
  uint64_t version = 0;
  for (size_t p = 0; p < phases.size(); ++p) {
    for (const auto& [k, v] : phases[p]) {
      LogShard& log = *files.back();
      if (v.has_value()) {
        log.append_put(k, {{0, *v}}, ++version);
      } else {
        log.append_remove(k, ++version);
      }
      writer.sync();
      if (log.segment_full()) {
        log.release_producer();
        roll();
      }
    }
    writer.sync();
    if (pre_cut()) {
      rr.acked_phases = static_cast<int>(p) + 1;
    }
  }
  writer.stop();
  return rr;
}

// A cut anywhere in those rolls still recovers a per-key prefix of the
// acked writes.
TEST(CrashTorture, CutDuringSegmentRolls) {
  auto phases = MakeWorkload();
  std::string ckpt_dir = FreshDir("torture_roll_ckpt");  // stays empty
  uint64_t total;
  {
    std::string log_dir = FreshDir("torture_roll_trace_logs");
    io::FaultPlan plan;
    plan.trace = true;
    RunResult rr;
    {
      io::Armed armed(&plan);
      rr = RunSegmentedLogWorkload(log_dir, phases, &plan);
    }
    EXPECT_EQ(rr.acked_phases, 4);
    total = plan.calls();
    // The workload really rolls: one file per write, and the log
    // directory itself is synced for the new entries.
    size_t writes = 0;
    for (const auto& ph : phases) {
      writes += ph.size();
    }
    EXPECT_EQ(list_log_files(log_dir).size(), writes + 1);
    bool synced_dir = false;
    for (const auto& r : plan.trace_log()) {
      synced_dir |= std::string_view(r.name) == "open" && r.path == log_dir + "/";
    }
    EXPECT_TRUE(synced_dir);
    CheckRecovered(log_dir, ckpt_dir, phases, rr, "roll trace");
  }
  uint64_t stride = FullSweep() ? 1 : std::max<uint64_t>(1, total / 24);
  for (uint64_t cut = 1; cut <= total; cut += stride) {
    std::string log_dir = FreshDir("torture_roll_logs");
    io::FaultPlan plan;
    plan.cut_at_call = cut;
    plan.drop_unsynced_at_cut = true;
    RunResult rr;
    {
      io::Armed armed(&plan);
      rr = RunSegmentedLogWorkload(log_dir, phases, &plan);
    }
    CheckRecovered(log_dir, ckpt_dir, phases, rr, "roll cut@" + std::to_string(cut));
  }
}

// Torn-write cuts: the dying write lands a byte prefix (1 byte, or half the
// payload) before the freeze, shearing a record mid-frame — recovery must
// stop cleanly at the tear, keeping the acked prefix.
TEST(CrashTorture, TornWriteCuts) {
  auto phases = MakeWorkload();
  std::vector<std::pair<uint64_t, uint64_t>> points;  // (call index, bytes)
  {
    std::string log_dir = FreshDir("torture_torn_trace_logs");
    std::string ckpt_dir = FreshDir("torture_torn_trace_ckpt");
    io::FaultPlan plan;
    plan.trace = true;
    io::Armed armed(&plan);
    RunWorkload(log_dir, ckpt_dir, phases, &plan);
    auto trace = plan.trace_log();
    for (size_t i = 0; i < trace.size(); ++i) {
      const auto& r = trace[i];
      if ((std::string_view(r.name) == "pwritev" ||
           std::string_view(r.name) == "write") &&
          r.bytes > 1) {
        points.emplace_back(i + 1, r.bytes);
      }
    }
  }
  ASSERT_FALSE(points.empty());
  size_t stride = FullSweep() ? 1 : std::max<size_t>(1, points.size() / 6);
  for (size_t i = 0; i < points.size(); i += stride) {
    for (uint64_t torn : {uint64_t{1}, points[i].second / 2}) {
      if (torn == 0) {
        continue;
      }
      std::string tag = "torn@" + std::to_string(points[i].first) + "+" +
                        std::to_string(torn);
      std::string log_dir = FreshDir("torture_torn_logs");
      std::string ckpt_dir = FreshDir("torture_torn_ckpt");
      io::FaultPlan plan;
      plan.cut_at_call = points[i].first;
      plan.torn_bytes = torn;
      plan.drop_unsynced_at_cut = true;
      RunResult rr;
      {
        io::Armed armed(&plan);
        rr = RunWorkload(log_dir, ckpt_dir, phases, &plan);
      }
      CheckRecovered(log_dir, ckpt_dir, phases, rr, tag);
    }
  }
}

// The lying-disk adversary: fdatasync reports success without syncing, so
// the cut rolls back even "acked" bytes. Durability is unprovable on such
// hardware — the test only demands sanity: recovery never crashes, never
// invents values, and never resurrects a remove the frozen image cannot
// justify (the recovered state is SOME prefix of the timeline, per key).
TEST(CrashTorture, LyingFsyncNeverCorrupts) {
  auto phases = MakeWorkload();
  uint64_t total;
  {
    std::string log_dir = FreshDir("torture_lie_count_logs");
    std::string ckpt_dir = FreshDir("torture_lie_count_ckpt");
    io::FaultPlan plan;
    io::Armed armed(&plan);
    RunWorkload(log_dir, ckpt_dir, phases, &plan);
    total = plan.calls();
  }
  uint64_t stride = FullSweep() ? 4 : std::max<uint64_t>(1, total / 8);
  for (uint64_t cut = stride; cut <= total; cut += stride) {
    std::string log_dir = FreshDir("torture_lie_logs");
    std::string ckpt_dir = FreshDir("torture_lie_ckpt");
    io::FaultPlan plan;
    plan.cut_at_call = cut;
    plan.lie_fsync = true;
    plan.drop_unsynced_at_cut = true;
    {
      io::Armed armed(&plan);
      RunWorkload(log_dir, ckpt_dir, phases, &plan);
    }
    // acked_phases is meaningless under a lying fsync; demand only that
    // recovery produces a coherent per-key state from the full timeline.
    RunResult sane;
    CheckRecovered(log_dir, ckpt_dir, phases, sane,
                   "lie@" + std::to_string(cut));
  }
}

// EINTR storms and short writes: every retry/resume loop in the logging
// and checkpoint stack must converge with zero data loss.
TEST(CrashTorture, EintrAndShortWritesAreHarmless) {
  auto phases = MakeWorkload();
  std::string log_dir = FreshDir("torture_eintr_logs");
  std::string ckpt_dir = FreshDir("torture_eintr_ckpt");
  io::FaultPlan plan;
  plan.eintr_every = 3;
  plan.eintr_burst = 2;
  plan.short_write_cap = 7;
  RunResult rr;
  {
    io::Armed armed(&plan);
    rr = RunWorkload(log_dir, ckpt_dir, phases, &plan);
  }
  EXPECT_EQ(rr.acked_phases, 4);
  CheckRecovered(log_dir, ckpt_dir, phases, rr, "eintr");
}

// ---- sticky-error degradation (the read-only trip, store level) --------

// A sticky EIO on the log's pwritev trips the store into read-only mode:
// writes fail fast with kReadOnly results, reads keep serving, and the
// first failing syscall's context is preserved for the trip log line.
TEST(CrashTorture, StickyEioTripsReadOnly) {
  std::string log_dir = FreshDir("torture_eio_logs");
  Store::Options opt;
  opt.log_dir = log_dir;
  opt.log_partitions = 1;
  io::FaultPlan plan;
  plan.fail_at = 1;
  plan.fail_errno = EIO;
  plan.fail_op = "pwritev";
  io::Armed armed(&plan);
  Store store(opt);
  Store::Session s(store, 0);
  EXPECT_EQ(store.put_checked("pre", {{0, "v"}}, s), Store::PutResult::kInserted);
  store.sync_logs();  // the drain hits the failing pwritev
  EXPECT_TRUE(store.read_only());
  EXPECT_EQ(store.log_error(), EIO);
  io::IoErrorDetail d = store.log_error_detail();
  EXPECT_STREQ(d.syscall, "pwritev");
  EXPECT_EQ(d.err, EIO);
  EXPECT_FALSE(d.path.empty());
  EXPECT_EQ(store.read_only_trips(), 1u);
  // Writes fail fast, in every flavor...
  EXPECT_EQ(store.put_checked("post", {{0, "v"}}, s), Store::PutResult::kReadOnly);
  EXPECT_EQ(store.remove_checked("pre", s), Store::RemoveResult::kReadOnly);
  EXPECT_THROW(store.put("post2", {{0, "v"}}, s), StoreReadOnly);
  std::vector<Store::PutOp> ops(2);
  ops[0].key = "mp0";
  ops[1].key = "mp1";
  EXPECT_EQ(store.multiput(std::span<Store::PutOp>(ops), s), 0u);
  EXPECT_TRUE(ops[0].rejected);
  EXPECT_TRUE(ops[1].rejected);
  EXPECT_GE(store.writes_rejected_read_only(), 4u);
  // ...while reads keep serving the pre-trip data.
  std::vector<std::string> out;
  EXPECT_TRUE(store.get("pre", {0}, &out, s));
  EXPECT_EQ(out[0], "v");
  EXPECT_FALSE(store.get("post", {0}, &out, s));
}

// ENOSPC on log extension (fallocate) degrades to read-only the same way —
// never an abort, never silent durability loss.
TEST(CrashTorture, EnospcOnLogExtensionTripsReadOnly) {
  std::string log_dir = FreshDir("torture_enospc_logs");
  Store::Options opt;
  opt.log_dir = log_dir;
  opt.log_partitions = 1;
  io::FaultPlan plan;
  plan.fail_at = 1;
  plan.fail_errno = ENOSPC;
  plan.fail_op = "fallocate";
  io::Armed armed(&plan);
  Store store(opt);
  Store::Session s(store, 0);
  store.put_checked("k", {{0, "v"}}, s);
  store.sync_logs();
  EXPECT_TRUE(store.read_only());
  EXPECT_EQ(store.log_error(), ENOSPC);
  EXPECT_STREQ(store.log_error_detail().syscall, "fallocate");
  EXPECT_EQ(store.put_checked("k2", {{0, "v"}}, s), Store::PutResult::kReadOnly);
  std::vector<std::string> out;
  EXPECT_TRUE(store.get("k", {0}, &out, s));  // applied in-memory pre-trip
}

// A checkpoint part hitting a write error trips the store too (the part
// file is junk and the manifest never commits), but a part that cannot
// even be opened is a configuration error, not degradation.
TEST(CrashTorture, CheckpointWriteFailureTripsReadOnly) {
  std::string log_dir = FreshDir("torture_ckptfail_logs");
  std::string ckpt_dir = FreshDir("torture_ckptfail_ckpt");
  Store::Options opt;
  opt.log_dir = log_dir;
  opt.log_partitions = 1;
  io::FaultPlan plan;
  plan.fail_at = 1;
  plan.fail_errno = EIO;
  plan.fail_op = "write";
  io::Armed armed(&plan);
  Store store(opt);
  Store::Session s(store, 0);
  for (int i = 0; i < 10; ++i) {
    store.put_checked(Key(i), {{0, "v"}}, s);
  }
  EXPECT_FALSE(store.checkpoint(ckpt_dir, 2));
  EXPECT_TRUE(store.read_only());
  EXPECT_STREQ(store.log_error_detail().syscall, "write");
  EXPECT_EQ(store.put_checked("k", {{0, "v"}}, s), Store::PutResult::kReadOnly);
}

TEST(CrashTorture, CheckpointOpenFailureDoesNotTrip) {
  Store store;
  Store::Session s(store, 0);
  store.put_checked("k", {{0, "v"}}, s);
  // A directory that does not exist and cannot be created under TempDir's
  // read-only parent: parts fail to open, checkpoint fails, store stays
  // writable.
  EXPECT_FALSE(store.checkpoint("/proc/definitely/not/writable", 1));
  EXPECT_FALSE(store.read_only());
  EXPECT_EQ(store.put_checked("k2", {{0, "v"}}, s), Store::PutResult::kInserted);
}

}  // namespace
}  // namespace masstree
