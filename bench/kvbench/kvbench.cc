// kvbench: the repository's end-to-end benchmark.
//
// One process loads a Store (default options plus a log directory), serves
// it through the epoll BasicServer (2 workers) on loopback, and drives it
// with its own load generator (loadgen.h): a warm-up, then closed-loop
// windows (throughput) alternating with open-loop windows (latency), then
// correctness checks. The gated numbers are the server's CPU cycles per op
// in each kind of window; README.md says why.
// `--trace 1` serves the same store through BasicServer<TracedStore>
// (traced_store.h) and reports per-layer numbers instead.
//
//   kvbench --workload get_uniform --seed 1 --seconds 10 --trace 0 --dir DIR
//   kvbench --smoke --dir DIR      all four workloads at 50k keys + one traced pass
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}
// Logs, checkpoints and the Chrome trace go under DIR; logs and checkpoints
// are deleted before exit. The exit code is non-zero if any check failed.

#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "kvstore/store.h"
#include "loadgen.h"
#include "net/server.h"
#include "traced_store.h"
#include "util/io.h"
#include "workload.h"

namespace kvbench {
namespace {

using masstree::Store;

constexpr unsigned kSetupRuns = 3;     // setup_s is the median of this many set-ups
constexpr unsigned kSetupThreads = 4;  // loader, checkpoint and recovery threads

struct Timing {
  double seconds;  // measured time: closed loop + open loop
  double warm_s;   // untimed closed-loop warm-up
  unsigned setup_runs;
};

// ---- process and thread accounting --------------------------------------
uint64_t rss_bytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  unsigned long long size = 0, resident = 0;
  if (f != nullptr) {
    if (std::fscanf(f, "%llu %llu", &size, &resident) != 2) {
      resident = 0;
    }
    std::fclose(f);
  }
  return resident * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

// CPU time of every thread of this process, from /proc/self/task/*/schedstat.
std::map<int, uint64_t> task_cpu_ns() {
  std::map<int, uint64_t> out;
  DIR* d = ::opendir("/proc/self/task");
  if (d == nullptr) {
    return out;
  }
  while (dirent* e = ::readdir(d)) {
    int tid = std::atoi(e->d_name);
    if (tid <= 0) {
      continue;
    }
    std::string path = std::string("/proc/self/task/") + e->d_name + "/schedstat";
    FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) {
      continue;  // the thread exited meanwhile
    }
    unsigned long long ns = 0;
    if (std::fscanf(f, "%llu", &ns) == 1) {
      out[tid] = ns;
    }
    std::fclose(f);
  }
  ::closedir(d);
  return out;
}

// Host CPU time the hypervisor gave to other guests ("steal") and total
// CPU time of this machine, from /proc/stat, in clock ticks.
struct HostCpu {
  uint64_t steal = 0, total = 0;
};

HostCpu host_cpu() {
  HostCpu h;
  FILE* f = std::fopen("/proc/stat", "r");
  unsigned long long v[8] = {};
  if (f != nullptr) {
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2], &v[3],
                    &v[4], &v[5], &v[6], &v[7]) == 8) {
      h.steal = v[7];
      for (unsigned long long x : v) {
        h.total += x;
      }
    }
    std::fclose(f);
  }
  return h;
}

uint64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull + static_cast<uint64_t>(ts.tv_nsec);
}

// The core clock, in cycles per ns, from timing a dependent chain of 64-bit
// multiply-adds (a 3-cycle multiply then a 1-cycle add on current x86 cores)
// in this thread's CPU time, so a preempted vCPU does not read as a slow
// one. Other guests on a shared host move this clock by up to a third
// within minutes; CPU time times the clock gives cycles, which that moves
// much less.
double clock_ghz() {
  constexpr uint64_t kIters = 10'000'000;
  static std::atomic<uint64_t> sink{0};
  uint64_t x = masstree::now_ns();
  const uint64_t t0 = thread_cpu_ns();
  for (uint64_t i = 0; i < kIters; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  const uint64_t t1 = thread_cpu_ns();
  sink.store(x, std::memory_order_relaxed);
  return 4.0 * static_cast<double>(kIters) / static_cast<double>(t1 - t0);
}

double steal_pct(const HostCpu& a, const HostCpu& b) {
  return b.total > a.total
             ? 100.0 * static_cast<double>(b.steal - a.steal) / static_cast<double>(b.total - a.total)
             : 0;
}

uint64_t cpu_delta(const std::map<int, uint64_t>& a, const std::map<int, uint64_t>& b,
                   const std::set<int>& tids) {
  uint64_t sum = 0;
  for (int tid : tids) {
    auto e = b.find(tid);
    if (e == b.end()) {
      continue;
    }
    auto s = a.find(tid);
    sum += e->second - (s == a.end() ? 0 : s->second);
  }
  return sum;
}

// CPU time of the server side of the process, slice by slice: every thread
// except the calling (main) thread and the generator's, i.e. the server
// workers, the log writers and the store's maintenance thread.
struct ServerCpu {
  std::vector<uint64_t> slice_ns;  // one per slice, window after window
  std::map<int, uint64_t> last;

  // Called at every edge of a window, with that window's generator results.
  void edge(unsigned i, const ThreadResult* gen) {
    std::map<int, uint64_t> now = task_cpu_ns();
    if (i > 0) {
      std::set<int> tids;
      for (const auto& e : now) {
        tids.insert(e.first);
      }
      tids.erase(current_tid());
      for (unsigned t = 0; t < kGenThreads; ++t) {
        tids.erase(gen[t].tid.load(std::memory_order_acquire));
      }
      slice_ns.push_back(cpu_delta(last, now, tids));
    }
    last = std::move(now);
  }
};

// Quantile q of v, interpolating between neighbours; 0 if v is empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// Nearest-rank percentile, in microseconds.
double percentile_us(std::vector<uint64_t> v, double q) {
  if (v.empty()) {
    return 0;
  }
  size_t k = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  k = k == 0 ? 0 : k - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]) / 1e3;
}

// Open-loop percentiles are taken per slice of the window, by due time;
// appends one value per non-empty slice to *per.
void slice_percentiles_us(const std::vector<LatSample>& v, uint64_t start, uint64_t end, double q,
                          std::vector<double>* per) {
  std::vector<std::vector<uint64_t>> slices(kSubWindows);
  for (const LatSample& s : v) {
    uint64_t i = (s.due_ns - start) * kSubWindows / (end - start);
    slices[std::min<uint64_t>(i, kSubWindows - 1)].push_back(s.ns);
  }
  for (const auto& sl : slices) {
    if (!sl.empty()) {
      per->push_back(percentile_us(sl, q));
    }
  }
}

double windowed_percentile_us(const std::vector<LatSample>& v, uint64_t start, uint64_t end,
                              double q) {
  std::vector<double> per;
  slice_percentiles_us(v, start, end, q, &per);
  return median(per);
}

double overall_percentile_us(const std::vector<LatSample>& v, double q) {
  std::vector<uint64_t> ns;
  for (const LatSample& s : v) {
    ns.push_back(s.ns);
  }
  return percentile_us(std::move(ns), q);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

uint64_t dir_bytes(const std::string& dir) {
  uint64_t sum = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) {
      sum += e.file_size(ec);
    }
  }
  return sum;
}

// ---- setup ----------------------------------------------------------------
struct Loaded {
  std::unique_ptr<KeySet> keys;
  std::unique_ptr<TracedStore> store;
  double setup_s = 0;
  uint64_t rss_loaded = 0;
  std::vector<uint32_t> tail_ids;  // ycsb_a_1kb: keys at seq 1 after the log tail
  double checkpoint_s = 0;
  uint64_t checkpoint_bytes = 0;
  double recover_s = 0;
  uint64_t recovered_entries = 0;
};

Store::Options store_options(const std::string& log_dir) {
  Store::Options o;
  o.log_dir = log_dir;
  return o;
}

// Writes seq `seq` of every listed key id through Store::multiput, from
// kSetupThreads sessions in parallel. (Setup goes through Store's own
// methods, never TracedStore's: the trace must only see served calls.)
void put_all(Store& store, const KeySet& keys, const ValueCodec& codec,
             const std::vector<uint32_t>* ids, size_t n, uint32_t seq) {
  constexpr size_t kBatch = 64;
  std::vector<std::thread> threads;
  std::atomic<uint64_t> rejected{0};
  for (unsigned t = 0; t < kSetupThreads; ++t) {
    threads.emplace_back([&, t] {
      Store::Session s(store, t);
      std::vector<char> vals(kBatch * codec.size());
      std::vector<KeyBuf> kbufs(kBatch);
      std::vector<masstree::ColumnUpdate> cols(kBatch);
      std::vector<Store::PutOp> ops(kBatch);
      size_t lo = n * t / kSetupThreads, hi = n * (t + 1) / kSetupThreads;
      for (size_t i = lo; i < hi; i += kBatch) {
        size_t m = std::min(kBatch, hi - i);
        for (size_t j = 0; j < m; ++j) {
          size_t id = ids != nullptr ? (*ids)[i + j] : i + j;
          kbufs[j] = keys.key(id);
          char* v = vals.data() + j * codec.size();
          codec.make(kbufs[j].view(), seq, v);
          cols[j] = masstree::ColumnUpdate{0, std::string_view(v, codec.size())};
          ops[j] = Store::PutOp{};
          ops[j].key = kbufs[j].view();
          ops[j].updates = std::span<const masstree::ColumnUpdate>(&cols[j], 1);
        }
        store.multiput(std::span<Store::PutOp>(ops.data(), m), s);
        for (size_t j = 0; j < m; ++j) {
          rejected.fetch_add(ops[j].rejected ? 1 : 0, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  if (rejected.load() != 0) {
    throw std::runtime_error("setup write rejected (store is read-only)");
  }
}

// Everything before warm-up: key generation, the store, the load, and on
// ycsb_a_1kb a checkpoint, a logged tail of puts, and a restart that
// recovers from both. Timed as setup_s.
Loaded setup(const WorkloadSpec& w, uint64_t seed, const std::string& dir,
             const ValueCodec& codec) {
  uint64_t t0 = masstree::now_ns();
  Loaded L;
  L.keys = std::make_unique<KeySet>(w.keys, seed);
  std::filesystem::create_directories(dir);
  const std::string logs = dir + "/logs";
  L.store = std::make_unique<TracedStore>(store_options(logs));
  put_all(*L.store, *L.keys, codec, nullptr, L.keys->size(), 0);
  L.rss_loaded = rss_bytes();
  if (w.tail_puts > 0) {
    const std::string ckpt = dir + "/ckpt";
    uint64_t c0 = masstree::now_ns();
    if (!L.store->checkpoint(ckpt, kSetupThreads)) {
      throw std::runtime_error("checkpoint failed");
    }
    L.checkpoint_s = static_cast<double>(masstree::now_ns() - c0) / 1e9;
    L.checkpoint_bytes = dir_bytes(ckpt);
    L.store->truncate_logs();
    size_t tail = std::min<size_t>(w.tail_puts, L.keys->size());
    size_t step = L.keys->size() / tail;
    for (size_t j = 0; j < tail; ++j) {
      L.tail_ids.push_back(static_cast<uint32_t>(j * step));
    }
    put_all(*L.store, *L.keys, codec, &L.tail_ids, tail, 1);
    L.store->sync_logs();
    // Restart: the old store's final group commit closes its logs, and a
    // new store recovers from the checkpoint plus the logged tail.
    L.store.reset();
    L.store = std::make_unique<TracedStore>(store_options(logs));
    uint64_t r0 = masstree::now_ns();
    Store::RecoveryResult rr = L.store->recover(ckpt, logs, kSetupThreads);
    L.recover_s = static_cast<double>(masstree::now_ns() - r0) / 1e9;
    L.recovered_entries = rr.checkpoint_records + rr.log_entries_applied;
  }
  L.setup_s = static_cast<double>(masstree::now_ns() - t0) / 1e9;
  return L;
}

// One more set-up in a forked child with fresh memory, so every sample pays
// the same page faults the measured set-up does. Returns its setup_s.
double forked_setup(const WorkloadSpec& w, uint64_t seed, const std::string& dir,
                    const ValueCodec& codec) {
  std::fflush(stdout);
  std::fflush(stderr);
  int fds[2];
  if (::pipe(fds) != 0) {
    throw std::runtime_error("pipe failed");
  }
  pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    double s = -1;
    try {
      Loaded L = setup(w, seed, dir, codec);
      s = L.setup_s;
    } catch (...) {
    }
    // _exit before the store's destructor: the child only measures.
    ssize_t n = ::write(fds[1], &s, sizeof(s));
    ::_exit(n == sizeof(s) && s >= 0 ? 0 : 1);
  }
  ::close(fds[1]);
  double s = -1;
  ssize_t n = ::read(fds[0], &s, sizeof(s));
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (n != sizeof(s) || s < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up in a child process failed");
  }
  return s;
}

// ---- results --------------------------------------------------------------
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void add(const std::string& name, double v, const std::string& unit) {
    metrics.push_back(Metric{name, std::isfinite(v) ? v : 0, unit});
  }
  void absorb(const ThreadResult* r, unsigned n) {
    for (unsigned t = 0; t < n; ++t) {
      attempted += r[t].attempted;
      failed += r[t].failed;
      if (!r[t].error.empty()) {
        errors.push_back(r[t].error);
      }
    }
  }
};

// The metric names BENCHMARK.json lists, in the order it lists them.
const std::vector<std::string> kEndToEnd = {"server_cycles_per_op", "server_cycles_per_op_at_rate",
                                            "setup_s", "mem_bytes_per_key"};
const std::vector<std::string> kPerLayer = {
    "client.cpu_ns_per_op",      "client.late_p99_us",
    "net.worker_cpu_ns_per_op",  "net.self_ns_per_op",
    "net.worker_busy_pct",       "net.read_batch_keys",
    "net.write_batch_ops",       "net.cross_conn_pct",
    "net.inline_ops_pct",        "kvstore.ns_per_op",
    "kvstore.multiget_mkeys_per_s", "kvstore.multiput_mops_per_s",
    "kvstore.getrange_mpairs_per_s", "core.get_retry_per_mop",
    "core.multiget_retry_per_mkey",  "core.multiput_fallback_pct",
    "core.splits_per_kput",      "core.scan_nodes_per_scan",
    "core.scan_retry_pct",       "cache.hit_pct",
    "cache.invalidation_pct",    "cache.evictions_per_kop",
    "log.bytes_per_put",         "log.compression_ratio",
    "log.stalls_per_kput",       "log.bytes_per_user_byte",
    "log.flush_mb_per_s",        "log.bytes_per_flush",
    "log.syncs_per_s",           "bg.cpu_ns_per_op",
    "io.pwritev_per_s",          "io.fdatasync_per_s",
    "io.bytes_per_pwritev",      "checkpoint.mb_per_s",
    "recovery.entries_per_s",    "trace.overhead_pct"};

// Closed-loop throughput: the median slice's completed ops, per second.
struct Throughput {
  double kops = 0;
  double min_kops = 0, max_kops = 0;  // slowest and fastest slice
  uint64_t ops = 0;                   // all windows
  std::vector<double> slices;         // kops/s of each slice, window by window
};

// Over `n` closed-loop windows; window b's results are r[b * kGenThreads ...].
Throughput throughput(const ThreadResult* r, const PhaseSpec* p, unsigned n) {
  Throughput tp;
  for (unsigned b = 0; b < n; ++b) {
    double slice_s = static_cast<double>(p[b].end_ns - p[b].start_ns) / 1e9 / kSubWindows;
    for (unsigned i = 0; i < kSubWindows; ++i) {
      uint64_t ops = 0;
      for (unsigned t = 0; t < kGenThreads; ++t) {
        ops += r[b * kGenThreads + t].window_ops[i];
      }
      tp.ops += ops;
      tp.slices.push_back(static_cast<double>(ops) / slice_s / 1e3);
    }
  }
  tp.kops = median(tp.slices);
  tp.min_kops = *std::min_element(tp.slices.begin(), tp.slices.end());
  tp.max_kops = *std::max_element(tp.slices.begin(), tp.slices.end());
  return tp;
}

std::vector<LatSample> gather(const ThreadResult* r, std::vector<LatSample> ThreadResult::*field) {
  std::vector<LatSample> all;
  for (unsigned t = 0; t < kGenThreads; ++t) {
    all.insert(all.end(), (r[t].*field).begin(), (r[t].*field).end());
  }
  return all;
}

// ---- the served phases ------------------------------------------------------
template <typename S>
typename masstree::BasicServer<S>::Options server_options() {
  typename masstree::BasicServer<S>::Options o;
  o.workers = kServerWorkers;
  return o;
}

uint64_t from_now(double s) { return masstree::now_ns() + static_cast<uint64_t>(s * 1e9); }

// The generator threads get this long to connect before a window starts.
constexpr double kConnectS = 0.05;

PhaseSpec closed_phase(double warm_s, double window_s) {
  PhaseSpec p;
  p.start_ns = from_now(std::max(warm_s, kConnectS));
  p.end_ns = p.start_ns + static_cast<uint64_t>(window_s * 1e9);
  p.acked_from_ns = p.start_ns;
  return p;
}

PhaseSpec open_phase(double rate, double window_s) {
  PhaseSpec p;
  p.open = true;
  p.rate = rate;
  p.start_ns = from_now(kConnectS);
  p.end_ns = p.start_ns + static_cast<uint64_t>(window_s * 1e9);
  p.acked_from_ns = p.start_ns;
  return p;
}

// Sums the per-worker totals of `b` minus `a` (workers that appear only in
// `b` count from zero).
WorkerStats stats_delta(const std::vector<WorkerStats>& a, const std::vector<WorkerStats>& b) {
  WorkerStats d;
  for (const WorkerStats& wb : b) {
    const WorkerStats* wa = nullptr;
    for (const WorkerStats& x : a) {
      if (x.tid == wb.tid) {
        wa = &x;
      }
    }
    for (unsigned c = 0; c < kNumCalls; ++c) {
      d.calls[c] += wb.calls[c] - (wa ? wa->calls[c] : 0);
      d.ops[c] += wb.ops[c] - (wa ? wa->ops[c] : 0);
      d.ns[c] += wb.ns[c] - (wa ? wa->ns[c] : 0);
    }
    d.cross_conn_ops += wb.cross_conn_ops - (wa ? wa->cross_conn_ops : 0);
    for (unsigned c = 0; c < masstree::kNumCounters; ++c) {
      d.counters[c] += wb.counters[c] - (wa ? wa->counters[c] : 0);
    }
  }
  return d;
}

void write_chrome_trace(const std::string& path, const ThreadResult* gen,
                        const std::vector<std::pair<int, std::vector<CallSpan>>>& calls,
                        uint64_t base_ns) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return;
  }
  static constexpr const char* kKind[] = {"get16", "put16", "scan", "insert"};
  auto us = [&](uint64_t ns) { return static_cast<double>(ns - base_ns) / 1e3; };
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  auto sep = [&] {
    std::fputs(first ? "" : ",\n", f);
    first = false;
  };
  for (unsigned t = 0; t < kGenThreads; ++t) {
    int tid = gen[t].tid.load();
    for (const GenSpan& s : gen[t].spans) {
      sep();
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"client\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%llu,\"send_delay_us\":%.3f}}",
                   kKind[s.kind], tid, us(s.due_ns), us(s.done_ns) - us(s.due_ns),
                   static_cast<unsigned long long>(s.id), us(s.sent_ns) - us(s.due_ns));
    }
  }
  for (const auto& [tid, spans] : calls) {
    for (const CallSpan& s : spans) {
      sep();
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"kvstore\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"ops\":%u}}",
                   kCallNames[s.call], tid, us(s.start_ns),
                   static_cast<double>(s.dur_ns) / 1e3, s.ops);
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

struct Run {
  const WorkloadSpec& w;
  uint64_t seed;
  bool trace;
  Timing tm;
  std::string dir;  // this run's own directory: logs, checkpoint, set-up copies
  std::string trace_path;
};

GenShared make_gen_shared(const Run& run, const Loaded& L, const ValueCodec& codec) {
  const WorkloadSpec& w = run.w;
  const KeySet& keys = *L.keys;
  GenShared g;
  g.spec = &w;
  g.keys = &keys;
  g.codec = &codec;
  if (w.scans) {
    g.lex.resize(keys.size());
    for (size_t id = 0; id < keys.size(); ++id) {
      g.lex[id] = lex_code(keys.key(id).view());
    }
    std::sort(g.lex.begin(), g.lex.end());
  } else if (w.write_frac > 0) {
    g.owner.resize(keys.size());
    for (size_t id = 0; id < keys.size(); ++id) {
      g.owner[id] = static_cast<uint8_t>(ValueCodec::owner(keys.key(id).view()));
    }
    g.next_seq.assign(keys.size(), 0);
    for (uint32_t id : L.tail_ids) {
      g.next_seq[id] = 1;
    }
    g.acked_seq = g.next_seq;
  }
  g.fresh_acked.resize(kConns);
  g.fresh_next.assign(kConns, 0);
  for (unsigned t = 0; t < kGenThreads; ++t) {
    uint64_t s = run.seed * 1000003 + t;
    g.dists.push_back(w.zipf_theta > 0 ? masstree::SkewGen::zipf(keys.size(), w.zipf_theta, s)
                                       : masstree::SkewGen::uniform(keys.size(), s));
    g.rngs.emplace_back(s ^ 0x5eed);
  }
  return g;
}

// True if `key` holds exactly the value of write `seq`.
bool holds(Store& store, Store::Session& s, const ValueCodec& codec, std::string_view key,
           uint32_t seq) {
  std::vector<std::string> out;
  return store.get(key, {}, &out, s) && out.size() == 1 && codec.equals(key, seq, out[0]);
}

// Final-state oracle: every key a connection wrote holds exactly the value
// of its last acknowledged write. Returns the number of keys checked and
// adds mismatches to *bad.
uint64_t check_written(Store& store, const GenShared& g, uint64_t* bad) {
  Store::Session s(store, 0);
  uint64_t checked = 0;
  for (size_t id = 0; id < g.acked_seq.size(); ++id) {
    if (g.acked_seq[id] != 0) {
      ++checked;
      *bad += holds(store, s, *g.codec, g.keys->key(id).view(), g.acked_seq[id]) ? 0 : 1;
    }
  }
  for (const auto& fresh : g.fresh_acked) {
    for (uint32_t v : fresh) {
      ++checked;
      *bad += holds(store, s, *g.codec, format_key(v).view(), 1) ? 0 : 1;
    }
  }
  return checked;
}

// After the restart, every loaded key and every tail put must read back
// exactly. Returns the number of keys checked.
uint64_t check_recovered(Store& store, const Loaded& L, const ValueCodec& codec, uint64_t* bad) {
  std::vector<uint32_t> seq(L.keys->size(), 0);
  for (uint32_t id : L.tail_ids) {
    seq[id] = 1;
  }
  Store::Session s(store, 0);
  for (size_t id = 0; id < seq.size(); ++id) {
    *bad += holds(store, s, codec, L.keys->key(id).view(), seq[id]) ? 0 : 1;
  }
  return seq.size();
}

void print_line(const char* name, double v, const char* unit, const std::string& detail) {
  std::printf("%-28s %14.3f %-8s %s\n", name, v, unit, detail.c_str());
}

// An untraced run alternates closed and open loop this many times, so both
// kinds of window sample the whole measured span, and a drift of the host's
// speed during the run reaches both alike.
constexpr unsigned kBlocks = 4;

// --trace 0: closed-loop windows (throughput) alternating with open-loop
// windows (latency) on BasicServer<Store>, with the server's CPU time taken
// at every slice edge and the core clock between windows. Adds the windowed
// end-to-end metrics to `rep`.
void measure_untraced(const Run& run, Store& store, GenShared& g, Report& rep) {
  const WorkloadSpec& w = run.w;
  masstree::BasicServer<Store> srv(store, server_options<Store>());
  srv.start();
  const double block_s = run.tm.seconds / 2 / kBlocks;
  auto closed = std::make_unique<ThreadResult[]>(kBlocks * kGenThreads);
  auto open = std::make_unique<ThreadResult[]>(kBlocks * kGenThreads);
  PhaseSpec pc[kBlocks], po[kBlocks];
  Store::LogTotals lt0;
  HostCpu h0, h1;
  ServerCpu busy_cpu, open_cpu;
  std::vector<double> ghz;  // sampled between windows, while the server idles
  for (unsigned b = 0; b < kBlocks; ++b) {
    ghz.push_back(clock_ghz());
    // Only the first window warms up; the later ones fill their pipelines
    // while connecting. Log bytes and acked bytes count from the first.
    pc[b] = closed_phase(b == 0 ? run.tm.warm_s : 0, block_s);
    pc[b].acked_from_ns = pc[0].start_ns;
    ThreadResult* rc = closed.get() + b * kGenThreads;
    run_phase(g, srv.port(), pc[b], rc, [&](unsigned i) {
      busy_cpu.edge(i, rc);
      if (b == 0 && i == 0) {
        lt0 = store.log_totals();
        h0 = host_cpu();
      }
    });
    ghz.push_back(clock_ghz());
    po[b] = open_phase(w.open_rate, block_s);
    ThreadResult* ro = open.get() + b * kGenThreads;
    run_phase(g, srv.port(), po[b], ro, [&](unsigned i) {
      open_cpu.edge(i, ro);
      if (b == kBlocks - 1 && i == kSubWindows) {
        h1 = host_cpu();
      }
    });
  }
  ghz.push_back(clock_ghz());
  srv.stop();
  store.sync_logs();
  Store::LogTotals lt1 = store.log_totals();
  rep.absorb(closed.get(), kBlocks * kGenThreads);
  rep.absorb(open.get(), kBlocks * kGenThreads);

  const Throughput tp = throughput(closed.get(), pc, kBlocks);
  // Per-slice percentiles of every open-loop window, and their median.
  std::vector<LatSample> rl, wl;
  auto pct = [&](std::vector<LatSample> ThreadResult::*field, double q) {
    std::vector<double> per;
    for (unsigned b = 0; b < kBlocks; ++b) {
      slice_percentiles_us(gather(open.get() + b * kGenThreads, field), po[b].start_ns,
                           po[b].end_ns, q, &per);
    }
    return median(per);
  };
  double open_s = 0;
  uint64_t sent = 0, user_bytes = 0;
  for (unsigned b = 0; b < kBlocks; ++b) {
    open_s += static_cast<double>(po[b].end_ns - po[b].start_ns) / 1e9;
    const ThreadResult* r = open.get() + b * kGenThreads;
    std::vector<LatSample> rb = gather(r, &ThreadResult::read_lat);
    std::vector<LatSample> wb = gather(r, &ThreadResult::write_lat);
    rl.insert(rl.end(), rb.begin(), rb.end());
    wl.insert(wl.end(), wb.begin(), wb.end());
    for (unsigned t = 0; t < kGenThreads; ++t) {
      sent += r[t].sent_reqs;
      user_bytes += closed[b * kGenThreads + t].acked_user_bytes + r[t].acked_user_bytes;
    }
  }
  const double read_p50 = pct(&ThreadResult::read_lat, 0.50);
  // Server cycles per op completed, slice by slice. Other guests only ever
  // add cycles (cache, memory and core contention), so the lower quartile
  // of the slices is the steadier estimate of the program's own cost.
  const double clock = median(ghz);
  auto cycles_per_op = [&](const ServerCpu& cpu, const ThreadResult* r) {
    std::vector<double> per;
    for (size_t s = 0; s < cpu.slice_ns.size(); ++s) {
      uint64_t ops = 0;
      for (unsigned t = 0; t < kGenThreads; ++t) {
        ops += r[s / kSubWindows * kGenThreads + t].window_ops[s % kSubWindows];
      }
      if (ops > 0) {
        per.push_back(static_cast<double>(cpu.slice_ns[s]) * clock / static_cast<double>(ops));
      }
    }
    return per;
  };
  const std::vector<double> busy_slices = cycles_per_op(busy_cpu, closed.get());
  const std::vector<double> open_slices = cycles_per_op(open_cpu, open.get());
  const double busy_cycles = quantile(busy_slices, 0.25);
  const double open_cycles = quantile(open_slices, 0.25);
  char detail[160];
  std::snprintf(detail, sizeof(detail),
                "closed loop; lower quartile of %zu slices (median %.0f); clock %.3f GHz",
                busy_slices.size(), median(busy_slices), clock);
  print_line("server_cycles_per_op", busy_cycles, "cycles", detail);
  std::snprintf(detail, sizeof(detail),
                "open loop; lower quartile of %zu slices (median %.0f); clock %.3f..%.3f GHz",
                open_slices.size(), median(open_slices), *std::min_element(ghz.begin(), ghz.end()),
                *std::max_element(ghz.begin(), ghz.end()));
  print_line("server_cycles_per_op_at_rate", open_cycles, "cycles", detail);
  std::snprintf(detail, sizeof(detail),
                "closed loop, %u conns x depth %u, %llu ops; slices %.0f..%.0f", kConns,
                kClosedDepth, static_cast<unsigned long long>(tp.ops), tp.min_kops, tp.max_kops);
  print_line("throughput_kops", tp.kops, "kops/s", detail);
  std::snprintf(detail, sizeof(detail), "open loop: %.0f req/s offered, %.0f sent, %zu samples",
                w.open_rate, static_cast<double>(sent) / open_s, rl.size());
  print_line("read_p50_us", read_p50, "us", detail);
  print_line("read_p99_us", pct(&ThreadResult::read_lat, 0.99), "us",
             "median of " + std::to_string(kBlocks * kSubWindows) + " slice p99s; not gated (README)");
  print_line("read_p999_us", overall_percentile_us(rl, 0.999), "us",
             "all open-loop windows, information only");
  if (!wl.empty()) {
    print_line("write_p50_us", pct(&ThreadResult::write_lat, 0.50), "us",
               std::to_string(wl.size()) + " samples");
    print_line("write_p99_us", pct(&ThreadResult::write_lat, 0.99), "us", "");
    print_line("log_bytes_per_user_byte",
               ratio(static_cast<double>(lt1.flush_bytes - lt0.flush_bytes),
                     static_cast<double>(user_bytes)),
               "ratio", "flushed log bytes / acked key+value bytes");
  }
  print_line("host_steal_pct", steal_pct(h0, h1), "%",
             "CPU the hypervisor gave other guests while measuring; see README");

  rep.add("server_cycles_per_op", busy_cycles, "cycles");
  rep.add("server_cycles_per_op_at_rate", open_cycles, "cycles");
}

// --trace 1: one closed loop on BasicServer<TracedStore> with tracing on in
// even slices and off in odd ones, so traced and untraced throughput
// interleave every slice and host drift cancels out of the overhead; the
// per-layer numbers sum the traced slices. Then an open loop with the I/O
// seam tracing syscalls. Adds the per-layer metrics to `rep`.
void measure_traced(const Run& run, TracedStore& store, GenShared& g, const Loaded& L,
                    masstree::io::FaultPlan& io_plan, Report& rep) {
  ThreadResult closed[kGenThreads], open[kGenThreads];
  std::map<int, uint64_t> cpu[kSubWindows + 1];
  std::vector<WorkerStats> st0, st1;
  Store::LogTotals lt0, lt1;
  PhaseSpec pb = closed_phase(run.tm.warm_s, run.tm.seconds / 2);
  pb.spans = true;
  PhaseSpec pc;
  {
    masstree::BasicServer<TracedStore> srv(store, server_options<TracedStore>());
    srv.start();
    run_phase(g, srv.port(), pb, closed, [&](unsigned i) {
      cpu[i] = task_cpu_ns();
      if (i == 0) {
        st0 = store.snapshot();
        lt0 = store.log_totals();
      }
      if (i == kSubWindows) {
        st1 = store.snapshot();
        lt1 = store.log_totals();
      }
      store.set_tracing(i < kSubWindows && i % 2 == 0);
    });
    pc = open_phase(run.w.open_rate, run.tm.seconds / 2);
    run_phase(g, srv.port(), pc, open, [&](unsigned i) {
      if (i == 0) {
        masstree::io::arm(&io_plan);
      } else if (i == kSubWindows) {
        masstree::io::disarm();
      }
    });
  }
  rep.absorb(closed, kGenThreads);
  rep.absorb(open, kGenThreads);
  if (!run.trace_path.empty()) {
    write_chrome_trace(run.trace_path, closed, store.spans(), pb.start_ns);
  }

  const double window_s = static_cast<double>(pb.end_ns - pb.start_ns) / 1e9;
  const double traced_s = window_s / 2;
  const double open_s = static_cast<double>(pc.end_ns - pc.start_ns) / 1e9;
  const Throughput tp = throughput(closed, &pb, 1);
  std::vector<double> on, off;
  double ops = 0;  // completed in traced slices
  for (unsigned i = 0; i < kSubWindows; ++i) {
    (i % 2 == 0 ? on : off).push_back(tp.slices[i]);
    ops += i % 2 == 0 ? tp.slices[i] * 1e3 * window_s / kSubWindows : 0;
  }
  const double traced_kops = median(on), untraced_kops = median(off);

  std::set<int> workers, gens, bg;
  for (const WorkerStats& ws : st1) {
    workers.insert(ws.tid);
  }
  for (unsigned t = 0; t < kGenThreads; ++t) {
    gens.insert(closed[t].tid.load());
  }
  for (const auto& entry : cpu[kSubWindows]) {
    if (!workers.count(entry.first) && !gens.count(entry.first)) {
      bg.insert(entry.first);
    }
  }
  auto traced_cpu = [&](const std::set<int>& tids) {
    uint64_t sum = 0;
    for (unsigned i = 0; i < kSubWindows; i += 2) {
      sum += cpu_delta(cpu[i], cpu[i + 1], tids);
    }
    return static_cast<double>(sum);
  };
  const double worker_cpu = traced_cpu(workers);
  // Slots only ever count traced calls, so the whole-window delta is the
  // traced slices' total.
  const WorkerStats d = stats_delta(st0, st1);
  auto ctr = [&](masstree::Counter c) {
    return static_cast<double>(d.counters[static_cast<unsigned>(c)]);
  };
  double store_ns = 0, inline_ops = 0;
  for (unsigned c = 0; c < kNumCalls; ++c) {
    store_ns += static_cast<double>(d.ns[c]);
  }
  for (Call c : {kGet, kPutChecked, kRemoveChecked, kGetrange}) {
    inline_ops += static_cast<double>(d.calls[c]);
  }
  const double mg_keys = static_cast<double>(d.ops[kMultigetRows]);
  const double mp_ops = static_cast<double>(d.ops[kMultiput]);
  const double puts = mp_ops + static_cast<double>(d.calls[kPutChecked]);
  const double gets = mg_keys + static_cast<double>(d.calls[kGet]);
  const double scans = static_cast<double>(d.calls[kGetrange]);
  const double lookups = ctr(masstree::Counter::kCacheHits) + ctr(masstree::Counter::kCacheMisses);
  const double appends = ctr(masstree::Counter::kLogAppends);
  uint64_t user_bytes = 0;
  for (unsigned t = 0; t < kGenThreads; ++t) {
    user_bytes += closed[t].acked_user_bytes;
  }
  uint64_t pwritevs = 0, fsyncs = 0, pwritev_bytes = 0;
  for (const masstree::io::SyscallRecord& r : io_plan.trace_log()) {
    if (std::strcmp(r.name, "pwritev") == 0) {
      ++pwritevs;
      pwritev_bytes += r.bytes;
    } else if (std::strcmp(r.name, "fdatasync") == 0) {
      ++fsyncs;
    }
  }
  // The log is not traced, so its rates use the whole window.
  const double flush_bytes = static_cast<double>(lt1.flush_bytes - lt0.flush_bytes);

  rep.add("client.cpu_ns_per_op", ratio(traced_cpu(gens), ops), "ns");
  rep.add("client.late_p99_us",
          windowed_percentile_us(gather(open, &ThreadResult::late), pc.start_ns, pc.end_ns, 0.99),
          "us");
  rep.add("net.worker_cpu_ns_per_op", ratio(worker_cpu, ops), "ns");
  rep.add("net.self_ns_per_op", ratio(worker_cpu - store_ns, ops), "ns");
  rep.add("net.worker_busy_pct", 100 * ratio(worker_cpu, traced_s * 1e9 * kServerWorkers), "%");
  rep.add("net.read_batch_keys", ratio(mg_keys, static_cast<double>(d.calls[kMultigetRows])), "count");
  rep.add("net.write_batch_ops", ratio(mp_ops, static_cast<double>(d.calls[kMultiput])), "count");
  rep.add("net.cross_conn_pct", 100 * ratio(static_cast<double>(d.cross_conn_ops), mp_ops), "%");
  rep.add("net.inline_ops_pct", 100 * ratio(inline_ops, inline_ops + mg_keys + mp_ops), "%");
  rep.add("kvstore.ns_per_op", ratio(store_ns, ops), "ns");
  rep.add("kvstore.multiget_mkeys_per_s",
          1e3 * ratio(mg_keys, static_cast<double>(d.ns[kMultigetRows])), "Mkeys/s");
  rep.add("kvstore.multiput_mops_per_s", 1e3 * ratio(mp_ops, static_cast<double>(d.ns[kMultiput])),
          "Mops/s");
  rep.add("kvstore.getrange_mpairs_per_s",
          1e3 * ratio(static_cast<double>(d.ops[kGetrange]), static_cast<double>(d.ns[kGetrange])),
          "Mpairs/s");
  rep.add("core.get_retry_per_mop",
          1e6 * ratio(ctr(masstree::Counter::kGetRetryFromRoot) +
                          ctr(masstree::Counter::kGetRetryLocal),
                      gets),
          "count");
  rep.add("core.multiget_retry_per_mkey",
          1e6 * ratio(ctr(masstree::Counter::kMultigetRetry), mg_keys), "count");
  rep.add("core.multiput_fallback_pct",
          100 * ratio(ctr(masstree::Counter::kMultiputRetries), mp_ops), "%");
  rep.add("core.splits_per_kput", 1e3 * ratio(ctr(masstree::Counter::kPutSplit), puts), "count");
  rep.add("core.scan_nodes_per_scan", ratio(ctr(masstree::Counter::kScanNodes), scans), "count");
  rep.add("core.scan_retry_pct",
          100 * ratio(ctr(masstree::Counter::kScanRetries), ctr(masstree::Counter::kScanNodes)),
          "%");
  rep.add("cache.hit_pct", 100 * ratio(ctr(masstree::Counter::kCacheHits), lookups), "%");
  rep.add("cache.invalidation_pct",
          100 * ratio(ctr(masstree::Counter::kCacheInvalidations), lookups), "%");
  rep.add("cache.evictions_per_kop", 1e3 * ratio(ctr(masstree::Counter::kCacheEvictions), ops),
          "count");
  rep.add("log.bytes_per_put", ratio(ctr(masstree::Counter::kLogBytesPhysical), appends), "B");
  rep.add("log.compression_ratio",
          ratio(ctr(masstree::Counter::kLogBytesLogical), ctr(masstree::Counter::kLogBytesPhysical)),
          "ratio");
  rep.add("log.stalls_per_kput", 1e3 * ratio(ctr(masstree::Counter::kLogStalls), appends), "count");
  rep.add("log.bytes_per_user_byte", ratio(flush_bytes, static_cast<double>(user_bytes)), "ratio");
  rep.add("log.flush_mb_per_s", flush_bytes / window_s / 1e6, "MB/s");
  rep.add("log.bytes_per_flush",
          ratio(flush_bytes, static_cast<double>(lt1.flushes - lt0.flushes)), "B");
  rep.add("log.syncs_per_s", static_cast<double>(lt1.syncs - lt0.syncs) / window_s, "1/s");
  rep.add("bg.cpu_ns_per_op", ratio(traced_cpu(bg), ops), "ns");
  rep.add("io.pwritev_per_s", static_cast<double>(pwritevs) / open_s, "1/s");
  rep.add("io.fdatasync_per_s", static_cast<double>(fsyncs) / open_s, "1/s");
  rep.add("io.bytes_per_pwritev",
          ratio(static_cast<double>(pwritev_bytes), static_cast<double>(pwritevs)), "B");
  rep.add("checkpoint.mb_per_s",
          ratio(static_cast<double>(L.checkpoint_bytes) / 1e6, L.checkpoint_s), "MB/s");
  rep.add("recovery.entries_per_s",
          ratio(static_cast<double>(L.recovered_entries), L.recover_s), "1/s");
  rep.add("trace.overhead_pct", 100 * ratio(untraced_kops - traced_kops, untraced_kops), "%");

  print_line("throughput_kops", untraced_kops, "kops/s", "untraced slices");
  print_line("traced_kops", traced_kops, "kops/s", "traced slices");
  for (const Metric& m : rep.metrics) {
    print_line(m.name.c_str(), m.value, m.unit.c_str(), "");
  }
}

Report run_workload(const Run& run) {
  const WorkloadSpec& w = run.w;
  const double S = run.tm.seconds;
  Report rep;
  uint64_t rss0 = rss_bytes();
  // Declared before the store so it outlives every logging thread that
  // could still be inside a traced syscall.
  masstree::io::FaultPlan io_plan;
  io_plan.trace = true;

  ValueCodec codec(w.value_bytes, w.compressible, run.seed);
  std::vector<double> setups;
  for (unsigned i = 1; i < run.tm.setup_runs; ++i) {
    setups.push_back(
        forked_setup(w, run.seed, run.dir + "/setup-" + std::to_string(i), codec));
  }
  Loaded L = setup(w, run.seed, run.dir, codec);
  setups.push_back(L.setup_s);
  TracedStore& store = *L.store;
  Store& plain = store;
  const double nkeys = static_cast<double>(L.keys->size());

  std::printf("kvbench workload=%s seed=%llu seconds=%.1f trace=%d keys=%zu value_bytes=%u\n",
              w.name, static_cast<unsigned long long>(run.seed), S, run.trace ? 1 : 0,
              L.keys->size(), w.value_bytes);
  std::string samples;
  for (double s : setups) {
    samples += (samples.empty() ? "" : " ") + std::to_string(s);
  }
  double setup_s = median(setups);
  double mem_per_key = static_cast<double>(L.rss_loaded - std::min(L.rss_loaded, rss0)) / nkeys;
  print_line("setup_s", setup_s, "s", "median of " + std::to_string(setups.size()) + ": " + samples);
  print_line("mem_bytes_per_key", mem_per_key, "B", "RSS growth over the load / keys");

  if (w.tail_puts > 0) {
    uint64_t bad = 0;
    rep.attempted += check_recovered(plain, L, codec, &bad);
    rep.failed += bad;
    if (bad != 0) {
      rep.errors.push_back(std::to_string(bad) + " keys wrong after recovery");
    }
    print_line("recover_s", L.recover_s, "s",
               std::to_string(L.recovered_entries) + " entries; restart check: " +
                   std::to_string(bad) + " wrong of " + std::to_string(L.keys->size()));
  }

  GenShared g = make_gen_shared(run, L, codec);
  if (run.trace) {
    measure_traced(run, store, g, L, io_plan, rep);
  } else {
    measure_untraced(run, plain, g, rep);
    rep.add("setup_s", setup_s, "s");
    rep.add("mem_bytes_per_key", mem_per_key, "B");
  }

  uint64_t bad = 0;
  uint64_t checked = check_written(plain, g, &bad);
  rep.attempted += checked;
  rep.failed += bad;
  if (bad != 0) {
    rep.errors.push_back(std::to_string(bad) + " written keys hold the wrong value");
  }
  print_line("failed_ops_pct", 100 * ratio(static_cast<double>(rep.failed), static_cast<double>(rep.attempted)),
             "%", std::to_string(rep.failed) + " of " + std::to_string(rep.attempted) +
                      " ops and checks (" + std::to_string(checked) + " keys checked after the run)");
  for (const std::string& e : rep.errors) {
    std::printf("error: %s\n", e.c_str());
  }
  return rep;
}

void print_json(const Report& rep) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              rep.failed == 0 ? "true" : "false", static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Removes a run's directory however the run ends.
struct RunDir {
  std::string path;
  explicit RunDir(std::string p) : path(std::move(p)) {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
    std::filesystem::create_directories(path);
  }
  ~RunDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
};

bool has_all(const Report& rep, const std::vector<std::string>& names) {
  for (const std::string& n : names) {
    bool found = false;
    for (const Metric& m : rep.metrics) {
      found = found || m.name == n;
    }
    if (!found) {
      std::printf("smoke: metric %s missing\n", n.c_str());
      return false;
    }
  }
  return true;
}

// Tier-1 smoke: every workload at 50k keys with 2 s of windows, then one
// traced pass; every metric must be present and every check must pass.
int smoke(const std::string& dir) {
  bool ok = true;
  Timing tm{2.0, 0.3, 1};
  auto one = [&](const WorkloadSpec& full, bool trace) {
    WorkloadSpec w = full;
    w.keys = 50000;
    w.tail_puts = std::min<uint64_t>(w.tail_puts, 10000);
    RunDir run_dir(dir + "/smoke-" + w.name);
    Run run{w, 1, trace, tm, run_dir.path, ""};
    Report rep = run_workload(run);
    bool pass = rep.failed == 0 && rep.attempted > 0 && has_all(rep, trace ? kPerLayer : kEndToEnd);
    std::printf("smoke %s%s: %s\n", w.name, trace ? " (traced)" : "", pass ? "ok" : "FAILED");
    ok = ok && pass;
  };
  for (const WorkloadSpec& w : kWorkloads) {
    one(w, false);
  }
  one(*find_workload("ycsb_a_1kb"), true);
  std::printf("smoke: %s\n", ok ? "all checks passed" : "FAILED");
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: kvbench --workload NAME --seed N --seconds S --trace 0|1 [--dir DIR]\n"
               "       kvbench --smoke [--dir DIR]\n"
               "workloads:");
  for (const WorkloadSpec& w : kWorkloads) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  std::string workload, dir = ".";
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke_mode = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(a + " needs a value");
      }
      return argv[++i];
    };
    if (a == "--workload") {
      workload = val();
    } else if (a == "--seed") {
      seed = std::stoull(val());
    } else if (a == "--seconds") {
      seconds = std::stod(val());
    } else if (a == "--trace") {
      trace = std::stoi(val());
    } else if (a == "--dir") {
      dir = val();
    } else if (a == "--smoke") {
      smoke_mode = true;
    } else {
      return usage();
    }
  }
  if (smoke_mode) {
    return smoke(dir);
  }
  const WorkloadSpec* w = find_workload(workload);
  if (w == nullptr || seconds <= 0 || (trace != 0 && trace != 1)) {
    return usage();
  }
  RunDir run_dir(dir + "/run-" + std::to_string(::getpid()));
  Timing tm{seconds, std::min(3.0, 0.2 * seconds), kSetupRuns};
  Run run{*w, seed, trace == 1, tm, run_dir.path,
          trace == 1 ? dir + "/trace-" + w->name + ".json" : ""};
  Report rep = run_workload(run);
  print_json(rep);
  return rep.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace kvbench

int main(int argc, char** argv) {
  try {
    return kvbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kvbench: %s\n", e.what());
    return 1;
  }
}
