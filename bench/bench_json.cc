// JSON-emitting throughput runner: the repo's perf trajectory anchor.
//
//   bench_json [output.json]
//
// Measures the headline Masstree throughputs every PR must not regress —
// uniform point gets, software-pipelined batched gets (multiget, §4.8),
// snapshot-batched range scans (getrange §3, scan_mops as pairs/s at
// scan_len), fresh-key inserts, uniform updates, a YCSB-A-style 50/50
// get/update mix over a Zipfian (theta=0.99, scrambled) popularity
// distribution, a YCSB-C-style read-only Zipf sweep with the hot-key record
// cache attached (zipf_get_mops/cache_hit_pct at cache_capacity entries),
// and served-over-the-wire gets through the §6.1 epoll event-loop server
// (net_get_mops at net_conns pipelined connections) — and
// writes them as one JSON object (stdout if no path). Workload scale follows
// the MT_BENCH_* environment knobs of bench/common.h.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "bench/common.h"
#include "bench/net_driver.h"
#include "core/tree.h"
#include "kvstore/store.h"
#include "net/server.h"
#include "util/rand.h"
#include "workload/keys.h"

namespace {

// One logging-overhead duel (§5): fresh-key puts into a logged and an
// unlogged Store, chunk-interleaved on ONE thread with fig11_skew's leg
// discipline — an untimed warm leg, then unlogged-logged-logged-unlogged so
// neither mode systematically runs on fresher data, with the verdict taken
// as the MEDIAN per-pair ratio. A naive best-of-N of two separate runs
// (the old scheme) is noise-dominated on small virtualized hosts: two
// identical passes can disagree by more than the <10% budget being
// measured, which is how the metric once read -5.8%.
struct LogDuelResult {
  double logged_mops = 0.0;
  double unlogged_mops = 0.0;
  double overhead_pct = 0.0;
  // Logged-store counter deltas (v2 wire accounting).
  uint64_t appends = 0;
  uint64_t physical_bytes = 0;
  uint64_t logical_bytes = 0;
  uint64_t compressed_records = 0;
  // Arena bytes per key of the unlogged store: its session's span growth
  // (x 64 KB) over the duel, divided by the keys it put.
  double unlogged_bytes_per_key = 0.0;

  double bytes_per_op() const {
    return appends == 0 ? 0.0
                        : static_cast<double>(physical_bytes) /
                              static_cast<double>(appends);
  }
  double compression_ratio() const {
    return physical_bytes == 0
               ? 1.0
               : static_cast<double>(logical_bytes) /
                     static_cast<double>(physical_bytes);
  }
};

LogDuelResult log_duel(const std::string& log_dir, const std::string& value,
                       uint64_t nops, uint64_t key_tag) {
  using namespace masstree;
  std::filesystem::remove_all(log_dir);
  std::filesystem::create_directories(log_dir);
  Store unlogged;
  Store::Options lopt;
  lopt.log_dir = log_dir;
  Store logged(lopt);
  Store::Session su(unlogged, 0);
  Store::Session sl(logged, 0);
  Store* stores[2] = {&unlogged, &logged};
  Store::Session* sessions[2] = {&su, &sl};

  constexpr uint64_t kChunk = 4096;
  // Warm leg first, then unlogged-logged-logged-unlogged timed legs.
  static constexpr int kLegMode[] = {1, 0, 1, 1, 0};
  uint64_t pairs = std::max<uint64_t>(nops / kChunk, 2);
  uint64_t next_key[2] = {0, 0};  // per-mode keyspace: both trees grow alike
  double total_secs[2] = {0.0, 0.0};
  uint64_t total_ops[2] = {0, 0};
  std::vector<double> ratios;
  ratios.reserve(pairs);
  uint64_t a0 = sl.ti().counters().get(Counter::kLogAppends);
  uint64_t p0 = sl.ti().counters().get(Counter::kLogBytesPhysical);
  uint64_t l0 = sl.ti().counters().get(Counter::kLogBytesLogical);
  uint64_t c0 = sl.ti().counters().get(Counter::kLogCompressedRecords);
  uint64_t spans0 = su.ti().arena().stats().spans;
  for (uint64_t i = 0; i < pairs; ++i) {
    double secs[2] = {0.0, 0.0};
    for (int leg = 0; leg < 5; ++leg) {
      int mode = kLegMode[leg];
      Store& st = *stores[mode];
      Store::Session& ss = *sessions[mode];
      auto t0 = std::chrono::steady_clock::now();
      for (uint64_t k = 0; k < kChunk; ++k) {
        st.put(decimal_key(key_tag + (static_cast<uint64_t>(mode) << 62) +
                           next_key[mode]++),
               {{0, value}}, ss);
      }
      if (leg > 0) {
        double dt = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        secs[mode] += dt;
        total_secs[mode] += dt;
        total_ops[mode] += kChunk;
      }
    }
    if (i > 0) {  // pair 0 additionally warms both stores
      ratios.push_back(secs[0] / secs[1]);  // >1: logged side faster
    }
  }
  LogDuelResult r;
  r.appends = sl.ti().counters().get(Counter::kLogAppends) - a0;
  r.physical_bytes = sl.ti().counters().get(Counter::kLogBytesPhysical) - p0;
  r.logical_bytes = sl.ti().counters().get(Counter::kLogBytesLogical) - l0;
  r.compressed_records =
      sl.ti().counters().get(Counter::kLogCompressedRecords) - c0;
  r.unlogged_bytes_per_key =
      static_cast<double>((su.ti().arena().stats().spans - spans0) * internal::kSpanSize) /
      static_cast<double>(next_key[0]);
  std::sort(ratios.begin(), ratios.end());
  double med = ratios[ratios.size() / 2];
  r.overhead_pct = (1.0 / med - 1.0) * 100.0;
  r.unlogged_mops = total_secs[0] > 0.0
                        ? static_cast<double>(total_ops[0]) / total_secs[0] / 1e6
                        : 0.0;
  r.logged_mops = total_secs[1] > 0.0
                      ? static_cast<double>(total_ops[1]) / total_secs[1] / 1e6
                      : 0.0;
  std::filesystem::remove_all(log_dir);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace masstree;
  using namespace masstree::bench;
  Env e = env(1000000);
  print_header("bench_json: throughput metrics for BENCH_micro.json", e);

  ThreadContext setup;
  Tree tree(setup);

  // Timed load phase doubles as the insert metric: every thread claims fresh
  // key chunks, so the tree keeps splitting like a real ingest.
  std::atomic<uint64_t> next{0};
  double insert_mops = timed_mops(e.threads, e.secs, [&](unsigned, const std::atomic<bool>& stop) {
    thread_local ThreadContext ti;
    uint64_t ops = 0, old;
    while (!stop.load(std::memory_order_relaxed)) {
      uint64_t chunk = next.fetch_add(256, std::memory_order_relaxed);
      for (uint64_t i = chunk; i < chunk + 256; ++i) {
        tree.insert(decimal_key(i), i, &old, ti);
        ++ops;
      }
    }
    return ops;
  });
  // Top up to the full key count so the read phases cover e.keys keys.
  {
    ThreadContext ti;
    uint64_t old;
    for (uint64_t i = next.load(); i < e.keys; ++i) {
      tree.insert(decimal_key(i), i, &old, ti);
    }
  }
  uint64_t loaded = std::max(next.load(), e.keys);

  double get_uniform_mops =
      timed_mops(e.threads, e.secs, [&](unsigned t, const std::atomic<bool>& stop) {
        thread_local ThreadContext ti;
        Rng rng(100 + t);
        uint64_t ops = 0, v;
        while (!stop.load(std::memory_order_relaxed)) {
          for (int i = 0; i < 256; ++i) {
            tree.get(decimal_key(rng.next_range(loaded)), &v, ti);
            ++ops;
          }
        }
        return ops;
      });

  double update_mops =
      timed_mops(e.threads, e.secs, [&](unsigned t, const std::atomic<bool>& stop) {
        thread_local ThreadContext ti;
        Rng rng(200 + t);
        uint64_t ops = 0, old;
        while (!stop.load(std::memory_order_relaxed)) {
          for (int i = 0; i < 256; ++i) {
            uint64_t k = rng.next_range(loaded);
            tree.insert(decimal_key(k), k ^ ops, &old, ti);
            ++ops;
          }
        }
        return ops;
      });

  // Batched gets through the §4.8 software-pipelined multiget: same uniform
  // key distribution as the get phase, issued kMultigetBatch keys at a time
  // so the cursors' DRAM fetches overlap.
  constexpr size_t kMultigetBatch = 16;
  double multiget_mops =
      timed_mops(e.threads, e.secs, [&](unsigned t, const std::atomic<bool>& stop) {
        thread_local ThreadContext ti;
        Rng rng(500 + t);
        uint64_t ops = 0;
        std::string keybuf[kMultigetBatch];
        Tree::GetRequest reqs[kMultigetBatch];
        while (!stop.load(std::memory_order_relaxed)) {
          for (size_t i = 0; i < kMultigetBatch; ++i) {
            keybuf[i] = decimal_key(rng.next_range(loaded));
            reqs[i] = Tree::GetRequest{keybuf[i], 0, false};
          }
          tree.multiget(std::span<Tree::GetRequest>(reqs, kMultigetBatch), ti);
          ops += kMultigetBatch;
        }
        return ops;
      });

  // Batched writes through the §4.8 write-side pipeline: multiput vs
  // sequential single puts, uniform overwrites on ONE thread,
  // chunk-interleaved with fig11's leg discipline (warm leg, then
  // seq-batched-batched-seq so neither mode systematically runs on a
  // warmer cache) and the verdict taken as the MEDIAN per-pair ratio —
  // small-host noise would otherwise swamp the ~1.4x being measured.
  constexpr size_t kMultiputBatch = 16;
  double multiput_mops, put_seq_mops, multiput_speedup;
  {
    constexpr uint64_t kChunk = 4096;
    static constexpr int kLegMode[] = {1, 0, 1, 1, 0};  // 1 = multiput leg
    uint64_t mp_ops = env_u64("MT_BENCH_MULTIPUT_OPS", 400000);
    uint64_t pairs = std::max<uint64_t>(mp_ops / kChunk, 2);
    ThreadContext ti;
    Rng rng(900);
    std::string keybuf[kMultiputBatch];
    Tree::PutRequest reqs[kMultiputBatch];
    double total_secs[2] = {0.0, 0.0};
    uint64_t total_ops[2] = {0, 0};
    std::vector<double> ratios;
    ratios.reserve(pairs);
    for (uint64_t p = 0; p < pairs; ++p) {
      double secs[2] = {0.0, 0.0};
      for (int leg = 0; leg < 5; ++leg) {
        int mode = kLegMode[leg];
        auto t0 = std::chrono::steady_clock::now();
        if (mode == 0) {
          uint64_t old;
          for (uint64_t k = 0; k < kChunk; ++k) {
            tree.insert(decimal_key(rng.next_range(loaded)), k, &old, ti);
          }
        } else {
          for (uint64_t k = 0; k < kChunk; k += kMultiputBatch) {
            for (size_t i = 0; i < kMultiputBatch; ++i) {
              keybuf[i] = decimal_key(rng.next_range(loaded));
              reqs[i] = Tree::PutRequest{keybuf[i], k + i};
            }
            tree.multiput(std::span<Tree::PutRequest>(reqs, kMultiputBatch), ti);
          }
        }
        if (leg > 0) {
          double dt = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
          secs[mode] += dt;
          total_secs[mode] += dt;
          total_ops[mode] += kChunk;
        }
      }
      if (p > 0) {  // pair 0 additionally warms both paths
        ratios.push_back(secs[0] / secs[1]);  // >1: batched side faster
      }
    }
    std::sort(ratios.begin(), ratios.end());
    multiput_speedup = ratios[ratios.size() / 2];
    put_seq_mops = total_secs[0] > 0.0
                       ? static_cast<double>(total_ops[0]) / total_secs[0] / 1e6
                       : 0.0;
    multiput_mops = total_secs[1] > 0.0
                        ? static_cast<double>(total_ops[1]) / total_secs[1] / 1e6
                        : 0.0;
    std::printf("multiput duel (batch=%zu, 1 thread): seq %.3f Mops, batched "
                "%.3f Mops, median speedup %.2fx\n",
                kMultiputBatch, put_seq_mops, multiput_mops, multiput_speedup);
  }

  // Range scans (§3 getrange) through the snapshot-batched ScanCursor:
  // random start keys, kScanLen pairs per scan, next-border prefetch on.
  // Reported as pairs/second.
  constexpr size_t kScanLen = 100;
  double scan_mops =
      timed_mops(e.threads, e.secs, [&](unsigned t, const std::atomic<bool>& stop) {
        thread_local ThreadContext ti;
        Rng rng(600 + t);
        uint64_t pairs = 0, sink = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          pairs += tree.scan(
              decimal_key(rng.next_range(loaded)), kScanLen,
              [&](std::string_view k, uint64_t v) {
                sink += v + k.size();
                return true;
              },
              ti);
        }
        // Keep the emitted pairs observable so the scan isn't optimized out.
        asm volatile("" : : "r"(sink) : "memory");
        return pairs;
      });

  // Write-side persistence cost (§5): chunk-interleaved logged-vs-unlogged
  // put duels (see log_duel above). The 8-byte-value mix is the paper's
  // <10% overhead trajectory metric and also the wire-volume one:
  // log_bytes_per_op comes from the logged store's kLogBytes* counters
  // (run_bench.sh caps it at 35 B/op). The second duel uses
  // 1 KiB JSON-ish values — above the compression threshold — so its
  // overhead and compression ratio exercise the lz path end to end.
  std::string log_dir = std::filesystem::temp_directory_path().string() + "/benchjson-logs";
  uint64_t duel_ops = env_u64("MT_BENCH_LOG_DUEL_OPS", 300000);
  LogDuelResult mix = log_duel(log_dir, "12345678", duel_ops, /*key_tag=*/0);
  double put_unlogged_mops = mix.unlogged_mops;
  double put_logged_mops = mix.logged_mops;
  double log_overhead_pct = mix.overhead_pct;
  std::printf("log duel (8B values): overhead %.2f%%, %.1f bytes/op\n",
              mix.overhead_pct, mix.bytes_per_op());

  std::string value_1kb;
  for (int f = 0; value_1kb.size() < 1024; ++f) {
    value_1kb += "\"field" + std::to_string(f % 12) + "\":\"payload-" +
                 std::to_string(f % 7) + "\",";
  }
  value_1kb.resize(1024);
  LogDuelResult kb = log_duel(log_dir, value_1kb, duel_ops / 4,
                              /*key_tag=*/uint64_t{1} << 40);
  double log_overhead_1kb_pct = kb.overhead_pct;
  std::printf("log duel (1KiB values): overhead %.2f%%, %.1f bytes/op, "
              "compression ratio %.2fx (%.1f%% records compressed), "
              "%.1f arena bytes/key unlogged\n",
              kb.overhead_pct, kb.bytes_per_op(), kb.compression_ratio(),
              kb.appends == 0 ? 0.0
                              : 100.0 * static_cast<double>(kb.compressed_records) /
                                    static_cast<double>(kb.appends),
              kb.unlogged_bytes_per_key);

  // YCSB-A: 50% reads, 50% updates, Zipfian key popularity (§7).
  double ycsb_a_mops =
      timed_mops(e.threads, e.secs, [&](unsigned t, const std::atomic<bool>& stop) {
        thread_local ThreadContext ti;
        Rng coin(300 + t);
        Zipfian zipf(loaded, 0.99, 400 + t);
        uint64_t ops = 0, v, old;
        while (!stop.load(std::memory_order_relaxed)) {
          for (int i = 0; i < 256; ++i) {
            uint64_t k = zipf.next_scrambled();
            if (coin.next() & 1) {
              tree.get(decimal_key(k), &v, ti);
            } else {
              tree.insert(decimal_key(k), k + ops, &old, ti);
            }
            ++ops;
          }
        }
        return ops;
      });

  // YCSB-C-style Zipf sweep: read-only gets over Zipfian key popularity with
  // the hot-key record cache fronting the tree (cache/record_cache.h).
  // zipf_get_mops is the theta=0.99 row — the trajectory metric — and
  // cache_hit_pct its aggregate validated-hit rate.
  // Like fig11_skew, the draw stream and key strings are pregenerated: a
  // Zipfian draw costs two pow() calls and decimal_key allocates, which
  // would otherwise dominate the timed loop (the metric is tree+cache
  // throughput, not generator throughput). Threads cycle the shared stream
  // from staggered offsets.
  size_t bench_cache_cap = env_u64("MT_BENCH_CACHE_CAP", 1 << 13);
  RecordCache<Tree::Config> rcache(
      RecordCache<Tree::Config>::Config{bench_cache_cap, 4});
  double zipf_get_mops = 0.0, cache_hit_pct = 0.0;
  std::printf("zipf get sweep (record cache, capacity=%zu):\n", rcache.capacity());
  std::vector<std::string> zkeys(loaded);
  for (uint64_t i = 0; i < loaded; ++i) {
    zkeys[i] = decimal_key(i);
  }
  constexpr size_t kZipfStream = 1 << 20;  // power of two for cheap wrap
  std::vector<uint32_t> zstream(kZipfStream);
  for (double theta : {0.5, 0.99, 1.2}) {
    {
      SkewGen gen = SkewGen::zipf(loaded, theta, 700);
      for (auto& x : zstream) {
        x = static_cast<uint32_t>(gen.next_index());
      }
    }
    tree.set_record_cache(&rcache);
    rcache.clear();
    std::atomic<uint64_t> hits{0}, misses{0};
    double mops =
        timed_mops(e.threads, e.secs, [&](unsigned t, const std::atomic<bool>& stop) {
          thread_local ThreadContext ti;
          uint64_t h0 = ti.counters().get(Counter::kCacheHits);
          uint64_t m0 = ti.counters().get(Counter::kCacheMisses);
          size_t pos = (static_cast<size_t>(t) * (kZipfStream / 16)) % kZipfStream;
          uint64_t ops = 0, v;
          while (!stop.load(std::memory_order_relaxed)) {
            for (int i = 0; i < 256; ++i) {
              tree.get(zkeys[zstream[pos]], &v, ti);
              pos = (pos + 1) & (kZipfStream - 1);
              ++ops;
            }
          }
          hits.fetch_add(ti.counters().get(Counter::kCacheHits) - h0,
                         std::memory_order_relaxed);
          misses.fetch_add(ti.counters().get(Counter::kCacheMisses) - m0,
                           std::memory_order_relaxed);
          return ops;
        });
    tree.set_record_cache(nullptr);
    uint64_t total = hits.load() + misses.load();
    double pct =
        total == 0 ? 0.0
                   : 100.0 * static_cast<double>(hits.load()) / static_cast<double>(total);
    std::printf("  theta=%.2f: %.3f Mops, hit_pct=%.1f\n", theta, mops, pct);
    if (theta == 0.99) {
      zipf_get_mops = mops;
      cache_hit_pct = pct;
    }
  }

  // Network serving (§6.1): uniform point gets through the epoll event-loop
  // server over the real wire protocol — kNetConns pipelined connections at
  // depth kNetDepth, frames of 32 gets, cross-connection runs coalesced into
  // Tree::multiget. The trajectory metric every PR must keep non-zero.
  constexpr unsigned kNetConns = 64, kNetDepth = 16;
  double net_get_mops, net_put_mops;
  uint64_t net_batched_gets, net_batched_puts;
  {
    Store net_store;
    bench::NetDriveConfig cfg;
    cfg.nconns = kNetConns;
    cfg.depth = kNetDepth;
    cfg.keyspace = std::min<uint64_t>(loaded, 200000);
    cfg.threads = std::min(e.threads, kNetConns);
    cfg.secs = e.secs;
    {
      Store::Session s(net_store, 0);
      for (uint64_t i = 0; i < cfg.keyspace; ++i) {
        net_store.put(decimal_key(i), {{0, "12345678"}}, s);
      }
    }
    Server server(net_store, Server::Options{0, e.threads});
    server.start();
    net_get_mops = bench::drive_gets(server.port(), cfg);
    net_batched_gets = server.batched_gets();
    // Write-side serving: same offered load shape with single-put frames, so
    // every server-side write batch is cross-connection coalescing into
    // Store::multiput (the kNetBatchedPuts trajectory metric).
    net_put_mops = bench::drive_puts(server.port(), cfg);
    net_batched_puts = server.batched_puts();
    server.stop();
  }

  std::string json;
  char buf[256];
  auto add = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    json += buf;
  };
  add("{\n");
  add("  \"bench\": \"micro_throughput\",\n");
  add("  \"tree\": \"masstree\",\n");
  add("  \"keys\": %llu,\n", static_cast<unsigned long long>(loaded));
  add("  \"threads\": %u,\n", e.threads);
  add("  \"secs_per_phase\": %.2f,\n", e.secs);
  add("  \"metrics\": {\n");
  add("    \"insert_mops\": %.4f,\n", insert_mops);
  add("    \"get_uniform_mops\": %.4f,\n", get_uniform_mops);
  add("    \"multiget_mops\": %.4f,\n", multiget_mops);
  add("    \"multiget_batch\": %zu,\n", kMultigetBatch);
  add("    \"multiput_mops\": %.4f,\n", multiput_mops);
  add("    \"multiput_batch\": %zu,\n", kMultiputBatch);
  add("    \"put_seq_mops\": %.4f,\n", put_seq_mops);
  add("    \"multiput_speedup\": %.3f,\n", multiput_speedup);
  add("    \"scan_mops\": %.4f,\n", scan_mops);
  add("    \"scan_len\": %zu,\n", kScanLen);
  add("    \"update_uniform_mops\": %.4f,\n", update_mops);
  add("    \"put_unlogged_mops\": %.4f,\n", put_unlogged_mops);
  add("    \"put_logged_mops\": %.4f,\n", put_logged_mops);
  add("    \"log_overhead_pct\": %.2f,\n", log_overhead_pct);
  add("    \"log_bytes_per_op\": %.2f,\n", mix.bytes_per_op());
  add("    \"log_overhead_1kb_pct\": %.2f,\n", log_overhead_1kb_pct);
  add("    \"log_1kb_bytes_per_op\": %.2f,\n", kb.bytes_per_op());
  add("    \"log_1kb_compression_ratio\": %.3f,\n", kb.compression_ratio());
  add("    \"mem_1kb_bytes_per_key\": %.1f,\n", kb.unlogged_bytes_per_key);
  add("    \"ycsb_a_zipfian_mops\": %.4f,\n", ycsb_a_mops);
  add("    \"net_get_mops\": %.4f,\n", net_get_mops);
  add("    \"net_conns\": %u,\n", kNetConns);
  add("    \"net_pipeline_depth\": %u,\n", kNetDepth);
  add("    \"net_batched_gets\": %llu,\n",
      static_cast<unsigned long long>(net_batched_gets));
  add("    \"net_put_mops\": %.4f,\n", net_put_mops);
  add("    \"net_batched_puts\": %llu,\n",
      static_cast<unsigned long long>(net_batched_puts));
  add("    \"zipf_get_mops\": %.4f,\n", zipf_get_mops);
  add("    \"cache_hit_pct\": %.2f,\n", cache_hit_pct);
  add("    \"cache_capacity\": %zu\n", rcache.capacity());
  add("  }\n");
  add("}\n");

  if (argc > 1) {
    FILE* f = std::fopen(argv[1], "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", argv[1]);
  }
  std::fputs(json.c_str(), stdout);
  return 0;
}
