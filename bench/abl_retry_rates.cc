// Ablation A4 — retry rates (§6.2 / §6.4): "in an insert test with 8
// threads, less than 1 get in 10^6 had to retry from the root due to a
// concurrent split. ... concurrent inserts are observed ~15x more frequently
// than splits. It is simple to handle them locally, so Masstree maintains
// separate split and insert counters to distinguish the cases."
//
// Mixed insert+get run; reports per-million retry rates from the hot-path
// counters (split-caused root retries must be orders of magnitude rarer than
// local insert retries). Interleaved multiget batches report the same rates
// for the §4.8 pipelined path (Counter::kMultigetRetry / kMultigetBatches),
// and interleaved range scans report the ScanCursor's chain-walk health under
// the same churn: node snapshots vs snapshot retries vs border
// re-descents (kScanNodes / kScanRetries / kScanRedescents). Chain walking
// is working iff re-descents stay a small fraction of node visits.
//
// The put-heavy zipf churn section reports the write-side pipeline's
// counters under the same pressure (kMultiputBatches / kMultiputRetries),
// asserts the record cache's hit/miss accounting stays exact with batched
// writers (hits + misses == gets feeds the exit code), and a short
// event-loop burst reports kNetBatchedPuts — cross-connection write
// coalescing into Store::multiput.

#include <filesystem>
#include <span>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "bench/net_driver.h"
#include "core/tree.h"
#include "kvstore/store.h"
#include "net/server.h"
#include "util/rand.h"
#include "workload/keys.h"

int main() {
  using namespace masstree;
  using namespace masstree::bench;
  Env e = env(1000000);
  print_header("Ablation: reader retry rates under concurrent inserts", e);

  ThreadContext setup;
  Tree tree(setup);
  uint64_t per_thread = e.keys;
  constexpr size_t kBatch = 16;
  std::atomic<uint64_t> root_retries{0}, local_retries{0}, forwards{0}, splits{0}, gets{0};
  std::atomic<uint64_t> mg_retries{0}, mg_batches{0}, mg_gets{0};
  std::atomic<uint64_t> sc_pairs{0}, sc_nodes{0}, sc_retries{0}, sc_redescents{0};

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < e.threads; ++t) {
    threads.emplace_back([&, t] {
      ThreadContext ti;
      Rng rng(91 + t);
      uint64_t old, v;
      std::string batch_keys[kBatch];
      Tree::GetRequest reqs[kBatch];
      size_t pending = 0;
      uint64_t mg_ops = 0;
      uint64_t scan_pairs = 0;
      for (uint64_t i = 0; i < per_thread; ++i) {
        tree.insert(decimal_key(rng.next()), i, &old, ti);
        tree.get(decimal_key(rng.next()), &v, ti);
        // Accumulate keys into a batch; every kBatch iterations run the
        // pipelined path so its retries are measured under the same churn.
        batch_keys[pending] = decimal_key(rng.next());
        reqs[pending] = Tree::GetRequest{batch_keys[pending], 0, false};
        if (++pending == kBatch) {
          tree.multiget(std::span<Tree::GetRequest>(reqs, kBatch), ti);
          mg_ops += kBatch;
          pending = 0;
        }
        // Every 64 iterations run one short range scan, so the cursor's
        // chain-walk/retry/re-descent rates are measured under the same
        // split churn as the point ops.
        if ((i & 63) == 0) {
          uint64_t sink = 0;
          scan_pairs += tree.scan(
              decimal_key(rng.next()), 100,
              [&](std::string_view k, uint64_t lv) {
                sink += lv + k.size();
                return true;
              },
              ti);
          asm volatile("" : : "r"(sink) : "memory");
        }
      }
      // multiget's cursors report retries via kMultigetRetry only, so the
      // kGet* rates below stay pure point-get.
      root_retries += ti.counters().get(Counter::kGetRetryFromRoot);
      local_retries += ti.counters().get(Counter::kGetRetryLocal);
      forwards += ti.counters().get(Counter::kGetForward);
      splits += ti.counters().get(Counter::kPutSplit);
      gets += per_thread;
      mg_retries += ti.counters().get(Counter::kMultigetRetry);
      mg_batches += ti.counters().get(Counter::kMultigetBatches);
      mg_gets += mg_ops;
      sc_pairs += scan_pairs;
      sc_nodes += ti.counters().get(Counter::kScanNodes);
      sc_retries += ti.counters().get(Counter::kScanRetries);
      sc_redescents += ti.counters().get(Counter::kScanRedescents);
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  double per_m = 1e6 / static_cast<double>(gets.load());
  std::printf("gets executed:                %llu\n",
              static_cast<unsigned long long>(gets.load()));
  std::printf("splits performed:             %llu\n",
              static_cast<unsigned long long>(splits.load()));
  std::printf("root retries  / M gets:       %8.2f   (paper: < 1)\n",
              static_cast<double>(root_retries.load()) * per_m);
  std::printf("local retries / M gets:       %8.2f   (paper: ~15x the split rate)\n",
              static_cast<double>(local_retries.load()) * per_m);
  std::printf("B-link forwards / M gets:     %8.2f\n",
              static_cast<double>(forwards.load()) * per_m);
  double ratio = root_retries.load() == 0
                     ? 0.0
                     : static_cast<double>(local_retries.load()) /
                           static_cast<double>(root_retries.load());
  std::printf("local/root retry ratio:       %8.2f\n", ratio);

  double mg_per_m =
      mg_gets.load() == 0 ? 0.0 : 1e6 / static_cast<double>(mg_gets.load());
  std::printf("multiget batches:             %llu (batch=%zu)\n",
              static_cast<unsigned long long>(mg_batches.load()), kBatch);
  std::printf("multiget retries / M gets:    %8.2f   (pipelined cursors, §4.8)\n",
              static_cast<double>(mg_retries.load()) * mg_per_m);

  double per_knode = sc_nodes.load() == 0
                         ? 0.0
                         : 1e3 / static_cast<double>(sc_nodes.load());
  std::printf("scan pairs emitted:           %llu (len=100 interleaved scans)\n",
              static_cast<unsigned long long>(sc_pairs.load()));
  std::printf("scan node snapshots:          %llu\n",
              static_cast<unsigned long long>(sc_nodes.load()));
  std::printf("scan retries / K nodes:       %8.2f   (snapshot re-validations)\n",
              static_cast<double>(sc_retries.load()) * per_knode);
  std::printf("scan redescents / K nodes:    %8.2f   (chain walk must dominate)\n",
              static_cast<double>(sc_redescents.load()) * per_knode);

  // ---- §5 logging counters under a put-heavy churn mix ----
  // 50% put / 25% remove / 25% get over a shared key space, per-session log
  // shards on: the wait-free append path's health is three numbers — every
  // write logged (kLogAppends), zero steady-state allocations (kLogAllocs
  // after the warmup reset), and stalls (a producer outran its logging
  // thread) rare enough to be a curiosity, not a cost.
  std::string log_dir =
      std::filesystem::temp_directory_path().string() + "/abl-retry-logs";
  std::filesystem::remove_all(log_dir);
  Store::Options sopt;
  sopt.log_dir = log_dir;
  std::atomic<uint64_t> log_appends{0}, log_stalls{0}, log_allocs{0}, log_writes{0};
  std::atomic<uint64_t> log_physical{0}, log_logical{0}, log_compressed{0};
  {
    Store store(sopt);
    // Value mix for puts: small (below the compression threshold), large
    // compressible (the lz fast path), large incompressible (the bail-out
    // path) — the kLogBytes* accounting below must stay coherent across all
    // three, not just the friendly case.
    std::string v_small = "churn!!!";
    std::string v_comp;
    for (int i = 0; i < 64; ++i) {
      v_comp += "compressible-segment-" + std::to_string(i % 5);
    }
    std::string v_rand(1500, '\0');
    {
      Rng vr(4242);
      for (auto& c : v_rand) {
        c = static_cast<char>(vr.next());
      }
    }
    const std::string* vals[4] = {&v_small, &v_small, &v_comp, &v_rand};
    std::vector<std::thread> churn;
    for (unsigned t = 0; t < e.threads; ++t) {
      churn.emplace_back([&, t] {
        Store::Session s(store, t);
        Rng rng(7000 + t);
        std::vector<std::string> out;
        // Warmup claims the shard (two arena-half allocations), then the
        // counters reset so steady state is measured alone.
        for (int i = 0; i < 1024; ++i) {
          store.put(decimal_key(rng.next_range(e.keys)), {{0, "churn!!!"}}, s);
        }
        s.ti().counters().reset();
        uint64_t writes = 0;
        for (uint64_t i = 0; i < per_thread / 4; ++i) {
          uint64_t k = rng.next_range(e.keys);
          switch (rng.next() & 3) {
            case 0:
            case 1:
              store.put(decimal_key(k), {{0, *vals[rng.next() & 3]}}, s);
              ++writes;
              break;
            case 2:
              if (store.remove(decimal_key(k), s)) {
                ++writes;
              }
              break;
            default:
              store.get(decimal_key(k), {}, &out, s);
          }
        }
        log_appends += s.ti().counters().get(Counter::kLogAppends);
        log_stalls += s.ti().counters().get(Counter::kLogStalls);
        log_allocs += s.ti().counters().get(Counter::kLogAllocs);
        log_physical += s.ti().counters().get(Counter::kLogBytesPhysical);
        log_logical += s.ti().counters().get(Counter::kLogBytesLogical);
        log_compressed += s.ti().counters().get(Counter::kLogCompressedRecords);
        log_writes += writes;
      });
    }
    for (auto& th : churn) {
      th.join();
    }
    Store::LogTotals lt = store.log_totals();
    double per_m_app = log_appends.load() == 0
                           ? 0.0
                           : 1e6 / static_cast<double>(log_appends.load());
    std::printf("log appends (kLogAppends):    %llu (one per put/remove: %llu writes)\n",
                static_cast<unsigned long long>(log_appends.load()),
                static_cast<unsigned long long>(log_writes.load()));
    std::printf("log stalls / M appends:       %8.2f   (kLogStalls: full double-buffer)\n",
                static_cast<double>(log_stalls.load()) * per_m_app);
    std::printf("log allocs, steady state:     %8llu   (kLogAllocs: must be 0)\n",
                static_cast<unsigned long long>(log_allocs.load()));
    std::printf("log flush bytes:              %llu (kLogFlushBytes across %llu group "
                "commits)\n",
                static_cast<unsigned long long>(lt.flush_bytes),
                static_cast<unsigned long long>(lt.flushes));
    double bytes_per_op =
        log_appends.load() == 0
            ? 0.0
            : static_cast<double>(log_physical.load()) /
                  static_cast<double>(log_appends.load());
    double ratio = log_physical.load() == 0
                       ? 1.0
                       : static_cast<double>(log_logical.load()) /
                             static_cast<double>(log_physical.load());
    std::printf("log bytes physical:           %llu (kLogBytesPhysical: %.1f bytes/op)\n",
                static_cast<unsigned long long>(log_physical.load()), bytes_per_op);
    std::printf("log bytes logical:            %llu (kLogBytesLogical: %.2fx compression)\n",
                static_cast<unsigned long long>(log_logical.load()), ratio);
    std::printf("log compressed records:       %llu (kLogCompressedRecords, %.1f%% of appends)\n",
                static_cast<unsigned long long>(log_compressed.load()),
                log_appends.load() == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(log_compressed.load()) /
                          static_cast<double>(log_appends.load()));
  }
  std::filesystem::remove_all(log_dir);

  // ---- record-cache counters under a put-heavy skewed churn mix ----
  // Zipfian (theta=0.99) gets through the record cache while the same
  // threads hammer the same hot keys with BATCHED writes — half the ops are
  // multiput batches (puts + removes, §4.8 write side), so the pipelined
  // writer's retry rate and the cache's invalidation behavior are measured
  // together. The tracked numbers are the invalidation rate (validated hits
  // killed because a writer touched the cached slot's border version), the
  // CLOCK eviction rate under deliberate capacity pressure, and the
  // multiput batch/retry counters under the same churn. Every cached get is
  // exactly one hit or one miss — hits + misses == gets is asserted below
  // (the exit code), proving the batched write path never corrupts the
  // cache's hit/miss accounting.
  std::atomic<uint64_t> c_hits{0}, c_misses{0}, c_inval{0}, c_evict{0}, c_gets{0};
  std::atomic<uint64_t> mp_batches{0}, mp_retries{0}, mp_writes{0};
  {
    RecordCache<Tree::Config> cache(RecordCache<Tree::Config>::Config{1 << 12, 2});
    tree.set_record_cache(&cache);
    std::vector<std::thread> churn2;
    for (unsigned t = 0; t < e.threads; ++t) {
      churn2.emplace_back([&, t] {
        ThreadContext ti;
        uint64_t b0 = ti.counters().get(Counter::kMultiputBatches);
        uint64_t r0 = ti.counters().get(Counter::kMultiputRetries);
        Rng rng(9100 + t);
        SkewGen gen = SkewGen::zipf(e.keys, 0.99, 9300 + t);
        uint64_t v;
        uint64_t ngets = 0, nwrites = 0;
        std::string wkeys[kBatch];
        Tree::PutRequest wreqs[kBatch];
        size_t wpend = 0;
        for (uint64_t i = 0; i < per_thread / 2; ++i) {
          uint64_t k = gen.next_index();
          if (rng.next() & 1) {
            // Accumulate hot-key writes; every kBatch of them goes through
            // one pipelined multiput (~1/8 removes).
            wkeys[wpend] = decimal_key(k);
            wreqs[wpend] = Tree::PutRequest{wkeys[wpend], i};
            wreqs[wpend].remove = (rng.next() & 7) == 0;
            if (++wpend == kBatch) {
              tree.multiput(std::span<Tree::PutRequest>(wreqs, kBatch), ti);
              nwrites += kBatch;
              wpend = 0;
            }
          } else {
            tree.get(decimal_key(k), &v, ti);
            ++ngets;
          }
        }
        c_hits += ti.counters().get(Counter::kCacheHits);
        c_misses += ti.counters().get(Counter::kCacheMisses);
        c_inval += ti.counters().get(Counter::kCacheInvalidations);
        c_evict += ti.counters().get(Counter::kCacheEvictions);
        c_gets += ngets;
        mp_batches += ti.counters().get(Counter::kMultiputBatches) - b0;
        mp_retries += ti.counters().get(Counter::kMultiputRetries) - r0;
        mp_writes += nwrites;
      });
    }
    for (auto& th : churn2) {
      th.join();
    }
    tree.set_record_cache(nullptr);
  }
  double c_per_m =
      c_gets.load() == 0 ? 0.0 : 1e6 / static_cast<double>(c_gets.load());
  double lookups = static_cast<double>(c_hits.load() + c_misses.load());
  std::printf("cache gets (zipf 0.99 churn): %llu (capacity=%u, hit_pct=%.1f)\n",
              static_cast<unsigned long long>(c_gets.load()), 1u << 12,
              lookups == 0.0 ? 0.0 : 100.0 * static_cast<double>(c_hits.load()) / lookups);
  std::printf("cache hits / M gets:          %8.0f   (kCacheHits)\n",
              static_cast<double>(c_hits.load()) * c_per_m);
  std::printf("cache misses / M gets:        %8.0f   (kCacheMisses)\n",
              static_cast<double>(c_misses.load()) * c_per_m);
  std::printf("cache invalidations / M gets: %8.2f   (kCacheInvalidations: version-killed hits)\n",
              static_cast<double>(c_inval.load()) * c_per_m);
  std::printf("cache evictions / M gets:     %8.2f   (kCacheEvictions: CLOCK displacement)\n",
              static_cast<double>(c_evict.load()) * c_per_m);
  double mp_per_m =
      mp_writes.load() == 0 ? 0.0 : 1e6 / static_cast<double>(mp_writes.load());
  std::printf("multiput batches:             %llu (kMultiputBatches, batch=%zu, %llu writes)\n",
              static_cast<unsigned long long>(mp_batches.load()), kBatch,
              static_cast<unsigned long long>(mp_writes.load()));
  std::printf("multiput retries / M writes:  %8.2f   (kMultiputRetries: slow-path puts)\n",
              static_cast<double>(mp_retries.load()) * mp_per_m);
  bool cache_accounting_ok = c_hits.load() + c_misses.load() == c_gets.load();
  std::printf("cache hits+misses == gets:    %s   (batched fill-path accounting)\n",
              cache_accounting_ok ? "OK" : "VIOLATED");

  // ---- cross-connection write coalescing (kNetBatchedPuts) ----
  // A short burst of single-put frames from pipelined connections against a
  // 2-worker event-loop server: batched_puts mirrors Counter::kNetBatchedPuts
  // — puts that reached Store::multiput only because the worker coalesced
  // runs from DIFFERENT connections in one wakeup.
  {
    Store net_store;
    {
      Store::Session s(net_store, 0);
      for (uint64_t i = 0; i < 10000; ++i) {
        net_store.put(decimal_key(i), {{0, "seed"}}, s);
      }
    }
    Server server(net_store, Server::Options{0, 2});
    server.start();
    NetDriveConfig cfg;
    cfg.nconns = 16;
    cfg.depth = 4;
    cfg.keyspace = 10000;
    cfg.threads = std::min(e.threads, 4u);
    cfg.secs = std::min(e.secs, 1.0);
    double net_put_mops = drive_puts(server.port(), cfg);
    uint64_t batched_puts = server.batched_puts();
    server.stop();
    std::printf("net puts served:              %.3f Mops (16 conns, single-put frames)\n",
                net_put_mops);
    std::printf("net batched puts:             %llu (kNetBatchedPuts: cross-connection "
                "coalescing)\n",
                static_cast<unsigned long long>(batched_puts));
  }

  return log_allocs.load() == 0 && cache_accounting_ok ? 0 : 1;
}
