// §3 getrange microbench — the range-read path's trajectory anchor.
//
// Sweeps scan lengths {10, 100, 1000} over the §6.1 decimal-key workload
// (1-10 byte keys, 80% of which are 9-10 bytes, so layer-1 trees and suffix
// bags are genuinely exercised) and reports Tree::scan throughput (the
// snapshot-batched ScanCursor with the next border prefetched ahead of
// emission) single-threaded, plus a multi-threaded len-100 row at the
// harness thread count.
//
// It ends with the allocation-free proof: a long chain-walk drive whose
// per-node-visit buffer growth (ScanCursor::alloc_events,
// Counter::kScanAllocs) must be ZERO after warm-up. The binary exits
// non-zero if it is not.

#include <atomic>
#include <cstdio>
#include <string>

#include "bench/common.h"
#include "core/tree.h"
#include "util/rand.h"
#include "workload/keys.h"

namespace {

using namespace masstree;
using namespace masstree::bench;

std::atomic<uint64_t> g_sink;

// One timed single-threaded phase: scans of `len` pairs from random starts.
double scan_mops_1t(const Tree& tree, double secs, uint64_t nkeys, size_t len) {
  return timed_mops(1, secs, [&](unsigned, const std::atomic<bool>& stop) {
    thread_local ThreadContext ti;
    Rng rng(42);
    uint64_t pairs = 0;
    uint64_t sink = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      pairs += tree.scan(
          decimal_key(rng.next_range(nkeys)), len,
          [&](std::string_view k, uint64_t v) {
            sink += v + k.size();
            return true;
          },
          ti);
    }
    g_sink += sink;
    return pairs;
  });
}

}  // namespace

int main() {
  using namespace masstree;
  using namespace masstree::bench;
  Env e = env(1000000);
  print_header("sec3_scan: snapshot-batched range scans (getrange, §3)", e);

  ThreadContext setup;
  Tree tree(setup);
  {
    uint64_t old;
    for (uint64_t i = 0; i < e.keys; ++i) {
      tree.insert(decimal_key(i), i, &old, setup);
    }
  }

  std::printf("%-8s %10s\n", "scan_len", "Mpairs/s");
  for (size_t len : {size_t{10}, size_t{100}, size_t{1000}}) {
    std::printf("%-8zu %9.3fM\n", len, scan_mops_1t(tree, e.secs / 2, e.keys, len));
  }

  // Multi-threaded scans, len 100 (the YCSB-E-shaped datapoint).
  {
    double mt = timed_mops(e.threads, e.secs / 2, [&](unsigned t, const std::atomic<bool>& stop) {
      thread_local ThreadContext ti;
      Rng rng(1000 + t);
      uint64_t pairs = 0, sink = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        pairs += tree.scan(
            decimal_key(rng.next_range(e.keys)), 100,
            [&](std::string_view k, uint64_t v) {
              sink += v + k.size();
              return true;
            },
            ti);
      }
      g_sink += sink;
      return pairs;
    });
    std::printf("scan len=100 x %u threads: %9.3f Mpairs/s\n", e.threads, mt);
  }

  // Allocation-free steady state: drive one cursor over the whole tree and
  // report buffer growth after the warm-up batches. The chain-walk claim is
  // steady_allocs == 0.
  {
    ThreadContext ti;
    auto cur = tree.scan_cursor("");
    EpochGuard guard(ti.slot());
    uint64_t batches = 0, pairs = 0, warm_allocs = 0, warm_nodes = 0;
    uint64_t nodes0 = ti.counters().get(Counter::kScanNodes);
    for (;;) {
      size_t n = cur.next_batch(&ti.counters());
      if (n == 0) {
        break;
      }
      cur.prefetch_pending();
      for (size_t i = 0; i < n; ++i) {
        g_sink += cur.key(i).size() + cur.value(i);
        ++pairs;
      }
      if (++batches == 32) {
        warm_allocs = cur.alloc_events();
        warm_nodes = ti.counters().get(Counter::kScanNodes) - nodes0;
      }
    }
    uint64_t nodes = ti.counters().get(Counter::kScanNodes) - nodes0;
    if (batches < 32) {
      // Tiny-scale run: the whole walk fits inside warm-up, so there is no
      // steady state to judge — don't misreport legitimate warm-up growth.
      warm_allocs = cur.alloc_events();
      warm_nodes = nodes;
    }
    uint64_t steady_allocs = cur.alloc_events() - warm_allocs;
    std::printf(
        "full-tree chain walk: %llu pairs over %llu node visits; "
        "alloc events warm-up=%llu steady=%llu (%s)\n",
        static_cast<unsigned long long>(pairs), static_cast<unsigned long long>(nodes),
        static_cast<unsigned long long>(warm_allocs),
        static_cast<unsigned long long>(steady_allocs),
        steady_allocs == 0 ? "allocation-free" : "ALLOCATING — REGRESSION");
    std::printf("scan counters: nodes=%llu retries=%llu redescents=%llu  (steady nodes "
                "after warm-up: %llu)\n",
                static_cast<unsigned long long>(nodes),
                static_cast<unsigned long long>(ti.counters().get(Counter::kScanRetries)),
                static_cast<unsigned long long>(ti.counters().get(Counter::kScanRedescents)),
                static_cast<unsigned long long>(nodes - warm_nodes));
    if (steady_allocs != 0) {
      return 1;  // the allocation-free claim is enforced, not printed
    }
  }
  return 0;
}
