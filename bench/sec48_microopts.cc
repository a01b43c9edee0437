// §4.8 micro-optimizations:
//
//  (1) "More than 30% of the cost of a Masstree lookup is in computation ...
//      Linear search has higher complexity than binary search, but exhibits
//      better locality. ... On an Intel processor, linear search can be up to
//      5% faster than binary search. On an AMD processor, both perform the
//      same." — linear vs binary in-node search, get workload.
//  (2) PALM-style parallel (batched) lookup: "Our implementation of this
//      technique did not improve performance on our 48-core AMD machine, but
//      on a 24-core Intel machine, throughput rose by up to 34%." — the
//      cursor-pipelined multiget() at a sweep of batch sizes, and its write
//      twin multiput().

#include <span>

#include "bench/common.h"
#include "core/tree.h"
#include "util/rand.h"
#include "workload/keys.h"

namespace masstree {
namespace {

struct BinarySearchConfig : DefaultConfig {
  static constexpr bool kLinearSearch = false;
};

template <typename TreeT>
double run_gets(const bench::Env& e, TreeT& tree) {
  return bench::timed_mops(e.threads, e.secs, [&](unsigned t, const std::atomic<bool>& stop) {
    thread_local ThreadContext ti;
    Rng rng(21 + t);
    uint64_t ops = 0, v;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 256; ++i) {
        tree.get(decimal_key(rng.next_range(e.keys)), &v, ti);
        ++ops;
      }
    }
    return ops;
  });
}

}  // namespace
}  // namespace masstree

int main() {
  using namespace masstree;
  using namespace masstree::bench;
  Env e = env(1000000);
  print_header("Section 4.8: in-node search + batched lookup", e);

  // ---- (1) linear vs binary in-node search ----
  double linear, binary;
  {
    ThreadContext setup;
    Tree tree(setup);
    uint64_t old;
    for (uint64_t i = 0; i < e.keys; ++i) {
      tree.insert(decimal_key(i), i, &old, setup);
    }
    linear = run_gets(e, tree);

    // ---- (2a) software-pipelined multiget, batch-size ablation ----
    // Each worker issues one multiget() per batch; the engine round-robins
    // the in-flight cursors and prefetches every cursor's next node before
    // touching any of them.
    std::printf("multiget batch-size ablation (plain gets: %7.3f Mops):\n", linear);
    constexpr size_t kMaxBatch = 32;
    for (size_t batch : {size_t{2}, size_t{4}, size_t{8}, size_t{16}, size_t{32}}) {
      double mops =
          timed_mops(e.threads, e.secs, [&](unsigned t, const std::atomic<bool>& stop) {
            thread_local ThreadContext ti;
            Rng rng(22 + t);
            uint64_t ops = 0;
            std::string keys[kMaxBatch];
            Tree::GetRequest reqs[kMaxBatch];
            while (!stop.load(std::memory_order_relaxed)) {
              for (size_t i = 0; i < batch; ++i) {
                keys[i] = decimal_key(rng.next_range(e.keys));
                reqs[i] = Tree::GetRequest{keys[i], 0, false};
              }
              tree.multiget(std::span<Tree::GetRequest>(reqs, batch), ti);
              ops += batch;
            }
            return ops;
          });
      std::printf("  batch %2zu:                %7.3f Mops -> %+.1f%% "
                  "(paper: 0%% AMD, +34%% Intel)\n",
                  batch, mops, 100.0 * (mops - linear) / linear);
    }

    // ---- (2b) software-pipelined multiput, batch-size ablation ----
    // The write column: uniform single-thread overwrites of the loaded key
    // space, sequential tree.insert vs one multiput per batch. The pipelined
    // writer overlaps the descents' DRAM fetches exactly like multiget and
    // applies under at most one border lock at a time.
    {
      double seq_puts =
          timed_mops(1, e.secs, [&](unsigned t, const std::atomic<bool>& stop) {
            thread_local ThreadContext ti;
            Rng rng(31 + t);
            uint64_t ops = 0, old;
            while (!stop.load(std::memory_order_relaxed)) {
              for (int i = 0; i < 256; ++i) {
                tree.insert(decimal_key(rng.next_range(e.keys)), rng.next(), &old, ti);
                ++ops;
              }
            }
            return ops;
          });
      std::printf("multiput batch-size ablation (sequential puts: %7.3f Mops, 1 thread):\n",
                  seq_puts);
      for (size_t batch : {size_t{2}, size_t{4}, size_t{8}, size_t{16}, size_t{32}}) {
        double mops =
            timed_mops(1, e.secs, [&](unsigned t, const std::atomic<bool>& stop) {
              thread_local ThreadContext ti;
              Rng rng(32 + t);
              uint64_t ops = 0;
              std::string keys[kMaxBatch];
              Tree::PutRequest reqs[kMaxBatch];
              while (!stop.load(std::memory_order_relaxed)) {
                for (size_t i = 0; i < batch; ++i) {
                  keys[i] = decimal_key(rng.next_range(e.keys));
                  reqs[i] = Tree::PutRequest{keys[i], rng.next()};
                }
                tree.multiput(std::span<Tree::PutRequest>(reqs, batch), ti);
                ops += batch;
              }
              return ops;
            });
        std::printf("  put batch %2zu:            %7.3f Mops -> %+.1f%% (target: >=+40%% "
                    "at batch >= 16)\n",
                    batch, mops, 100.0 * (mops - seq_puts) / seq_puts);
      }
    }
  }
  {
    ThreadContext setup;
    BasicTree<BinarySearchConfig> tree(setup);
    uint64_t old;
    for (uint64_t i = 0; i < e.keys; ++i) {
      tree.insert(decimal_key(i), i, &old, setup);
    }
    binary = run_gets(e, tree);
  }
  std::printf("in-node search:            linear %7.3f Mops, binary %7.3f Mops -> linear "
              "%+.1f%% (paper: 0..+5%%)\n",
              linear, binary, 100.0 * (linear - binary) / binary);
  return 0;
}
