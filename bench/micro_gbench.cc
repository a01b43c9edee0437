// Google-benchmark micro-benchmarks for the primitive operations whose
// costs the paper's design arguments rest on: slice encoding (§4.2),
// permutation updates (§4.6.2), in-node search (§4.8), version protocol
// (§4.5), row copy-on-write (§4.7), epoch entry (§4.6.1), the log's
// CRC and LZ codec (§5), and the Zipfian generator (§7). One store-level
// lane, BM_StorePut1KiB, shows that a bulk load's per-put cost stays flat
// as the store grows (the allocator's refills must not scale with it).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/permuter.h"
#include "core/tree.h"
#include "core/version.h"
#include "key/keyslice.h"
#include "kvstore/store.h"
#include "util/crc32.h"
#include "util/lz.h"
#include "util/rand.h"
#include "value/row.h"
#include "workload/keys.h"

namespace masstree {
namespace {

void BM_MakeSlice(benchmark::State& state) {
  std::string key = "0123456789";
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_slice(key));
  }
}
BENCHMARK(BM_MakeSlice);

void BM_SliceCompareVsMemcmp(benchmark::State& state) {
  // The "+IntCmp" trick: one integer compare replaces memcmp.
  std::string a = "012345678", b = "012345679";
  if (state.range(0) == 0) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(make_slice(a) < make_slice(b));
    }
  } else {
    for (auto _ : state) {
      benchmark::DoNotOptimize(std::memcmp(a.data(), b.data(), 9) < 0);
    }
  }
}
BENCHMARK(BM_SliceCompareVsMemcmp)->Arg(0)->Arg(1);

void BM_PermuterInsertRemove(benchmark::State& state) {
  for (auto _ : state) {
    Permuter p = Permuter::make_empty();
    for (int i = 0; i < 15; ++i) {
      p.insert_from_back(i / 2);
    }
    for (int i = 14; i >= 0; --i) {
      p.remove(i / 2);
    }
    benchmark::DoNotOptimize(p.value());
  }
}
BENCHMARK(BM_PermuterInsertRemove);

void BM_VersionLockUnlock(benchmark::State& state) {
  NodeVersion<ConcurrentPolicy> v(VersionValue::kBorder);
  for (auto _ : state) {
    v.lock();
    v.unlock();
  }
}
BENCHMARK(BM_VersionLockUnlock);

void BM_VersionStableRead(benchmark::State& state) {
  NodeVersion<ConcurrentPolicy> v(VersionValue::kBorder);
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.stable().raw());
  }
}
BENCHMARK(BM_VersionStableRead);

void BM_BorderFind(benchmark::State& state) {
  // In-node search over a full border node; Arg 0 = linear, 1 = binary.
  ThreadContext ti;
  Tree tree(ti);
  uint64_t old;
  for (int i = 0; i < 15; ++i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "%02d", i);
    tree.insert(buf, i, &old, ti);
  }
  uint64_t v;
  int i = 0;
  for (auto _ : state) {
    char buf[16];
    snprintf(buf, sizeof(buf), "%02d", i++ % 15);
    benchmark::DoNotOptimize(tree.get(buf, &v, ti));
  }
}
BENCHMARK(BM_BorderFind);

void BM_TreeGetLoaded(benchmark::State& state) {
  static ThreadContext ti;
  static Tree* tree = [] {
    auto* t = new Tree(ti);
    uint64_t old;
    for (uint64_t i = 0; i < 100000; ++i) {
      t->insert(decimal_key(i), i, &old, ti);
    }
    return t;
  }();
  Rng rng(1);
  uint64_t v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree->get(decimal_key(rng.next_range(100000)), &v, ti));
  }
}
BENCHMARK(BM_TreeGetLoaded);

void BM_RowUpdateCow(benchmark::State& state) {
  ThreadContext ti;
  std::vector<ColumnUpdate> init;
  std::string cols[10];
  for (unsigned c = 0; c < 10; ++c) {
    cols[c] = "abcd";
    init.push_back({c, cols[c]});
  }
  Row* row = Row::make(ti, init, 1);
  uint64_t ver = 2;
  const ColumnUpdate upd[] = {{3, "WXYZ"}};
  for (auto _ : state) {
    Row* next = Row::update(ti, row, upd, ver++);
    Row::deallocate(row);
    row = next;
  }
  Row::deallocate(row);
}
BENCHMARK(BM_RowUpdateCow);

void BM_EpochGuard(benchmark::State& state) {
  EpochManager mgr;
  EpochSlot* slot = mgr.register_thread();
  for (auto _ : state) {
    EpochGuard g(*slot);
    benchmark::DoNotOptimize(slot);
  }
  mgr.unregister_thread(slot);
}
BENCHMARK(BM_EpochGuard);

void BM_Crc32(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096);

// A log value of `n` bytes shaped like kvbench's: an 8-byte binary header,
// then JSON records over a small vocabulary.
std::string JsonishValue(size_t n) {
  static constexpr const char* kWords[] = {"alpha", "bravo", "charlie", "delta",
                                           "echo",  "foxtrot", "golf",  "hotel"};
  Rng rng(n);
  std::string s;
  for (int i = 0; i < 8; ++i) {
    s += static_cast<char>(rng.next());
  }
  while (s.size() < n) {
    char rec[128];
    int len = std::snprintf(rec, sizeof(rec),
                            "{\"id\":%u,\"name\":\"%s\",\"tags\":[\"%s\",\"%s\"],\"score\":%u},",
                            static_cast<unsigned>(rng.next() % 100000), kWords[rng.next() % 8],
                            kWords[rng.next() % 8], kWords[rng.next() % 8],
                            static_cast<unsigned>(rng.next() % 1000));
    s.append(rec, static_cast<size_t>(len));
  }
  s.resize(n);
  return s;
}

// The log's calling convention: dst_cap = n - 1, so an incompressible
// value bails out instead of expanding.
void BM_LzCompress(benchmark::State& state) {
  std::string raw = JsonishValue(static_cast<size_t>(state.range(0)));
  std::string out(raw.size() - 1, '\0');
  size_t csize = 0;
  for (auto _ : state) {
    csize = lz::compress(raw.data(), raw.size(), out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
  state.counters["ratio"] = csize == 0 ? 1.0 : static_cast<double>(raw.size()) / csize;
}
BENCHMARK(BM_LzCompress)->Arg(1024)->Arg(4096);

void BM_LzDecompress(benchmark::State& state) {
  std::string raw = JsonishValue(static_cast<size_t>(state.range(0)));
  std::string comp(lz::compress_bound(raw.size()), '\0');
  comp.resize(lz::compress(raw.data(), raw.size(), comp.data(), comp.size()));
  std::string out(raw.size(), '\0');
  for (auto _ : state) {
    bool ok = lz::decompress(comp.data(), comp.size(), out.data(), out.size());
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_LzDecompress)->Arg(1024)->Arg(4096);

void BM_ZipfianNext(benchmark::State& state) {
  Zipfian z(1000000, 0.99, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.next_scrambled());
  }
}
BENCHMARK(BM_ZipfianNext);

// Single-thread, unlogged 1 KiB Store::put into a fresh store of
// state.range(0) keys; reports ns per put. Each size loads once, and its
// store stays alive until the process exits: the allocator never returns
// memory, so a later load into recycled memory would find its free lists
// full and skip the span refills this lane exists to measure. The three
// sizes together hold about 1.1 GB.
void BM_StorePut1KiB(benchmark::State& state) {
  static std::vector<std::unique_ptr<Store>> kept;
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(decimal_key(i));
  }
  const std::string value(1024, 'v');
  const std::vector<ColumnUpdate> row{{0, value}};
  double total_ns = 0;
  for (auto _ : state) {
    kept.push_back(std::make_unique<Store>());
    Store& store = *kept.back();
    Store::Session s(store, 0);
    auto t0 = std::chrono::steady_clock::now();
    for (const std::string& k : keys) {
      benchmark::DoNotOptimize(store.put(k, row, s));
    }
    std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    state.SetIterationTime(dt.count());
    total_ns += dt.count() * 1e9;
  }
  state.counters["ns_per_put"] =
      total_ns / (static_cast<double>(n) * static_cast<double>(state.iterations()));
}
BENCHMARK(BM_StorePut1KiB)
    ->Arg(50000)
    ->Arg(200000)
    ->Arg(400000)
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_DecimalKeyGen(benchmark::State& state) {
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(decimal_key(i++));
  }
}
BENCHMARK(BM_DecimalKeyGen);

}  // namespace
}  // namespace masstree

BENCHMARK_MAIN();
