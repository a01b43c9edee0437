// TracedStore: per-layer timing from outside the program.
//
// BasicServer<TracedStore> serves the same Store, but every call the server
// makes into the kvstore layer lands here first. While tracing is on, the
// call is timed, its op count and the session's event counters are copied
// into a per-worker slot the benchmark's main thread can read while the
// server runs, and a span goes into the worker's preallocated buffer for
// the Chrome trace. While it is off, a call costs one relaxed load more
// than Store's own. Nothing under src/ changes: the methods below hide
// Store's, they do not override them, so BasicServer<Store> on the same
// object never comes here.

#ifndef KVBENCH_TRACED_STORE_H_
#define KVBENCH_TRACED_STORE_H_

#include <array>
#include <atomic>
#include <bit>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "kvstore/store.h"
#include "net/server.h"
#include "util/timing.h"
#include "workload.h"

namespace kvbench {

enum Call : unsigned {
  kMultigetRows,
  kMultiput,
  kGet,
  kPutChecked,
  kRemoveChecked,
  kGetrange,
  kNumCalls
};
inline constexpr const char* kCallNames[kNumCalls] = {
    "multiget_rows", "multiput", "get", "put_checked", "remove_checked", "getrange"};

struct CallSpan {
  uint64_t start_ns;
  uint64_t dur_ns;
  Call call;
  uint32_t ops;
};

// Cumulative totals of one server worker over its traced calls.
struct WorkerStats {
  int tid = 0;
  uint64_t calls[kNumCalls] = {};
  uint64_t ops[kNumCalls] = {};  // keys, put ops, or scanned pairs
  uint64_t ns[kNumCalls] = {};   // wall time inside the call
  uint64_t cross_conn_ops = 0;   // multiput ops in batches from >= 2 connections
  uint64_t counters[masstree::kNumCounters] = {};
};

class TracedStore : public masstree::Store {
  using Counters = std::array<uint64_t, masstree::kNumCounters>;

 public:
  explicit TracedStore(Options opt)
      : Store(std::move(opt)), id_(next_id_.fetch_add(1, std::memory_order_relaxed)) {}

  size_t multiget_rows(std::span<const std::string_view> keys, const masstree::Row** rows,
                       Session& s) const {
    if (!tracing()) {
      return Store::multiget_rows(keys, rows, s);
    }
    const Counters c0 = s.ti().counters().c;
    uint64_t t0 = masstree::now_ns();
    size_t r = Store::multiget_rows(keys, rows, s);
    record(kMultigetRows, keys.size(), t0, masstree::now_ns(), s, c0, 0);
    return r;
  }

  size_t multiput(std::span<PutOp> ops, Session& s) {
    if (!tracing()) {
      return Store::multiput(ops, s);
    }
    const Counters c0 = s.ti().counters().c;
    uint64_t t0 = masstree::now_ns();
    size_t r = Store::multiput(ops, s);
    uint64_t t1 = masstree::now_ns();
    // Write keys are owned by connections (workload.h), so the owners
    // present in one batch tell how many connections it coalesced.
    unsigned owners = 0;
    for (const PutOp& op : ops) {
      owners |= 1u << ValueCodec::owner(op.key);
    }
    record(kMultiput, ops.size(), t0, t1, s, c0, std::popcount(owners) >= 2 ? ops.size() : 0);
    return r;
  }

  bool get(std::string_view key, const std::vector<unsigned>& cols,
           std::vector<std::string>* out, Session& s) const {
    if (!tracing()) {
      return Store::get(key, cols, out, s);
    }
    const Counters c0 = s.ti().counters().c;
    uint64_t t0 = masstree::now_ns();
    bool r = Store::get(key, cols, out, s);
    record(kGet, 1, t0, masstree::now_ns(), s, c0, 0);
    return r;
  }

  PutResult put_checked(std::string_view key, const std::vector<masstree::ColumnUpdate>& updates,
                        Session& s) {
    if (!tracing()) {
      return Store::put_checked(key, updates, s);
    }
    const Counters c0 = s.ti().counters().c;
    uint64_t t0 = masstree::now_ns();
    PutResult r = Store::put_checked(key, updates, s);
    record(kPutChecked, 1, t0, masstree::now_ns(), s, c0, 0);
    return r;
  }

  RemoveResult remove_checked(std::string_view key, Session& s) {
    if (!tracing()) {
      return Store::remove_checked(key, s);
    }
    const Counters c0 = s.ti().counters().c;
    uint64_t t0 = masstree::now_ns();
    RemoveResult r = Store::remove_checked(key, s);
    record(kRemoveChecked, 1, t0, masstree::now_ns(), s, c0, 0);
    return r;
  }

  template <typename F>
  size_t getrange(std::string_view key, size_t n, unsigned col, F&& emit, Session& s) const {
    if (!tracing()) {
      return Store::getrange(key, n, col, std::forward<F>(emit), s);
    }
    const Counters c0 = s.ti().counters().c;
    uint64_t t0 = masstree::now_ns();
    size_t r = Store::getrange(key, n, col, std::forward<F>(emit), s);
    record(kGetrange, r, t0, masstree::now_ns(), s, c0, 0);
    return r;
  }

  // Off by default: the benchmark switches tracing on for its traced slices.
  void set_tracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }

  // Every worker thread seen so far, with its latest published totals.
  std::vector<WorkerStats> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<WorkerStats> out(slots_.size());
    for (size_t i = 0; i < slots_.size(); ++i) {
      const Slot& sl = *slots_[i];
      WorkerStats& w = out[i];
      w.tid = sl.tid;
      for (unsigned c = 0; c < kNumCalls; ++c) {
        w.calls[c] = sl.calls[c].load(std::memory_order_relaxed);
        w.ops[c] = sl.ops[c].load(std::memory_order_relaxed);
        w.ns[c] = sl.ns[c].load(std::memory_order_relaxed);
      }
      w.cross_conn_ops = sl.cross_conn_ops.load(std::memory_order_relaxed);
      for (unsigned c = 0; c < masstree::kNumCounters; ++c) {
        w.counters[c] = sl.counters[c].load(std::memory_order_relaxed);
      }
    }
    return out;
  }

  // Recorded spans per worker tid. Call only after the traced server has
  // stopped (its worker threads were joined, so their buffers are final).
  std::vector<std::pair<int, std::vector<CallSpan>>> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<int, std::vector<CallSpan>>> out;
    for (const auto& sl : slots_) {
      out.emplace_back(sl->tid, sl->spans);
    }
    return out;
  }

 private:
  // Written only by its worker thread (plain load+store, no RMW); read by
  // the benchmark's main thread. Everything counts traced calls only.
  struct Slot {
    int tid = 0;
    std::atomic<uint64_t> calls[kNumCalls];
    std::atomic<uint64_t> ops[kNumCalls];
    std::atomic<uint64_t> ns[kNumCalls];
    std::atomic<uint64_t> cross_conn_ops{0};
    std::atomic<uint64_t> counters[masstree::kNumCounters];  // C++20: zeroed
    std::vector<CallSpan> spans;  // capacity kSpanCap, never reallocated
  };

  bool tracing() const { return tracing_.load(std::memory_order_relaxed); }

  static void bump(std::atomic<uint64_t>& a, uint64_t n) {
    a.store(a.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  // A worker's tid is learned from its first traced call.
  Slot& slot() const {
    thread_local uint64_t owner = 0;
    thread_local Slot* cached = nullptr;
    if (owner != id_) {
      auto sl = std::make_unique<Slot>();
      sl->tid = current_tid();
      sl->spans.reserve(kSpanCap);
      std::lock_guard<std::mutex> lock(mu_);
      slots_.push_back(std::move(sl));
      cached = slots_.back().get();
      owner = id_;
    }
    return *cached;
  }

  // Counters advance only by what this call itself did (c0 = the session's
  // counters just before it), so untraced stretches never leak in.
  void record(Call c, size_t ops, uint64_t t0, uint64_t t1, Session& s, const Counters& c0,
              uint64_t cross) const {
    Slot& sl = slot();
    bump(sl.calls[c], 1);
    bump(sl.ops[c], ops);
    bump(sl.ns[c], t1 - t0);
    if (cross != 0) {
      bump(sl.cross_conn_ops, cross);
    }
    const masstree::ThreadCounters& tc = s.ti().counters();
    for (unsigned i = 0; i < masstree::kNumCounters; ++i) {
      if (tc.c[i] != c0[i]) {
        bump(sl.counters[i], tc.c[i] - c0[i]);
      }
    }
    if (sl.spans.size() < kSpanCap) {
      sl.spans.push_back(CallSpan{t0, t1 - t0, c, static_cast<uint32_t>(ops)});
    }
  }

  static inline std::atomic<uint64_t> next_id_{1};
  const uint64_t id_;  // thread-local slot caches key on this, not the address
  std::atomic<bool> tracing_{false};
  mutable std::mutex mu_;
  mutable std::vector<std::unique_ptr<Slot>> slots_;
};

// The traced server must take the same batched and checked paths as the
// untraced one; a drifted signature would silently fall back.
static_assert(masstree::HasMultigetRows<TracedStore>);
static_assert(masstree::HasMultiput<TracedStore>);
static_assert(masstree::HasCheckedWrites<TracedStore>);

}  // namespace kvbench

#endif  // KVBENCH_TRACED_STORE_H_
