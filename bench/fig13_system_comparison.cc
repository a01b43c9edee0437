// Figure 13 — system comparison (§7): Masstree vs the architectural models
// of MongoDB 2.0, VoltDB 2.0, Redis 2.4 and memcached 1.4 (see
// src/sysmodels/models.h and DESIGN.md §1.4 for what each models and why the
// substitution preserves the published shape).
//
// Workloads, as in the paper: (1) uniform key popularity, 1-to-10-byte
// decimal keys, one 8-byte column — get and put, 16-core and 1-core; (2)
// MYCSB A/B/C/E: Zipfian popularity, 5-24-byte keys, ten 4-byte columns for
// gets, one 4-byte column for updates, getrange of 1..100 keys returning one
// column. Systems that lack a capability sit out that workload (N/A), as in
// the paper. All systems run in-process; per-message network overhead is
// charged with calibrated busy work according to each system's batching
// capabilities (Figure 12) — MT_BENCH_NETNS tunes it. Masstree runs with
// logging enabled.
//
// Paper (Mops, 16 cores): uniform get 9.10 / 0.04 / 0.22 / 5.97 / 9.78;
// uniform put 5.84 / 0.04 / 0.22 / 2.97 / 1.21; MYCSB-A 6.05 / 0.05 / 0.20 /
// 2.13 / N/A; -B 8.90 / 0.04 / 0.20 / 2.69 / N/A; -C 9.86 / 0.05 / 0.21 /
// 2.70 / 5.28; -E 0.91 / ~0 / ~0 / N/A / N/A.

// After the model table, the binary runs the §6.1 connections-vs-throughput
// sweep: the epoll event-loop server (src/net/server.h) serving the store
// over the real wire protocol at 1/8/64/256 connections and pipeline depths
// 1 and 16, plus how many gets reached Tree::multiget through
// cross-connection batch formation (the PALM observation).

#include <algorithm>
#include <filesystem>
#include <memory>
#include <mutex>

#include "bench/common.h"
#include "bench/net_driver.h"
#include "kvstore/store.h"
#include "net/server.h"
#include "sysmodels/models.h"
#include "util/busywork.h"
#include "util/rand.h"
#include "workload/keys.h"
#include "workload/ycsb.h"

namespace masstree {
namespace {

using bench::Env;

// Masstree behind the same KVModel interface the §7 models implement.
class MasstreeModel : public KVModel {
 public:
  explicit MasstreeModel(const std::string& log_dir) {
    Store::Options opt;
    opt.log_dir = log_dir;
    opt.log_partitions = 4;
    store_ = std::make_unique<Store>(opt);
  }

  const char* name() const override { return "masstree"; }
  bool batched_get() const override { return true; }
  bool batched_put() const override { return true; }
  bool supports_scan() const override { return true; }
  bool supports_column_put() const override { return true; }

  bool get(std::string_view key, std::string* whole_value) override {
    thread_local std::vector<std::string> cols;
    bool found = store_->get(key, {}, &cols, session());
    if (found) {
      whole_value->clear();
      for (const auto& c : cols) {
        whole_value->append(c);
      }
    }
    return found;
  }

  bool put(std::string_view key, unsigned col, std::string_view data) override {
    return store_->put(key, {{col == ~0u ? 0u : col, data}}, session());
  }

  size_t scan(std::string_view key, size_t n, unsigned col, std::string* sink) override {
    return store_->getrange(
        key, n, col,
        [&](std::string_view, std::string_view v, const Row*) {
          sink->append(v);
          return true;
        },
        session());
  }

 private:
  // Sessions are owned by the model (declared after store_, so destroyed
  // first) and the thread_local holds only a raw cache pointer: an owning
  // thread_local would run its ~Session from glibc's TLS destructors AFTER
  // main returns — a use-after-free on the model's already-destroyed store
  // that kills the process before stdio even flushes.
  Store::Session& session() {
    thread_local MasstreeModel* owner = nullptr;
    thread_local Store::Session* s = nullptr;
    if (s == nullptr || owner != this) {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      sessions_.push_back(
          std::make_unique<Store::Session>(*store_, next_worker_.fetch_add(1)));
      s = sessions_.back().get();
      owner = this;
    }
    return *s;
  }

  std::unique_ptr<Store> store_;
  std::atomic<unsigned> next_worker_{0};
  std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Store::Session>> sessions_;
};

struct NetCost {
  uint64_t per_message_ns;
  unsigned batch;

  // Charge the network share for one op.
  void charge(bool batched, uint64_t* op_counter) const {
    if (per_message_ns == 0) {
      return;
    }
    if (!batched || ++*op_counter % batch == 0) {
      busy_ns(per_message_ns);
    }
  }
};

// ---- uniform workloads ----

double run_uniform(KVModel& m, const Env& e, unsigned threads, bool puts, NetCost net) {
  return bench::timed_mops(threads, e.secs, [&](unsigned t, const std::atomic<bool>& stop) {
    Rng rng(41 + t);
    uint64_t ops = 0, batch_ctr = 0;
    std::string out;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 64; ++i) {
        std::string key = decimal_key(rng.next_range(e.keys));
        if (puts) {
          net.charge(m.batched_put(), &batch_ctr);
          m.put(key, ~0u, "8bytes!!");
        } else {
          net.charge(m.batched_get(), &batch_ctr);
          m.get(key, &out);
        }
        ++ops;
      }
    }
    return ops;
  });
}

// ---- MYCSB ----

double run_mycsb(KVModel& m, const Env& e, char workload, NetCost net) {
  MycsbConfig cfg;
  cfg.workload = workload;
  cfg.nkeys = e.keys;
  return bench::timed_mops(e.threads, e.secs, [&](unsigned t, const std::atomic<bool>& stop) {
    MycsbGenerator gen(cfg, 97 + t);
    uint64_t ops = 0, batch_ctr = 0;
    std::string out;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 64; ++i) {
        MycsbOp op = gen.next();
        std::string key = mycsb_key(op.key_index);
        switch (op.type) {
          case MycsbOpType::kGet:
            net.charge(m.batched_get(), &batch_ctr);
            m.get(key, &out);
            break;
          case MycsbOpType::kPut:
            net.charge(m.batched_put(), &batch_ctr);
            m.put(key, op.col, gen.column_value(op.key_index, op.col, ops));
            break;
          case MycsbOpType::kScan:
            net.charge(m.batched_get(), &batch_ctr);
            out.clear();
            m.scan(key, op.scan_len, op.col, &out);
            break;
        }
        ++ops;
      }
    }
    return ops;
  });
}

void prefill_uniform(KVModel& m, const Env& e) {
  for (uint64_t i = 0; i < e.keys; ++i) {
    m.put(decimal_key(i), ~0u, "8bytes!!");
  }
}

void prefill_mycsb(KVModel& m, const Env& e) {
  MycsbConfig cfg;
  std::string row(cfg.ncols * cfg.colsize, '0');
  for (uint64_t i = 0; i < e.keys; ++i) {
    m.put(mycsb_key(i), ~0u, row);
  }
}

// ---- §6.1 connections vs throughput ----

void run_net_sweep(const Env& e) {
  std::printf("\n-- connections vs throughput (§6.1): epoll event loop --\n");
  uint64_t keyspace = std::min<uint64_t>(e.keys, 100000);
  Store store;
  {
    Store::Session s(store, 0);
    for (uint64_t i = 0; i < keyspace; ++i) {
      store.put(decimal_key(i), {{0, "8bytes!!"}}, s);
    }
  }
  Server server(store, Server::Options{0, e.threads});
  server.start();

  // Best of two per cell: one pass is scheduler-noise roulette on small
  // boxes.
  std::printf("%6s %6s %13s\n", "conns", "depth", "get");
  for (unsigned conns : {1u, 8u, 64u, 256u}) {
    for (unsigned depth : {1u, 16u}) {
      bench::NetDriveConfig cfg;
      cfg.nconns = conns;
      cfg.depth = depth;
      cfg.keyspace = keyspace;
      cfg.threads = std::min(e.threads, conns);
      cfg.secs = e.secs;
      double mops = 0.0;
      for (int rep = 0; rep < 2; ++rep) {
        mops = std::max(mops, bench::drive_gets(server.port(), cfg));
      }
      std::printf("%6u %6u %11.3f M\n", conns, depth, mops);
    }
  }
  std::printf("cross-connection batched gets reaching Tree::multiget "
              "(kNetBatchedGets mirror): %llu in %llu batches\n",
              static_cast<unsigned long long>(server.batched_gets()),
              static_cast<unsigned long long>(server.batches_formed()));
  server.stop();
}

}  // namespace
}  // namespace masstree

int main() {
  using namespace masstree;
  using namespace masstree::bench;
  Env e = env(200000);
  NetCost net{env_u64("MT_BENCH_NETNS", 1500), 64};
  print_header("Figure 13: system comparison (Masstree vs architectural models)", e);
  std::printf("per-message network cost %llu ns, batch size %u\n\n",
              static_cast<unsigned long long>(net.per_message_ns), net.batch);

  namespace fs = std::filesystem;
  std::string tmp = fs::temp_directory_path().string();
  fs::remove_all(tmp + "/fig13-mt-logs");
  fs::remove_all(tmp + "/fig13-redis-aof");
  fs::create_directories(tmp + "/fig13-mt-logs");
  fs::create_directories(tmp + "/fig13-redis-aof");

  MasstreeModel masstree_model(tmp + "/fig13-mt-logs");
  MongoDBModel mongo{MongoDBModel::Options{}};
  VoltDBModel volt{VoltDBModel::Options{}};
  RedisModel::Options ro;
  ro.aof_dir = tmp + "/fig13-redis-aof";
  RedisModel redis(ro);
  MemcachedModel memcached{MemcachedModel::Options{}};
  std::vector<KVModel*> systems = {&masstree_model, &mongo, &volt, &redis, &memcached};

  auto report = [&](const char* workload, const std::vector<double>& mops) {
    std::printf("%-24s", workload);
    for (size_t i = 0; i < mops.size(); ++i) {
      if (mops[i] < 0) {
        std::printf("  %10s        ", "N/A");
      } else {
        std::printf("  %8.3f (%5.1f%%)", mops[i], 100.0 * mops[i] / mops[0]);
      }
    }
    std::printf("\n");
  };

  std::printf("%-24s", "workload");
  for (KVModel* s : systems) {
    std::printf("  %-18s", s->name());
  }
  std::printf("\n");

  // ---- uniform workloads ----
  for (KVModel* s : systems) {
    prefill_uniform(*s, e);
  }
  {
    std::vector<double> row;
    for (KVModel* s : systems) {
      row.push_back(run_uniform(*s, e, e.threads, /*puts=*/false, net));
    }
    report("uniform get", row);
  }
  {
    std::vector<double> row;
    for (KVModel* s : systems) {
      row.push_back(run_uniform(*s, e, e.threads, /*puts=*/true, net));
    }
    report("uniform put", row);
  }
  {
    std::vector<double> row;
    for (KVModel* s : systems) {
      row.push_back(run_uniform(*s, e, 1, /*puts=*/false, net));
    }
    report("1-core get", row);
  }
  {
    std::vector<double> row;
    for (KVModel* s : systems) {
      row.push_back(run_uniform(*s, e, 1, /*puts=*/true, net));
    }
    report("1-core put", row);
  }

  // ---- MYCSB ----
  for (KVModel* s : systems) {
    prefill_mycsb(*s, e);
  }
  for (char wl : {'A', 'B', 'C', 'E'}) {
    std::vector<double> row;
    for (KVModel* s : systems) {
      bool needs_scan = wl == 'E';
      bool needs_colput = wl == 'A' || wl == 'B' || wl == 'E';
      if ((needs_scan && !s->supports_scan()) ||
          (needs_colput && !s->supports_column_put())) {
        row.push_back(-1);
        continue;
      }
      row.push_back(run_mycsb(*s, e, wl, net));
    }
    std::string name = std::string("MYCSB-") + wl;
    report(name.c_str(), row);
  }

  std::printf("\npaper (16-core Mops): get 9.10/0.04/0.22/5.97/9.78  put 5.84/0.04/0.22/"
              "2.97/1.21\n  A 6.05/0.05/0.20/2.13/NA  B 8.90/0.04/0.20/2.69/NA  "
              "C 9.86/0.05/0.21/2.70/5.28  E 0.91/~0/~0/NA/NA\n");

  run_net_sweep(e);
  return 0;
}
