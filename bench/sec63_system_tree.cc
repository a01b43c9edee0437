// §6.3 — system relevance of tree design: "We turn on logging, generate load
// using network clients, and compare '+IntCmp', the fastest binary tree from
// the previous section, with Masstree. On 140M-key 1-to-10-byte-decimal
// workloads with 16 cores, Masstree provides 1.90x and 1.53x the throughput
// of the binary tree for gets and puts, respectively."
//
// Both backends run behind the SAME network server and logging stack; only
// the tree differs. The binary tree is wrapped in a minimal Store-shaped
// backend (logging via the same Logger) that supplies the server's two
// batched seams itself: multiget_rows and multiput are plain loops of
// single-key tree calls, since the binary tree has no pipelined batch path.

#include <filesystem>

#include "baselines/binary_tree.h"
#include "bench/common.h"
#include "kvstore/store.h"
#include "net/client.h"
#include "net/server.h"
#include "util/rand.h"
#include "workload/keys.h"

namespace masstree {
namespace {

// Store-shaped adapter over the +IntCmp binary tree so BasicServer can serve
// it. Values are Rows built with Row::make, so gets encode exactly as
// Store's do; logging mirrors Store's per-session shards: each session owns
// its own single-producer Logger.
class BinaryStore {
 public:
  using PutOp = Store::PutOp;

  class Session {
   public:
    Session(BinaryStore& store, unsigned) {
      if (!store.log_dir_.empty()) {
        unsigned id = store.next_log_.fetch_add(1, std::memory_order_relaxed);
        logger_ = std::make_unique<Logger>(store.log_dir_ + "/binlog-" +
                                           std::to_string(id) + ".bin");
      }
    }
    ThreadContext& ti() { return ti_; }

   private:
    friend class BinaryStore;
    std::unique_ptr<Logger> logger_;
    ThreadContext ti_;
  };

  explicit BinaryStore(const std::string& log_dir) : log_dir_(log_dir) {
    if (!log_dir.empty()) {
      std::filesystem::create_directories(log_dir);
    }
  }

  // The caller holds an EpochGuard on s.ti() while it reads the rows.
  size_t multiget_rows(std::span<const std::string_view> keys, const Row** rows,
                       Session&) const {
    size_t found = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
      uint64_t lv;
      rows[i] = tree_.get(keys[i], &lv) ? Row::from_slot(lv) : nullptr;
      found += rows[i] != nullptr;
    }
    return found;
  }

  // Removes are unsupported (found stays false); replaced rows leak, which
  // is acceptable for a bench.
  size_t multiput(std::span<PutOp> ops, Session& s) {
    size_t applied = 0;
    for (PutOp& op : ops) {
      if (op.remove) {
        continue;
      }
      Row* row = Row::make(s.ti_, op.updates, 0);
      op.inserted = tree_.insert(op.key, Row::to_slot(row), &s.ti_.arena());
      if (s.logger_ != nullptr) {
        s.logger_->append_put(op.key, op.updates, 0);
      }
      ++applied;
    }
    return applied;
  }

  template <typename F>
  size_t getrange(std::string_view, size_t, unsigned, F&&, Session&) const {
    return 0;  // binary tree baseline has no ordered iteration helper
  }

 private:
  BinaryTree<FlowNodeAlloc, true> tree_;  // "+IntCmp"
  std::string log_dir_;
  std::atomic<unsigned> next_log_{0};
};

struct NetResult {
  double get_mops;
  double put_mops;
};

// Drives a server over loopback with batching clients, one per thread.
template <typename ServerT>
NetResult drive(uint16_t port, const bench::Env& e) {
  NetResult r;
  // Put phase.
  std::atomic<uint64_t> next{0};
  r.put_mops = bench::timed_mops(e.threads, e.secs, [&](unsigned, const std::atomic<bool>& stop) {
    Client c(port);
    uint64_t ops = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      uint64_t chunk = next.fetch_add(512, std::memory_order_relaxed);
      for (uint64_t i = chunk; i < chunk + 512; ++i) {
        c.put(decimal_key(i % e.keys), {{0, "8bytes!!"}});
      }
      c.flush();
      ops += 512;
    }
    return ops;
  });
  // Ensure full load before gets.
  {
    Client c(port);
    uint64_t loaded = next.load();
    for (uint64_t i = loaded; i < e.keys; ++i) {
      c.put(decimal_key(i), {{0, "8bytes!!"}});
      if (c.pending() >= 256) {
        c.flush();
      }
    }
    c.flush();
  }
  r.get_mops = bench::timed_mops(e.threads, e.secs, [&](unsigned t, const std::atomic<bool>& stop) {
    Client c(port);
    Rng rng(59 + t);
    uint64_t ops = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 512; ++i) {
        c.get(decimal_key(rng.next_range(e.keys)));
      }
      c.flush();
      ops += 512;
    }
    return ops;
  });
  return r;
}

}  // namespace
}  // namespace masstree

int main() {
  using namespace masstree;
  using namespace masstree::bench;
  Env e = env(300000);
  print_header("Section 6.3: full system (network + logging), Masstree vs +IntCmp binary",
               e);
  namespace fs = std::filesystem;
  std::string tmp = fs::temp_directory_path().string();
  fs::remove_all(tmp + "/sec63-mt");
  fs::remove_all(tmp + "/sec63-bin");

  NetResult mt, bin;
  {
    Store::Options opt;
    opt.log_dir = tmp + "/sec63-mt";
    Store store(opt);
    Server server(store, Server::Options{0, e.threads});
    server.start();
    mt = drive<Server>(server.port(), e);
    server.stop();
  }
  {
    BinaryStore store(tmp + "/sec63-bin");
    BasicServer<BinaryStore> server(store, {0, e.threads});
    server.start();
    bin = drive<BasicServer<BinaryStore>>(server.port(), e);
    server.stop();
  }

  std::printf("%-22s get %7.3f Mops   put %7.3f Mops\n", "Masstree (net+log)", mt.get_mops,
              mt.put_mops);
  std::printf("%-22s get %7.3f Mops   put %7.3f Mops\n", "+IntCmp binary", bin.get_mops,
              bin.put_mops);
  std::printf("ratio Masstree/binary: get %.2fx  put %.2fx   (paper: 1.90x / 1.53x)\n",
              mt.get_mops / bin.get_mops, mt.put_mops / bin.put_mops);
  return 0;
}
