// Architectural models of the §7 comparison systems (Figure 13).
//
// The paper benchmarks MongoDB 2.0, VoltDB 2.0, Redis 2.4.5 and
// memcached 1.4.8. Those code bases cannot be vendored into this
// reproduction, so each is replaced by a model that implements the
// architectural mechanisms the paper identifies as decisive:
//
//   * memcached — data partitioned across 16 single-lock hash-table
//     instances; no persistence; the client library batches gets but NOT
//     puts (Figure 12), so each put pays a full message round trip.
//   * Redis — 16 single-threaded event-loop instances over hash tables;
//     per-op command dispatch; append-only-file logging; columns emulated
//     with byte ranges (as the paper did).
//   * VoltDB — 16 partition sites; every operation is a serialized "stored
//     procedure" with planning/dispatch overhead; tree-indexed partitions
//     support range queries; replication off.
//   * MongoDB 2.0 — 8 server instances, each with a GLOBAL reader-writer
//     lock; B-tree index over the _id column; BSON-style document
//     encode/decode on every operation; in-memory filesystem (no disk I/O).
//
// Per-op overhead constants are stated in each model's Options and charged
// with calibrated busy work; EXPERIMENTS.md reports the measured ratios next
// to the paper's. The bench driver charges per-MESSAGE network costs
// according to each model's batching capabilities (Figure 12).
//
// Every model implements KVModel; drivers address workers by id, and models
// handle their own internal locking.

#ifndef MASSTREE_SYSMODELS_MODELS_H_
#define MASSTREE_SYSMODELS_MODELS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "log/logger.h"
#include "util/busywork.h"

namespace masstree {

// Column-blob helpers: models store each value as ncols fixed-size columns
// concatenated into one string (the MYCSB layout: 10 x 4 bytes).
struct ColumnLayout {
  unsigned ncols = 10;
  unsigned colsize = 4;
  size_t row_bytes() const { return static_cast<size_t>(ncols) * colsize; }
};

class KVModel {
 public:
  virtual ~KVModel() = default;
  virtual const char* name() const = 0;

  // Batching capabilities (Figure 12).
  virtual bool batched_get() const = 0;
  virtual bool batched_put() const = 0;
  virtual bool supports_scan() const = 0;
  virtual bool supports_column_put() const = 0;

  virtual bool get(std::string_view key, std::string* whole_value) = 0;
  // Write `data` into column `col` (or the whole value when col == ~0u).
  virtual bool put(std::string_view key, unsigned col, std::string_view data) = 0;
  // Range query returning up to n keys' one column; returns count.
  virtual size_t scan(std::string_view key, size_t n, unsigned col, std::string* sink) {
    (void)key;
    (void)n;
    (void)col;
    (void)sink;
    return 0;
  }
};

// ---------------------------------------------------------------------
// memcached 1.4 model: hash tables behind one lock per instance. Fast per
// op — its uniform-get throughput can exceed Masstree's (§7) — but no
// persistence, no ranges, no column updates, and unbatched puts.
class MemcachedModel : public KVModel {
 public:
  struct Options {
    unsigned instances = 16;
    ColumnLayout layout;
  };

  explicit MemcachedModel(Options opt) : opt_(opt), shards_(opt.instances) {
    for (auto& s : shards_) {
      s = std::make_unique<Shard>();
    }
  }

  const char* name() const override { return "memcached-model"; }
  bool batched_get() const override { return true; }
  bool batched_put() const override { return false; }  // client library limit
  bool supports_scan() const override { return false; }
  bool supports_column_put() const override { return false; }

  bool get(std::string_view key, std::string* whole_value) override {
    Shard& s = shard(key);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.map.find(std::string(key));
    if (it == s.map.end()) {
      return false;
    }
    *whole_value = it->second;
    return true;
  }

  bool put(std::string_view key, unsigned col, std::string_view data) override {
    if (col != ~0u) {
      return false;  // no column updates
    }
    Shard& s = shard(key);
    std::lock_guard<std::mutex> lock(s.mu);
    return s.map.insert_or_assign(std::string(key), std::string(data)).second;
  }

 private:
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::string, std::string> map;
  };
  Shard& shard(std::string_view key) {
    return *shards_[std::hash<std::string_view>{}(key) % shards_.size()];
  }

  Options opt_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

// ---------------------------------------------------------------------
// Redis 2.4 model: 16 single-threaded instances — one mutex each models the
// event loop's serialization — with per-command dispatch cost and an
// append-only file. Columns via byte ranges (SETRANGE/GETRANGE), as the
// paper's adaptation did.
class RedisModel : public KVModel {
 public:
  struct Options {
    unsigned instances = 16;
    ColumnLayout layout;
    uint64_t command_dispatch_ns = 250;  // parse + dictionary + reply build
    std::string aof_dir;                 // empty = logging off
  };

  explicit RedisModel(Options opt) : opt_(std::move(opt)), shards_(opt_.instances) {
    for (unsigned i = 0; i < opt_.instances; ++i) {
      shards_[i] = std::make_unique<Shard>();
      if (!opt_.aof_dir.empty()) {
        Logger::Options lo;
        lo.fsync_on_flush = false;  // appendfsync everysec-ish
        shards_[i]->aof =
            std::make_unique<Logger>(opt_.aof_dir + "/aof-" + std::to_string(i) + ".bin", lo);
      }
    }
  }

  const char* name() const override { return "redis-model"; }
  bool batched_get() const override { return true; }  // pipelining
  bool batched_put() const override { return true; }
  bool supports_scan() const override { return false; }  // hash table inside
  bool supports_column_put() const override { return true; }

  bool get(std::string_view key, std::string* whole_value) override {
    Shard& s = shard(key);
    std::lock_guard<std::mutex> lock(s.mu);
    busy_ns(opt_.command_dispatch_ns);
    auto it = s.map.find(std::string(key));
    if (it == s.map.end()) {
      return false;
    }
    *whole_value = it->second;
    return true;
  }

  bool put(std::string_view key, unsigned col, std::string_view data) override {
    Shard& s = shard(key);
    std::lock_guard<std::mutex> lock(s.mu);
    busy_ns(opt_.command_dispatch_ns);
    std::string& row = s.map[std::string(key)];
    bool inserted = row.empty();
    if (row.size() < opt_.layout.row_bytes()) {
      row.resize(opt_.layout.row_bytes(), '\0');
    }
    if (col == ~0u) {
      row.assign(data);
    } else {
      size_t off = static_cast<size_t>(col) * opt_.layout.colsize;
      row.replace(off, data.size(), data);  // SETRANGE
    }
    if (s.aof) {
      // The instance mutex serializes appends, satisfying the Logger's
      // single-producer contract.
      const ColumnUpdate upd[] = {{col == ~0u ? 0u : col, data}};
      s.aof->append_put(key, upd, 0);
    }
    return inserted;
  }

 private:
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::string, std::string> map;
    std::unique_ptr<Logger> aof;
  };
  Shard& shard(std::string_view key) {
    return *shards_[std::hash<std::string_view>{}(key) % shards_.size()];
  }

  Options opt_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

// ---------------------------------------------------------------------
// VoltDB 2.0 model: partitioned sites executing serialized stored
// procedures. Every operation pays invocation overhead (transaction
// initiation, plan lookup, response marshalling); partitions are
// tree-indexed so ranges work, but a range query fans out to all sites.
class VoltDBModel : public KVModel {
 public:
  struct Options {
    unsigned sites = 16;
    ColumnLayout layout;
    // Stored-procedure invocation cost per operation. VoltDB's published
    // volt2 numbers (~14k ops/s/core with network) put this in the tens of
    // microseconds; we charge the server-side share.
    uint64_t procedure_ns = 15000;
  };

  explicit VoltDBModel(Options opt) : opt_(opt), sites_(opt.sites) {
    for (auto& s : sites_) {
      s = std::make_unique<Site>();
    }
  }

  const char* name() const override { return "voltdb-model"; }
  bool batched_get() const override { return true; }
  bool batched_put() const override { return true; }
  bool supports_scan() const override { return true; }
  bool supports_column_put() const override { return true; }

  bool get(std::string_view key, std::string* whole_value) override {
    Site& s = site(key);
    std::lock_guard<std::mutex> lock(s.mu);  // serialized execution
    busy_ns(opt_.procedure_ns);
    auto it = s.table.find(std::string(key));
    if (it == s.table.end()) {
      return false;
    }
    *whole_value = it->second;
    return true;
  }

  bool put(std::string_view key, unsigned col, std::string_view data) override {
    Site& s = site(key);
    std::lock_guard<std::mutex> lock(s.mu);
    busy_ns(opt_.procedure_ns);
    std::string& row = s.table[std::string(key)];
    bool inserted = row.empty();
    if (row.size() < opt_.layout.row_bytes()) {
      row.resize(opt_.layout.row_bytes(), '\0');
    }
    if (col == ~0u) {
      row.assign(data);
    } else {
      size_t off = static_cast<size_t>(col) * opt_.layout.colsize;
      row.replace(off, data.size(), data);
    }
    return inserted;
  }

  size_t scan(std::string_view key, size_t n, unsigned col, std::string* sink) override {
    // Scatter-gather: every site runs the procedure, results merged.
    std::vector<std::pair<std::string, std::string>> merged;
    for (auto& sp : sites_) {
      Site& s = *sp;
      std::lock_guard<std::mutex> lock(s.mu);
      busy_ns(opt_.procedure_ns);
      size_t taken = 0;
      for (auto it = s.table.lower_bound(std::string(key));
           it != s.table.end() && taken < n; ++it, ++taken) {
        merged.emplace_back(it->first, column_of(it->second, col));
      }
    }
    std::sort(merged.begin(), merged.end());
    size_t count = std::min(n, merged.size());
    for (size_t i = 0; i < count; ++i) {
      sink->append(merged[i].second);
    }
    return count;
  }

 private:
  struct Site {
    std::mutex mu;
    std::map<std::string, std::string> table;  // tree index
  };
  Site& site(std::string_view key) {
    return *sites_[std::hash<std::string_view>{}(key) % sites_.size()];
  }
  std::string column_of(const std::string& row, unsigned col) const {
    if (col == ~0u) {
      return row;
    }
    size_t off = static_cast<size_t>(col) * opt_.layout.colsize;
    return off < row.size() ? row.substr(off, opt_.layout.colsize) : std::string();
  }

  Options opt_;
  std::vector<std::unique_ptr<Site>> sites_;
};

// ---------------------------------------------------------------------
// MongoDB 2.0 model: 8 instances, each guarded by a GLOBAL reader-writer
// lock (2.0's infamous global lock), a B-tree index over _id, and BSON-style
// document encode/decode on every access. "We run it on an in-memory file
// system to eliminate storage I/O."
class MongoDBModel : public KVModel {
 public:
  struct Options {
    unsigned instances = 8;
    ColumnLayout layout;
    uint64_t bson_ns = 4000;  // per-op message parse + document codec cost
  };

  explicit MongoDBModel(Options opt) : opt_(opt), shards_(opt.instances) {
    for (auto& s : shards_) {
      s = std::make_unique<Shard>();
    }
  }

  const char* name() const override { return "mongodb-model"; }
  bool batched_get() const override { return false; }  // C driver, Figure 12
  bool batched_put() const override { return false; }
  bool supports_scan() const override { return true; }
  bool supports_column_put() const override { return true; }

  bool get(std::string_view key, std::string* whole_value) override {
    Shard& s = shard(key);
    std::shared_lock<std::shared_mutex> lock(s.global_lock);
    Holder held(s.readers, peak_readers_);
    busy_ns(opt_.bson_ns);
    auto it = s.docs.find(std::string(key));
    if (it == s.docs.end()) {
      return false;
    }
    *whole_value = decode(it->second);
    return true;
  }

  bool put(std::string_view key, unsigned col, std::string_view data) override {
    Shard& s = shard(key);
    std::unique_lock<std::shared_mutex> lock(s.global_lock);  // global write lock
    Holder held(s.writers, peak_writers_);
    busy_ns(opt_.bson_ns);
    std::string& doc = s.docs[std::string(key)];
    bool inserted = doc.empty();
    std::string row = decode(doc);
    if (row.size() < opt_.layout.row_bytes()) {
      row.resize(opt_.layout.row_bytes(), '\0');
    }
    if (col == ~0u) {
      row.assign(data);
    } else {
      size_t off = static_cast<size_t>(col) * opt_.layout.colsize;
      row.replace(off, data.size(), data);
    }
    doc = encode(key, row);
    return inserted;
  }

  size_t scan(std::string_view key, size_t n, unsigned col, std::string* sink) override {
    Shard& s = shard(key);  // start shard only; cross-shard merge omitted —
                            // the paper's MYCSB-E MongoDB number is ~0.
    std::shared_lock<std::shared_mutex> lock(s.global_lock);
    Holder held(s.readers, peak_readers_);
    size_t count = 0;
    for (auto it = s.docs.lower_bound(std::string(key)); it != s.docs.end() && count < n;
         ++it, ++count) {
      busy_ns(opt_.bson_ns);
      std::string row = decode(it->second);
      size_t off = static_cast<size_t>(col) * opt_.layout.colsize;
      if (col != ~0u && off < row.size()) {
        sink->append(row.substr(off, opt_.layout.colsize));
      }
    }
    return count;
  }

  // The most readers / writers ever inside one instance's lock at once:
  // the global write lock keeps writers at 1 while readers share.
  int peak_readers() const { return peak_readers_.load(); }
  int peak_writers() const { return peak_writers_.load(); }

 private:
  struct Shard {
    std::shared_mutex global_lock;
    std::map<std::string, std::string> docs;  // _id B-tree index
    std::atomic<int> readers{0};  // current holders, counted inside the lock
    std::atomic<int> writers{0};
  };

  // Counts one holder of a shard's lock while in scope and raises `peak`
  // to the largest count seen.
  struct Holder {
    Holder(std::atomic<int>& now, std::atomic<int>& peak) : now_(now) {
      int n = now_.fetch_add(1) + 1;
      int p = peak.load();
      while (n > p && !peak.compare_exchange_weak(p, n)) {
      }
    }
    ~Holder() { now_.fetch_sub(1); }
    std::atomic<int>& now_;
  };
  Shard& shard(std::string_view key) {
    return *shards_[std::hash<std::string_view>{}(key) % shards_.size()];
  }

  // Toy BSON: field names + lengths wrapped around the row, so every access
  // really does copy/parse bytes.
  std::string encode(std::string_view key, std::string_view row) const {
    std::string doc;
    doc.append("{_id:");
    doc.append(key);
    for (unsigned c = 0; c < opt_.layout.ncols; ++c) {
      doc.append(",f");
      doc.push_back(static_cast<char>('0' + c % 10));
      doc.push_back(':');
      size_t off = static_cast<size_t>(c) * opt_.layout.colsize;
      if (off < row.size()) {
        doc.append(row.substr(off, opt_.layout.colsize));
      }
    }
    doc.push_back('}');
    return doc;
  }
  std::string decode(const std::string& doc) const {
    std::string row;
    row.reserve(opt_.layout.row_bytes());
    size_t pos = 0;
    for (unsigned c = 0; c < opt_.layout.ncols; ++c) {
      std::string tag = ",f";
      tag.push_back(static_cast<char>('0' + c % 10));
      tag.push_back(':');
      pos = doc.find(tag, pos);
      if (pos == std::string::npos) {
        break;
      }
      pos += tag.size();
      row.append(doc.substr(pos, opt_.layout.colsize));
    }
    row.resize(opt_.layout.row_bytes(), '\0');
    return row;
  }

  Options opt_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<int> peak_readers_{0};
  std::atomic<int> peak_writers_{0};
};

}  // namespace masstree

#endif  // MASSTREE_SYSMODELS_MODELS_H_
