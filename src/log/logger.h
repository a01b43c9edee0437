// Per-worker value logging with group commit (§5).
//
// "Each server query thread (core) maintains its own log file and in-memory
//  log buffer. A corresponding logging thread ... writes out the log buffer
//  in the background. ... A put operation appends to the query thread's log
//  buffer and responds to the client without forcing that buffer to storage.
//  Logging threads batch updates to take advantage of higher bulk sequential
//  throughput, but force logs to storage at least every 200 ms for safety."
//
// Three pieces:
//
//  * LogShard — one producer's log: a double-buffered arena plus its own log
//    file. The owning thread encodes records in place (no mutex, no
//    allocation: Counter::kLogAllocs stays zero after the two arena halves
//    exist) and publishes them with a release store. When the active half
//    fills it is sealed and the producer flips to the other half, stalling
//    (Counter::kLogStalls) only if the logging thread has not yet drained it.
//
//  * LogWriter — a background logging thread draining many shards: per shard
//    it gathers the sealed halves (oldest first) plus the active half's
//    published prefix into a single writev, then fdatasyncs — one group
//    commit per shard per round, at least every flush_interval_ms (the
//    paper's 200 ms safety deadline) and sooner under load (seals kick the
//    writer; the wait shrinks adaptively while traffic is heavy).
//
//  * Logger — a one-shard, one-writer convenience wrapper for callers that
//    just want "a log file" (models, baselines, tests).
//
// Segments: a shard is one file written by one producer, start to finish.
// When the producer detaches (release_producer) the logging thread drains
// the shard, closes the file with a kClose marker, frees its buffers and
// descriptor, and drops it from its list; the file is never written again.
// A shard reports segment_full() once its file reaches the segment size
// (kLogSegmentBytes unless the constructor says otherwise), and the Store
// then moves the session to a fresh log-<n>.bin, so no log file outgrows a
// segment by more than one flush. Log space is reclaimed only by unlinking
// closed files whose records a checkpoint already holds (Store::truncate_logs).
//
// Timestamp discipline (what makes the §5 recovery cutoff sound): one shard
// = one file = one producer, so DATA-record timestamps are monotone within
// a file and a torn tail can only lose a suffix — never a record older than
// a surviving one. Heartbeat markers are stamped only when a seqlock-style
// begin/end counter pair proves the producer was quiescent for the whole
// drain round, so a marker's timestamp never exceeds that of a record the
// round missed (it is pinned 1us below the round's start, which may also
// tie-break it just below an already-drained same-microsecond record —
// harmless, since a log's last timestamp is the max over its entries). A
// kClose marker stamped when the producer detaches makes the file
// "complete": it contributes records to recovery without bounding the
// cutoff (otherwise every finished session's log would pin t forever at its
// last write).

#ifndef MASSTREE_LOG_LOGGER_H_
#define MASSTREE_LOG_LOGGER_H_

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "log/logrecord.h"
#include "util/compiler.h"
#include "util/counters.h"
#include "util/io.h"
#include "util/timing.h"

namespace masstree {

class LogWriter;

// A session's log file is retired once it reaches this size, well below
// common file-size limits (RLIMIT_FSIZE, filesystem caps).
inline constexpr size_t kLogSegmentBytes = size_t{256} << 20;

// One producer's wait-free log: double-buffered arena + its own file.
// Producer-side methods (append_*, release_producer) must be called
// by one thread at a time (per-session ownership, or external
// serialization); everything else is the logging thread's.
class LogShard {
 public:
  LogShard(const std::string& path, size_t half_bytes, ThreadCounters* counters,
           size_t compress_threshold = 128, size_t segment_bytes = kLogSegmentBytes)
      : path_(path), segment_bytes_(segment_bytes),
        compress_threshold_(compress_threshold), counters_(counters) {
    // O_RDWR, not O_WRONLY: tail repair preads the existing contents. No
    // O_APPEND — POSIX makes pwrite on an append-mode fd ignore its offset,
    // and the logging thread positions every write itself (inside
    // preallocated extents, so group-commit fdatasyncs stay journal-free).
    fd_ = io::open(path.c_str(), O_CREAT | O_RDWR, 0644);
    if (fd_ < 0) {
      throw std::runtime_error("LogShard: cannot open " + path);
    }
    try {
      for (Buf& b : bufs_) {
        b.cap = half_bytes;
        b.data = std::make_unique<char[]>(half_bytes);
        if (counters_ != nullptr) {
          counters_->inc(Counter::kLogAllocs);
        }
      }
      // Every open repairs: a non-empty file then always starts with a
      // format header, which the writer only prepends at offset 0.
      chop_torn_tail();  // throws on an unknown format version
    } catch (...) {
      io::close(fd_);
      throw;
    }
    off_t end = io::lseek(fd_, 0, SEEK_END);
    write_off_ = end > 0 ? static_cast<size_t>(end) : 0;
    prealloc_end_ = write_off_;
    file_bytes_.store(write_off_, std::memory_order_relaxed);
    // An empty file may be one this open just created: its directory entry
    // is synced before the first group commit acknowledges a record in it.
    dir_sync_pending_ = write_off_ == 0;
  }

  ~LogShard() {
    if (fd_ >= 0) {
      io::close(fd_);
    }
  }

  LogShard(const LogShard&) = delete;
  LogShard& operator=(const LogShard&) = delete;

  // ---- producer side -------------------------------------------------
  // Appends return as soon as the record sits in the arena; durability
  // arrives with the logging thread's next group commit. The record's
  // timestamp is read after the begin_append announcement, which is what
  // lets the logging thread prove marker safety (see drain_shard).
  //
  // append_batch is the one planning-and-emitting routine; append_put and
  // append_remove are one-record batches.
  struct BatchOp {
    std::string_view key;
    std::span<const ColumnUpdate> updates;  // ignored when remove == true
    bool remove = false;
    uint64_t version = 0;
  };

  void append_put(std::string_view key, std::span<const ColumnUpdate> updates,
                  uint64_t version) {
    const BatchOp op{key, updates, false, version};
    append_batch(std::span<const BatchOp>(&op, 1));
  }

  // Braced-list convenience: append_put(key, {{0, "v"}}, ver).
  void append_put(std::string_view key, std::initializer_list<ColumnUpdate> updates,
                  uint64_t version) {
    append_put(key, std::span<const ColumnUpdate>(updates.begin(), updates.size()),
               version);
  }

  void append_remove(std::string_view key, uint64_t version) {
    const BatchOp op{key, {}, true, version};
    append_batch(std::span<const BatchOp>(&op, 1));
  }

  // One grouped arena reservation per chunk of records — §4.8's write
  // pipeline meeting §5's wait-free append. Records are planned (compressed)
  // in chunks sized by exact logrecord.h cost, then written with a single
  // begin_append()/wall_us()/reserve()/publish() per chunk, so a batch of B
  // records pays one seqlock announcement, one clock read and one release
  // store instead of B of each. All records of a chunk share one timestamp:
  // the first carries it absolute or delta-chained like any record, the
  // followers are delta-0 against it, so per-file timestamp monotonicity
  // (the §5 recovery cutoff invariant) is untouched. Record order is
  // preserved.
  //
  // Each column is planned by logwire::plan_column (compressed into a stack
  // scratch at or above compress_threshold_, raw when that does not shrink
  // it) before the record is sized, so the arena reservation is exact and
  // the path stays allocation-free (Counter::kLogAllocs == 0 in steady
  // state, compression included). Two kinds
  // of record cannot share a chunk and are planned alone: one with more
  // than kBatchPlanCols columns plans into a heap array (one kLogAllocs),
  // and one larger than an arena half goes out through append_jumbo.
  void append_batch(std::span<const BatchOp> ops) {
    logwire::ColPlan stack_plans[kBatchPlanCols];
    char scratch[kCompressScratchBytes];
    struct RecMeta {
      size_t plan_off;
      size_t ncols;
      size_t size_rest;  // record size as a follower (1-byte delta-0 ts)
      size_t saved;      // raw-minus-stored across compressed columns
      bool compressed;
    };
    RecMeta recs[kBatchChunkRecords];
    size_t i = 0;
    while (i < ops.size()) {
      // ---- plan one chunk [i, i+nrec): pack greedily while plan slots,
      // compression scratch, and a worst-case (absolute-ts first record)
      // arena half all have room.
      logwire::ColPlan* plans = stack_plans;
      std::unique_ptr<logwire::ColPlan[]> heap_plans;
      size_t nrec = 0;
      size_t plan_used = 0;
      size_t scratch_used = 0;
      size_t first_abs = 0;   // first record sized with a worst-case abs ts
      size_t total_rest = 0;  // follower sizes
      while (i + nrec < ops.size() && nrec < kBatchChunkRecords) {
        const BatchOp& op = ops[i + nrec];
        size_t ncols = op.remove ? 0 : op.updates.size();
        if (plan_used + ncols > kBatchPlanCols) {
          if (nrec > 0) {
            break;
          }
          heap_plans = std::make_unique<logwire::ColPlan[]>(ncols);
          plans = heap_plans.get();
          if (counters_ != nullptr) {
            counters_->inc(Counter::kLogAllocs);
          }
        }
        RecMeta& rm = recs[nrec];
        rm.plan_off = plan_used;
        rm.ncols = ncols;
        rm.saved = 0;
        rm.compressed = false;
        size_t scratch_before = scratch_used;
        for (size_t c = 0; c < ncols; ++c) {
          const ColumnUpdate& u = op.updates[c];
          logwire::ColPlan& pl = plans[plan_used + c];
          pl = logwire::plan_column(u.col, u.data, compress_threshold_,
                                    scratch + scratch_used,
                                    sizeof(scratch) - scratch_used);
          if (pl.compressed) {
            scratch_used += pl.stored_len;
            rm.saved += pl.raw_len - pl.stored_len;
            rm.compressed = true;
          }
        }
        size_t sz_rest = record_size(op, plans + rm.plan_off, ncols, 0);
        if (MT_UNLIKELY(nrec > 0 && first_abs + total_rest + sz_rest > bufs_[0].cap)) {
          scratch_used = scratch_before;  // record re-plans in the next chunk
          break;
        }
        if (nrec == 0) {
          first_abs = record_size(op, plans, ncols, ~uint64_t{0});
        } else {
          total_rest += sz_rest;
        }
        rm.size_rest = sz_rest;
        plan_used += ncols;
        ++nrec;
      }
      // ---- emit the chunk: one announcement, one timestamp, one
      // reservation, one publish.
      begin_append();
      uint64_t ts = wall_us();
      const BatchOp& f = ops[i];
      if (MT_UNLIKELY(first_abs > bufs_[0].cap)) {
        // Larger than an arena half (and so alone in its chunk): written
        // between arena flushes, always with an absolute timestamp.
        size_t need = record_size(f, plans, recs[0].ncols, ts);
        append_jumbo(need, [&](char* dst) {
          encode_record(dst, f, plans, recs[0].ncols, ts, false);
        });
        note_data_record(ts, need, need + recs[0].saved, recs[0].compressed);
        ++i;
        continue;
      }
      for (;;) {
        bool delta = prev_ts_valid_;
        uint64_t ts0 =
            delta ? vint::zigzag(static_cast<int64_t>(ts - prev_ts_us_)) : ts;
        size_t first_sz = record_size(f, plans, recs[0].ncols, ts0);
        size_t total = first_sz + total_rest;
        char* dst = reserve(total);
        if (MT_UNLIKELY(dst == nullptr)) {
          return;  // writer shut down underneath us: batch tail dropped
        }
        if (MT_UNLIKELY(delta && bufs_[cur_].wpos == 0)) {
          // Reserve flipped to a fresh half: its first record anchors the
          // delta chain, so re-size the chunk head as absolute and retry.
          prev_ts_valid_ = false;
          continue;
        }
        size_t off = 0;
        for (size_t r = 0; r < nrec; ++r) {
          size_t sz = r == 0 ? first_sz : recs[r].size_rest;
          encode_record(dst + off, ops[i + r], plans + recs[r].plan_off,
                        recs[r].ncols, r == 0 ? ts0 : 0, r == 0 ? delta : true);
          note_data_record(ts, sz, sz + recs[r].saved, recs[r].compressed);
          off += sz;
        }
        publish(total);  // counts one kLogAppends...
        if (counters_ != nullptr && nrec > 1) {
          counters_->inc(Counter::kLogAppends, nrec - 1);  // ...so top up
        }
        break;
      }
      i += nrec;
    }
  }

  // Detach the producer for good; the producer must not touch the shard
  // again. The logging thread drains what is left, stamps the kClose
  // completion marker, syncs, frees the buffers and the descriptor, drops
  // the shard from its list, and then sets closed().
  void release_producer();

  // True once the file has reached the segment size (as of the logging
  // thread's last write): the producer should move to a fresh shard.
  bool segment_full() const {
    return file_bytes_.load(std::memory_order_relaxed) >= segment_bytes_;
  }

  // True once a released shard's file is complete on disk and its logging
  // thread will never touch it again: its owner may unlink the file and
  // free the shard.
  bool closed() const { return close_done_.load(std::memory_order_acquire); }

  // Timestamp of the last data record the producer appended (0 if none).
  // Read it only once closed(): release_producer's release store publishes
  // it, and the logging thread's close_done_ store passes it on.
  uint64_t last_data_ts_us() const { return prev_ts_us_; }

  const std::string& path() const { return path_; }
  // First write/fsync errno, sticky; 0 while healthy. Once set, the logging
  // thread fail-stops this file (drains are discarded) so the on-disk
  // content stays a clean prefix of the record stream.
  int error() const { return error_.load(std::memory_order_relaxed); }
  // Context of the construction-time failure (if any): chop_torn_tail runs
  // before the shard has a writer to report through.
  const io::IoErrorDetail& ctor_error_detail() const { return error_detail_; }

 private:
  friend class LogWriter;

  struct Buf {
    std::unique_ptr<char[]> data;
    size_t cap = 0;
    size_t wpos = 0;                       // producer-owned append offset
    std::atomic<size_t> published{0};      // completed bytes, producer->writer
    std::atomic<uint64_t> seal_seq{0};     // orders two simultaneously-full halves
    std::atomic<bool> full{false};         // sealed, awaiting drain+recycle
    size_t drained = 0;                    // writer-owned consume offset
  };

  // Writer-owned file geometry. The logging thread pwrites at write_off_
  // inside extents preallocated by fallocate, so a group commit's fdatasync
  // is a pure data flush — appends that extend i_size would drag a journal
  // commit into every sync, which on one measured box was the single
  // largest logging cost. The zero-filled preallocated tail reads as a torn
  // record (len 0) and is trimmed at close, reopen or recovery-seal time.
  size_t write_off_ = 0;
  size_t prealloc_end_ = 0;
  // write_off_ as the producer may read it (segment_full).
  std::atomic<size_t> file_bytes_{0};
  bool dir_sync_pending_ = false;  // directory entry not yet synced
  size_t prealloc_chunk_ = 256 << 10;  // doubles per extend, capped at 4 MiB
  uint64_t last_fsync_us_ = 0;         // group-commit force cadence
  uint64_t last_mark_us_ = 0;          // heartbeat-marker pacing
  size_t unsynced_bytes_ = 0;          // written since the last fdatasync

  // Sever any incomplete tail left by a crash before appending: fresh
  // records would otherwise land after the torn bytes, where recovery
  // (which stops at the tear) could never see them. A file with no format
  // header at byte 0 (a crash between fallocate and the first write leaves
  // zeros) has no valid prefix and is truncated to empty.
  void chop_torn_tail() {
    off_t size = io::lseek(fd_, 0, SEEK_END);
    if (size <= 0) {
      return;
    }
    std::string data(static_cast<size_t>(size), '\0');
    ssize_t got = io::pread(fd_, data.data(), data.size(), 0);
    if (got < 0) {
      return;
    }
    data.resize(static_cast<size_t>(got));
    size_t valid = logwire::valid_prefix_bytes(data);
    if (valid < data.size()) {
      int tr;
      while ((tr = io::ftruncate(fd_, static_cast<off_t>(valid))) != 0 &&
             errno == EINTR) {
      }
      if (tr != 0) {
        error_.store(errno, std::memory_order_relaxed);
        error_detail_ = io::IoErrorDetail{"ftruncate", path_, valid, errno};
      }
    }
  }

  static size_t record_size(const BatchOp& op, const logwire::ColPlan* plans,
                            size_t ncols, uint64_t ts_field) {
    return op.remove ? logwire::remove_record_size(op.key, op.version, ts_field)
                     : logwire::put_record_size(op.key, plans, ncols, op.version, ts_field);
  }

  static void encode_record(char* dst, const BatchOp& op, const logwire::ColPlan* plans,
                            size_t ncols, uint64_t ts_field, bool delta) {
    if (op.remove) {
      logwire::encode_remove_to(dst, op.key, op.version, ts_field, delta);
    } else {
      logwire::encode_put_to(dst, op.key, plans, ncols, op.version, ts_field, delta);
    }
  }

  // Per-record byte accounting: physical is what hits the arena/file,
  // logical approximates the same record with every column stored raw
  // (physical + bytes saved by compression), so physical/logical is the
  // observable compression ratio.
  void note_data_record(uint64_t ts, size_t physical, size_t logical,
                        bool compressed) {
    prev_ts_us_ = ts;
    prev_ts_valid_ = true;
    if (counters_ != nullptr) {
      counters_->inc(Counter::kLogBytesPhysical, physical);
      counters_->inc(Counter::kLogBytesLogical, logical);
      if (compressed) {
        counters_->inc(Counter::kLogCompressedRecords);
      }
    }
  }

  // Seqlock-style quiescence fence around the timestamp read: before
  // reading the record's timestamp the producer announces an in-flight
  // append by moving begin_total_ off pub_total_; publish() re-announces
  // the new pub_total_ once the record is visible. The logging thread
  // samples pub_total_ before a drain round and begin_total_ after it;
  // equal values prove no append was in flight across the round, so no
  // record with a timestamp older than the round's start can still be
  // sitting unpublished. (The announced value no longer needs to be the
  // exact future total — record sizes depend on the timestamp itself,
  // which must be read after this announcement — any value != pub_total_
  // marks the producer busy, and begin_total_ only ever equals pub_total_
  // via publish()'s re-announcement, i.e. with nothing in flight.)
  void begin_append() {
    begin_total_.store(pub_total_.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
    full_fence();  // announcement visible before the timestamp is read
  }

  void publish(size_t n) {
    Buf& b = bufs_[cur_];
    b.wpos += n;
    b.published.store(b.wpos, std::memory_order_release);
    uint64_t total = pub_total_.load(std::memory_order_relaxed) + n;
    pub_total_.store(total, std::memory_order_release);
    begin_total_.store(total, std::memory_order_relaxed);
    if (counters_ != nullptr) {
      counters_->inc(Counter::kLogAppends);
    }
  }

  char* reserve(size_t need) {
    Buf& b = bufs_[cur_];
    if (MT_LIKELY(b.wpos + need <= b.cap)) {
      return b.data.get() + b.wpos;
    }
    seal_current();
    cur_ ^= 1;
    Buf& n = bufs_[cur_];
    if (MT_UNLIKELY(n.full.load(std::memory_order_acquire))) {
      // Both halves full: the producer has outrun the logging thread. This
      // is the only blocking point on the write path (the paper's implicit
      // backpressure: "If the log buffer fills up, the wait is longer").
      if (counters_ != nullptr) {
        counters_->inc(Counter::kLogStalls);
      }
      if (!spin_until([&] { return !n.full.load(std::memory_order_acquire); })) {
        return nullptr;
      }
    }
    n.wpos = 0;
    return n.data.get();
  }

  void seal_current() {
    Buf& b = bufs_[cur_];
    b.seal_seq.store(next_seal_seq_++, std::memory_order_relaxed);
    b.full.store(true, std::memory_order_release);
    kick_writer();  // the adaptive high-water: a full half flushes now
  }

  // Records too large for an arena half take a slow path: one heap
  // encoding (counted as kLogAllocs), handed to the logging thread after
  // everything already buffered has drained, and waited out so file order
  // (and thus timestamp monotonicity) is preserved. The caller has already
  // announced via begin_append() and read the timestamp baked into
  // `encode`.
  template <typename Encode>
  void append_jumbo(size_t need, Encode&& encode) {
    if (counters_ != nullptr) {
      counters_->inc(Counter::kLogAllocs);
    }
    wait_all_drained();
    if (writer_stopped()) {
      return;
    }
    auto jumbo = std::make_unique<std::string>();
    jumbo->resize(need);
    encode(jumbo->data());
    jumbo_ = std::move(jumbo);
    uint64_t total = pub_total_.load(std::memory_order_relaxed) + need;
    pub_total_.store(total, std::memory_order_release);
    begin_total_.store(total, std::memory_order_relaxed);
    jumbo_pending_.store(true, std::memory_order_release);
    if (counters_ != nullptr) {
      counters_->inc(Counter::kLogAppends);
    }
    kick_writer();
    spin_until([&] { return !jumbo_pending_.load(std::memory_order_acquire); });
  }

  void wait_all_drained() {
    spin_until([&] {
      return !jumbo_pending_.load(std::memory_order_acquire) &&
             drain_total_.load(std::memory_order_acquire) >=
                 pub_total_.load(std::memory_order_relaxed);
    });
  }

  // Producer-side wait: kick the logging thread periodically and yield on
  // oversubscribed boxes so it can actually run. Returns false if the
  // writer shut down before the predicate held.
  template <typename Pred>
  bool spin_until(Pred&& done) {
    unsigned spins = 0;
    while (!done()) {
      if (writer_stopped()) {
        return false;
      }
      if ((++spins & 0x3FF) == 1) {
        kick_writer();
      } else if ((spins & 0xFF) == 0) {
        std::this_thread::yield();
      }
      spin_pause();
    }
    return true;
  }

  inline void kick_writer();
  inline bool writer_stopped() const;

  // Batch-append chunking: up to this many records share one grouped
  // reservation, drawing column plans from one shared stack arena (a record
  // with more columns plans alone into one heap array, counted like a
  // jumbo). Compressed output beyond the scratch budget stays raw.
  static constexpr size_t kBatchChunkRecords = 16;
  static constexpr size_t kBatchPlanCols = 64;
  static constexpr size_t kCompressScratchBytes = 40 << 10;

  std::string path_;
  size_t segment_bytes_;
  int fd_;
  size_t compress_threshold_;            // 0 disables compression
  Buf bufs_[2];
  unsigned cur_ = 0;                     // producer-owned active half
  uint64_t next_seal_seq_ = 1;           // producer-owned
  // Delta-timestamp chain (producer-owned): valid when the previous data
  // record in this shard can serve as the delta base — reset at half
  // flips (each half starts absolute, so halves stay self-contained).
  uint64_t prev_ts_us_ = 0;
  bool prev_ts_valid_ = false;
  std::atomic<uint64_t> begin_total_{0};  // bytes announced (pre-timestamp)
  std::atomic<uint64_t> pub_total_{0};   // cumulative bytes published
  std::atomic<uint64_t> drain_total_{0}; // cumulative bytes consumed by writer
  std::unique_ptr<std::string> jumbo_;
  std::atomic<bool> jumbo_pending_{false};
  std::atomic<bool> released_{false};    // producer detached
  std::atomic<bool> close_done_{false};  // writer closed the file and let go
  std::atomic<int> error_{0};
  io::IoErrorDetail error_detail_;       // ctor-time only; see accessor
  ThreadCounters* counters_;             // producer's sink (may be null)
  LogWriter* writer_ = nullptr;          // set by LogWriter::add_shard
};

// Background logging thread: drains every registered shard with one
// writev + fdatasync group commit per shard per round.
class LogWriter {
 public:
  struct Options {
    uint64_t flush_interval_ms = 200;  // the paper's safety deadline
    bool fsync_on_flush = true;
  };

  explicit LogWriter(Options opt) : opt_(opt), adaptive_wait_ms_(opt.flush_interval_ms) {}

  ~LogWriter() { stop(); }

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  void start() { thread_ = std::thread([this] { loop(); }); }

  // Final round (drain everything, stamp kClose on every live shard,
  // fdatasync), then join. Idempotent.
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) {
        return;
      }
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  void add_shard(LogShard* s) {
    s->writer_ = this;
    if (s->error() != 0) {
      // Construction-time damage (e.g. a failed tail-repair ftruncate) must
      // be as visible as a runtime write error.
      io::IoErrorDetail d = s->ctor_error_detail();
      if (d.err == 0) {
        d = io::IoErrorDetail{"open", s->path(), 0, s->error()};
      }
      record_first_error(d);
    }
    std::lock_guard<std::mutex> lock(shards_mu_);
    shards_.push_back(s);
    ++shards_gen_;
  }

  // Invoked exactly once, on the first sticky I/O error any shard of this
  // writer hits (logging thread or add_shard caller context). Set before
  // start(); the Store uses it to trip into read-only mode.
  void set_on_first_error(std::function<void(const io::IoErrorDetail&)> cb) {
    on_first_error_ = std::move(cb);
  }

  // Force everything published so far to storage and stamp heartbeat
  // markers where safe. Blocks until a full round that began after this
  // call has completed (its fdatasync included); that round also closes
  // every shard released before the call.
  void sync() {
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_) {
      return;  // shutdown round already drained and closed everything
    }
    uint64_t my = ++sync_req_;
    kicked_ = true;
    cv_.notify_all();
    done_cv_.wait(lock, [&] { return sync_done_ >= my || stop_; });
  }

  uint64_t bytes_written() const { return bytes_written_.load(std::memory_order_relaxed); }
  uint64_t flushes() const { return flushes_.load(std::memory_order_relaxed); }
  uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }
  // The logging thread's own counter sink (kLogFlushBytes lives here; the
  // atomic bytes_written() mirror is the concurrent-reader view). Read only
  // after stop().
  const ThreadCounters& counters() const { return counters_; }
  int error() const { return first_error_.load(std::memory_order_relaxed); }
  // (syscall, path, offset, errno) of the first failing call; default-
  // constructed while healthy.
  io::IoErrorDetail error_detail() const {
    std::lock_guard<std::mutex> lock(err_detail_mu_);
    return first_error_detail_;
  }
  bool stopped() const { return stop_flag_.load(std::memory_order_acquire); }

  void kick() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      kicked_ = true;
    }
    cv_.notify_all();
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(adaptive_wait_ms_), [&] {
        return stop_ || kicked_ || sync_req_ > sync_done_;
      });
      if (stop_) {
        break;
      }
      kicked_ = false;
      uint64_t sync_goal = sync_req_;
      lock.unlock();
      refresh_cache();
      size_t bytes = round(/*closing=*/false, /*force_sync=*/sync_goal > sync_done_);
      // Adaptive high-water: while rounds drain full halves, shrink the
      // deadline so commits stay large-but-frequent instead of stalling
      // producers; fall back to the safety interval when traffic ebbs.
      adaptive_wait_ms_ = bytes >= (256u << 10)
                              ? std::max<uint64_t>(1, opt_.flush_interval_ms / 8)
                              : opt_.flush_interval_ms;
      lock.lock();
      sync_done_ = sync_goal;
      done_cv_.notify_all();
    }
    // Shutdown: one closing round drains every shard and stamps kClose.
    lock.unlock();
    refresh_cache();
    round(/*closing=*/true);
    stop_flag_.store(true, std::memory_order_release);
    lock.lock();
    sync_done_ = sync_req_;
    done_cv_.notify_all();
  }

  void refresh_cache() {
    std::lock_guard<std::mutex> lock(shards_mu_);
    if (cache_gen_ != shards_gen_) {
      cache_ = shards_;
      cache_gen_ = shards_gen_;
    }
  }

  size_t round(bool closing, bool force_sync = false) {
    size_t total = 0;
    for (LogShard* s : cache_) {
      total += drain_shard(*s, closing, force_sync);
    }
    if (!closed_.empty()) {
      drop_closed();
    }
    if (total > 0) {
      flushes_.fetch_add(1, std::memory_order_relaxed);
    }
    return total;
  }

  // Shards closed this round leave both lists before close_done_ is set:
  // from that store on, their owner may free them at any time.
  void drop_closed() {
    auto gone = [&](LogShard* s) {
      return std::find(closed_.begin(), closed_.end(), s) != closed_.end();
    };
    {
      std::lock_guard<std::mutex> lock(shards_mu_);
      std::erase_if(shards_, gone);
    }
    std::erase_if(cache_, gone);
    for (LogShard* s : closed_) {
      s->close_done_.store(true, std::memory_order_release);
    }
    closed_.clear();
  }

  // One shard's group commit. Returns bytes drained. Drains run as often as
  // buffers need recycling, but the fdatasync is paced by the safety
  // deadline: durability is forced at least every flush_interval_ms (the
  // paper's 200 ms), on explicit sync()s, and at close — not per drain,
  // which would burn the write path's CPU budget on journal commits.
  size_t drain_shard(LogShard& s, bool closing, bool force_sync) {
    uint64_t pub_before = s.pub_total_.load(std::memory_order_acquire);
    uint64_t t0 = wall_us();
    size_t bytes = drain_pass(s);

    full_fence();  // pair of LogShard::begin_append's fence
    uint64_t begin_after = s.begin_total_.load(std::memory_order_relaxed);
    bool released = s.released_.load(std::memory_order_acquire);

    char scratch[64];
    if (closing || released) {
      // The producer is gone; one more pass picks up anything it published
      // before detaching, then the completion marker seals the file.
      bytes += drain_pass(s);
      size_t n = logwire::encode_marker_to(scratch, LogType::kClose, wall_us());
      write_all(s, scratch, n);
      bytes += n;
      if (s.error() == 0) {
        // Trim the preallocated zero tail: a cleanly closed file ends at
        // its kClose marker, exactly.
        int tr;
        while ((tr = io::ftruncate(s.fd_, static_cast<off_t>(s.write_off_))) != 0 &&
               errno == EINTR) {
        }
        if (tr == 0) {
          s.prealloc_end_ = s.write_off_;
        }
      }
    } else if (begin_after == pub_before &&
               (force_sync ||
                t0 - s.last_mark_us_ >= opt_.flush_interval_ms * 1000)) {
      // No append overlapped this round, so every record that existed when
      // it started has been drained, and any append that begins later will
      // read its timestamp after our t0: a marker at t0-1 can never claim
      // coverage past a record a crash could lose. Under load the check
      // fails harmlessly — freshly drained records advance the file's last
      // timestamp on their own. Heartbeats are paced by the flush deadline
      // (plus explicit syncs): a busy sibling shard kicking this writer
      // many times a second must not make every idle shard grow a marker
      // per round.
      size_t n = logwire::encode_marker_to(scratch, LogType::kMarker,
                                           t0 == 0 ? 0 : t0 - 1);
      write_all(s, scratch, n);
      bytes += n;
    }
    if (bytes > 0) {
      s.last_mark_us_ = t0;
    }

    // The fsync gate looks at unsynced_bytes_, not this round's drain: a
    // sync() must force bytes a PREVIOUS round drained inside the deadline
    // window, even when this round itself moved nothing.
    bool deadline_due = t0 - s.last_fsync_us_ >= opt_.flush_interval_ms * 1000;
    if (s.unsynced_bytes_ > 0 && opt_.fsync_on_flush && s.error() == 0 &&
        (force_sync || closing || released || deadline_due)) {
      // A new file's directory entry goes first: a record acknowledged by
      // this commit must not vanish with a file a crash forgot.
      if (MT_UNLIKELY(s.dir_sync_pending_)) {
        s.dir_sync_pending_ = false;
        size_t slash = s.path_.find_last_of('/');
        if (!io::sync_dir(slash == std::string::npos ? "." : s.path_.substr(0, slash + 1))) {
          note_error(s, "fdatasync", errno);
        }
      }
      int sr = 0;
      while (s.error() == 0 && (sr = io::fdatasync(s.fd_)) != 0 && errno == EINTR) {
      }
      if (sr != 0) {
        note_error(s, "fdatasync", errno);
      }
      s.last_fsync_us_ = t0;
      s.unsynced_bytes_ = 0;
      syncs_.fetch_add(1, std::memory_order_relaxed);
    }
    if (released) {
      free_closed(s);  // closed and synced above
      closed_.push_back(&s);
    }
    return bytes;
  }

  // A released shard's file is complete on disk: give back its arena halves
  // and its descriptor. The producer has gone, so nothing else reads them.
  static void free_closed(LogShard& s) {
    for (LogShard::Buf& b : s.bufs_) {
      b.data.reset();
      b.cap = 0;
    }
    if (s.fd_ >= 0) {
      io::close(s.fd_);
      s.fd_ = -1;
    }
  }

  // Gather the shard's pending bytes — jumbo record first (it predates
  // anything currently buffered), then sealed halves oldest-first, then the
  // active half's published prefix — into one writev, then publish
  // consumption back to the producer.
  size_t drain_pass(LogShard& s) {
    struct iovec iov[3];
    int niov = 0;
    size_t jumbo_bytes = 0;
    if (s.jumbo_pending_.load(std::memory_order_acquire)) {
      jumbo_bytes = s.jumbo_->size();
      iov[niov].iov_base = s.jumbo_->data();
      iov[niov].iov_len = jumbo_bytes;
      ++niov;
    }

    // Snapshot both halves — full flag, seal sequence, published bytes —
    // then VALIDATE that no seal landed mid-snapshot by re-reading the
    // flags. Without the validation there is a real reordering window: with
    // both halves reading not-full, the producer can seal the active half
    // and publish fresh records into the other between our flag reads and
    // published reads, and index-order draining would write those fresh
    // bytes ahead of the sealed half's older tail. A stable (seal-free)
    // snapshot makes the ordering rule airtight: full halves (published
    // final, drain + recycle) are strictly older than whatever the active
    // half published before the snapshot. Seals are ~one per megabyte, so
    // the retry loop converges immediately; if the producer somehow seals
    // through every retry we fall back to draining the stably-full halves
    // only (they stay full until we recycle them), deferring the active
    // prefix one round.
    struct View {
      LogShard::Buf* b;
      bool full;
      uint64_t seq;
      size_t take = 0;
    } v[2];
    bool stable = false;
    for (int attempt = 0; attempt < 64 && !stable; ++attempt) {
      for (int i = 0; i < 2; ++i) {
        v[i].b = &s.bufs_[i];
        v[i].full = v[i].b->full.load(std::memory_order_acquire);
        v[i].seq = v[i].b->seal_seq.load(std::memory_order_relaxed);
        v[i].take = v[i].b->published.load(std::memory_order_acquire);
      }
      stable = v[0].full == v[0].b->full.load(std::memory_order_acquire) &&
               v[1].full == v[1].b->full.load(std::memory_order_acquire);
    }
    if (!stable) {
      for (View& view : v) {
        if (!view.full) {
          view.take = view.b->drained;  // skip the active prefix this round
        } else {
          view.take = view.b->published.load(std::memory_order_acquire);
        }
      }
    }
    // Full halves first (two order by seal sequence): the drain order must
    // match append order so the file stays a faithful prefix of the record
    // stream, which the timestamp-cutoff argument needs.
    if ((v[0].full && v[1].full && v[0].seq > v[1].seq) || (!v[0].full && v[1].full)) {
      std::swap(v[0], v[1]);
    }
    size_t buf_bytes = 0;
    for (View& view : v) {
      LogShard::Buf& b = *view.b;
      if (view.take > b.drained) {
        iov[niov].iov_base = b.data.get() + b.drained;
        iov[niov].iov_len = view.take - b.drained;
        buf_bytes += view.take - b.drained;
        ++niov;
      }
    }

    if (niov > 0) {
      writev_all(s, iov, niov);
    }

    // Consumption is published even when a sticky error forced a discard:
    // the producer must never stall on a dead disk.
    if (jumbo_bytes > 0) {
      s.drain_total_.fetch_add(jumbo_bytes, std::memory_order_release);
      s.jumbo_pending_.store(false, std::memory_order_release);
    }
    for (View& view : v) {
      LogShard::Buf& b = *view.b;
      if (view.take > b.drained) {
        s.drain_total_.fetch_add(view.take - b.drained, std::memory_order_release);
        b.drained = view.take;
      }
      if (view.full) {
        b.drained = 0;
        b.published.store(0, std::memory_order_relaxed);
        b.full.store(false, std::memory_order_release);  // recycle for reuse
      }
    }
    return jumbo_bytes + buf_bytes;
  }

  // Grow the preallocated extent window so the coming pwrites stay inside
  // i_size. Doubling chunks amortize the (journaling) fallocate calls; on
  // filesystems without fallocate support the writes simply extend the file
  // the ordinary way. A disk that is actually out of space (ENOSPC-class
  // errnos) is a storage failure, not a missing feature: the shard
  // fail-stops so the store can degrade to read-only instead of aborting
  // or silently dropping durability.
  void ensure_prealloc(LogShard& s, size_t bytes) {
    while (s.write_off_ + bytes > s.prealloc_end_ && s.prealloc_end_ != SIZE_MAX) {
      size_t chunk = std::max(s.prealloc_chunk_, bytes);
      if (io::fallocate(s.fd_, 0, static_cast<off_t>(s.prealloc_end_),
                        static_cast<off_t>(chunk)) != 0) {
        if (errno == EINTR) {
          continue;
        }
        if (errno == ENOSPC || errno == EDQUOT || errno == EIO) {
          note_error(s, "fallocate", errno);
          return;
        }
        s.prealloc_end_ = SIZE_MAX;  // unsupported here: plain extending writes
        return;
      }
      s.prealloc_end_ += chunk;
      s.prealloc_chunk_ = std::min(s.prealloc_chunk_ * 2, size_t{4} << 20);
    }
  }

  // Positional gathered write with EINTR/short-write retry. On a hard error
  // the shard fail-stops: the errno sticks, the remaining bytes are
  // discarded, and no further bytes are ever written to that file, keeping
  // its on-disk content a clean prefix.
  void writev_all(LogShard& s, struct iovec* iov, int niov) {
    if (s.error() != 0) {
      return;
    }
    // Every stream opens with a format header at byte 0 of a fresh (or
    // truncated) file. A non-empty file already starts with one: tail
    // repair truncates a headerless file to zero bytes.
    char hdr[logwire::kHeaderSize];
    struct iovec hiov[4];
    if (MT_UNLIKELY(s.write_off_ == 0)) {
      logwire::encode_header_to(hdr);
      hiov[0].iov_base = hdr;
      hiov[0].iov_len = logwire::kHeaderSize;
      for (int i = 0; i < niov; ++i) {
        hiov[i + 1] = iov[i];
      }
      iov = hiov;
      ++niov;
    }
    size_t total = 0;
    for (int i = 0; i < niov; ++i) {
      total += iov[i].iov_len;
    }
    ensure_prealloc(s, total);
    if (s.error() != 0) {
      return;  // ENOSPC-class prealloc failure fail-stopped the shard
    }
    size_t done = 0;
    while (done < total) {
      ssize_t n = io::pwritev(s.fd_, iov, niov, static_cast<off_t>(s.write_off_ + done));
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        note_error(s, "pwritev", errno);
        return;
      }
      done += static_cast<size_t>(n);
      bytes_written_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
      counters_.inc(Counter::kLogFlushBytes, static_cast<uint64_t>(n));
      s.unsynced_bytes_ += static_cast<size_t>(n);
      if (done == total) {
        break;
      }
      // Short write: advance the iovec window and retry.
      size_t skip = static_cast<size_t>(n);
      while (skip >= iov[0].iov_len) {
        skip -= iov[0].iov_len;
        ++iov;
        --niov;
      }
      iov[0].iov_base = static_cast<char*>(iov[0].iov_base) + skip;
      iov[0].iov_len -= skip;
    }
    s.write_off_ += total;
    s.file_bytes_.store(s.write_off_, std::memory_order_relaxed);
  }

  void write_all(LogShard& s, const char* p, size_t n) {
    struct iovec iov{const_cast<char*>(p), n};
    writev_all(s, &iov, 1);
  }

  void note_error(LogShard& s, const char* syscall, int err) {
    s.error_.store(err, std::memory_order_relaxed);
    record_first_error(io::IoErrorDetail{syscall, s.path(), s.write_off_, err});
  }

  void record_first_error(const io::IoErrorDetail& d) {
    int expected = 0;
    if (first_error_.compare_exchange_strong(expected, d.err,
                                             std::memory_order_relaxed)) {
      {
        std::lock_guard<std::mutex> lock(err_detail_mu_);
        first_error_detail_ = d;
      }
      if (on_first_error_) {
        on_first_error_(d);
      }
    }
  }

  Options opt_;
  std::thread thread_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  bool kicked_ = false;
  uint64_t sync_req_ = 0, sync_done_ = 0;
  std::atomic<bool> stop_flag_{false};

  std::mutex shards_mu_;
  std::vector<LogShard*> shards_;
  uint64_t shards_gen_ = 0;
  std::vector<LogShard*> cache_;
  uint64_t cache_gen_ = 0;
  std::vector<LogShard*> closed_;  // closed this round (logging thread only)

  uint64_t adaptive_wait_ms_;

  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<int> first_error_{0};
  mutable std::mutex err_detail_mu_;
  io::IoErrorDetail first_error_detail_;
  std::function<void(const io::IoErrorDetail&)> on_first_error_;
  ThreadCounters counters_;  // written by the logging thread only
};

inline void LogShard::kick_writer() {
  if (writer_ != nullptr) {
    writer_->kick();
  }
}

inline bool LogShard::writer_stopped() const {
  return writer_ == nullptr || writer_->stopped();
}

inline void LogShard::release_producer() {
  LogWriter* w = writer_;  // once released_ is seen, the shard may be freed
  released_.store(true, std::memory_order_release);
  if (w != nullptr) {
    w->kick();
  }
}

// Convenience wrapper: one shard drained by its own logging thread. Appends
// are wait-free but single-producer — callers with multiple append threads
// must serialize them externally (the Store does not use this class; it runs
// one shard per session).
class Logger {
 public:
  struct Options {
    uint64_t flush_interval_ms = 200;  // the paper's safety deadline
    // Per arena half. Two of these per session; sized so a full-throttle
    // producer hands the logging thread multi-hundred-KB writevs (the
    // "higher bulk sequential throughput" batching §5 asks for) instead of
    // trickling small buffers.
    size_t buffer_bytes = 1 << 20;
    bool fsync_on_flush = true;
    // Values this size or larger are lz-compressed in the log (0 disables).
    size_t compress_threshold = 128;
  };

  explicit Logger(const std::string& path) : Logger(path, Options()) {}

  Logger(const std::string& path, Options opt)
      : writer_(LogWriter::Options{opt.flush_interval_ms, opt.fsync_on_flush}),
        shard_(path, opt.buffer_bytes, &counters_, opt.compress_threshold) {
    writer_.add_shard(&shard_);
    writer_.start();
  }

  ~Logger() { writer_.stop(); }  // final drain + kClose + fdatasync

  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  void append_put(std::string_view key, std::span<const ColumnUpdate> updates,
                  uint64_t version) {
    shard_.append_put(key, updates, version);
  }

  void append_put(std::string_view key, std::initializer_list<ColumnUpdate> updates,
                  uint64_t version) {
    shard_.append_put(key, updates, version);
  }

  void append_remove(std::string_view key, uint64_t version) {
    shard_.append_remove(key, version);
  }

  // Force everything appended so far to storage (shutdown, checkpoints,
  // tests); stamps a heartbeat marker when safe so this log's last
  // timestamp covers the synced records (§5 recovery cutoff).
  void sync() { writer_.sync(); }

  const std::string& path() const { return shard_.path(); }
  uint64_t bytes_written() const { return writer_.bytes_written(); }
  uint64_t flushes() const { return writer_.flushes(); }
  int error() const { return shard_.error(); }
  io::IoErrorDetail error_detail() const { return writer_.error_detail(); }
  ThreadCounters& counters() { return counters_; }

 private:
  ThreadCounters counters_;
  LogWriter writer_;
  LogShard shard_;
};

}  // namespace masstree

#endif  // MASSTREE_LOG_LOGGER_H_
