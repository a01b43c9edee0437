// Cache-line-padded per-thread event counters.
//
// §6.2's analysis (split retries ~1 per 10^6 inserts; insert retries ~15x
// more frequent than split retries) is reproduced by counting retry events on
// the hot paths; padding keeps the counters from becoming the contention they
// are supposed to measure.

#ifndef MASSTREE_UTIL_COUNTERS_H_
#define MASSTREE_UTIL_COUNTERS_H_

#include <array>
#include <atomic>
#include <cstdint>

#include "util/compiler.h"

namespace masstree {

enum class Counter : unsigned {
  kGetRetryFromRoot = 0,   // get restarted at a tree root (split or deleted node)
  kGetRetryLocal,          // get re-examined one node (insert observed)
  kGetForward,             // get followed a B-link next pointer
  kPutSplit,               // border node split
  kPutRetryFromRoot,       // put restarted at a tree root
  kLayerCreated,           // new trie layer created (§4.6.3)
  kNodeDeleted,            // border or interior node removed
  kSlotReuse,              // insert reused a removed slot (vinsert bump, §4.6.5)
  kEpochReclaims,          // objects freed by epoch GC
  kMaintenanceTasks,       // deferred empty-layer cleanups run
  kMultigetBatches,        // multiget batches executed (§4.8 pipeline)
  kMultigetRetry,          // retry events eaten by multiget cursors
  kScanNodes,              // border-node snapshots taken by scan cursors (§3)
  kScanRetries,            // scan snapshot re-validations (version changed mid-copy)
  kScanRedescents,         // scan re-located its border by a descent (deleted
                           //   node, dead layer, or a detached cursor re-attaching)
  kScanAllocs,             // scan-cursor buffer growth events; zero on the
                           //   steady-state chain-walk path (the perf claim)
  kLogAppends,             // records encoded into a per-worker log buffer (§5)
  kLogStalls,              // appends that blocked on a full double-buffer
                           //   (both halves awaiting the logging thread)
  kLogAllocs,              // log-buffer allocation events; after the shard's
                           //   two arena halves exist the append path is
                           //   allocation-free, so steady state is zero
                           //   (same discipline as kScanAllocs)
  kLogFlushBytes,          // bytes group-committed by logging threads
  kLogBytesLogical,        // data-record bytes as if every column were
                           //   stored raw (physical + compression savings)
  kLogBytesPhysical,       // data-record bytes actually encoded (varint
                           //   framing, post-compression); physical/logical
                           //   is the observable compression ratio, and
                           //   physical/appends is log_bytes_per_op
  kLogCompressedRecords,   // put records with >= 1 lz-compressed column
                           //   (bail-outs on incompressible data excluded)
  kNetBatchedGets,         // gets that reached Tree::multiget via a server
                           //   batch formed across >= 2 request ops (§6.1
                           //   event loop; the cross-connection PALM claim)
  kCacheHits,              // record-cache hits (version-validated, served
                           //   without descending the tree)
  kCacheMisses,            // record-cache lookups that fell through to a
                           //   full descent (absent, expired, or invalidated)
  kCacheInvalidations,     // hits killed by border-version validation — a
                           //   concurrent split/update/remove touched the
                           //   cached slot's node (also counted as misses)
  kCacheEvictions,         // live entries displaced by CLOCK to admit a
                           //   hotter key (capacity pressure, not staleness)
  kMultiputBatches,        // multiput batches executed (§4.8 write pipeline;
                           //   Store's one-op put/remove batches included)
  kMultiputRetries,        // batched puts that left the fast apply: split a
                           //   full border or created a layer (counted once
                           //   per put), plus dead-layer restarts
  kNetBatchedPuts,         // puts/removes that reached Store::multiput via a
                           //   server batch formed across >= 2 request ops
                           //   (§6.1; the write-side cross-connection claim)
  kStoreReadOnlyTrips,     // sticky log/checkpoint I/O errors that flipped a
                           //   Store into read-only degraded mode (once per
                           //   store lifetime; see Store::read_only())
  kWritesRejectedReadOnly, // write ops refused with kReadOnly because the
                           //   store had tripped (gets/scans keep serving)
  kNetIdleReaped,          // connections closed by the server's idle sweep
                           //   (no complete frame within idle_timeout_ms)
  kSuffixBagGrowths,       // suffix bags outgrown and copied into a bigger
                           //   one (copy + epoch retire per event, §4.2)
  kNumCounters,
};

inline constexpr unsigned kNumCounters = static_cast<unsigned>(Counter::kNumCounters);

struct alignas(kCacheLineSize) ThreadCounters {
  std::array<uint64_t, kNumCounters> c{};

  void inc(Counter which, uint64_t n = 1) { c[static_cast<unsigned>(which)] += n; }
  uint64_t get(Counter which) const { return c[static_cast<unsigned>(which)]; }
  void reset() { c.fill(0); }
};

}  // namespace masstree

#endif  // MASSTREE_UTIL_COUNTERS_H_
