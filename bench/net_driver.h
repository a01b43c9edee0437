// Shared client-side load driver for the §6.1 network benchmarks.
//
// drive_gets() aims `nconns` pipelined connections at a running server and
// returns get throughput in Mops. Each connection keeps `depth` request
// frames (of `gets_per_frame` uniform point gets each) in flight; driver
// threads round-robin their connection slice, receiving the oldest frame and
// immediately sending a replacement, so the offered load stays constant for
// the whole timed window. Frames are small (a few hundred bytes each way),
// so `depth` frames in flight never fill a kernel socket buffer.
//
// Used by fig13_system_comparison's connections-vs-throughput sweep and by
// bench_json's net_get_mops / net_put_mops metrics. Both functions see only
// a port, so any server speaking the wire protocol gets identical load.

#ifndef MASSTREE_BENCH_NET_DRIVER_H_
#define MASSTREE_BENCH_NET_DRIVER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "bench/common.h"
#include "net/client.h"
#include "util/rand.h"
#include "workload/keys.h"

namespace masstree {
namespace bench {

struct NetDriveConfig {
  unsigned nconns = 64;        // concurrent connections
  unsigned depth = 16;         // request frames in flight per connection
  unsigned gets_per_frame = 32;
  uint64_t keyspace = 100000;  // keys are decimal_key(0 .. keyspace-1)
  unsigned threads = 4;        // driver threads (capped at nconns)
  double secs = 2.0;
};

inline double drive_gets(uint16_t port, const NetDriveConfig& cfg) {
  unsigned threads = std::max(1u, std::min(cfg.threads, cfg.nconns));
  // Connect everything up front so the timed window measures serving, not
  // connection setup.
  std::vector<std::unique_ptr<Client>> conns;
  conns.reserve(cfg.nconns);
  for (unsigned i = 0; i < cfg.nconns; ++i) {
    conns.push_back(std::make_unique<Client>(port));
  }
  return timed_mops(threads, cfg.secs, [&](unsigned t, const std::atomic<bool>& stop) {
    unsigned lo = cfg.nconns * t / threads;
    unsigned hi = cfg.nconns * (t + 1) / threads;
    Rng rng(7100 + t);
    auto send_frame = [&](Client& c) {
      for (unsigned g = 0; g < cfg.gets_per_frame; ++g) {
        c.get(decimal_key(rng.next_range(cfg.keyspace)));
      }
      c.send();
    };
    for (unsigned i = lo; i < hi; ++i) {
      for (unsigned d = 0; d < cfg.depth; ++d) {
        send_frame(*conns[i]);
      }
    }
    uint64_t ops = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (unsigned i = lo; i < hi; ++i) {
        conns[i]->receive();
        ops += cfg.gets_per_frame;
        send_frame(*conns[i]);
      }
    }
    // Leftover in-flight frames die with the connections; the servers treat
    // the teardown as an ordinary client disconnect.
    return ops;
  });
}

// Write-side twin of drive_gets: frames of single-key uniform puts (8-byte
// values), so every server-side write batch that forms is CROSS-connection
// coalescing into Store::multiput — the kNetBatchedPuts trajectory metric.
inline double drive_puts(uint16_t port, const NetDriveConfig& cfg) {
  unsigned threads = std::max(1u, std::min(cfg.threads, cfg.nconns));
  std::vector<std::unique_ptr<Client>> conns;
  conns.reserve(cfg.nconns);
  for (unsigned i = 0; i < cfg.nconns; ++i) {
    conns.push_back(std::make_unique<Client>(port));
  }
  return timed_mops(threads, cfg.secs, [&](unsigned t, const std::atomic<bool>& stop) {
    unsigned lo = cfg.nconns * t / threads;
    unsigned hi = cfg.nconns * (t + 1) / threads;
    Rng rng(7300 + t);
    auto send_frame = [&](Client& c) {
      for (unsigned g = 0; g < cfg.gets_per_frame; ++g) {
        c.put(decimal_key(rng.next_range(cfg.keyspace)), {{0, "87654321"}});
      }
      c.send();
    };
    for (unsigned i = lo; i < hi; ++i) {
      for (unsigned d = 0; d < cfg.depth; ++d) {
        send_frame(*conns[i]);
      }
    }
    uint64_t ops = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (unsigned i = lo; i < hi; ++i) {
        conns[i]->receive();
        ops += cfg.gets_per_frame;
        send_frame(*conns[i]);
      }
    }
    return ops;
  });
}

}  // namespace bench
}  // namespace masstree

#endif  // MASSTREE_BENCH_NET_DRIVER_H_
