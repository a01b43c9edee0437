// Log recovery (§5).
//
// "When restoring a database from logs, Masstree sorts logs by timestamp. It
//  first calculates the recovery cutoff point, which is the minimum of the
//  logs' last timestamps, t = min over logs of max update timestamp ...
//  Masstree plays back the logged updates in parallel, taking care to apply a
//  value's updates in increasing order by version, except that updates with
//  u.timestamp > t are dropped."
//
// One refinement over the paper's sketch: logs are per-session files, and a
// session that detached cleanly stamps a trailing kClose marker. Such a
// "complete" log lost nothing, so it contributes every record to replay but
// does not bound the cutoff — otherwise any long-dead session's file would
// pin t at its final write forever. Only live logs (no trailing kClose: the
// producer may have had records in flight when the crash hit) constrain t.

#ifndef MASSTREE_LOG_RECOVERY_H_
#define MASSTREE_LOG_RECOVERY_H_

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "log/logrecord.h"
#include "util/file.h"
#include "util/io.h"
#include "util/thread.h"
#include "util/timing.h"

namespace masstree {

// Reads one log file, returning all intact records (stops at a torn or
// corrupt tail). Missing files read as empty.
inline std::vector<LogEntry> read_log_file(const std::string& path) {
  std::vector<LogEntry> out;
  logwire::decode_all(read_whole_file(path), &out);
  return out;
}

// Every per-session log file in `dir` (the Store names them log-<n>.bin),
// sorted for deterministic replay. Missing directories list as empty.
inline std::vector<std::string> list_log_files(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) {
      continue;
    }
    std::string name = entry.path().filename().string();
    if (name.rfind("log-", 0) == 0 && name.size() > 8 &&
        name.compare(name.size() - 4, 4, ".bin") == 0) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

struct LogFileData {
  std::vector<LogEntry> entries;
  // Trailing kClose: the producer detached cleanly, nothing was lost.
  bool complete = false;
};

struct RecoverySet {
  std::vector<LogFileData> logs;  // one per log file
  uint64_t cutoff_us = std::numeric_limits<uint64_t>::max();
};

// Load every per-worker log, reading and decoding the files on up to
// `nthreads` threads, and compute the §5 cutoff: the minimum over non-empty
// LIVE logs of their last (max) timestamp. Complete logs and logs that
// recorded nothing do not constrain the cutoff; if every log is complete
// the cutoff stays at +inf (nothing was lost anywhere). A file this build
// cannot read (unknown header version) throws, from whichever thread read it.
inline RecoverySet load_logs(const std::vector<std::string>& paths, unsigned nthreads = 1) {
  RecoverySet rs;
  rs.logs.resize(paths.size());
  parallel_for(paths.size(), nthreads, [&](size_t i) {
    LogFileData& lf = rs.logs[i];
    lf.entries = read_log_file(paths[i]);
    lf.complete = !lf.entries.empty() && lf.entries.back().type == LogType::kClose;
  });
  bool any_live = false;
  bool any_records = false;
  for (const LogFileData& lf : rs.logs) {
    if (lf.entries.empty()) {
      continue;
    }
    any_records = true;
    if (!lf.complete) {
      uint64_t last = 0;
      for (const auto& e : lf.entries) {
        last = std::max(last, e.timestamp_us);
      }
      rs.cutoff_us = std::min(rs.cutoff_us, last);
      any_live = true;
    }
  }
  if (!any_live) {
    // All-complete: keep everything. No logs at all: nothing to keep.
    rs.cutoff_us = any_records ? std::numeric_limits<uint64_t>::max() : 0;
  }
  return rs;
}

// Once recovery has consumed a log, seal it: trim the file to its
// crash-consistent prefix (data records with timestamp <= cutoff, which
// also severs any torn tail) and stamp a kClose completion marker. Without
// this, a recovered-but-never-reused live log would pin every future cutoff
// at its old last timestamp, and beyond-cutoff records — deliberately
// dropped by THIS recovery — would resurrect on the next one. Complete logs
// need the trim too: a session that closed cleanly before the crash can
// still hold records newer than a cutoff set by some other, live log.
inline void seal_recovered_log(const std::string& path, const LogFileData& lf,
                               uint64_t cutoff_us) {
  size_t keep = 0;
  bool beyond_cutoff = false;
  for (const auto& e : lf.entries) {
    // Markers carry no replayable state, so only data records gate the cut.
    if ((e.type == LogType::kPut || e.type == LogType::kRemove) &&
        e.timestamp_us > cutoff_us) {
      beyond_cutoff = true;
      break;
    }
    // Variable-length framing (varints, timestamp deltas, compression)
    // makes wire sizes irreproducible from decoded fields, so the decoder
    // records each record's end offset. Truncating at a record boundary
    // keeps every surviving delta chain self-contained: deltas only ever
    // reference earlier records in the same file.
    keep = e.wire_end;
  }
  if (lf.complete && !beyond_cutoff) {
    return;  // already exactly the state the next recovery should see
  }
  int fd = io::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) {
    return;
  }
  if (io::ftruncate(fd, static_cast<off_t>(keep)) == 0) {
    // A fresh format header before the kClose keeps the seal readable when
    // nothing was kept (an empty or headerless file); after a kept prefix
    // a repeated header is a no-op boundary marker.
    std::string tail;
    logwire::encode_header(&tail);
    logwire::encode_close(&tail, wall_us());
    size_t off = 0;
    while (off < tail.size()) {
      ssize_t w = io::write(fd, tail.data() + off, tail.size() - off);
      if (w <= 0 && errno != EINTR) {
        break;
      }
      if (w > 0) {
        off += static_cast<size_t>(w);
      }
    }
    io::fdatasync(fd);
  }
  io::close(fd);
}

// Flatten + filter + sort for replay: drops entries with timestamp > cutoff
// or < since (already covered by a checkpoint), and orders by value version
// so per-key application order is correct. Partitioning by key hash for
// parallel replay preserves this order within each key.
inline std::vector<LogEntry> replay_plan(RecoverySet&& rs, uint64_t since_us = 0) {
  std::vector<LogEntry> plan;
  for (auto& log : rs.logs) {
    for (auto& e : log.entries) {
      if (e.type != LogType::kMarker && e.type != LogType::kClose &&
          e.timestamp_us <= rs.cutoff_us && e.timestamp_us >= since_us) {
        plan.push_back(std::move(e));
      }
    }
  }
  std::sort(plan.begin(), plan.end(),
            [](const LogEntry& a, const LogEntry& b) { return a.version < b.version; });
  return plan;
}

}  // namespace masstree

#endif  // MASSTREE_LOG_RECOVERY_H_
