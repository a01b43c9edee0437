// Fault-injectable file-I/O seam — the crash-consistency test boundary.
//
// Every file syscall the persistence stack issues (log writers, recovery
// sealing, checkpoint part/manifest writes) goes through masstree::io.
// With no FaultPlan armed each wrapper is a relaxed atomic load plus a tail
// call into the real syscall — zero-cost passthrough (run_bench.sh asserts
// log_overhead_pct stayed put with the shim compiled in). Arming a
// FaultPlan turns the same boundary into a deterministic storage
// adversary:
//
//   * trace           — record every call (name, path, fd, offset, bytes)
//                       so a fault-free run enumerates its crash points;
//   * fail_at/errno   — the Nth call matching fail_op returns the chosen
//                       errno (EIO, ENOSPC, ...), sticky by default;
//   * eintr_every     — periodic EINTR bursts on mutating calls, to
//                       exercise retry loops;
//   * short_write_cap — pwritev/write accept at most N bytes per call,
//                       to exercise short-write resume paths;
//   * cut_at_call     — "power cut": from the Nth call on, every mutating
//                       call silently succeeds without touching the file
//                       image (the caller never learns — exactly what a
//                       dying machine reports). torn_bytes additionally
//                       lets the first suppressed write apply a byte
//                       prefix, tearing mid-pwritev across iovecs;
//   * drop_unsynced_at_cut — at the cut, each tracked file is rolled back
//                       to its last real-fdatasync extent (page-cache
//                       bytes a power cut would lose);
//   * lie_fsync       — fdatasync reports success without syncing, so the
//                       durable extent never advances: combined with
//                       drop_unsynced_at_cut this is the lying-disk
//                       adversary (even "acked" bytes vanish).
//
// The plan is process-global and thread-safe: log writer threads and
// checkpoint workers hit it concurrently, and the cut fires atomically
// with respect to every in-flight call.

#ifndef MASSTREE_UTIL_IO_H_
#define MASSTREE_UTIL_IO_H_

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/compiler.h"

namespace masstree {
namespace io {

// First failing syscall's context, recorded once (sticky) by the logging
// and checkpoint error paths and surfaced via Store::log_error_detail()
// for the read-only trip log line.
struct IoErrorDetail {
  const char* syscall = "";
  std::string path;
  uint64_t offset = 0;
  int err = 0;
};

struct SyscallRecord {
  const char* name = "";
  std::string path;  // open/rename/unlink only
  int fd = -1;
  uint64_t offset = 0;
  uint64_t bytes = 0;
};

class FaultPlan {
 public:
  // ---- knobs: set before arm(), read-only afterwards -----------------
  bool trace = false;
  // The fail_at'th call matching fail_op (nullptr = any mutating call)
  // returns fail_errno; sticky_fail makes every later match fail too.
  uint64_t fail_at = 0;  // 1-based among matching calls; 0 disables
  int fail_errno = 0;
  const char* fail_op = nullptr;
  bool sticky_fail = true;
  // Every eintr_every'th mutating call leads a burst of eintr_burst
  // EINTR returns (the retry that follows is a fresh call and consumes
  // the rest of the burst).
  unsigned eintr_every = 0;  // 0 disables
  unsigned eintr_burst = 3;
  // pwritev/write accept at most this many bytes per call (0 = no cap).
  size_t short_write_cap = 0;
  // Power cut: calls with index >= cut_at_call are suppressed (silent
  // success, no file effect). torn_bytes < UINT64_MAX makes the first
  // suppressed pwritev/write apply exactly that byte prefix first.
  uint64_t cut_at_call = 0;  // 1-based; 0 disables
  uint64_t torn_bytes = UINT64_MAX;
  bool drop_unsynced_at_cut = false;
  bool lie_fsync = false;

  // ---- post-run queries ----------------------------------------------
  uint64_t calls() const { return calls_.load(std::memory_order_acquire); }
  bool cut_fired() const { return cut_fired_.load(std::memory_order_acquire); }
  std::vector<SyscallRecord> trace_log() {
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
  }

  // ---- shim entry points (reached only while armed) ------------------
  int xopen(const char* path, int flags, mode_t mode) {
    std::lock_guard<std::mutex> lock(mu_);
    note("open", path, -1, 0, 0);
    if (past_cut()) {
      return discard_fd();
    }
    int fd = ::open(path, flags, mode);
    if (fd >= 0) {
      FdState st;
      st.path = path;
      off_t end = ::lseek(fd, 0, SEEK_END);
      st.durable_end = end > 0 ? static_cast<uint64_t>(end) : 0;
      fds_[fd] = std::move(st);
    }
    return fd;
  }

  ssize_t xpwritev(int fd, const struct iovec* iov, int niov, off_t off) {
    std::lock_guard<std::mutex> lock(mu_);
    size_t total = 0;
    for (int i = 0; i < niov; ++i) {
      total += iov[i].iov_len;
    }
    note("pwritev", nullptr, fd, static_cast<uint64_t>(off), total);
    if (int r = gate("pwritev", /*mutating=*/true); r != kProceed) {
      if (r == kSuppress) {
        return static_cast<ssize_t>(total);
      }
      if (r == kTorn) {
        torn_pwritev(fd, iov, niov, off);
        return static_cast<ssize_t>(total);  // the power-cut lie
      }
      return -1;  // gate set errno
    }
    size_t cap = short_write_cap != 0 && short_write_cap < total
                     ? short_write_cap
                     : total;
    ssize_t n = cap == total ? ::pwritev(fd, iov, niov, off)
                             : clamped_pwritev(fd, iov, niov, off, cap);
    if (n > 0) {
      touch_written(fd);
    }
    return n;
  }

  ssize_t xwrite(int fd, const void* buf, size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    note("write", nullptr, fd, 0, n);
    if (int r = gate("write", /*mutating=*/true); r != kProceed) {
      if (r == kSuppress) {
        return static_cast<ssize_t>(n);
      }
      if (r == kTorn) {
        size_t keep = torn_bytes < n ? static_cast<size_t>(torn_bytes) : n;
        if (keep > 0) {
          ssize_t ignored = ::write(fd, buf, keep);
          (void)ignored;
        }
        return static_cast<ssize_t>(n);
      }
      return -1;
    }
    size_t cap = short_write_cap != 0 && short_write_cap < n ? short_write_cap : n;
    ssize_t w = ::write(fd, buf, cap);
    if (w > 0) {
      touch_written(fd);
    }
    return w;
  }

  ssize_t xpread(int fd, void* buf, size_t n, off_t off) {
    std::lock_guard<std::mutex> lock(mu_);
    note("pread", nullptr, fd, static_cast<uint64_t>(off), n);
    // Reads always see the (possibly frozen) real image.
    return ::pread(fd, buf, n, off);
  }

  int xfdatasync(int fd) {
    std::lock_guard<std::mutex> lock(mu_);
    note("fdatasync", nullptr, fd, 0, 0);
    if (int r = gate("fdatasync", /*mutating=*/true); r != kProceed) {
      return r == kFail ? -1 : 0;
    }
    if (lie_fsync) {
      return 0;  // report success, advance nothing
    }
    int r = ::fdatasync(fd);
    if (r == 0) {
      auto it = fds_.find(fd);
      if (it != fds_.end()) {
        off_t end = ::lseek(fd, 0, SEEK_END);
        if (end > 0) {
          it->second.durable_end = static_cast<uint64_t>(end);
        }
      }
    }
    return r;
  }

  int xftruncate(int fd, off_t len) {
    std::lock_guard<std::mutex> lock(mu_);
    note("ftruncate", nullptr, fd, static_cast<uint64_t>(len), 0);
    if (int r = gate("ftruncate", /*mutating=*/true); r != kProceed) {
      return r == kFail ? -1 : 0;
    }
    int r = ::ftruncate(fd, len);
    if (r == 0) {
      auto it = fds_.find(fd);
      if (it != fds_.end() &&
          it->second.durable_end > static_cast<uint64_t>(len)) {
        it->second.durable_end = static_cast<uint64_t>(len);
      }
    }
    return r;
  }

  int xfallocate(int fd, int mode, off_t off, off_t len) {
    std::lock_guard<std::mutex> lock(mu_);
    note("fallocate", nullptr, fd, static_cast<uint64_t>(off),
         static_cast<uint64_t>(len));
    if (int r = gate("fallocate", /*mutating=*/true); r != kProceed) {
      return r == kFail ? -1 : 0;
    }
#if defined(__linux__)
    return ::fallocate(fd, mode, off, len);
#else
    (void)mode;
    errno = EOPNOTSUPP;
    return -1;
#endif
  }

  int xclose(int fd) {
    std::lock_guard<std::mutex> lock(mu_);
    note("close", nullptr, fd, 0, 0);
    fds_.erase(fd);
    return ::close(fd);  // real even past the cut: fds are process state
  }

  int xrename(const char* from, const char* to) {
    std::lock_guard<std::mutex> lock(mu_);
    note("rename", from, -1, 0, 0);
    if (int r = gate("rename", /*mutating=*/true); r != kProceed) {
      return r == kFail ? -1 : 0;  // a suppressed rename never commits
    }
    return ::rename(from, to);
  }

  int xunlink(const char* path) {
    std::lock_guard<std::mutex> lock(mu_);
    note("unlink", path, -1, 0, 0);
    if (int r = gate("unlink", /*mutating=*/true); r != kProceed) {
      return r == kFail ? -1 : 0;  // a suppressed unlink leaves the file
    }
    return ::unlink(path);
  }

  off_t xlseek(int fd, off_t off, int whence) {
    std::lock_guard<std::mutex> lock(mu_);
    note("lseek", nullptr, fd, static_cast<uint64_t>(off), 0);
    return ::lseek(fd, off, whence);
  }

 private:
  struct FdState {
    std::string path;
    uint64_t durable_end = 0;  // extent covered by a completed real fsync
  };

  enum GateResult { kProceed = 0, kFail, kSuppress, kTorn };

  void note(const char* name, const char* path, int fd, uint64_t off,
            uint64_t bytes) {
    calls_.fetch_add(1, std::memory_order_acq_rel);
    if (trace) {
      SyscallRecord r;
      r.name = name;
      if (path != nullptr) {
        r.path = path;
      }
      r.fd = fd;
      r.offset = off;
      r.bytes = bytes;
      records_.push_back(std::move(r));
    }
  }

  bool past_cut() {
    if (cut_fired_.load(std::memory_order_relaxed)) {
      return true;
    }
    if (cut_at_call != 0 &&
        calls_.load(std::memory_order_relaxed) >= cut_at_call) {
      fire_cut();
      return true;
    }
    return false;
  }

  // Decide this (already note()d) call's fate. Returns kTorn exactly once:
  // for the first cut-suppressed write when torn_bytes is set.
  int gate(const char* name, bool mutating) {
    if (cut_fired_.load(std::memory_order_relaxed)) {
      return kSuppress;
    }
    if (cut_at_call != 0 &&
        calls_.load(std::memory_order_relaxed) >= cut_at_call) {
      bool tear = torn_bytes != UINT64_MAX && !torn_done_ &&
                  (std::strcmp(name, "pwritev") == 0 ||
                   std::strcmp(name, "write") == 0);
      if (tear) {
        // The torn prefix models bytes the platter absorbed at the instant
        // of death, so it lands after the rollback fire_cut() performs and
        // survives the cut.
        torn_done_ = true;
        fire_cut();
        return kTorn;
      }
      fire_cut();
      return mutating ? kSuppress : kProceed;
    }
    if (mutating && eintr_every != 0) {
      if (eintr_left_ > 0) {
        --eintr_left_;
        errno = EINTR;
        return kFail;
      }
      if (++eintr_seq_ % eintr_every == 0 && eintr_burst > 0) {
        eintr_left_ = eintr_burst - 1;
        errno = EINTR;
        return kFail;
      }
    }
    if (fail_errno != 0 &&
        (fail_op == nullptr ? mutating : std::strcmp(name, fail_op) == 0)) {
      ++fail_seq_;
      if (fail_seq_ == fail_at || (sticky_fail && fail_seq_ > fail_at)) {
        errno = fail_errno;
        return kFail;
      }
    }
    return kProceed;
  }

  void fire_cut() {
    if (cut_fired_.exchange(true, std::memory_order_acq_rel)) {
      return;
    }
    if (drop_unsynced_at_cut) {
      // Page-cache bytes a power cut loses: roll every tracked file back
      // to its last real-fsync extent.
      for (auto& [fd, st] : fds_) {
        int ignored = ::ftruncate(fd, static_cast<off_t>(st.durable_end));
        (void)ignored;
      }
    }
  }

  void torn_pwritev(int fd, const struct iovec* iov, int niov, off_t off) {
    uint64_t budget = torn_bytes;
    std::vector<struct iovec> cut;
    for (int i = 0; i < niov && budget > 0; ++i) {
      struct iovec v = iov[i];
      if (v.iov_len > budget) {
        v.iov_len = static_cast<size_t>(budget);
      }
      budget -= v.iov_len;
      cut.push_back(v);
    }
    if (!cut.empty()) {
      ssize_t ignored =
          ::pwritev(fd, cut.data(), static_cast<int>(cut.size()), off);
      (void)ignored;
    }
  }

  ssize_t clamped_pwritev(int fd, const struct iovec* iov, int niov, off_t off,
                          size_t cap) {
    std::vector<struct iovec> cut;
    size_t budget = cap;
    for (int i = 0; i < niov && budget > 0; ++i) {
      struct iovec v = iov[i];
      if (v.iov_len > budget) {
        v.iov_len = budget;
      }
      budget -= v.iov_len;
      cut.push_back(v);
    }
    return ::pwritev(fd, cut.data(), static_cast<int>(cut.size()), off);
  }

  void touch_written(int fd) { (void)fd; }

  // A discardable fd for files "created" after the machine died: writes
  // must land somewhere harmless that the frozen image never sees.
  int discard_fd() {
#if defined(__linux__)
    int fd = ::memfd_create("masstree-io-cut", 0);
    if (fd >= 0) {
      return fd;
    }
#endif
    return ::open("/dev/null", O_RDWR);
  }

  std::mutex mu_;
  std::atomic<uint64_t> calls_{0};
  std::atomic<bool> cut_fired_{false};
  bool torn_done_ = false;
  uint64_t eintr_seq_ = 0;
  unsigned eintr_left_ = 0;
  uint64_t fail_seq_ = 0;
  std::vector<SyscallRecord> records_;
  std::unordered_map<int, FdState> fds_;
};

// Process-global plan pointer: null (the common case) means passthrough.
inline std::atomic<FaultPlan*> g_plan{nullptr};

inline void arm(FaultPlan* p) { g_plan.store(p, std::memory_order_release); }
inline void disarm() { g_plan.store(nullptr, std::memory_order_release); }
inline FaultPlan* armed_plan() {
  return g_plan.load(std::memory_order_relaxed);
}

// RAII arming for tests: disarms on scope exit no matter how it exits.
struct Armed {
  explicit Armed(FaultPlan* p) { arm(p); }
  ~Armed() { disarm(); }
  Armed(const Armed&) = delete;
  Armed& operator=(const Armed&) = delete;
};

// ---- the shim: the persistence stack calls these instead of ::syscalls.
inline int open(const char* path, int flags, mode_t mode = 0) {
  FaultPlan* p = armed_plan();
  if (MT_LIKELY(p == nullptr)) {
    return ::open(path, flags, mode);
  }
  return p->xopen(path, flags, mode);
}

inline ssize_t pwritev(int fd, const struct iovec* iov, int niov, off_t off) {
  FaultPlan* p = armed_plan();
  if (MT_LIKELY(p == nullptr)) {
    return ::pwritev(fd, iov, niov, off);
  }
  return p->xpwritev(fd, iov, niov, off);
}

inline ssize_t write(int fd, const void* buf, size_t n) {
  FaultPlan* p = armed_plan();
  if (MT_LIKELY(p == nullptr)) {
    return ::write(fd, buf, n);
  }
  return p->xwrite(fd, buf, n);
}

inline ssize_t pread(int fd, void* buf, size_t n, off_t off) {
  FaultPlan* p = armed_plan();
  if (MT_LIKELY(p == nullptr)) {
    return ::pread(fd, buf, n, off);
  }
  return p->xpread(fd, buf, n, off);
}

inline int fdatasync(int fd) {
  FaultPlan* p = armed_plan();
  if (MT_LIKELY(p == nullptr)) {
    return ::fdatasync(fd);
  }
  return p->xfdatasync(fd);
}

inline int ftruncate(int fd, off_t len) {
  FaultPlan* p = armed_plan();
  if (MT_LIKELY(p == nullptr)) {
    return ::ftruncate(fd, len);
  }
  return p->xftruncate(fd, len);
}

inline int fallocate(int fd, int mode, off_t off, off_t len) {
  FaultPlan* p = armed_plan();
  if (MT_LIKELY(p == nullptr)) {
#if defined(__linux__)
    return ::fallocate(fd, mode, off, len);
#else
    (void)fd;
    (void)mode;
    (void)off;
    (void)len;
    errno = EOPNOTSUPP;
    return -1;
#endif
  }
  return p->xfallocate(fd, mode, off, len);
}

inline int close(int fd) {
  FaultPlan* p = armed_plan();
  if (MT_LIKELY(p == nullptr)) {
    return ::close(fd);
  }
  return p->xclose(fd);
}

inline int rename(const char* from, const char* to) {
  FaultPlan* p = armed_plan();
  if (MT_LIKELY(p == nullptr)) {
    return ::rename(from, to);
  }
  return p->xrename(from, to);
}

inline int unlink(const char* path) {
  FaultPlan* p = armed_plan();
  if (MT_LIKELY(p == nullptr)) {
    return ::unlink(path);
  }
  return p->xunlink(path);
}

inline off_t lseek(int fd, off_t off, int whence) {
  FaultPlan* p = armed_plan();
  if (MT_LIKELY(p == nullptr)) {
    return ::lseek(fd, off, whence);
  }
  return p->xlseek(fd, off, whence);
}

// Makes the directory's entries (creates, renames, unlinks) durable. A
// filesystem that cannot sync directories at all (EINVAL) is not an error.
inline bool sync_dir(const std::string& dir) {
  int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return false;
  }
  int sr;
  while ((sr = fdatasync(fd)) != 0 && errno == EINTR) {
  }
  bool ok = sr == 0 || errno == EINVAL;
  int err = errno;
  close(fd);
  errno = err;
  return ok;
}

}  // namespace io
}  // namespace masstree

#endif  // MASSTREE_UTIL_IO_H_
