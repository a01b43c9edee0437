// Checkpoint file format (§5).
//
// "Masstree periodically writes out a checkpoint containing all keys and
//  values. This speeds recovery and allows log space to be reclaimed.
//  Recovery loads the latest valid checkpoint that completed before t, the
//  log recovery time, and then replays logs starting from the timestamp at
//  which the checkpoint began."
//
// A checkpoint is a directory of part files (one per checkpoint worker, each
// covering a key range) plus a MANIFEST written last via rename, so an
// interrupted checkpoint is simply invisible to recovery. Parts are named
// part-<start_ts_us>-<worker>.ckpt after the checkpoint's start time, which
// the MANIFEST records, so a new checkpoint into the same directory never
// opens the files the committed MANIFEST names. Once the new MANIFEST's
// rename is durable, parts it does not name are unlinked.
//
// Part format: a part is an ordinary log stream (log/logrecord.h) — the
// "MTLG" 2 header, then one put record per row carrying the row's columns
// numbered 0..n-1, its row version, and an absolute timestamp of 0
// (recovery never reads a checkpoint record's timestamp, and with no delta
// chain a torn part still decodes to its intact prefix). Parts are written
// with the log's column planner and encoder and read back by
// read_log_file, so columns are compressed under the same rule as in the
// log. A headerless part reads as empty; an unknown header version
// fail-stops. The MANIFEST names this format as "masstree-checkpoint v2";
// recovery refuses a MANIFEST of any other masstree-checkpoint version
// rather than read its parts as empty.

#ifndef MASSTREE_CHECKPOINT_CHECKPOINT_H_
#define MASSTREE_CHECKPOINT_CHECKPOINT_H_

#include <fcntl.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "log/logrecord.h"
#include "util/io.h"

namespace masstree {

inline constexpr char kManifestHeader[] = "masstree-checkpoint v2";

struct CheckpointManifest {
  uint64_t start_ts_us = 0;      // wall clock when the checkpoint began
  uint64_t version_floor = 0;    // value-version counter at start
  unsigned parts = 0;
  // A masstree MANIFEST of another format version: its parts are
  // unreadable here, which recovery must not mistake for "no checkpoint".
  bool unsupported = false;
  bool valid = false;
};

inline std::string checkpoint_part_name(uint64_t start_ts_us, unsigned part) {
  return "part-" + std::to_string(start_ts_us) + "-" + std::to_string(part) + ".ckpt";
}
inline std::string checkpoint_part_path(const std::string& dir, uint64_t start_ts_us,
                                        unsigned part) {
  return dir + "/" + checkpoint_part_name(start_ts_us, part);
}
inline std::string checkpoint_manifest_path(const std::string& dir) {
  return dir + "/MANIFEST";
}

// The MANIFEST is the checkpoint's commit point: parts are fdatasynced by
// their writers, the manifest body is written + fdatasynced to a temp file,
// the directory is synced so the parts' entries are durable, and the final
// rename publishes it atomically — a crash (or a FaultPlan power cut)
// anywhere before the rename leaves the checkpoint invisible. The rename is
// synced too: returning true means the commit is durable.
inline bool write_manifest(const std::string& dir, const CheckpointManifest& m) {
  std::string tmp = dir + "/MANIFEST.tmp";
  std::string body = std::string(kManifestHeader) + "\nstart_ts_us " +
                     std::to_string(m.start_ts_us) + "\nversion_floor " +
                     std::to_string(m.version_floor) + "\nparts " +
                     std::to_string(m.parts) + "\n";
  int fd = io::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) {
    return false;
  }
  size_t off = 0;
  while (off < body.size()) {
    ssize_t w = io::write(fd, body.data() + off, body.size() - off);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) {
        continue;
      }
      io::close(fd);
      return false;
    }
    off += static_cast<size_t>(w);
  }
  int sr;
  while ((sr = io::fdatasync(fd)) != 0 && errno == EINTR) {
  }
  io::close(fd);
  if (sr != 0 || !io::sync_dir(dir)) {
    return false;
  }
  int rr;
  while ((rr = io::rename(tmp.c_str(), checkpoint_manifest_path(dir).c_str())) != 0 &&
         errno == EINTR) {
  }
  return rr == 0 && io::sync_dir(dir);
}

// Unlinks every part file in `dir` that `m` does not name: the previous
// checkpoint's parts and those of interrupted ones. Call only after
// write_manifest(dir, m) succeeded — its directory sync orders the rename
// before these unlinks.
inline void remove_stale_parts(const std::string& dir, const CheckpointManifest& m) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("part-", 0) != 0 || name.compare(name.size() - 5, 5, ".ckpt") != 0) {
      continue;
    }
    bool named = false;
    for (unsigned w = 0; w < m.parts && !named; ++w) {
      named = name == checkpoint_part_name(m.start_ts_us, w);
    }
    while (!named && io::unlink(entry.path().c_str()) != 0 && errno == EINTR) {
    }
  }
}

inline CheckpointManifest read_manifest(const std::string& dir) {
  CheckpointManifest m;
  std::ifstream in(checkpoint_manifest_path(dir));
  if (!in) {
    return m;
  }
  std::string header;
  std::getline(in, header);
  if (header != kManifestHeader) {
    m.unsupported = header.rfind("masstree-checkpoint ", 0) == 0;
    return m;
  }
  std::string field;
  while (in >> field) {
    if (field == "start_ts_us") {
      in >> m.start_ts_us;
    } else if (field == "version_floor") {
      in >> m.version_floor;
    } else if (field == "parts") {
      in >> m.parts;
    }
  }
  m.valid = m.parts > 0;
  return m;
}

// Streaming writer for one part file: the log's header, then one put
// record per row (columns 0..n-1, the row version, timestamp 0), each
// planned by logwire::plan_column and encoded by logwire::encode_put_to.
// Writes go through the masstree::io seam, so checkpoint parts are covered
// by the same fault plans (ENOSPC, short writes, power cuts) as the log;
// the first failing syscall's context is kept for the store's read-only
// trip line.
class CheckpointPartWriter {
 public:
  explicit CheckpointPartWriter(const std::string& path,
                                size_t compress_threshold = 128)
      : path_(path), threshold_(compress_threshold) {
    fd_ = io::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (fd_ < 0) {
      err_ = io::IoErrorDetail{"open", path_, 0, errno};
      return;
    }
    char hdr[logwire::kHeaderSize];
    write_all(hdr, logwire::encode_header_to(hdr));
  }

  ~CheckpointPartWriter() {
    if (fd_ >= 0) {
      io::close(fd_);
    }
  }

  CheckpointPartWriter(const CheckpointPartWriter&) = delete;
  CheckpointPartWriter& operator=(const CheckpointPartWriter&) = delete;

  bool ok() const { return fd_ >= 0 && err_.err == 0; }
  // Context of the first failing syscall (default-constructed while ok).
  const io::IoErrorDetail& error_detail() const { return err_; }

  void add(std::string_view key, uint64_t row_version,
           const std::vector<std::string_view>& cols) {
    // buf_ holds the compressed columns, then the encoded record. Its
    // front always has room for every column raw, so the compress-or-raw
    // decisions never depend on the buffer's history; a record that does
    // not fit behind them grows buf_ and is planned again.
    size_t raw = 0;
    for (std::string_view c : cols) {
      raw += c.size();
    }
    buf_.resize(std::max(buf_.size(), raw));
    plans_.resize(cols.size());
    for (;;) {
      size_t front = 0;
      for (size_t i = 0; i < cols.size(); ++i) {
        plans_[i] = logwire::plan_column(static_cast<uint32_t>(i), cols[i], threshold_,
                                         buf_.data() + front, buf_.size() - front);
        front += plans_[i].compressed ? plans_[i].stored_len : 0;
      }
      size_t n = logwire::put_record_size(key, plans_.data(), plans_.size(), row_version, 0);
      if (front + n <= buf_.size()) {
        logwire::encode_put_to(buf_.data() + front, key, plans_.data(), plans_.size(),
                               row_version, 0, /*delta=*/false);
        // One write per record: record boundaries are syscall boundaries,
        // which is what gives the crash-point sweep its torn-record
        // coverage.
        write_all(buf_.data() + front, n);
        break;
      }
      buf_.resize(front + n);
    }
    ++records_;
  }

  uint64_t records() const { return records_; }

  // Make the part durable before the manifest commits it.
  void finish() {
    if (ok()) {
      int sr;
      while ((sr = io::fdatasync(fd_)) != 0 && errno == EINTR) {
      }
      if (sr != 0) {
        err_ = io::IoErrorDetail{"fdatasync", path_, written_, errno};
      }
    }
  }

 private:
  void write_all(const char* p, size_t n) {
    if (!ok()) {
      return;  // fail-stop: never write past the first error
    }
    size_t off = 0;
    while (off < n) {
      ssize_t w = io::write(fd_, p + off, n - off);
      if (w <= 0) {
        if (w < 0 && errno == EINTR) {
          continue;
        }
        err_ = io::IoErrorDetail{"write", path_, written_ + off,
                                 w < 0 ? errno : EIO};
        return;
      }
      off += static_cast<size_t>(w);
    }
    written_ += n;
  }

  std::string path_;
  int fd_ = -1;
  io::IoErrorDetail err_;
  uint64_t written_ = 0;
  size_t threshold_;
  std::vector<char> buf_;
  std::vector<logwire::ColPlan> plans_;
  uint64_t records_ = 0;
};

}  // namespace masstree

#endif  // MASSTREE_CHECKPOINT_CHECKPOINT_H_
