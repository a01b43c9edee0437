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
// Part format: the file opens with "MTCK" u8 format_version (2), then
// varint-framed records sharing the log's column encoding:
//
//   varint payload_len | payload | u32 crc32c(payload)
//   payload: varint klen | key | varint row_version | varint ncols |
//            per column: varint h = raw_len * 2 | compressed,
//                        [varint stored_len when compressed], stored bytes
//
// Columns at or above the writer's compress threshold are lz-compressed
// with an incompressible bail-out, mirroring the log. A part without the
// header reads as empty; an unknown header version fail-stops rather than
// reading as an empty checkpoint.

#ifndef MASSTREE_CHECKPOINT_CHECKPOINT_H_
#define MASSTREE_CHECKPOINT_CHECKPOINT_H_

#include <fcntl.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/crc32.h"
#include "util/file.h"
#include "util/io.h"
#include "util/lz.h"
#include "util/varint.h"

namespace masstree {

inline constexpr char kCkptMagic[4] = {'M', 'T', 'C', 'K'};
inline constexpr uint8_t kCkptFormatV2 = 2;

struct CheckpointManifest {
  uint64_t start_ts_us = 0;      // wall clock when the checkpoint began
  uint64_t version_floor = 0;    // value-version counter at start
  unsigned parts = 0;
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

// Makes the directory's entries (creates, renames, unlinks) durable. A
// filesystem that cannot sync directories at all (EINVAL) is not an error.
inline bool sync_dir(const std::string& dir) {
  int fd = io::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return false;
  }
  int sr;
  while ((sr = io::fdatasync(fd)) != 0 && errno == EINTR) {
  }
  bool ok = sr == 0 || errno == EINVAL;
  io::close(fd);
  return ok;
}

// The MANIFEST is the checkpoint's commit point: parts are fdatasynced by
// their writers, the manifest body is written + fdatasynced to a temp file,
// the directory is synced so the parts' entries are durable, and the final
// rename publishes it atomically — a crash (or a FaultPlan power cut)
// anywhere before the rename leaves the checkpoint invisible. The rename is
// synced too: returning true means the commit is durable.
inline bool write_manifest(const std::string& dir, const CheckpointManifest& m) {
  std::string tmp = dir + "/MANIFEST.tmp";
  std::string body = "masstree-checkpoint v1\nstart_ts_us " +
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
  if (sr != 0 || !sync_dir(dir)) {
    return false;
  }
  int rr;
  while ((rr = io::rename(tmp.c_str(), checkpoint_manifest_path(dir).c_str())) != 0 &&
         errno == EINTR) {
  }
  return rr == 0 && sync_dir(dir);
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
  if (header != "masstree-checkpoint v1") {
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

// Streaming writer for one part file (varint framing + per-column lz
// compression above `compress_threshold`, 0 disables). Writes go through
// the masstree::io seam, so checkpoint parts are covered by the same fault
// plans (ENOSPC, short writes, power cuts) as the log; the first failing
// syscall's context is kept for the store's read-only trip line.
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
    char hdr[5];
    std::memcpy(hdr, kCkptMagic, 4);
    hdr[4] = static_cast<char>(kCkptFormatV2);
    write_all(hdr, sizeof(hdr));
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
    // Compress eligible columns first so the payload varints carry final
    // sizes. Checkpointing runs on background workers, so a heap scratch
    // (reused across add calls) is fine here, unlike the log append path.
    payload_.clear();
    put_varint(key.size());
    payload_.append(key);
    put_varint(row_version);
    put_varint(cols.size());
    for (const auto& c : cols) {
      size_t csize = 0;
      if (threshold_ != 0 && c.size() >= threshold_) {
        scratch_.resize(c.size() - 1);
        csize = lz::compress(c.data(), c.size(), scratch_.data(),
                             scratch_.size());
      }
      put_varint((static_cast<uint64_t>(c.size()) << 1) | (csize != 0));
      if (csize != 0) {
        put_varint(csize);
        payload_.append(scratch_.data(), csize);
      } else {
        payload_.append(c);
      }
    }
    // One write per record (frame + payload + crc): record boundaries are
    // syscall boundaries, which is what gives the crash-point sweep its
    // torn-record coverage.
    char frame[vint::kMaxBytes];
    record_.clear();
    record_.append(frame, static_cast<size_t>(
                              vint::put(frame, payload_.size()) - frame));
    record_.append(payload_);
    uint32_t crc = crc32(payload_);
    record_.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
    write_all(record_.data(), record_.size());
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
  void put_varint(uint64_t v) {
    char buf[vint::kMaxBytes];
    payload_.append(buf, static_cast<size_t>(vint::put(buf, v) - buf));
  }

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
  std::string payload_;
  std::string record_;
  std::string scratch_;
  uint64_t records_ = 0;
};

struct CheckpointRecord {
  std::string key;
  uint64_t row_version;
  std::vector<std::string> cols;
};

namespace ckptwire {

// Record stream starting at `pos` (just past the header).
inline void read_records(const std::string& data, size_t pos,
                         std::vector<CheckpointRecord>* out) {
  const char* base = data.data();
  const char* dend = base + data.size();
  while (pos < data.size()) {
    uint64_t len;
    const char* q = vint::get(base + pos, dend, &len);
    if (q == nullptr || len > (1u << 30)) {
      break;
    }
    size_t payload_off = static_cast<size_t>(q - base);
    if (data.size() - payload_off < static_cast<size_t>(len) + 4) {
      break;
    }
    uint32_t want;
    std::memcpy(&want, base + payload_off + len, sizeof(want));
    if (crc32(base + payload_off, static_cast<size_t>(len)) != want) {
      break;
    }
    const char* p = base + payload_off;
    const char* end = p + len;
    CheckpointRecord r;
    uint64_t klen;
    p = vint::get(p, end, &klen);
    if (p == nullptr || klen > static_cast<size_t>(end - p)) break;
    r.key.assign(p, static_cast<size_t>(klen));
    p += klen;
    p = vint::get(p, end, &r.row_version);
    if (p == nullptr) break;
    uint64_t ncols;
    p = vint::get(p, end, &ncols);
    if (p == nullptr || ncols > 0xffff) break;
    bool bad = false;
    for (uint64_t i = 0; i < ncols; ++i) {
      uint64_t h;
      p = vint::get(p, end, &h);
      if (p == nullptr) {
        bad = true;
        break;
      }
      uint64_t raw_len = h >> 1;
      if (raw_len > (1u << 28)) {
        bad = true;
        break;
      }
      if (h & 1) {
        uint64_t stored;
        p = vint::get(p, end, &stored);
        if (p == nullptr || stored > static_cast<size_t>(end - p)) {
          bad = true;
          break;
        }
        std::string col;
        col.resize(static_cast<size_t>(raw_len));
        if (!lz::decompress(p, static_cast<size_t>(stored), col.data(),
                            col.size())) {
          bad = true;
          break;
        }
        p += stored;
        r.cols.push_back(std::move(col));
      } else {
        if (raw_len > static_cast<size_t>(end - p)) {
          bad = true;
          break;
        }
        r.cols.emplace_back(p, static_cast<size_t>(raw_len));
        p += raw_len;
      }
    }
    if (bad || p != end) {
      break;
    }
    out->push_back(std::move(r));
    pos = payload_off + static_cast<size_t>(len) + 4;
  }
}

}  // namespace ckptwire

// Reads a whole part file; stops silently at a torn/corrupt tail (a crash
// mid-part without a manifest would not be read at all; this is extra
// defensiveness for damaged storage). A file without the "MTCK" header
// (missing, empty, torn or foreign) reads as empty; an unknown header
// version throws instead — fail-stop beats silently restoring nothing.
inline std::vector<CheckpointRecord> read_checkpoint_part(const std::string& path) {
  std::vector<CheckpointRecord> out;
  std::string data = read_whole_file(path);
  if (data.size() < 5 || std::memcmp(data.data(), kCkptMagic, 4) != 0) {
    return out;
  }
  uint8_t ver = static_cast<uint8_t>(data[4]);
  if (ver != kCkptFormatV2) {
    throw std::runtime_error("checkpoint: unsupported part format version " +
                             std::to_string(ver) + " in " + path);
  }
  ckptwire::read_records(data, 5, &out);
  return out;
}

}  // namespace masstree

#endif  // MASSTREE_CHECKPOINT_CHECKPOINT_H_
