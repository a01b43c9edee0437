// Log encoding, wait-free per-worker buffers, group commit, and
// recovery-cutoff tests (§5), including failure injection (torn tails,
// corrupt records, full disks) and a multi-writer append/sync/roll
// stress over the LogShard/LogWriter stack.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "log/logger.h"
#include "log/logrecord.h"
#include "log/recovery.h"
#include "util/file.h"
#include "util/lz.h"
#include "util/varint.h"

namespace masstree {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// ---------------- wire format ----------------

TEST(LogRecord, PutRoundTrip) {
  std::string buf;
  logwire::encode_put(&buf, "mykey", {{0, "val0"}, {3, "val3"}}, 42, 1000);
  std::vector<LogEntry> out;
  EXPECT_EQ(logwire::decode_all(buf, &out), buf.size());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, LogType::kPut);
  EXPECT_EQ(out[0].key, "mykey");
  EXPECT_EQ(out[0].version, 42u);
  EXPECT_EQ(out[0].timestamp_us, 1000u);
  ASSERT_EQ(out[0].columns.size(), 2u);
  EXPECT_EQ(out[0].columns[0].first, 0);
  EXPECT_EQ(out[0].columns[0].second, "val0");
  EXPECT_EQ(out[0].columns[1].first, 3);
  EXPECT_EQ(out[0].columns[1].second, "val3");
  EXPECT_EQ(out[0].wire_end, buf.size());
}

TEST(LogRecord, RemoveRoundTrip) {
  std::string buf;
  logwire::encode_remove(&buf, "gone", 7, 2000);
  std::vector<LogEntry> out;
  logwire::decode_all(buf, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, LogType::kRemove);
  EXPECT_EQ(out[0].key, "gone");
  EXPECT_EQ(out[0].version, 7u);
  EXPECT_EQ(out[0].wire_end, buf.size());
}

TEST(LogRecord, MarkerAndCloseRoundTrip) {
  std::string buf;
  logwire::encode_marker(&buf, 111);
  logwire::encode_close(&buf, 222);
  EXPECT_EQ(buf.size(), logwire::kHeaderSize +
                            logwire::marker_record_size(111) +
                            logwire::marker_record_size(222));
  std::vector<LogEntry> out;
  EXPECT_EQ(logwire::decode_all(buf, &out), buf.size());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].type, LogType::kMarker);
  EXPECT_EQ(out[0].timestamp_us, 111u);
  EXPECT_EQ(out[1].type, LogType::kClose);
  EXPECT_EQ(out[1].timestamp_us, 222u);
}

// The single-column tag drops the ncols/per-column framing, keeping the
// bench's typical small put within 31 bytes.
TEST(LogRecord, SingleColumnPutIsCompact) {
  std::string buf;
  logwire::encode_put(&buf, "key12345", {{0, "value"}}, 3, 1700000000000000u);
  std::vector<LogEntry> out;
  EXPECT_EQ(logwire::decode_all(buf, &out), buf.size());
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].columns.size(), 1u);
  EXPECT_EQ(out[0].columns[0].second, "value");
  size_t record = buf.size() - logwire::kHeaderSize;
  // tag(1) + ts(8) + version(1) + klen(1)+8 + col(1) + h(1) + 5 + crc(4) +
  // frame(1) = 31.
  EXPECT_LE(record, 31u);
}

// Version 0 drops the version field entirely (the 0x20 flag is clear).
TEST(LogRecord, ZeroVersionOmitted) {
  std::string with0, with1;
  logwire::encode_put(&with0, "k", {{0, "v"}}, 0, 50);
  logwire::encode_put(&with1, "k", {{0, "v"}}, 1, 50);
  EXPECT_EQ(with0.size() + 1, with1.size());
  std::vector<LogEntry> out;
  EXPECT_EQ(logwire::decode_all(with0, &out), with0.size());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].version, 0u);
}

TEST(LogRecord, BinaryKeyRoundTrip) {
  std::string key("\x00key\xffwith\x00nuls", 14);
  std::string buf;
  logwire::encode_put(&buf, key, {{0, std::string("\x00\x01", 2)}}, 1, 1);
  std::vector<LogEntry> out;
  logwire::decode_all(buf, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key, key);
  EXPECT_EQ(out[0].columns[0].second, std::string("\x00\x01", 2));
}

TEST(LogRecord, TornTailDiscarded) {
  std::string buf;
  logwire::encode_put(&buf, "a", {{0, "1"}}, 1, 1);
  size_t whole = buf.size();
  logwire::encode_put(&buf, "b", {{0, "2"}}, 2, 2);
  // Simulate a crash mid-write of the second record.
  std::string torn = buf.substr(0, whole + 7);
  std::vector<LogEntry> out;
  EXPECT_EQ(logwire::decode_all(torn, &out), whole);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key, "a");
}

TEST(LogRecord, CorruptRecordStopsReplay) {
  std::string buf;
  logwire::encode_put(&buf, "a", {{0, "1"}}, 1, 1);
  size_t first = buf.size();
  logwire::encode_put(&buf, "b", {{0, "2"}}, 2, 2);
  logwire::encode_put(&buf, "c", {{0, "3"}}, 3, 3);
  buf[first + 10] ^= 0x5A;  // flip a byte inside record 2
  std::vector<LogEntry> out;
  EXPECT_EQ(logwire::decode_all(buf, &out), first);
  ASSERT_EQ(out.size(), 1u);  // record 3 is also discarded: order matters
}

// Crash-replay property: cutting the byte stream at EVERY offset yields
// exactly the records that fit completely before the cut — never a crash,
// never a phantom, never a reordering.
TEST(LogRecord, EveryTruncationPointYieldsExactPrefix) {
  std::string buf;
  std::vector<size_t> ends;  // byte offset just past each record
  for (int i = 0; i < 12; ++i) {
    if (i % 5 == 4) {
      logwire::encode_remove(&buf, "k" + std::to_string(i), i + 1, 100 + i);
    } else if (i % 7 == 6) {
      logwire::encode_marker(&buf, 100 + i);
    } else {
      logwire::encode_put(&buf, "key" + std::to_string(i),
                          {{0, std::string(i * 3, 'v')}}, i + 1, 100 + i);
    }
    ends.push_back(buf.size());
  }
  for (size_t cut = 0; cut <= buf.size(); ++cut) {
    size_t expect = 0;
    while (expect < ends.size() && ends[expect] <= cut) {
      ++expect;
    }
    std::vector<LogEntry> out;
    size_t consumed = logwire::decode_all(std::string_view(buf.data(), cut), &out);
    ASSERT_EQ(out.size(), expect) << "cut at " << cut;
    // With zero whole records the decoder still consumes the 5-byte format
    // header once the cut clears it.
    size_t want_consumed = expect > 0 ? ends[expect - 1]
                           : cut >= logwire::kHeaderSize ? logwire::kHeaderSize
                                                         : 0;
    ASSERT_EQ(consumed, want_consumed) << "cut at " << cut;
    for (size_t r = 0; r < out.size(); ++r) {
      EXPECT_EQ(out[r].timestamp_us, 100 + r);  // order preserved
    }
  }
}

// ---------------- varint properties ----------------

TEST(Varint, RoundTripBoundaries) {
  const uint64_t vals[] = {0,
                           1,
                           127,
                           128,
                           16383,
                           16384,
                           (1ull << 21) - 1,
                           1ull << 21,
                           (1ull << 28) - 1,
                           1ull << 28,
                           (1ull << 35),
                           (1ull << 42),
                           (1ull << 49),
                           (1ull << 56),
                           (1ull << 63),
                           ~0ull};
  for (uint64_t v : vals) {
    char buf[vint::kMaxBytes];
    char* end = vint::put(buf, v);
    EXPECT_EQ(static_cast<size_t>(end - buf), vint::size(v)) << v;
    uint64_t back = 0;
    const char* q = vint::get(buf, end, &back);
    ASSERT_EQ(q, end) << v;
    EXPECT_EQ(back, v);
    // Every strict prefix is rejected as truncated.
    for (const char* cut = buf; cut < end; ++cut) {
      EXPECT_EQ(vint::get(buf, cut, &back), nullptr) << v;
    }
  }
}

TEST(Varint, OverlongEncodingRejected) {
  uint64_t out;
  // 1 encoded in two bytes (0x81 0x00) and zero in two (0x80 0x00): the
  // canonical encodings are one byte, so both must be rejected.
  const char two_one[] = {'\x81', '\x00'};
  const char two_zero[] = {'\x80', '\x00'};
  EXPECT_EQ(vint::get(two_one, two_one + 2, &out), nullptr);
  EXPECT_EQ(vint::get(two_zero, two_zero + 2, &out), nullptr);
  // ~0ull has a canonical 10-byte form ending in 0x01; a redundant
  // continuation past it cannot decode.
  char buf[12];
  std::memset(buf, '\x80', sizeof(buf));
  EXPECT_EQ(vint::get(buf, buf + 11, &out), nullptr);
}

TEST(Varint, OversizedValueRejected) {
  // 10th byte may only be 0x00/0x01; anything else overflows 64 bits.
  char buf[10];
  std::memset(buf, '\xff', 9);
  buf[9] = '\x02';
  uint64_t out;
  EXPECT_EQ(vint::get(buf, buf + 10, &out), nullptr);
  buf[9] = '\x01';
  const char* q = vint::get(buf, buf + 10, &out);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(out, ~0ull);
}

TEST(Varint, ZigzagRoundTrip) {
  const int64_t vals[] = {0, 1, -1, 2, -2, 1000000, -1000000,
                          std::numeric_limits<int64_t>::max(),
                          std::numeric_limits<int64_t>::min()};
  for (int64_t v : vals) {
    EXPECT_EQ(vint::unzigzag(vint::zigzag(v)), v);
  }
  EXPECT_EQ(vint::zigzag(0), 0u);
  EXPECT_EQ(vint::zigzag(-1), 1u);
  EXPECT_EQ(vint::zigzag(1), 2u);
}

// A record whose frame length varint is overlong must stop the decode even
// though the payload and crc behind it are intact.
TEST(LogRecord, OverlongFrameVarintStopsDecode) {
  std::string buf;
  logwire::encode_put(&buf, "k", {{0, "v"}}, 1, 9);
  size_t len = buf.size() - logwire::kHeaderSize - 1 - 4;  // payload bytes
  ASSERT_LT(len, 128u);
  std::string evil = buf.substr(0, logwire::kHeaderSize);
  evil.push_back(static_cast<char>(len | 0x80));
  evil.push_back('\x00');
  evil.append(buf, logwire::kHeaderSize + 1, std::string::npos);
  std::vector<LogEntry> out;
  EXPECT_EQ(logwire::decode_all(evil, &out), logwire::kHeaderSize);
  EXPECT_TRUE(out.empty());
}

// ---------------- stream framing + format versioning ----------------

// A mixed stream of multi-column puts, removes and a kClose decodes back to
// exactly the fields it was encoded from, in order.
TEST(LogRecord, MixedStreamRoundTripsInputFields) {
  const std::string long_col(40, 'q');  // ColumnUpdate holds a view
  std::vector<ColumnUpdate> cols = {{0, "short"}, {7, long_col}};
  std::string buf;
  for (int i = 0; i < 20; ++i) {
    uint64_t ts = 1700000000000000u + i * 13;
    logwire::encode_put(&buf, "key" + std::to_string(i), cols, i, ts);
    logwire::encode_remove(&buf, "gone" + std::to_string(i), i + 100, ts + 1);
  }
  logwire::encode_close(&buf, 5);
  std::vector<LogEntry> out;
  ASSERT_EQ(logwire::decode_all(buf, &out), buf.size());
  EXPECT_EQ(logwire::valid_prefix_bytes(buf), buf.size());
  ASSERT_EQ(out.size(), 41u);
  const std::vector<std::pair<uint16_t, std::string>> want_cols = {
      {0, "short"}, {7, long_col}};
  for (int i = 0; i < 20; ++i) {
    uint64_t ts = 1700000000000000u + i * 13;
    const LogEntry& put = out[2 * i];
    EXPECT_EQ(put.type, LogType::kPut) << i;
    EXPECT_EQ(put.timestamp_us, ts) << i;
    EXPECT_EQ(put.version, static_cast<uint64_t>(i)) << i;
    EXPECT_EQ(put.key, "key" + std::to_string(i)) << i;
    EXPECT_EQ(put.columns, want_cols) << i;
    const LogEntry& rm = out[2 * i + 1];
    EXPECT_EQ(rm.type, LogType::kRemove) << i;
    EXPECT_EQ(rm.timestamp_us, ts + 1) << i;
    EXPECT_EQ(rm.version, static_cast<uint64_t>(i) + 100) << i;
    EXPECT_EQ(rm.key, "gone" + std::to_string(i)) << i;
    EXPECT_TRUE(rm.columns.empty()) << i;
  }
  EXPECT_EQ(out.back().type, LogType::kClose);
  EXPECT_EQ(out.back().timestamp_us, 5u);
}

// A stream must open with the format header. A crash after fallocate
// extended a fresh file but before its first pwritev leaves only zeros:
// that file holds no records, tail repair empties it, and the next append
// starts a proper stream.
TEST(LogRecord, HeaderlessStartHasNoRecords) {
  const std::string zeros(4096, '\0');
  std::vector<LogEntry> out;
  EXPECT_EQ(logwire::valid_prefix_bytes(zeros), 0u);
  EXPECT_EQ(logwire::decode_all(zeros, &out), 0u);
  EXPECT_TRUE(out.empty());
  // Well-formed records without the leading header are not a stream either.
  std::string stripped;
  logwire::encode_put(&stripped, "k", {{0, "v"}}, 1, 1);
  stripped.erase(0, logwire::kHeaderSize);
  EXPECT_EQ(logwire::valid_prefix_bytes(stripped), 0u);
  EXPECT_EQ(logwire::decode_all(stripped, &out), 0u);
  EXPECT_TRUE(out.empty());

  std::string path = TempPath("headerless_start.bin");
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }
  {
    LogWriter writer({5, true});
    LogShard shard(path, 4 << 10, nullptr);
    EXPECT_EQ(shard.error(), 0);
    EXPECT_EQ(std::filesystem::file_size(path), 0u);
    writer.add_shard(&shard);
    writer.start();
    shard.append_put("first", {{0, "value"}}, 1);
    writer.sync();
    std::string bytes = read_whole_file(path);
    ASSERT_GE(bytes.size(), logwire::kHeaderSize);
    EXPECT_EQ(bytes.substr(0, 4), "MTLG");
    EXPECT_EQ(bytes[4], '\x02');
    std::vector<LogEntry> got;
    logwire::decode_all(bytes, &got);
    size_t puts = 0;
    for (const LogEntry& e : got) {
      if (e.type == LogType::kPut) {  // heartbeat markers may precede it
        ++puts;
        EXPECT_EQ(e.key, "first");
        ASSERT_EQ(e.columns.size(), 1u);
        EXPECT_EQ(e.columns[0].second, "value");
      }
    }
    EXPECT_EQ(puts, 1u);
    writer.stop();
  }
}

// An unknown future format version must fail-stop — loudly refusing to
// read is recoverable, silently truncating committed data is not.
TEST(LogRecord, UnknownFutureVersionThrows) {
  std::vector<LogEntry> out;
  // Version 1 is as unknown to this build as a future version.
  for (char version : {'\x01', '\x09'}) {
    std::string buf;
    logwire::encode_put(&buf, "k", {{0, "v"}}, 1, 1);
    buf[4] = version;
    EXPECT_THROW(logwire::decode_all(buf, &out), std::runtime_error);
    EXPECT_THROW(logwire::valid_prefix_bytes(buf), std::runtime_error);
  }
  // Mid-file too: a valid v2 prefix followed by a future-version header.
  std::string mixed;
  logwire::encode_put(&mixed, "k", {{0, "v"}}, 1, 1);
  size_t boundary = mixed.size();
  logwire::encode_header(&mixed);
  mixed[boundary + 4] = '\x07';
  EXPECT_THROW(logwire::decode_all(mixed, &out), std::runtime_error);
}

// ---------------- compression + timestamp deltas on the wire ----------------

TEST(LogRecord, CompressedColumnRoundTrip) {
  std::string raw;
  for (int i = 0; i < 100; ++i) {
    raw += "abcdefgh" + std::to_string(i % 10);
  }
  std::string comp(raw.size() - 1, '\0');
  size_t csize = lz::compress(raw.data(), raw.size(), comp.data(), comp.size());
  ASSERT_GT(csize, 0u);
  ASSERT_LT(csize, raw.size());
  logwire::ColPlan plan;
  plan.col = 3;
  plan.data = comp.data();
  plan.stored_len = static_cast<uint32_t>(csize);
  plan.raw_len = static_cast<uint32_t>(raw.size());
  plan.compressed = true;
  std::string buf;
  logwire::encode_header(&buf);
  size_t old = buf.size();
  buf.resize(old + logwire::put_record_size("ckey", &plan, 1, 42, 777));
  logwire::encode_put_to(buf.data() + old, "ckey", &plan, 1, 42, 777,
                         /*delta=*/false);
  std::vector<LogEntry> out;
  ASSERT_EQ(logwire::decode_all(buf, &out), buf.size());
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].columns.size(), 1u);
  EXPECT_EQ(out[0].columns[0].first, 3);
  EXPECT_EQ(out[0].columns[0].second, raw);
  EXPECT_EQ(out[0].version, 42u);
}

TEST(LogRecord, DeltaTimestampDecodes) {
  logwire::ColPlan plan;
  plan.col = 0;
  plan.data = "v";
  plan.stored_len = 1;
  plan.raw_len = 1;
  std::string buf;
  logwire::encode_header(&buf);
  size_t old = buf.size();
  buf.resize(old + logwire::put_record_size("a", &plan, 1, 1, 1000));
  buf.resize(old + logwire::encode_put_to(buf.data() + old, "a", &plan, 1,
                                          1, 1000, /*delta=*/false));
  // Second record 5us EARLIER, as a zigzag delta (clock skew happens).
  uint64_t zz = vint::zigzag(-5);
  old = buf.size();
  buf.resize(old + logwire::put_record_size("b", &plan, 1, 2, zz));
  buf.resize(old + logwire::encode_put_to(buf.data() + old, "b", &plan, 1,
                                          2, zz, /*delta=*/true));
  std::vector<LogEntry> out;
  ASSERT_EQ(logwire::decode_all(buf, &out), buf.size());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].timestamp_us, 1000u);
  EXPECT_EQ(out[1].timestamp_us, 995u);
}

// A delta record with no preceding absolute base in the stream (its base
// was truncated away) must be treated as corruption, not decoded off ts 0.
TEST(LogRecord, DanglingDeltaRejected) {
  logwire::ColPlan plan;
  plan.col = 0;
  plan.data = "v";
  plan.stored_len = 1;
  plan.raw_len = 1;
  std::string buf;
  logwire::encode_header(&buf);
  uint64_t zz = vint::zigzag(7);
  size_t old = buf.size();
  buf.resize(old + logwire::put_record_size("a", &plan, 1, 1, zz));
  buf.resize(old + logwire::encode_put_to(buf.data() + old, "a", &plan, 1,
                                          1, zz, /*delta=*/true));
  std::vector<LogEntry> out;
  EXPECT_EQ(logwire::decode_all(buf, &out), logwire::kHeaderSize);
  EXPECT_TRUE(out.empty());
}

// A format header also severs the delta chain: base before, delta after ->
// the delta is dangling.
TEST(LogRecord, HeaderResetsDeltaBase) {
  logwire::ColPlan plan;
  plan.col = 0;
  plan.data = "v";
  plan.stored_len = 1;
  plan.raw_len = 1;
  std::string buf;
  logwire::encode_header(&buf);
  size_t old = buf.size();
  buf.resize(old + logwire::put_record_size("a", &plan, 1, 1, 1000));
  buf.resize(old + logwire::encode_put_to(buf.data() + old, "a", &plan, 1,
                                          1, 1000, /*delta=*/false));
  logwire::encode_header(&buf);
  size_t stop = buf.size();
  uint64_t zz = vint::zigzag(3);
  old = buf.size();
  buf.resize(old + logwire::put_record_size("b", &plan, 1, 2, zz));
  buf.resize(old + logwire::encode_put_to(buf.data() + old, "b", &plan, 1,
                                          2, zz, /*delta=*/true));
  std::vector<LogEntry> out;
  EXPECT_EQ(logwire::decode_all(buf, &out), stop);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key, "a");
}

// ---------------- Logger (single shard + its logging thread) ----------------

TEST(Logger, WritesAndRecovers) {
  std::string path = TempPath("logger_basic.bin");
  std::remove(path.c_str());
  {
    Logger::Options opt;
    opt.flush_interval_ms = 10;
    Logger log(path, opt);
    for (int i = 0; i < 100; ++i) {
      log.append_put("key" + std::to_string(i), {{0, "v" + std::to_string(i)}}, i + 1);
    }
    log.append_remove("key5", 200);
    log.sync();
    EXPECT_EQ(log.error(), 0);
    // Steady-state appends are allocation-free: only the two arena halves.
    EXPECT_EQ(log.counters().get(Counter::kLogAllocs), 2u);
    EXPECT_EQ(log.counters().get(Counter::kLogAppends), 101u);
  }  // destructor drains and stamps the kClose completion marker
  auto entries = read_log_file(path);
  size_t puts = 0, removes = 0, markers = 0, closes = 0;
  for (const auto& e : entries) {
    switch (e.type) {
      case LogType::kPut: ++puts; break;
      case LogType::kRemove: ++removes; break;
      case LogType::kMarker: ++markers; break;
      case LogType::kClose: ++closes; break;
    }
  }
  EXPECT_EQ(puts, 100u);
  EXPECT_EQ(removes, 1u);
  // sync() stamps a heartbeat (the shard was quiescent); the destructor
  // stamps kClose, and kClose is last so the log reads as complete.
  EXPECT_GE(markers, 1u);
  EXPECT_GE(closes, 1u);
  EXPECT_EQ(entries.back().type, LogType::kClose);
  // Data-record timestamps are monotone within one producer's file (what
  // makes the §5 cutoff sound). Markers are excluded: a heartbeat is
  // deliberately stamped one microsecond shy of the round's start, so it
  // may tie-break 1us below a record drained in the same microsecond.
  uint64_t last_ts = 0;
  for (const auto& e : entries) {
    if (e.type != LogType::kPut && e.type != LogType::kRemove) {
      continue;
    }
    EXPECT_GE(e.timestamp_us, last_ts);
    last_ts = e.timestamp_us;
  }
}

TEST(Logger, GroupCommitFlushesOnDeadline) {
  std::string path = TempPath("logger_deadline.bin");
  std::remove(path.c_str());
  Logger::Options opt;
  opt.flush_interval_ms = 20;
  Logger log(path, opt);
  log.append_put("k", {{0, "v"}}, 1);
  // Without an explicit sync, the 20 ms group-commit deadline must flush.
  for (int tries = 0; tries < 200 && log.flushes() == 0; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(log.bytes_written(), 0u);
  EXPECT_GT(log.flushes(), 0u);
}

TEST(Logger, DoubleBufferSealsAndRecyclesUnderLoad) {
  std::string path = TempPath("logger_seal.bin");
  std::remove(path.c_str());
  Logger::Options opt;
  opt.flush_interval_ms = 5;
  opt.buffer_bytes = 1 << 10;  // tiny halves: every few appends seals one
  {
    Logger log(path, opt);
    for (int i = 0; i < 5000; ++i) {
      log.append_put("key" + std::to_string(i), {{0, "0123456789abcdef"}}, i + 1);
    }
    log.sync();
    // Stalls may or may not occur (timing), but allocation-freedom must
    // hold even while halves seal and recycle constantly.
    EXPECT_EQ(log.counters().get(Counter::kLogAllocs), 2u);
  }
  auto entries = read_log_file(path);
  size_t puts = 0;
  uint64_t last_version = 0;
  for (const auto& e : entries) {
    if (e.type == LogType::kPut) {
      ++puts;
      EXPECT_GT(e.version, last_version);  // drain order == append order
      last_version = e.version;
    }
  }
  EXPECT_EQ(puts, 5000u);
}

TEST(Logger, JumboRecordTakesSlowPathIntact) {
  std::string path = TempPath("logger_jumbo.bin");
  std::remove(path.c_str());
  Logger::Options opt;
  opt.buffer_bytes = 1 << 10;
  opt.compress_threshold = 0;  // 8 KiB of 'J' would otherwise fit a half
  {
    Logger log(path, opt);
    log.append_put("small-before", {{0, "x"}}, 1);
    log.append_put("jumbo", {{0, std::string(8 << 10, 'J')}}, 2);  // > both halves
    log.append_put("small-after", {{0, "y"}}, 3);
    log.sync();
    EXPECT_GE(log.counters().get(Counter::kLogAllocs), 3u);  // halves + jumbo
  }
  auto entries = read_log_file(path);
  std::vector<const LogEntry*> puts;
  for (const auto& e : entries) {
    if (e.type == LogType::kPut) {
      puts.push_back(&e);
    }
  }
  ASSERT_EQ(puts.size(), 3u);
  EXPECT_EQ(puts[0]->key, "small-before");
  EXPECT_EQ(puts[1]->key, "jumbo");
  EXPECT_EQ(puts[1]->columns[0].second.size(), size_t{8 << 10});
  EXPECT_EQ(puts[2]->key, "small-after");
}

// Every record kind that cannot share a chunk, in one append_batch call: a
// put larger than both arena halves (jumbo), a put with more columns than
// the stack plan arena (heap plan), plus a 20-column put, a remove and small
// puts around them. All decode in span order with exact contents and
// non-decreasing timestamps, and the only allocations are the two halves,
// one jumbo encoding and one heap plan.
TEST(Logger, MixedSlowPathsInOneBatch) {
  std::string path = TempPath("logger_mixed_batch.bin");
  std::remove(path.c_str());
  std::vector<std::string> vals(70);
  for (size_t c = 0; c < vals.size(); ++c) {
    vals[c] = "col" + std::to_string(c);
  }
  auto columns = [&vals](size_t n) {
    std::vector<ColumnUpdate> ups;
    for (size_t c = 0; c < n; ++c) {
      ups.push_back(ColumnUpdate{static_cast<unsigned>(c), vals[c]});
    }
    return ups;
  };
  const std::string jumbo(8 << 10, 'J');
  const std::vector<ColumnUpdate> small_before = {{0, "x"}};
  const std::vector<ColumnUpdate> big = {{0, jumbo}};
  const std::vector<ColumnUpdate> cols20 = columns(20);
  const std::vector<ColumnUpdate> cols70 = columns(70);
  const std::vector<ColumnUpdate> small_after = {{3, "y"}};
  const std::vector<LogShard::BatchOp> ops = {
      {"small-before", small_before, false, 1}, {"jumbo", big, false, 2},
      {"twenty", cols20, false, 3},             {"seventy", cols70, false, 4},
      {"removed", {}, true, 5},                 {"small-after", small_after, false, 6},
  };
  ThreadCounters counters;
  {
    LogWriter::Options wopt;
    wopt.fsync_on_flush = false;
    LogWriter writer(wopt);
    // 1 KiB halves hold the 20- and 70-column records but not the jumbo;
    // compression off keeps the jumbo at its raw 8 KiB.
    LogShard shard(path, 1 << 10, &counters, /*compress_threshold=*/0);
    writer.add_shard(&shard);
    writer.start();
    shard.append_batch(ops);
    writer.stop();
    EXPECT_EQ(shard.error(), 0);
  }
  EXPECT_EQ(counters.get(Counter::kLogAllocs), 2u + 1u + 1u);  // halves + jumbo + heap plan

  std::vector<LogEntry> data;
  for (LogEntry& e : read_log_file(path)) {
    if (e.type == LogType::kPut || e.type == LogType::kRemove) {
      data.push_back(std::move(e));
    }
  }
  ASSERT_EQ(data.size(), ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    SCOPED_TRACE(ops[i].key);
    EXPECT_EQ(data[i].key, ops[i].key);
    EXPECT_EQ(data[i].version, ops[i].version);
    EXPECT_EQ(data[i].type, ops[i].remove ? LogType::kRemove : LogType::kPut);
    const std::span<const ColumnUpdate> want =
        ops[i].remove ? std::span<const ColumnUpdate>() : ops[i].updates;
    ASSERT_EQ(data[i].columns.size(), want.size());
    for (size_t c = 0; c < want.size(); ++c) {
      EXPECT_EQ(data[i].columns[c].first, want[c].col);
      EXPECT_EQ(data[i].columns[c].second, want[c].data);
    }
    if (i > 0) {
      EXPECT_GE(data[i].timestamp_us, data[i - 1].timestamp_us);
    }
  }
}

// A large-but-compressible value that would overflow a 1 KiB arena half raw
// must compress onto the normal wait-free path: no jumbo allocation, exact
// round-trip, and a file much smaller than the logical bytes.
TEST(Logger, CompressedLargeValueStaysInArena) {
  std::string path = TempPath("logger_compress.bin");
  std::remove(path.c_str());
  std::string value;
  for (int i = 0; i < 400; ++i) {
    value += "pattern" + std::to_string(i % 7);
  }
  ASSERT_GT(value.size(), size_t{2 << 10});
  {
    Logger::Options opt;
    opt.buffer_bytes = 1 << 10;
    Logger log(path, opt);
    log.append_put("bigc", {{0, value}}, 1);
    log.sync();
    EXPECT_EQ(log.error(), 0);
    EXPECT_EQ(log.counters().get(Counter::kLogAllocs), 2u);  // halves only
    EXPECT_EQ(log.counters().get(Counter::kLogCompressedRecords), 1u);
    EXPECT_GT(log.counters().get(Counter::kLogBytesLogical),
              log.counters().get(Counter::kLogBytesPhysical));
  }
  EXPECT_LT(std::filesystem::file_size(path), value.size() / 2);
  auto entries = read_log_file(path);
  ASSERT_FALSE(entries.empty());
  ASSERT_EQ(entries[0].type, LogType::kPut);
  EXPECT_EQ(entries[0].key, "bigc");
  ASSERT_EQ(entries[0].columns.size(), 1u);
  EXPECT_EQ(entries[0].columns[0].second, value);
}

TEST(Logger, StickyErrorSurfacesOnFullDisk) {
  if (::access("/dev/full", W_OK) != 0) {
    GTEST_SKIP() << "/dev/full not available";
  }
  Logger::Options opt;
  opt.fsync_on_flush = false;  // the write error itself must be what sticks
  Logger log("/dev/full", opt);
  log.append_put("doomed", {{0, std::string(1024, 'x')}}, 1);
  log.sync();
  EXPECT_EQ(log.error(), ENOSPC);
  // Fail-stop, not fail-crash: later appends are accepted and discarded.
  log.append_put("also-doomed", {{0, "y"}}, 2);
  log.sync();
  EXPECT_EQ(log.error(), ENOSPC);
}

// ---------------- log segments ----------------

size_t OpenFds() {
  size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)e;
    ++n;
  }
  return n;
}

// A shard whose file reaches its segment size is released like any
// other: the logging thread drains it, closes it with kClose, frees its
// arena halves and its descriptor, and drops it from its list before
// closed() reads true, so its owner may free it at once while the producer
// goes on in the next file.
TEST(LogSegments, ReleasedShardIsClosedFreedAndDropped) {
  constexpr size_t kSegment = 4 << 10;
  constexpr size_t kHalf = 1 << 10;
  std::string first_path = TempPath("segment-0.bin");
  std::string next_path = TempPath("segment-1.bin");
  std::remove(first_path.c_str());
  std::remove(next_path.c_str());
  LogWriter writer({1, true});
  auto first = std::make_unique<LogShard>(first_path, kHalf, nullptr, 128, kSegment);
  writer.add_shard(first.get());
  writer.start();
  uint64_t version = 0;
  while (!first->segment_full()) {
    ++version;
    first->append_put("k" + std::to_string(version), {{0, std::string(100, 'x')}}, version);
    writer.sync();
  }
  size_t fds = OpenFds();
  first->release_producer();
  writer.sync();
  ASSERT_TRUE(first->closed());
  EXPECT_EQ(OpenFds(), fds - 1);
  EXPECT_GT(first->last_data_ts_us(), 0u);
  first.reset();  // the writer must never touch it again (ASan checks)
  std::vector<LogEntry> entries = read_log_file(first_path);
  ASSERT_FALSE(entries.empty());
  EXPECT_EQ(entries.back().type, LogType::kClose);
  size_t puts = 0;
  for (const LogEntry& e : entries) {
    puts += e.type == LogType::kPut;
  }
  EXPECT_EQ(puts, version);
  EXPECT_LE(std::filesystem::file_size(first_path), kSegment + 2 * kHalf);
  const std::string first_bytes = read_whole_file(first_path);

  LogShard next(next_path, kHalf, nullptr, 128, kSegment);
  writer.add_shard(&next);
  next.append_put("after", {{0, "v"}}, ++version);
  writer.sync();
  next.append_put("after-sync", {{0, "v"}}, ++version);
  writer.stop();
  EXPECT_FALSE(next.closed());  // stopped, not released: its owner frees it
  EXPECT_EQ(read_whole_file(first_path), first_bytes);
  entries = read_log_file(next_path);
  ASSERT_FALSE(entries.empty());
  EXPECT_EQ(entries.back().type, LogType::kClose);
  std::vector<std::string> keys;
  for (const LogEntry& e : entries) {
    if (e.type == LogType::kPut) {
      keys.push_back(e.key);
    }
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"after", "after-sync"}));
}

// ---------------- multi-writer stress over LogWriter ----------------

// Four producer threads each append through a chain of shards, releasing
// the current one and adding a fresh one to the shared logging thread every
// kPerFile records, and freeing the shards that have closed; the main
// thread hammers sync() meanwhile. Every record must survive verbatim, in
// append order, split across the thread's files (oracle diff).
TEST(LogWriterStress, ConcurrentAppendSyncRoll) {
  constexpr unsigned kThreads = 4;
  constexpr uint64_t kRecords = 4500, kPerFile = 700;
  constexpr uint64_t kTag = 1000000;  // version space per thread
  constexpr uint64_t kFiles = (kRecords + kPerFile - 1) / kPerFile;
  LogWriter::Options wopt;
  wopt.flush_interval_ms = 1;
  wopt.fsync_on_flush = false;
  LogWriter writer(wopt);
  std::vector<ThreadCounters> counters(kThreads);
  auto path = [](unsigned t, uint64_t f) {
    return TempPath("stress-log-" + std::to_string(t) + "-" + std::to_string(f) + ".bin");
  };
  for (unsigned t = 0; t < kThreads; ++t) {
    for (uint64_t f = 0; f < kFiles; ++f) {
      std::remove(path(t, f).c_str());
    }
  }
  writer.start();

  std::atomic<unsigned> done{0};
  std::vector<std::vector<std::unique_ptr<LogShard>>> owned(kThreads);
  std::vector<std::thread> producers;
  for (unsigned t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      std::vector<std::unique_ptr<LogShard>>& shards = owned[t];
      LogShard* cur = nullptr;
      for (uint64_t i = 0; i < kRecords; ++i) {
        if (i % kPerFile == 0) {
          if (cur != nullptr) {
            cur->release_producer();
          }
          std::erase_if(shards, [](const auto& s) { return s->closed(); });
          shards.push_back(std::make_unique<LogShard>(path(t, i / kPerFile), 4 << 10,
                                                      &counters[t]));
          cur = shards.back().get();
          writer.add_shard(cur);
        }
        cur->append_put("k-" + std::to_string(t) + "-" + std::to_string(i),
                        {{0, "value"}}, t * kTag + i + 1);
      }
      cur->release_producer();
      done.fetch_add(1);
    });
  }
  while (done.load() != kThreads) {
    writer.sync();
  }
  for (auto& p : producers) {
    p.join();
  }
  writer.stop();  // closes whatever is still open

  for (unsigned t = 0; t < kThreads; ++t) {
    for (const auto& s : owned[t]) {
      EXPECT_TRUE(s->closed());
    }
    uint64_t next = 0;
    for (uint64_t f = 0; f < kFiles; ++f) {
      std::string bytes = read_whole_file(path(t, f));
      std::vector<LogEntry> entries;
      ASSERT_EQ(logwire::decode_all(bytes, &entries), bytes.size()) << path(t, f);
      ASSERT_FALSE(entries.empty());
      EXPECT_EQ(entries.back().type, LogType::kClose);
      uint64_t last_ts = 0;
      for (const auto& e : entries) {
        if (e.type != LogType::kPut) {
          continue;
        }
        ASSERT_EQ(e.version, t * kTag + next + 1) << path(t, f);
        EXPECT_EQ(e.key, "k-" + std::to_string(t) + "-" + std::to_string(next));
        EXPECT_GE(e.timestamp_us, last_ts);
        last_ts = e.timestamp_us;
        ++next;
      }
      EXPECT_EQ(next, std::min(kRecords, (f + 1) * kPerFile)) << path(t, f);
    }
    EXPECT_EQ(next, kRecords) << "thread " << t;
    EXPECT_EQ(counters[t].get(Counter::kLogAllocs), 2 * kFiles) << "thread " << t;
    EXPECT_EQ(counters[t].get(Counter::kLogAppends), kRecords);
  }
}

// Crash-replay over the shard format: truncate a shard's file at arbitrary
// byte offsets ("crash"), then reopen it with tail repair and keep appending —
// recovery must see the intact old prefix followed by the new records.
TEST(LogWriterStress, TornTailRepairThenAppend) {
  std::string path = TempPath("torn_repair.bin");
  std::remove(path.c_str());
  {
    Logger::Options opt;
    opt.fsync_on_flush = false;
    Logger log(path, opt);
    for (int i = 0; i < 50; ++i) {
      log.append_put("orig" + std::to_string(i), {{0, "dataXYZ"}}, i + 1);
    }
    log.sync();
  }
  std::string bytes = read_whole_file(path);
  std::vector<LogEntry> all;
  logwire::decode_all(bytes, &all);
  ASSERT_GE(all.size(), 50u);

  for (size_t cut = 1; cut < bytes.size(); cut += 97) {  // sampled offsets
    std::string torn_path = TempPath("torn_repair_cut.bin");
    {
      std::ofstream out(torn_path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    // Idle heartbeats (kMarker) may land anywhere once a thread sleeps past
    // the flush interval; they carry no data, so both sides leave them out.
    auto is_marker = [](const LogEntry& e) { return e.type == LogType::kMarker; };
    std::vector<LogEntry> prefix;
    logwire::decode_all(std::string_view(bytes.data(), cut), &prefix);
    std::erase_if(prefix, is_marker);
    size_t old_records = prefix.size();
    {
      // Reopen with repair (LogShard's constructor), then append.
      LogWriter writer({5, false});
      LogShard shard(torn_path, 4 << 10, nullptr);
      writer.add_shard(&shard);
      writer.start();
      shard.append_put("fresh-a", {{0, "new"}}, 9001);
      shard.append_put("fresh-b", {{0, "new"}}, 9002);
      writer.stop();
    }
    auto entries = read_log_file(torn_path);
    std::erase_if(entries, is_marker);
    // Old prefix intact, then the fresh records, then kClose — nothing
    // buried behind torn bytes.
    ASSERT_EQ(entries.size(), old_records + 3) << "cut " << cut;
    for (size_t i = 0; i < old_records; ++i) {
      EXPECT_EQ(entries[i].key, prefix[i].key);
    }
    EXPECT_EQ(entries[old_records].key, "fresh-a");
    EXPECT_EQ(entries[old_records + 1].key, "fresh-b");
    EXPECT_EQ(entries.back().type, LogType::kClose);
  }
}

// ---------------- recovery cutoff ----------------

TEST(Recovery, CutoffIsMinOfLastTimestamps) {
  // Three live logs whose last timestamps are 50, 80, 30 -> cutoff 30 (§5).
  std::vector<std::string> paths;
  uint64_t lasts[3] = {50, 80, 30};
  for (int i = 0; i < 3; ++i) {
    std::string p = TempPath("cutoff" + std::to_string(i) + ".bin");
    std::remove(p.c_str());
    std::string buf;
    logwire::encode_put(&buf, "k" + std::to_string(i), {{0, "v"}}, i + 1, 10);
    logwire::encode_put(&buf, "k" + std::to_string(i), {{0, "w"}}, i + 10, lasts[i]);
    std::ofstream(p, std::ios::binary) << buf;
    paths.push_back(p);
  }
  RecoverySet rs = load_logs(paths);
  EXPECT_EQ(rs.cutoff_us, 30u);
  auto plan = replay_plan(std::move(rs));
  // Only entries with ts <= 30 survive: the three ts=10 entries plus log 2's
  // ts=30 entry.
  EXPECT_EQ(plan.size(), 4u);
  // Sorted by version.
  for (size_t i = 1; i < plan.size(); ++i) {
    EXPECT_LE(plan[i - 1].version, plan[i].version);
  }
}

TEST(Recovery, CompleteLogDoesNotBoundCutoff) {
  // Log A: live, last ts 500. Log B: closed cleanly at ts 10 — without the
  // kClose exemption it would pin the cutoff at 10 and drop A's tail.
  std::string pa = TempPath("rc_live.bin");
  std::string pb = TempPath("rc_complete.bin");
  std::remove(pa.c_str());
  std::remove(pb.c_str());
  std::string a, b;
  logwire::encode_put(&a, "alive", {{0, "v1"}}, 1, 100);
  logwire::encode_put(&a, "alive", {{0, "v2"}}, 5, 500);
  logwire::encode_put(&b, "done", {{0, "old"}}, 2, 10);
  logwire::encode_close(&b, 11);
  std::ofstream(pa, std::ios::binary) << a;
  std::ofstream(pb, std::ios::binary) << b;
  RecoverySet rs = load_logs({pa, pb});
  EXPECT_EQ(rs.cutoff_us, 500u);
  auto plan = replay_plan(std::move(rs));
  EXPECT_EQ(plan.size(), 3u);  // the complete log still contributes records
}

TEST(Recovery, AllCompleteKeepsEverything) {
  std::string p = TempPath("rc_allcomplete.bin");
  std::remove(p.c_str());
  std::string buf;
  logwire::encode_put(&buf, "k", {{0, "v"}}, 1, 42);
  logwire::encode_close(&buf, 43);
  std::ofstream(p, std::ios::binary) << buf;
  RecoverySet rs = load_logs({p});
  EXPECT_EQ(rs.cutoff_us, std::numeric_limits<uint64_t>::max());
  auto plan = replay_plan(std::move(rs));
  EXPECT_EQ(plan.size(), 1u);
}

TEST(Recovery, SealRecoveredLogTrimsAndCompletes) {
  std::string p = TempPath("rc_seal.bin");
  std::remove(p.c_str());
  std::string buf;
  logwire::encode_put(&buf, "keep1", {{0, "v"}}, 1, 10);
  logwire::encode_put(&buf, "keep2", {{0, "v"}}, 2, 20);
  logwire::encode_put(&buf, "drop", {{0, "v"}}, 3, 99);  // beyond cutoff
  std::ofstream(p, std::ios::binary) << buf;
  {
    RecoverySet rs = load_logs({p});
    ASSERT_FALSE(rs.logs[0].complete);
    seal_recovered_log(p, rs.logs[0], /*cutoff_us=*/50);
  }
  // Re-read: the beyond-cutoff record is gone for good (no resurrection on
  // the next recovery) and the file no longer bounds any cutoff.
  RecoverySet rs = load_logs({p});
  ASSERT_TRUE(rs.logs[0].complete);
  auto plan = replay_plan(std::move(rs));
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].key, "keep1");
  EXPECT_EQ(plan[1].key, "keep2");
}

TEST(Recovery, SealTrimsCompleteLogsBeyondCutoff) {
  // A cleanly closed session's log can still hold records newer than a
  // cutoff set by some other live log. Recovery drops them this time; the
  // seal must trim them so a LATER recovery (when every log reads complete
  // and the cutoff relaxes to +inf) cannot resurrect them.
  std::string p = TempPath("rc_seal_complete.bin");
  std::remove(p.c_str());
  std::string buf;
  logwire::encode_put(&buf, "keep", {{0, "v"}}, 1, 10);
  logwire::encode_put(&buf, "drop", {{0, "v"}}, 2, 99);  // beyond cutoff 50
  logwire::encode_close(&buf, 100);
  std::ofstream(p, std::ios::binary) << buf;
  {
    RecoverySet rs = load_logs({p});
    ASSERT_TRUE(rs.logs[0].complete);
    seal_recovered_log(p, rs.logs[0], /*cutoff_us=*/50);
  }
  RecoverySet rs = load_logs({p});
  ASSERT_TRUE(rs.logs[0].complete);  // re-closed after the trim
  auto plan = replay_plan(std::move(rs));
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].key, "keep");
}

// A latent media error that flips one bit inside a mid-log record's CRC must
// behave exactly like a torn tail: replay keeps the intact prefix, stops at
// the corrupt record, and the seal trims the file there so the records BEYOND
// the corruption (here: a remove of "alive" and a later put) can never
// resurrect on a subsequent recovery — a half-trusted suffix is worse than a
// short one.
TEST(Recovery, BitFlippedCrcMidLogKeepsPrefixOnly) {
  std::string p = TempPath("rc_crcflip.bin");
  std::remove(p.c_str());
  std::string buf;
  std::vector<size_t> ends;
  logwire::encode_put(&buf, "alive", {{0, "v1"}}, 1, 10);
  ends.push_back(buf.size());
  logwire::encode_put(&buf, "victim", {{0, "v2"}}, 2, 20);
  ends.push_back(buf.size());
  logwire::encode_remove(&buf, "alive", 3, 30);
  ends.push_back(buf.size());
  logwire::encode_put(&buf, "late", {{0, "v4"}}, 4, 40);
  ends.push_back(buf.size());
  // The v2 frame ends with its u32 crc32c; flip one bit of record 2's CRC.
  buf[ends[1] - 2] ^= 0x04;
  std::ofstream(p, std::ios::binary) << buf;

  // First recovery: the prefix before the flip survives, nothing after it.
  {
    RecoverySet rs = load_logs({p});
    ASSERT_FALSE(rs.logs[0].complete);  // corruption reads as a live tail
    EXPECT_EQ(rs.cutoff_us, 10u);       // bounded by the last intact record
    uint64_t cutoff = rs.cutoff_us;
    auto plan = replay_plan(std::move(rs));
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].key, "alive");
    EXPECT_EQ(plan[0].type, LogType::kPut);
    RecoverySet again = load_logs({p});
    seal_recovered_log(p, again.logs[0], cutoff);
  }
  // Second recovery after the seal: the file reads complete, and neither the
  // post-corruption remove nor the "late" put reappears.
  RecoverySet rs = load_logs({p});
  ASSERT_TRUE(rs.logs[0].complete);
  auto plan = replay_plan(std::move(rs));
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].key, "alive");
  EXPECT_EQ(plan[0].type, LogType::kPut);
}

TEST(Recovery, EmptyLogDoesNotZeroCutoff) {
  std::string p1 = TempPath("re_nonempty.bin");
  std::string p2 = TempPath("re_empty.bin");
  std::remove(p1.c_str());
  std::remove(p2.c_str());
  std::string buf;
  logwire::encode_put(&buf, "k", {{0, "v"}}, 1, 99);
  std::ofstream(p1, std::ios::binary) << buf;
  std::ofstream(p2, std::ios::binary) << "";
  RecoverySet rs = load_logs({p1, p2});
  EXPECT_EQ(rs.cutoff_us, 99u);
}

TEST(Recovery, MissingFilesReadEmpty) {
  auto entries = read_log_file(TempPath("does_not_exist.bin"));
  EXPECT_TRUE(entries.empty());
}

// read_whole_file sizes its buffer from fstat: sizes around a page and one
// well past it must come back byte-exact, with no byte lost or added.
TEST(Recovery, WholeFileReadsAreByteExact) {
  std::string p = TempPath("whole_file.bin");
  for (size_t n : {0, 1, 4095, 4096, 4097, 200003}) {
    std::string bytes(n, '\0');
    for (size_t i = 0; i < n; ++i) {
      bytes[i] = static_cast<char>(i * 131 + n);
    }
    std::ofstream(p, std::ios::binary | std::ios::trunc) << bytes;
    EXPECT_EQ(read_whole_file(p), bytes) << "n=" << n;
  }
  EXPECT_EQ(read_whole_file(TempPath("does_not_exist.bin")), "");
}

TEST(Recovery, ListLogFilesFindsStoreNames) {
  std::string dir = TempPath("list_logs_dir");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/log-0.bin") << "x";
  std::ofstream(dir + "/log-12.bin") << "x";
  std::ofstream(dir + "/notalog.txt") << "x";
  auto paths = list_log_files(dir);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_NE(paths[0].find("log-0.bin"), std::string::npos);
  EXPECT_NE(paths[1].find("log-12.bin"), std::string::npos);
  EXPECT_TRUE(list_log_files(TempPath("no_such_dir")).empty());
}

// read_log_file propagates the unknown-version fail-stop instead of
// returning a silently truncated record list.
TEST(Recovery, UnknownVersionFileFailsStop) {
  std::string p = TempPath("future_version.bin");
  std::remove(p.c_str());
  std::string buf;
  logwire::encode_put(&buf, "k", {{0, "v"}}, 1, 1);
  buf[4] = '\x06';
  std::ofstream(p, std::ios::binary) << buf;
  EXPECT_THROW(read_log_file(p), std::runtime_error);
}

TEST(Recovery, SincePrunesCheckpointedEntries) {
  std::string p = TempPath("re_since.bin");
  std::remove(p.c_str());
  std::string buf;
  for (int i = 1; i <= 10; ++i) {
    logwire::encode_put(&buf, "k", {{0, std::to_string(i)}}, i, i * 10);
  }
  std::ofstream(p, std::ios::binary) << buf;
  auto plan = replay_plan(load_logs({p}), /*since_us=*/55);
  EXPECT_EQ(plan.size(), 5u);  // ts 60..100
}

}  // namespace
}  // namespace masstree
