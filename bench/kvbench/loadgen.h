// kvbench load generator: kGenThreads threads, each driving kConnsPerThread
// nonblocking loopback connections to a running BasicServer.
//
// Closed loop keeps kClosedDepth request frames in flight per connection
// and gives throughput. Open loop sends on a Poisson schedule at a fixed
// rate and times every request from when it was DUE, so a stall also
// charges the requests queued behind it. Either way a thread sleeps in
// ppoll until a response arrives or its next request is due; it never
// busy-polls, because a spinning generator takes CPU from the server's
// workers (README.md has the measurement). Every response is checked
// against the self-checking values of workload.h.

#ifndef KVBENCH_LOADGEN_H_
#define KVBENCH_LOADGEN_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/proto.h"
#include "util/timing.h"
#include "workload.h"
#include "workload/keys.h"

namespace kvbench {

// State shared by every phase of a run. A key id, and a connection's
// fresh-key list, is only ever written by the thread driving the connection
// that owns it (ValueCodec::owner), and phases run one after another.
struct GenShared {
  const WorkloadSpec* spec = nullptr;
  const KeySet* keys = nullptr;
  const ValueCodec* codec = nullptr;
  std::vector<uint64_t> lex;        // scans: lex codes of every loaded key, sorted
  std::vector<uint8_t> owner;       // writes: owning connection of each key id
  std::vector<uint32_t> next_seq;   // writes: last seq sent, per key id
  std::vector<uint32_t> acked_seq;  // writes: last seq acknowledged, per key id
  std::vector<std::vector<uint32_t>> fresh_acked;  // per connection: inserted keys
  std::vector<uint64_t> fresh_next;                // per connection: fresh-key counter
  std::vector<masstree::SkewGen> dists;            // per generator thread
  std::vector<masstree::Rng> rngs;                 // per generator thread
};

struct PhaseSpec {
  bool open = false;
  uint64_t start_ns = 0;       // window start; a closed loop warms up before it
  uint64_t end_ns = 0;         // window end; in-flight requests then drain
  uint64_t acked_from_ns = 0;  // writes acked from here on count in acked_user_bytes
  double rate = 0;             // open loop: requests/s over all threads
  bool spans = false;          // keep request spans that fall in the window
};

enum ReqKind : uint8_t { kReadReq, kWriteReq, kScanReq, kInsertReq };
inline bool is_write(ReqKind k) { return k == kWriteReq || k == kInsertReq; }

struct GenSpan {
  uint64_t due_ns, sent_ns, done_ns, id;
  ReqKind kind;
};

// One open-loop request: when it was due, and how long after that its
// response arrived (or, for lateness, its frame was sent).
struct LatSample {
  uint64_t due_ns;
  uint64_t ns;
};

// Windowed numbers are kept per slice: kSubWindows equal slices of the
// window, so one stall on a shared machine moves one slice, and the report
// takes the median slice.
inline constexpr unsigned kSubWindows = 10;

struct ThreadResult {
  std::atomic<int> tid{0};
  uint64_t window_ops[kSubWindows] = {};  // ops whose response arrived in each slice
  uint64_t sent_reqs = 0;    // open loop: arrivals sent
  uint64_t attempted = 0;    // ops sent during the whole phase
  uint64_t failed = 0;
  uint64_t acked_user_bytes = 0;  // key + value bytes of writes acked after acked_from_ns
  std::vector<LatSample> read_lat, write_lat, late;  // open loop
  std::vector<GenSpan> spans;
  std::string error;  // first failure seen, for the report
};

class Generator {
 public:
  // A response still missing this long after the window is a failure. An
  // open loop that a contended host fell behind on can need many seconds
  // to drain, and a slow answer is not a wrong one.
  static constexpr uint64_t kDrainNs = 60'000'000'000ull;

  Generator(GenShared& g, uint16_t port, const PhaseSpec& ps, unsigned t, ThreadResult& out)
      : g_(g), spec_(*g.spec), port_(port), ps_(ps), t_(t), out_(out),
        dist_(g.dists[t]), rng_(g.rngs[t]) {}

  ~Generator() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) {
        ::close(c.fd);
      }
    }
  }

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  void run() {
    // Default timer slack (50 us) would make every ppoll wake-up late.
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    out_.tid.store(current_tid(), std::memory_order_release);
    if (ps_.spans) {
      out_.spans.reserve(kSpanCap);
    }
    for (unsigned k = 0; k < kConnsPerThread; ++k) {
      conns_[k].id = t_ * kConnsPerThread + k;
      if (!connect_one(conns_[k])) {
        note_error("connect failed");
        return;
      }
    }
    if (ps_.open) {
      run_open();
    } else {
      run_closed();
    }
  }

 private:
  struct Req {
    uint64_t due_ns = 0, sent_ns = 0, id = 0;
    ReqKind kind = kReadReq;
    uint8_t n = 0;
    uint32_t a[kOpsPerFrame] = {};    // key ids; scans: {start key, limit}; inserts: key
    uint32_t seq[kOpsPerFrame] = {};  // writes
  };

  struct Conn {
    int fd = -1;
    unsigned id = 0;
    std::string tx;
    size_t tx_off = 0;
    std::vector<char> rx = std::vector<char>(256 << 10);
    size_t rx_head = 0, rx_tail = 0;
    std::deque<Req> inflight;
  };

  bool connect_one(Conn& c) {
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c.fd < 0) {
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return false;
    }
    int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK) == 0;
  }

  void note_error(const std::string& what) {
    if (out_.error.empty()) {
      out_.error = what;
    }
  }

  // ---- the two loops ----------------------------------------------------
  void run_closed() {
    uint64_t now = masstree::now_ns();
    for (Conn& c : conns_) {
      for (unsigned d = 0; d < kClosedDepth; ++d) {
        send_request(c, now);
      }
    }
    for (;;) {
      now = masstree::now_ns();
      if (now >= ps_.end_ns && idle()) {
        return;
      }
      if (now >= ps_.end_ns + kDrainNs) {
        abandon_inflight();
        return;
      }
      poll_once(now < ps_.end_ns ? ps_.end_ns : ps_.end_ns + kDrainNs);
    }
  }

  void run_open() {
    const double gap_ns = 1e9 * kGenThreads / ps_.rate;
    double next_due = static_cast<double>(ps_.start_ns) + exp_gap(gap_ns);
    unsigned rr = 0;
    for (;;) {
      uint64_t now = masstree::now_ns();
      while (next_due < static_cast<double>(ps_.end_ns) &&
             static_cast<uint64_t>(next_due) <= now) {
        Conn& c = conns_[rr++ % kConnsPerThread];
        uint64_t due = static_cast<uint64_t>(next_due);
        uint64_t sent = send_request(c, due);
        ++out_.sent_reqs;
        out_.late.push_back(LatSample{due, sent - due});
        next_due += exp_gap(gap_ns);
        now = masstree::now_ns();
      }
      bool arrivals_left = next_due < static_cast<double>(ps_.end_ns);
      if (!arrivals_left && idle()) {
        return;
      }
      if (now >= ps_.end_ns + kDrainNs) {
        abandon_inflight();
        return;
      }
      poll_once(arrivals_left ? static_cast<uint64_t>(next_due) : ps_.end_ns + kDrainNs);
    }
  }

  double exp_gap(double mean_ns) { return -std::log1p(-rng_.next_double()) * mean_ns; }

  bool idle() const {
    for (const Conn& c : conns_) {
      if (c.fd >= 0 && !c.inflight.empty()) {
        return false;
      }
    }
    return true;
  }

  void abandon_inflight() {
    for (Conn& c : conns_) {
      fail_conn(c, "responses missing after the drain deadline");
    }
  }

  // Blocks until a socket is ready or `wake_ns` passes.
  void poll_once(uint64_t wake_ns) {
    pollfd fds[kConnsPerThread];
    Conn* which[kConnsPerThread];
    nfds_t n = 0;
    for (Conn& c : conns_) {
      if (c.fd < 0) {
        continue;
      }
      fds[n].fd = c.fd;
      fds[n].events = static_cast<short>(POLLIN | (c.tx_off < c.tx.size() ? POLLOUT : 0));
      fds[n].revents = 0;
      which[n++] = &c;
    }
    uint64_t now = masstree::now_ns();
    uint64_t wait = wake_ns > now ? wake_ns - now : 0;
    timespec ts{static_cast<time_t>(wait / 1000000000ull),
                static_cast<long>(wait % 1000000000ull)};
    int r = ::ppoll(fds, n, &ts, nullptr);
    if (r <= 0) {
      return;  // timeout (or EINTR): the caller re-checks its schedule
    }
    for (nfds_t i = 0; i < n; ++i) {
      Conn& c = *which[i];
      if (fds[i].revents & POLLOUT) {
        flush(c);
      }
      if (c.fd >= 0 && (fds[i].revents & (POLLIN | POLLHUP | POLLERR))) {
        receive(c);
      }
    }
  }

  // ---- requests -----------------------------------------------------------
  // Sends one request frame; returns when it went out.
  uint64_t send_request(Conn& c, uint64_t due) {
    Req r;
    r.due_ns = due;
    r.id = (static_cast<uint64_t>(t_) << 48) | next_id_++;
    bool write = spec_.write_frac > 0 && rng_.next_double() < spec_.write_frac;
    size_t len_pos = c.tx.size();
    c.tx.append(sizeof(uint32_t), '\0');
    if (spec_.scans) {
      r.n = 1;
      if (write) {
        uint32_t v;
        do {
          v = g_.keys->fresh_value(g_.fresh_next[c.id]++ * kConns + c.id);
        } while (g_.keys->contains(v));
        r.kind = kInsertReq;
        r.a[0] = v;
        r.seq[0] = 1;
        encode_put(c.tx, format_key(v).view(), 1);
      } else {
        r.kind = kScanReq;
        r.a[0] = g_.keys->value(rng_.next_range(g_.keys->size()));
        r.a[1] = 1 + static_cast<uint32_t>(rng_.next_range(kMaxScanLen));
        KeyBuf k = format_key(r.a[0]);
        masstree::netwire::encode_scan(&c.tx, k.view(), r.a[1], 0);
      }
    } else if (write) {
      r.kind = kWriteReq;
      r.n = kOpsPerFrame;
      for (unsigned i = 0; i < kOpsPerFrame; ++i) {
        uint64_t id;
        do {
          id = dist_.next_index();
        } while (g_.owner[id] != c.id);
        r.a[i] = static_cast<uint32_t>(id);
        r.seq[i] = ++g_.next_seq[id];
        encode_put(c.tx, g_.keys->key(id).view(), r.seq[i]);
      }
    } else {
      r.kind = kReadReq;
      r.n = kOpsPerFrame;
      for (unsigned i = 0; i < kOpsPerFrame; ++i) {
        uint64_t id = dist_.next_index();
        r.a[i] = static_cast<uint32_t>(id);
        KeyBuf k = g_.keys->key(id);
        masstree::netwire::put_raw<uint8_t>(&c.tx, static_cast<uint8_t>(masstree::NetOp::kGet));
        masstree::netwire::put_raw<uint32_t>(&c.tx, k.n);
        c.tx.append(k.view());
        masstree::netwire::put_raw<uint16_t>(&c.tx, 0);  // all columns
      }
    }
    uint32_t body = static_cast<uint32_t>(c.tx.size() - len_pos - sizeof(uint32_t));
    std::memcpy(c.tx.data() + len_pos, &body, sizeof(body));
    out_.attempted += r.n;
    r.sent_ns = masstree::now_ns();
    if (c.fd < 0) {
      out_.failed += r.n;  // the connection already failed
      c.tx.clear();
      return r.sent_ns;
    }
    c.inflight.push_back(r);
    flush(c);
    return r.sent_ns;
  }

  void encode_put(std::string& tx, std::string_view key, uint32_t seq) {
    using masstree::netwire::put_raw;
    put_raw<uint8_t>(&tx, static_cast<uint8_t>(masstree::NetOp::kPut));
    put_raw<uint32_t>(&tx, static_cast<uint32_t>(key.size()));
    tx.append(key);
    put_raw<uint16_t>(&tx, 1);
    put_raw<uint16_t>(&tx, 0);
    put_raw<uint32_t>(&tx, g_.codec->size());
    size_t at = tx.size();
    tx.resize(at + g_.codec->size());
    g_.codec->make(key, seq, tx.data() + at);
  }

  void flush(Conn& c) {
    while (c.tx_off < c.tx.size()) {
      ssize_t n = ::send(c.fd, c.tx.data() + c.tx_off, c.tx.size() - c.tx_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.tx_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;  // ppoll waits for POLLOUT
      }
      fail_conn(c, "send failed");
      return;
    }
    c.tx.clear();
    c.tx_off = 0;
  }

  void receive(Conn& c) {
    for (;;) {
      if (c.rx_tail == c.rx.size()) {
        if (c.rx_head > 0) {
          std::memmove(c.rx.data(), c.rx.data() + c.rx_head, c.rx_tail - c.rx_head);
          c.rx_tail -= c.rx_head;
          c.rx_head = 0;
        } else {
          c.rx.resize(c.rx.size() * 2);
        }
      }
      ssize_t n = ::recv(c.fd, c.rx.data() + c.rx_tail, c.rx.size() - c.rx_tail, 0);
      if (n > 0) {
        c.rx_tail += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      parse(c);
      fail_conn(c, "server closed the connection");
      return;
    }
    parse(c);
  }

  void parse(Conn& c) {
    while (c.rx_tail - c.rx_head >= sizeof(uint32_t)) {
      uint32_t len;
      std::memcpy(&len, c.rx.data() + c.rx_head, sizeof(len));
      if (c.rx_tail - c.rx_head < sizeof(uint32_t) + len) {
        break;
      }
      std::string_view body(c.rx.data() + c.rx_head + sizeof(uint32_t), len);
      c.rx_head += sizeof(uint32_t) + len;
      if (c.inflight.empty()) {
        ++out_.failed;
        note_error("response frame without a request");
        continue;
      }
      Req r = c.inflight.front();
      c.inflight.pop_front();
      complete(c, r, body);
    }
    if (c.rx_head == c.rx_tail) {
      c.rx_head = c.rx_tail = 0;
    }
  }

  void complete(Conn& c, const Req& r, std::string_view body) {
    acked_bytes_ = 0;
    unsigned bad = check(c, r, body);
    out_.failed += bad;
    uint64_t now = masstree::now_ns();
    if (now >= ps_.acked_from_ns) {
      out_.acked_user_bytes += acked_bytes_;
    }
    if (now >= ps_.start_ns && now < ps_.end_ns) {
      out_.window_ops[(now - ps_.start_ns) * kSubWindows / (ps_.end_ns - ps_.start_ns)] += r.n;
    }
    if (ps_.open) {
      (is_write(r.kind) ? out_.write_lat : out_.read_lat)
          .push_back(LatSample{r.due_ns, now - r.due_ns});
    }
    if (ps_.spans && r.due_ns >= ps_.start_ns && r.due_ns < ps_.end_ns &&
        out_.spans.size() < kSpanCap) {
      out_.spans.push_back(GenSpan{r.due_ns, r.sent_ns, now, r.id, r.kind});
    }
    if (!ps_.open && now < ps_.end_ns) {
      send_request(c, now);
    }
  }

  // Verifies one response; returns how many of its ops failed.
  unsigned check(Conn& c, const Req& r, std::string_view body) {
    masstree::netwire::Reader rd(body);
    unsigned bad = 0;
    for (unsigned i = 0; i < r.n; ++i) {
      uint8_t st;
      if (!rd.read(&st)) {
        note_error("short response");
        return bad + (r.n - i);
      }
      if (st != static_cast<uint8_t>(masstree::NetStatus::kOk)) {
        // Missing key, rejected, or read-only: no payload follows.
        note_error("op status " + std::to_string(st));
        ++bad;
        continue;
      }
      bool ok = true;
      switch (r.kind) {
        case kReadReq:
          ok = check_get(rd, g_.keys->key(r.a[i]).view());
          break;
        case kWriteReq:
        case kInsertReq: {
          uint8_t inserted;
          ok = rd.read(&inserted);
          if (ok) {
            KeyBuf k = r.kind == kWriteReq ? g_.keys->key(r.a[i]) : format_key(r.a[i]);
            if (r.kind == kWriteReq) {
              g_.acked_seq[r.a[i]] = r.seq[i];
            } else {
              g_.fresh_acked[c.id].push_back(r.a[i]);
            }
            acked_bytes_ += k.n + g_.codec->size();
          }
          break;
        }
        case kScanReq:
          ok = check_scan(rd, r.a[0], r.a[1]);
          break;
      }
      if (!ok) {
        ++bad;
        if (r.kind != kScanReq && r.kind != kReadReq) {
          return bad + (r.n - i - 1);  // unparseable: the rest is lost too
        }
      }
    }
    if (!rd.done() && bad == 0) {
      note_error("trailing bytes in response");
      bad = r.n;
    }
    return bad;
  }

  bool check_get(masstree::netwire::Reader& rd, std::string_view key) {
    uint16_t ncols;
    if (!rd.read(&ncols)) {
      return false;
    }
    bool ok = ncols == 1;
    for (uint16_t i = 0; i < ncols; ++i) {
      uint32_t len;
      std::string_view v;
      if (!rd.read(&len) || !rd.read_bytes(len, &v)) {
        return false;
      }
      ok = ok && g_.codec->verify(key, v);
    }
    if (!ok) {
      note_error("bad value for key " + std::string(key));
    }
    return ok;
  }

  // A scan must return keys in strictly increasing order, at or after its
  // start, at most `limit` of them, each with a value that checks, and skip
  // no loaded key (loaded keys are never removed; inserted ones may appear
  // in between). A short scan must have reached the end of the key space.
  bool check_scan(masstree::netwire::Reader& rd, uint32_t start_val, uint32_t limit) {
    uint32_t count;
    if (!rd.read(&count)) {
      return false;
    }
    bool ok = count <= limit;
    uint64_t start = lex_code(format_key(start_val).view());
    auto p = std::lower_bound(g_.lex.begin(), g_.lex.end(), start);
    uint64_t prev = 0;
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t klen, vlen;
      std::string_view k, v;
      if (!rd.read(&klen) || !rd.read_bytes(klen, &k) || !rd.read(&vlen) ||
          !rd.read_bytes(vlen, &v)) {
        return false;
      }
      if (!ok) {
        continue;
      }
      uint64_t code = lex_code(k);
      if (code == 0 || code < start || code <= prev) {
        ok = false;
        note_error("scan out of order or out of range");
        continue;
      }
      prev = code;
      if (p != g_.lex.end() && *p < code) {
        ok = false;
        note_error("scan skipped a loaded key");
        continue;
      }
      if (p != g_.lex.end() && *p == code) {
        ++p;
      }
      if (!g_.codec->verify(k, v)) {
        ok = false;
        note_error("bad value in scan for key " + std::string(k));
      }
    }
    if (ok && count < limit && p != g_.lex.end()) {
      ok = false;
      note_error("scan stopped short");
    }
    return ok;
  }

  void fail_conn(Conn& c, const char* why) {
    if (c.fd < 0) {
      return;
    }
    if (!c.inflight.empty()) {
      note_error(why);
      for (const Req& r : c.inflight) {
        out_.failed += r.n;
      }
      c.inflight.clear();
    }
    ::close(c.fd);
    c.fd = -1;
  }

  GenShared& g_;
  const WorkloadSpec& spec_;
  uint16_t port_;
  PhaseSpec ps_;
  unsigned t_;
  ThreadResult& out_;
  masstree::SkewGen& dist_;
  masstree::Rng& rng_;
  Conn conns_[kConnsPerThread];
  uint64_t next_id_ = 0;
  uint64_t acked_bytes_ = 0;  // of the response being checked
};

// Runs one phase on fresh connections. `at_edge(i)` runs on the calling
// thread at the start of slice i (i < kSubWindows) and at the window's end
// (i == kSubWindows): the CPU and counter snapshots. Returns once every
// generator thread has drained and disconnected.
template <typename AtEdge>
void run_phase(GenShared& g, uint16_t port, const PhaseSpec& ps, ThreadResult* out,
               AtEdge&& at_edge) {
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kGenThreads; ++t) {
    threads.emplace_back([&, t] {
      Generator gen(g, port, ps, t, out[t]);
      gen.run();
    });
  }
  for (unsigned i = 0; i <= kSubWindows; ++i) {
    uint64_t edge = ps.start_ns + (ps.end_ns - ps.start_ns) * i / kSubWindows;
    uint64_t now = masstree::now_ns();
    if (edge > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(edge - now));
    }
    at_edge(i);
  }
  for (std::thread& th : threads) {
    th.join();
  }
}

}  // namespace kvbench

#endif  // KVBENCH_LOADGEN_H_
