// The Masstree network server (§5, §6.1): epoll event-loop workers with
// cross-connection batch formation.
//
// "Masstree uses network interfaces that support per-core receive and
//  transmit queues ... A single client message can include many queries."
//
// Each worker owns an epoll set of N nonblocking connections plus one
// StoreT::Session (thread context + log partition) — session-per-worker, not
// session-per-connection, so a worker serving hundreds of clients still pays
// one epoch slot and one log shard. On every wakeup the worker
//
//   1. drains all readable connections into their per-connection rx buffers
//      (netframe::InBuffer; the decoder resumes across short reads),
//   2. parses every complete frame's ops in place — keys stay views into the
//      rx buffer, no allocation per request in steady state,
//   3. forms batches ACROSS connections: every connection contributes its
//      maximal run of read ops (kGet, kMultiGet) to one shared read batch,
//      driven through Store::multiget_rows (Tree::multiget), or its maximal
//      run of write ops (kPut, kRemove, kMultiPut) to one shared write
//      batch, driven through Store::multiput (§4.8/PALM — both pipelined
//      paths apply to independent network clients, not just in-process
//      callers), while scans interleave inline. Reads and writes share one
//      batch pipeline — run formation and chunking — parameterized by op
//      kind (Worker::Reads / Worker::Writes), and every chunk runs on the
//      worker's own session. Each connection still sees its own ops execute in
//      order: a connection contributes exactly one run per round, and
//      within a round its reads execute before its next write would
//      (read-your-writes per connection holds),
//   4. encodes responses straight into per-connection tx rings and flushes
//      with writev; a connection whose client stops reading gets EPOLLOUT
//      re-arm and an rx pause above the tx high-water mark — never a blocked
//      worker thread, never an unbounded buffer.
//
// The listener lives in worker 0's epoll set, so accept() never blocks
// anywhere. Worker 0 deals accepted connections round-robin; a connection
// then stays on its worker for life, and every worker serves any key from
// the one shared tree (Figure 11 — no key->worker partitioning). stop() wakes
// every worker via its eventfd, joins, and only then closes the listen fd
// (no acceptor thread can race the close).
//
// Scans execute inline through StoreT::getrange, which drives the engine's
// snapshot-batched ScanCursor (§3) — the other batch entry point.

#ifndef MASSTREE_NET_SERVER_H_
#define MASSTREE_NET_SERVER_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "kvstore/store.h"
#include "net/framing.h"
#include "net/proto.h"
#include "util/timing.h"

namespace masstree {

// The two batched seams the server drives. multiget_rows: one pipelined
// tree multiget returning epoch-protected row pointers (nullptr = absent).
template <typename S>
concept HasMultigetRows =
    requires(const S& s, std::span<const std::string_view> keys, const Row** rows,
             typename S::Session& sess) {
      { s.multiget_rows(keys, rows, sess) } -> std::convertible_to<size_t>;
    };

// multiput over S::PutOp: one pipelined tree multiput plus one grouped log
// append; per-op results come back in the PutOps, including the read-only
// refusal flag the server answers with kReadOnly.
template <typename S>
concept HasMultiput =
    requires(S& s, std::span<typename S::PutOp> ops, typename S::Session& sess,
             const typename S::PutOp& op) {
      { s.multiput(ops, sess) } -> std::convertible_to<size_t>;
      { op.rejected } -> std::convertible_to<bool>;
    };

// Store's checked single-key writes; unused here, kept for TracedStore's static_assert.
template <typename S>
concept HasCheckedWrites =
    requires(S& s, std::string_view key, const std::vector<ColumnUpdate>& upd,
             typename S::Session& sess) {
      { s.put_checked(key, upd, sess) };
      { s.remove_checked(key, sess) };
      { s.read_only() } -> std::convertible_to<bool>;
    };

// The server is a template so alternative backends (§6.3 benches a binary
// tree behind the same network stack) can reuse it. A backend provides
// Store's serving interface: a Session(store, worker_id) whose ti() carries
// the epoch slot and counters, the two batched seams above, and getrange
// for scans.
template <typename StoreT = Store>
  requires HasMultigetRows<StoreT> && HasMultiput<StoreT>
class BasicServer {
 public:
  struct Options {
    uint16_t port = 0;  // 0 = ephemeral
    unsigned workers = 2;
    // Backpressure: once a connection's tx ring holds more than tx_highwater
    // unflushed bytes, the worker stops reading (and so parsing/executing)
    // that connection until the client drains it below half the mark. Other
    // connections on the worker are unaffected.
    size_t tx_highwater = 1 << 20;
    // Idle-connection reaping (the slow-loris guard): a connection that has
    // not delivered a complete frame for this many milliseconds is closed by
    // its worker's periodic sweep (counted by Counter::kNetIdleReaped). A
    // half-sent frame does NOT count as activity — a peer trickling one byte
    // per sweep still gets reaped. 0 disables the sweep (default), keeping
    // epoll_wait fully blocking.
    uint64_t idle_timeout_ms = 0;
  };

  BasicServer(StoreT& store, Options opt) : store_(store), opt_(opt) {
    if (opt_.workers == 0) {
      opt_.workers = 1;
    }
  }

  ~BasicServer() { stop(); }

  void start() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      throw std::runtime_error("Server: socket() failed");
    }
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(opt_.port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 512) != 0) {
      throw std::runtime_error("Server: bind/listen failed");
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);

    workers_.resize(opt_.workers);
    for (unsigned w = 0; w < opt_.workers; ++w) {
      workers_[w] = std::make_unique<Worker>(*this, w);
    }
    // The listener lives in worker 0's epoll set: accepts are just another
    // event, and there is no dedicated acceptor thread to race with close().
    workers_[0]->add_listener(listen_fd_);
    for (unsigned w = 0; w < opt_.workers; ++w) {
      workers_[w]->thread = std::thread([this, w] { workers_[w]->run(); });
    }
  }

  void stop() {
    bool expected = false;
    if (!stopping_.compare_exchange_strong(expected, true)) {
      return;
    }
    for (auto& w : workers_) {
      if (w) {
        w->shutdown();
      }
    }
    for (auto& w : workers_) {
      if (w && w->thread.joinable()) {
        w->thread.join();
      }
    }
    // Every worker (including the accepting one) has exited its loop; only
    // now is closing the listen fd race-free.
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  }

  uint16_t port() const { return port_; }
  uint64_t ops_served() const { return load(ops_served_); }
  // Cross-request batch formation telemetry: gets that reached Tree::multiget
  // through a formed batch coalescing >= 2 request ops, and the number of
  // such batches. (Workers also count Counter::kNetBatchedGets in their
  // sessions' ThreadCounters.)
  uint64_t batched_gets() const { return load(stats_[kReadKind].batched); }
  uint64_t batches_formed() const { return load(stats_[kReadKind].batches); }
  // The same for puts/removes reaching Store::multiput (Counter::kNetBatchedPuts).
  uint64_t batched_puts() const { return load(stats_[kWriteKind].batched); }
  uint64_t wbatches_formed() const { return load(stats_[kWriteKind].batches); }

  // Connections closed by the idle sweep (Options::idle_timeout_ms).
  uint64_t idle_reaped() const { return load(idle_reaped_); }

 private:
  static uint64_t load(const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  }

  // The batch pipeline's two op kinds (Worker::Reads / Worker::Writes) and
  // their telemetry.
  enum OpKind : unsigned { kReadKind, kWriteKind, kNumOpKinds };
  struct KindStats {
    std::atomic<uint64_t> batched{0};  // items in batches of >= 2 request ops
    std::atomic<uint64_t> batches{0};  // such batches
  };

  struct Conn {
    int fd = -1;
    size_t idx = 0;  // position in Worker::conns
    netframe::InBuffer rx;
    netframe::TxRing tx;
    uint32_t events = 0;       // currently-armed epoll interest
    size_t parsed = 0;         // bytes parsed this wakeup, consumed post-batch
    bool eof = false;          // peer finished writing; flush then close
    bool proto_error = false;  // poisoned stream: kRejected frame, then close
    bool closing = false;      // close as soon as tx drains
    bool paused = false;       // rx interest dropped (tx over high water)
    bool queued = false;       // already on this wakeup's ready list
    bool dead = false;         // fd closed; reaped at end of wakeup
    uint64_t last_active_ns = 0;  // last complete frame (or adoption time)
  };

  // One parsed request op. Views point into the owning connection's rx
  // buffer; variable-length payloads (column ids, column updates, multiget
  // keys) live in the worker's reusable pools.
  struct ParsedOp {
    NetOp op = NetOp::kPing;
    bool rejected = false;     // parsed but refused (oversized multiget/scan)
    bool frame_end = false;    // last op of its frame: patch the length prefix
    bool empty_frame = false;  // zero-op frame: respond with an empty frame
    std::string_view key;
    uint32_t scan_limit = 0;
    uint16_t scan_col = 0;
    uint32_t cols_off = 0, cols_cnt = 0;  // -> cols_pool (kMultiPut: cols_off
                                          //    -> wcnt_pool per-key counts)
    uint32_t upd_off = 0, upd_cnt = 0;    // -> upd_pool
    uint32_t keys_off = 0, keys_cnt = 0;  // -> keys_pool
  };

  // A connection's slice of this wakeup's parsed ops, plus response-frame
  // assembly state (the u32 length prefix is reserved when the frame's first
  // result is encoded and patched at its last).
  struct ConnWork {
    Conn* c;
    uint32_t next, end;  // range in Worker::ops
    bool frame_open = false;
    uint64_t frame_len_pos = 0;
  };

  // One batchable op's slot in its kind's formed batch: `n` items starting
  // at items[off] (keys for reads; StoreT::PutOps for writes, where
  // kPut/kRemove contribute one and kMultiPut one per wire entry).
  struct BatchRef {
    uint32_t work;  // -> works
    uint32_t opi;   // -> ops
    uint32_t off;   // first item
    uint32_t n;
  };

  struct Worker {
    Worker(BasicServer& server, unsigned id)
        : server(server), id(id), session(server.store_, id) {
      epfd = ::epoll_create1(EPOLL_CLOEXEC);
      wakefd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
      if (epfd < 0 || wakefd < 0) {
        throw std::runtime_error("Server: epoll_create1/eventfd failed");
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = &wake_tag;
      ::epoll_ctl(epfd, EPOLL_CTL_ADD, wakefd, &ev);
    }

    ~Worker() {
      for (auto& c : conns) {
        if (!c->dead) {
          ::close(c->fd);
        }
      }
      for (int fd : pending) {
        ::close(fd);  // handed off but never adopted (shutdown won the race)
      }
      ::close(wakefd);
      ::close(epfd);
    }

    void add_listener(int lfd) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = &listen_tag;
      ::epoll_ctl(epfd, EPOLL_CTL_ADD, lfd, &ev);
    }

    // Cross-thread handoff of a freshly-accepted fd from the accepting worker.
    void add_connection(int fd) {
      {
        std::lock_guard<std::mutex> lock(mu);
        pending.push_back(fd);
      }
      wake();
    }

    void wake() {
      uint64_t one = 1;
      ssize_t r = ::write(wakefd, &one, sizeof(one));
      (void)r;
    }

    void shutdown() {
      stop.store(true, std::memory_order_release);
      wake();
    }

    // ---- event loop ----------------------------------------------------
    void run() {
      epoll_event evs[128];
      // With idle reaping on, epoll_wait must return often enough for the
      // sweep to observe silence — a quarter of the window bounds reap
      // latency at 1.25x the configured timeout.
      int wait_ms = -1;
      if (server.opt_.idle_timeout_ms > 0) {
        uint64_t q = server.opt_.idle_timeout_ms / 4;
        wait_ms = static_cast<int>(q < 1 ? 1 : (q > 1000 ? 1000 : q));
      }
      last_idle_sweep_ns = now_ns();
      while (!stop.load(std::memory_order_acquire)) {
        int n = ::epoll_wait(epfd, evs, 128, wait_ms);
        if (n < 0) {
          if (errno == EINTR) {
            continue;
          }
          break;
        }
        for (int i = 0; i < n; ++i) {
          void* p = evs[i].data.ptr;
          if (p == &wake_tag) {
            drain_wake();
            adopt_pending();
            continue;
          }
          if (p == &listen_tag) {
            accept_ready();
            continue;
          }
          Conn* c = static_cast<Conn*>(p);
          if (c->dead) {
            continue;
          }
          uint32_t e = evs[i].events;
          if (e & (EPOLLHUP | EPOLLERR)) {
            close_conn(c);  // peer fully gone; nobody will read responses
            continue;
          }
          if (e & EPOLLOUT) {
            on_writable(c);
          }
          if (!c->dead && (e & EPOLLIN)) {
            on_readable(c);
          }
        }
        // Drain the ready list to empty: processing may unpause connections
        // whose buffered frames must run this wakeup (no new socket event
        // will re-announce bytes that are already in the rx buffer).
        while (!ready.empty()) {
          process();
        }
        reap();
        reap_idle();
      }
    }

   private:
    // ---- accept & adopt ------------------------------------------------
    void accept_ready() {
      for (;;) {
        int fd = ::accept4(server.listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
          return;  // EAGAIN, or transient (ECONNABORTED/EMFILE): just stop
        }
        unsigned target = rr_next++ % static_cast<unsigned>(server.workers_.size());
        if (target == id) {
          adopt(fd);
        } else {
          server.workers_[target]->add_connection(fd);
        }
      }
    }

    void drain_wake() {
      uint64_t v;
      ssize_t r = ::read(wakefd, &v, sizeof(v));
      (void)r;
    }

    void adopt_pending() {
      adopted.clear();
      {
        std::lock_guard<std::mutex> lock(mu);
        adopted.swap(pending);
      }
      for (int fd : adopted) {
        adopt(fd);
      }
    }

    void adopt(int fd) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto c = std::make_unique<Conn>();
      c->fd = fd;
      c->idx = conns.size();
      c->events = EPOLLIN;
      c->last_active_ns = now_ns();
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = c.get();
      if (::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        return;
      }
      conns.push_back(std::move(c));
    }

    // ---- per-connection IO ---------------------------------------------
    // Read-side fairness: one connection may fill at most this much of its
    // rx buffer per wakeup; level-triggered epoll re-announces the rest.
    static constexpr size_t kReadBudget = 256 << 10;

    void on_readable(Conn* c) {
      if (c->paused || c->closing || c->proto_error || c->eof) {
        return;  // interest should be off; ignore a straggling event
      }
      size_t budget = kReadBudget;
      bool got = false;
      while (budget > 0) {
        size_t chunk = budget < (64 << 10) ? budget : (64 << 10);
        ssize_t r = c->rx.fill(c->fd, chunk);
        if (r > 0) {
          budget -= static_cast<size_t>(r);
          got = true;
          if (static_cast<size_t>(r) < chunk) {
            break;  // short read: drained; skip the EAGAIN probe (LT epoll
                    // re-announces anything that races in behind us)
          }
          continue;
        }
        if (r == 0) {
          c->eof = true;
          break;
        }
        if (errno == EINTR) {
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          break;
        }
        close_conn(c);  // hard error (ECONNRESET, ...): drop everything
        return;
      }
      if (got || c->eof) {
        queue_ready(c);
      }
    }

    void on_writable(Conn* c) {
      bool was_paused = c->paused;
      flush_and_update(c);
      if (!c->dead && was_paused && !c->paused && c->rx.size() > 0) {
        queue_ready(c);  // buffered frames can progress again
      }
    }

    void queue_ready(Conn* c) {
      if (!c->queued) {
        c->queued = true;
        ready.push_back(c);
      }
    }

    // Flush the tx ring as far as the socket allows, recompute backpressure
    // state, and re-arm epoll interest.
    void flush_and_update(Conn* c) {
      while (!c->tx.empty()) {
        ssize_t n = c->tx.flush(c->fd);
        if (n < 0) {
          if (errno == EINTR) {
            continue;
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK) {
            break;
          }
          close_conn(c);
          return;
        }
        if (n == 0) {
          break;
        }
      }
      if (c->tx.empty() && c->closing) {
        close_conn(c);
        return;
      }
      if (c->closing) {
        c->paused = false;
      } else if (c->tx.size() > server.opt_.tx_highwater) {
        c->paused = true;  // stop reading this client until it drains us
      } else if (c->paused && c->tx.size() <= server.opt_.tx_highwater / 2) {
        c->paused = false;
      }
      update_interest(c);
    }

    void update_interest(Conn* c) {
      uint32_t want = 0;
      if (!c->paused && !c->closing && !c->proto_error && !c->eof) {
        want |= EPOLLIN;
      }
      if (!c->tx.empty()) {
        want |= EPOLLOUT;
      }
      if (want != c->events) {
        epoll_event ev{};
        ev.events = want;
        ev.data.ptr = c;
        ::epoll_ctl(epfd, EPOLL_CTL_MOD, c->fd, &ev);
        c->events = want;
      }
    }

    void close_conn(Conn* c) {
      if (c->dead) {
        return;
      }
      ::close(c->fd);  // also removes it from the epoll set
      c->dead = true;
      dying.push_back(c);
    }

    void reap() {
      for (Conn* c : dying) {
        size_t i = c->idx;
        conns[i] = std::move(conns.back());
        conns[i]->idx = i;
        conns.pop_back();
      }
      dying.clear();
    }

    // The idle sweep: close every connection that has gone a full
    // idle_timeout_ms without completing a frame. Paced to a quarter of the
    // window so the scan cost stays negligible even with many connections.
    void reap_idle() {
      if (server.opt_.idle_timeout_ms == 0 || conns.empty()) {
        return;
      }
      uint64_t window_ns = server.opt_.idle_timeout_ms * 1000000ull;
      uint64_t now = now_ns();
      if (now - last_idle_sweep_ns < window_ns / 4) {
        return;
      }
      last_idle_sweep_ns = now;
      for (auto& cp : conns) {
        Conn* c = cp.get();
        if (c->dead || c->closing) {
          continue;  // already on its way out
        }
        if (now - c->last_active_ns >= window_ns) {
          session.ti().counters().inc(Counter::kNetIdleReaped);
          server.idle_reaped_.fetch_add(1, std::memory_order_relaxed);
          close_conn(c);
        }
      }
      reap();
    }

    // ---- parse ----------------------------------------------------------
    // Parses every complete frame buffered on c into the worker's op list.
    // Nothing is consumed yet: op keys are views into the rx buffer and must
    // survive until the batch executes. Returns bytes ready to consume.
    size_t parse_frames(Conn* c) {
      size_t consumed = 0;
      while (ops.size() < kRoundOpsBudget) {
        std::string_view body;
        size_t flen = 0;
        netframe::FrameStatus st =
            netframe::decode_frame(c->rx.view(), consumed, &body, &flen);
        if (st == netframe::FrameStatus::kNeedMore) {
          break;
        }
        if (st == netframe::FrameStatus::kTooBig || !parse_frame(body)) {
          // Oversized length prefix or malformed op body: the stream cannot
          // be resynchronized. The connection gets one kRejected frame and a
          // close; the worker and its other connections are untouched.
          c->proto_error = true;
          break;
        }
        consumed += flen;
      }
      return consumed;
    }

    // Parses one frame body's ops; on any malformed op, rolls the pools back
    // to the frame start and reports failure.
    bool parse_frame(std::string_view body) {
      size_t op_start = ops.size();
      size_t cols_start = cols_pool.size();
      size_t upd_start = upd_pool.size();
      size_t keys_start = keys_pool.size();
      size_t wcnt_start = wcnt_pool.size();
      netwire::Reader r(body);
      if (r.done()) {
        ParsedOp p;
        p.empty_frame = true;
        p.frame_end = true;
        ops.push_back(p);
        return true;
      }
      while (!r.done()) {
        if (!parse_op(r)) {
          ops.resize(op_start);
          cols_pool.resize(cols_start);
          upd_pool.resize(upd_start);
          keys_pool.resize(keys_start);
          wcnt_pool.resize(wcnt_start);
          return false;
        }
      }
      ops.back().frame_end = true;
      return true;
    }

    bool parse_op(netwire::Reader& r) {
      uint8_t opcode;
      if (!r.read(&opcode)) {
        return false;
      }
      ParsedOp p;
      p.op = static_cast<NetOp>(opcode);
      switch (p.op) {
        case NetOp::kGet: {
          uint32_t klen;
          uint16_t ncols;
          if (!r.read(&klen) || !r.read_bytes(klen, &p.key) || !r.read(&ncols)) {
            return false;
          }
          p.cols_off = static_cast<uint32_t>(cols_pool.size());
          p.cols_cnt = ncols;
          for (uint16_t i = 0; i < ncols; ++i) {
            uint16_t col;
            if (!r.read(&col)) {
              return false;
            }
            cols_pool.push_back(col);
          }
          break;
        }
        case NetOp::kPut: {
          uint32_t klen;
          uint16_t ncols;
          if (!r.read(&klen) || !r.read_bytes(klen, &p.key) || !r.read(&ncols)) {
            return false;
          }
          p.upd_off = static_cast<uint32_t>(upd_pool.size());
          p.upd_cnt = ncols;
          for (uint16_t i = 0; i < ncols; ++i) {
            uint16_t col;
            uint32_t len;
            std::string_view data;
            if (!r.read(&col) || !r.read(&len) || !r.read_bytes(len, &data)) {
              return false;
            }
            upd_pool.push_back(ColumnUpdate{col, data});
          }
          break;
        }
        case NetOp::kRemove: {
          uint32_t klen;
          if (!r.read(&klen) || !r.read_bytes(klen, &p.key)) {
            return false;
          }
          break;
        }
        case NetOp::kScan: {
          uint32_t klen;
          if (!r.read(&klen) || !r.read_bytes(klen, &p.key) || !r.read(&p.scan_limit) ||
              !r.read(&p.scan_col)) {
            return false;
          }
          p.rejected = p.scan_limit > kMaxScanLimit;
          break;
        }
        case NetOp::kPing:
          break;
        case NetOp::kMultiGet: {
          uint16_t ncols;
          if (!r.read(&ncols)) {
            return false;
          }
          p.cols_off = static_cast<uint32_t>(cols_pool.size());
          p.cols_cnt = ncols;
          for (uint16_t i = 0; i < ncols; ++i) {
            uint16_t col;
            if (!r.read(&col)) {
              return false;
            }
            cols_pool.push_back(col);
          }
          uint16_t count;
          if (!r.read(&count)) {
            return false;
          }
          p.keys_off = static_cast<uint32_t>(keys_pool.size());
          p.keys_cnt = count;
          for (uint16_t i = 0; i < count; ++i) {
            uint32_t klen;
            std::string_view key;
            if (!r.read(&klen) || !r.read_bytes(klen, &key)) {
              return false;
            }
            keys_pool.push_back(key);
          }
          p.rejected = count > kMaxMultigetBatch;
          break;
        }
        case NetOp::kMultiPut: {
          // A whole batch of puts in one op. Keys land in keys_pool, their
          // column updates back to back in upd_pool, and each key's update
          // count in wcnt_pool — per-key slices are reconstructed by walking
          // the counts. Over-cap batches parse fully (the rest of the frame
          // stays decodable) and are refused with kRejected.
          uint16_t count;
          if (!r.read(&count)) {
            return false;
          }
          p.keys_off = static_cast<uint32_t>(keys_pool.size());
          p.keys_cnt = count;
          p.upd_off = static_cast<uint32_t>(upd_pool.size());
          p.cols_off = static_cast<uint32_t>(wcnt_pool.size());
          for (uint16_t i = 0; i < count; ++i) {
            uint32_t klen;
            std::string_view key;
            uint16_t ncols;
            if (!r.read(&klen) || !r.read_bytes(klen, &key) || !r.read(&ncols)) {
              return false;
            }
            keys_pool.push_back(key);
            wcnt_pool.push_back(ncols);
            for (uint16_t c = 0; c < ncols; ++c) {
              uint16_t col;
              uint32_t len;
              std::string_view data;
              if (!r.read(&col) || !r.read(&len) || !r.read_bytes(len, &data)) {
                return false;
              }
              upd_pool.push_back(ColumnUpdate{col, data});
            }
          }
          p.upd_cnt = static_cast<uint32_t>(upd_pool.size()) - p.upd_off;
          p.rejected = count > kMaxMultigetBatch;
          break;
        }
        default:
          return false;  // unknown opcode: protocol error
      }
      ops.push_back(p);
      return true;
    }

    // ---- the batch former ----------------------------------------------
    // A round materializes at most this many parsed ops, keeping the round's
    // working set (op list, key pools, formed batch) cache-sized no matter
    // how many deeply-pipelined connections are readable at once. Parsing
    // stops at a frame boundary once the budget is spent; connections with
    // complete frames still buffered simply re-queue for the next round.
    static constexpr size_t kRoundOpsBudget = 32 << 10;

    void process() {
      plist.assign(ready.begin(), ready.end());
      ready.clear();
      ops.clear();
      cols_pool.clear();
      upd_pool.clear();
      keys_pool.clear();
      wcnt_pool.clear();
      works.clear();
      for (Conn* c : plist) {
        c->queued = false;
        c->parsed = 0;
        if (c->dead || c->closing || c->paused || c->proto_error) {
          continue;
        }
        if (ops.size() >= kRoundOpsBudget) {
          continue;  // round full; the post-execute sweep re-queues c
        }
        uint32_t begin = static_cast<uint32_t>(ops.size());
        c->parsed = parse_frames(c);
        if (c->parsed > 0) {
          // Only a COMPLETE frame counts as liveness; bytes trickling in
          // below a frame boundary never refresh the idle clock.
          c->last_active_ns = now_ns();
        }
        if (ops.size() > begin) {
          works.push_back(ConnWork{c, begin, static_cast<uint32_t>(ops.size()), false, 0});
        }
      }

      execute_rounds();

      for (Conn* c : plist) {
        if (c->dead) {
          continue;
        }
        if (c->parsed > 0) {
          c->rx.consume(c->parsed);  // op views die here, after execution
          c->parsed = 0;
        }
        if (c->proto_error && !c->closing) {
          uint64_t pos = c->tx.reserve_u32();
          c->tx.template put<uint8_t>(static_cast<uint8_t>(NetStatus::kRejected));
          c->tx.patch_u32(pos, 1);
          c->closing = true;
        }
        if (c->eof) {
          // Peer finished writing (a trailing partial frame is a mid-request
          // disconnect and is simply dropped); flush what we owe, then close.
          c->closing = true;
        }
        flush_and_update(c);
        if (!c->dead && !c->closing && !c->paused && has_complete_frame(c)) {
          queue_ready(c);  // frames left behind by the round budget
        }
      }
    }

    bool has_complete_frame(const Conn* c) const {
      std::string_view body;
      size_t flen = 0;
      return netframe::decode_frame(c->rx.view(), 0, &body, &flen) ==
             netframe::FrameStatus::kFrame;
    }

    // ---- the two op kinds -------------------------------------------------
    // Everything the shared batch pipeline below does not know about an op
    // kind: which ops it batches, the items an op contributes, the per-item
    // result, the store call, and the response encoding. Run formation and
    // chunking are one code path for both.
    struct Reads {
      static constexpr OpKind kKind = kReadKind;
      static constexpr Counter kBatchedCounter = Counter::kNetBatchedGets;
      using Item = std::string_view;  // the key
      using Result = const Row*;      // nullptr = absent
      // Rows are epoch-protected pointers: a chunk stays pinned from the
      // store call until its responses are encoded.
      struct Pin : EpochGuard {
        explicit Pin(Worker& w) : EpochGuard(w.session.ti().slot()) {}
      };

      static bool handles(NetOp op) {
        return op == NetOp::kGet || op == NetOp::kMultiGet;
      }

      static void push(Worker& w, const ParsedOp& p, std::vector<Item>& items) {
        if (p.op == NetOp::kGet) {
          items.push_back(p.key);
        } else {  // kMultiGet
          auto first = w.keys_pool.begin() + p.keys_off;
          items.insert(items.end(), first, first + p.keys_cnt);
        }
      }

      static void run(Worker& w, std::span<Item> keys, Result* rows) {
        w.server.store_.multiget_rows(keys, rows, w.session);
      }

      // kGet: status 0 + columns, or kNotFound. kMultiGet: status 0, a u16
      // count, then per key a found byte (1 + columns, or 0).
      static void encode(Worker& w, netframe::TxRing& tx, const ParsedOp& p,
                         const Result* rows, uint32_t n) {
        if (p.op == NetOp::kGet) {
          if (rows[0] == nullptr) {
            tx.template put<uint8_t>(static_cast<uint8_t>(NetStatus::kNotFound));
            return;
          }
          tx.template put<uint8_t>(0);
          w.encode_columns(tx, rows[0], p);
          return;
        }
        tx.template put<uint8_t>(0);
        tx.template put<uint16_t>(static_cast<uint16_t>(n));
        for (uint32_t i = 0; i < n; ++i) {
          tx.template put<uint8_t>(rows[i] != nullptr ? 1 : 0);
          if (rows[i] != nullptr) {
            w.encode_columns(tx, rows[i], p);
          }
        }
      }
    };

    struct Writes {
      static constexpr OpKind kKind = kWriteKind;
      static constexpr Counter kBatchedCounter = Counter::kNetBatchedPuts;
      using Item = typename StoreT::PutOp;
      struct Result {
        bool inserted, found, rejected;
      };
      // Store::multiput takes its own epoch guard around the tree batch and
      // its grouped log append; responses read only the copied flags.
      struct Pin {
        explicit Pin(Worker&) {}
      };

      static bool handles(NetOp op) {
        return op == NetOp::kPut || op == NetOp::kRemove || op == NetOp::kMultiPut;
      }

      // The update spans point into upd_pool, which is append-only until the
      // round executes.
      static void push(Worker& w, const ParsedOp& p, std::vector<Item>& items) {
        if (p.op != NetOp::kMultiPut) {
          items.push_back(
              Item{p.key, w.updates(p.upd_off, p.upd_cnt), p.op == NetOp::kRemove});
          return;
        }
        uint32_t uo = p.upd_off;
        for (uint32_t i = 0; i < p.keys_cnt; ++i) {
          uint32_t cnt = w.wcnt_pool[p.cols_off + i];
          items.push_back(Item{w.keys_pool[p.keys_off + i], w.updates(uo, cnt), false});
          uo += cnt;
        }
      }

      static void run(Worker& w, std::span<Item> ops, Result* out) {
        w.server.store_.multiput(ops, w.session);
        for (size_t i = 0; i < ops.size(); ++i) {
          out[i] = Result{ops[i].inserted, ops[i].found, ops[i].rejected};
        }
      }

      // kPut: status 0 + inserted; kRemove: status 0 or kNotFound; kMultiPut:
      // status 0 + count-prefixed inserted flags. An op the store refused
      // because it had degraded to read-only answers kReadOnly and no
      // payload — the connection lives on, and its reads keep working.
      static void encode(Worker&, netframe::TxRing& tx, const ParsedOp& p,
                         const Result* res, uint32_t n) {
        for (uint32_t i = 0; i < n; ++i) {
          if (res[i].rejected) {
            tx.template put<uint8_t>(static_cast<uint8_t>(NetStatus::kReadOnly));
            return;
          }
        }
        if (p.op == NetOp::kRemove) {
          tx.template put<uint8_t>(
              res[0].found ? 0 : static_cast<uint8_t>(NetStatus::kNotFound));
          return;
        }
        tx.template put<uint8_t>(0);
        if (p.op == NetOp::kMultiPut) {
          tx.template put<uint16_t>(static_cast<uint16_t>(n));
        }
        for (uint32_t i = 0; i < n; ++i) {
          tx.template put<uint8_t>(res[i].inserted ? 1 : 0);
        }
      }
    };

    // A kind's formed batch for one round.
    template <typename Kind>
    struct Batch {
      std::vector<BatchRef> refs;
      std::vector<typename Kind::Item> items;
      std::vector<typename Kind::Result> results;
    };

    template <typename Kind>
    bool batchable(const ParsedOp& p) const {
      return !p.empty_frame && !p.rejected && Kind::handles(p.op);
    }

    std::span<const ColumnUpdate> updates(uint32_t off, uint32_t cnt) const {
      return std::span<const ColumnUpdate>(upd_pool).subspan(off, cnt);
    }

    // ---- the batch pipeline ----------------------------------------------
    // Alternating rounds: every connection contributes its maximal run of
    // reads to the shared read batch, its maximal run of writes to the
    // shared write batch, or executes its scans/pings inline — so per
    // connection ops run strictly in order (one run per connection per
    // round, reads executing before writes within the round), while reads
    // from MANY connections coalesce into one multiget and writes into one
    // multiput.
    void execute_rounds() {
      uint64_t executed = 0;
      bool more = true;
      while (more) {
        more = false;
        reads.refs.clear();
        reads.items.clear();
        writes.refs.clear();
        writes.items.clear();
        for (uint32_t w = 0; w < works.size(); ++w) {
          ConnWork& cw = works[w];
          if (cw.next >= cw.end || cw.c->dead) {
            continue;
          }
          more = true;
          if (batchable<Reads>(ops[cw.next])) {
            form_run(reads, w);
          } else if (batchable<Writes>(ops[cw.next])) {
            form_run(writes, w);
          } else {
            while (cw.next < cw.end && !batchable<Reads>(ops[cw.next]) &&
                   !batchable<Writes>(ops[cw.next])) {
              execute_inline(cw, ops[cw.next]);
              ++cw.next;
              ++executed;
            }
          }
        }
        executed += execute_batch(reads);
        executed += execute_batch(writes);
      }
      if (executed > 0) {
        server.ops_served_.fetch_add(executed, std::memory_order_relaxed);
      }
    }

    // Appends connection `w`'s maximal run of Kind ops to the batch.
    template <typename Kind>
    void form_run(Batch<Kind>& b, uint32_t w) {
      ConnWork& cw = works[w];
      while (cw.next < cw.end && batchable<Kind>(ops[cw.next])) {
        uint32_t off = static_cast<uint32_t>(b.items.size());
        Kind::push(*this, ops[cw.next], b.items);
        b.refs.push_back(
            BatchRef{w, cw.next, off, static_cast<uint32_t>(b.items.size()) - off});
        ++cw.next;
      }
    }

    // Executes a formed batch in chunks of at most kMaxMultigetBatch items
    // and returns the number of request ops it answered.
    template <typename Kind>
    size_t execute_batch(Batch<Kind>& b) {
      if (b.refs.size() >= 2) {
        session.ti().counters().inc(Kind::kBatchedCounter, b.items.size());
        KindStats& st = server.stats_[Kind::kKind];
        st.batched.fetch_add(b.items.size(), std::memory_order_relaxed);
        st.batches.fetch_add(1, std::memory_order_relaxed);
      }
      b.results.resize(b.items.size());
      size_t ref_begin = 0;
      while (ref_begin < b.refs.size()) {
        size_t ref_end = ref_begin;
        size_t n = 0;
        while (ref_end < b.refs.size() && n + b.refs[ref_end].n <= kMaxMultigetBatch) {
          n += b.refs[ref_end].n;
          ++ref_end;
        }
        if (ref_end == ref_begin) {
          ++ref_end;  // single over-cap ref cannot happen (multi-ops are capped)
        }
        execute_chunk(b, ref_begin, ref_end);
        ref_begin = ref_end;
      }
      return b.refs.size();
    }

    // One chunk: the kind's store call on this worker's session, then every
    // chunk op's response, all under the kind's pin.
    template <typename Kind>
    void execute_chunk(Batch<Kind>& b, size_t ref_begin, size_t ref_end) {
      size_t off = b.refs[ref_begin].off;
      size_t n = b.refs[ref_end - 1].off + b.refs[ref_end - 1].n - off;
      [[maybe_unused]] typename Kind::Pin pin(*this);
      Kind::run(*this, std::span(b.items).subspan(off, n), b.results.data() + off);
      for (size_t r = ref_begin; r < ref_end; ++r) {
        const BatchRef& ref = b.refs[r];
        ConnWork& cw = works[ref.work];
        if (cw.c->dead) {
          continue;
        }
        const ParsedOp& p = ops[ref.opi];
        open_frame(cw);
        Kind::encode(*this, cw.c->tx, p, b.results.data() + ref.off, ref.n);
        maybe_close_frame(cw, p);
      }
    }

    // A found row's columns: a u16 count, then u32-length-prefixed values —
    // the op's selected columns, or every column when it named none.
    void encode_columns(netframe::TxRing& tx, const Row* row, const ParsedOp& p) {
      uint32_t n = p.cols_cnt == 0 ? row->ncols() : p.cols_cnt;
      tx.template put<uint16_t>(static_cast<uint16_t>(n));
      for (uint32_t i = 0; i < n; ++i) {
        std::string_view v = row->col(p.cols_cnt == 0 ? i : cols_pool[p.cols_off + i]);
        tx.template put<uint32_t>(static_cast<uint32_t>(v.size()));
        tx.append(v);
      }
    }

    // ---- inline ops (scans, pings, empty frames, rejections) -------------
    void execute_inline(ConnWork& cw, const ParsedOp& p) {
      netframe::TxRing& tx = cw.c->tx;
      open_frame(cw);
      if (p.empty_frame) {
        // Nothing to encode: the response frame is empty too.
      } else if (p.rejected) {
        // Parsed (the rest of the frame stays decodable) but refused.
        tx.template put<uint8_t>(static_cast<uint8_t>(NetStatus::kRejected));
      } else if (p.op == NetOp::kScan) {
        tx.template put<uint8_t>(0);
        uint64_t count_pos = tx.reserve_u32();
        uint32_t count = 0;
        // Streams whole border-node snapshots from the store's ScanCursor;
        // each emitted pair is encoded straight into the tx ring.
        server.store_.getrange(
            p.key, p.scan_limit, p.scan_col,
            [&](std::string_view k, std::string_view v, const Row*) {
              tx.template put<uint32_t>(static_cast<uint32_t>(k.size()));
              tx.append(k);
              tx.template put<uint32_t>(static_cast<uint32_t>(v.size()));
              tx.append(v);
              ++count;
              return true;
            },
            session);
        tx.patch_u32(count_pos, count);
      } else {  // kPing
        tx.template put<uint8_t>(0);
      }
      maybe_close_frame(cw, p);
    }

    void open_frame(ConnWork& cw) {
      if (!cw.frame_open) {
        cw.frame_len_pos = cw.c->tx.reserve_u32();
        cw.frame_open = true;
      }
    }

    void maybe_close_frame(ConnWork& cw, const ParsedOp& p) {
      if (p.frame_end) {
        cw.c->tx.patch_u32(
            cw.frame_len_pos,
            static_cast<uint32_t>(cw.c->tx.end() - cw.frame_len_pos - sizeof(uint32_t)));
        cw.frame_open = false;
      }
    }

   public:
    BasicServer& server;
    unsigned id;
    typename StoreT::Session session;
    std::thread thread;
    std::atomic<bool> stop{false};

   private:
    int epfd = -1;
    int wakefd = -1;
    char wake_tag = 0;    // epoll data tags (address identity only)
    char listen_tag = 0;
    unsigned rr_next = 0;  // accepting worker's round-robin cursor
    uint64_t last_idle_sweep_ns = 0;
    std::mutex mu;
    std::vector<int> pending;  // fds handed off by the accepting worker
    std::vector<std::unique_ptr<Conn>> conns;
    // Reusable per-wakeup scratch: capacity persists, so the steady state
    // parses and batches without allocating.
    std::vector<int> adopted;
    std::vector<Conn*> ready, plist, dying;
    std::vector<ParsedOp> ops;
    std::vector<unsigned> cols_pool;
    std::vector<ColumnUpdate> upd_pool;
    std::vector<std::string_view> keys_pool;
    std::vector<uint32_t> wcnt_pool;  // kMultiPut per-key column counts
    std::vector<ConnWork> works;
    Batch<Reads> reads;
    Batch<Writes> writes;
  };

  StoreT& store_;
  Options opt_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> ops_served_{0};
  KindStats stats_[kNumOpKinds];
  std::atomic<uint64_t> idle_reaped_{0};
};

using Server = BasicServer<Store>;

}  // namespace masstree

#endif  // MASSTREE_NET_SERVER_H_
