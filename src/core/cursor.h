// LookupCursor — the single copy of Masstree's read-side traversal logic
// (Figure 6's hand-over-hand descent, Figure 7's border stabilize/forward
// loop, §4.6.3's layer descent), refactored into a resumable state machine.
//
// Before this existed the descend/forward protocol was written out three
// times (get, the locked writers' locate step, and scan's border location).
// Now there is one implementation with two drivers:
//
//   * full-lookup mode (the key constructor): resolves a whole key to a
//     value, descending trie layers and restarting from the tree root when a
//     layer dies. BasicTree::get() runs one cursor to completion;
//     BasicTree::multiget() round-robins a window of them.
//   * border-location mode (the slice constructor): descends one layer for a
//     single slice and stops at the responsible border node — the
//     border-location step ScanCursor uses on layer entry and re-attach.
//
// States (one DRAM-touch of work per step, so a batch engine can overlap the
// fetches of many concurrent lookups, §4.8 / PALM):
//
//   kLayerEntry   (re)enter a layer: ascend stale/retired entry points to the
//                 layer's true root (§4.6.4); also the layer-descend landing
//                 state after following a next_layer link
//   kDescend      one hand-over-hand hop through an interior node
//   kBorder       border examination: search, suffix compare, validate,
//                 B-link forward (Figure 7)
//   kDone         result available
//
// Between steps, prefetch() issues the cache-line fetches for exactly the
// memory the next step() will touch — the pending child node, or the border's
// suffix StringBag when a long key is about to be compared. step() never
// writes shared memory; all synchronization is the §4.5 version validation.

#ifndef MASSTREE_CORE_CURSOR_H_
#define MASSTREE_CORE_CURSOR_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/node.h"
#include "core/stringbag.h"
#include "key/key.h"
#include "util/counters.h"
#include "util/prefetch.h"

namespace masstree {

template <typename C>
class LookupCursor {
 public:
  using Node = NodeBase<C>;
  using Border = BorderNode<C>;
  using Interior = InteriorNode<C>;

  enum class State : uint8_t {
    kLayerEntry,
    kDescend,
    kBorder,
    kDone,
  };

  enum class Status : uint8_t {
    kInProgress,
    kFound,      // full-lookup mode: key present, value() valid
    kNotFound,   // full-lookup mode: key absent
    kAtBorder,   // border-location mode: border()/border_version() valid
    kDeadLayer,  // border-location mode: the entered layer was removed
  };

  // How many suffix-bag bytes prefetch() pulls: the header + packed refs of a
  // width-15 bag plus the start of the string data, without a dependent load
  // of the bag's actual capacity.
  static constexpr size_t kSuffixPrefetchBytes = 4 * kCacheLineSize;

  // Full-lookup cursor. `treeroot` is the tree's layer-0 root pointer,
  // reloaded whenever the lookup must restart from the very top.
  LookupCursor(const std::atomic<Node*>& treeroot, std::string_view key)
      : treeroot_(&treeroot),
        key_(key),
        root_(treeroot.load(std::memory_order_acquire)),
        slice_(key_.slice()),
        ord_(search_ord()) {}

  // Border-location cursor: find the border responsible for `slice` in the
  // layer entered at `entry`. Never examines border contents.
  LookupCursor(Node* entry, uint64_t slice)
      : treeroot_(nullptr), root_(entry), slice_(slice) {}

  // Issue the prefetches for the memory the next step() will touch. Harmless
  // if racy — it only prefetches.
  void prefetch() const {
    if constexpr (!C::kPrefetch) {
      return;
    }
    switch (state_) {
      case State::kLayerEntry:
        if (root_ != nullptr) {
          prefetch_object(root_, sizeof(Border));
        }
        break;
      case State::kDescend:
        prefetch_object(child_, sizeof(Border));
        break;
      case State::kBorder:
        // The node's own lines were fetched when the descent adopted it; the
        // remaining cold object is the suffix bag a long-key compare reads.
        if (key_.has_suffix()) {
          const StringBag* bag = n_->as_border()->suffixes();
          if (bag != nullptr) {
            prefetch_object(bag, kSuffixPrefetchBytes);
          }
        }
        break;
      case State::kDone:
        break;
    }
  }

  // Advance by roughly one DRAM touch. Returns kInProgress until the cursor
  // reaches a terminal state. `ctrs` (nullable) receives the retry/forward
  // event counts the old monolithic get() maintained.
  Status step(ThreadCounters* ctrs) {
    switch (state_) {
      case State::kLayerEntry:
        return step_layer_entry(ctrs);
      case State::kDescend:
        return step_descend(ctrs);
      case State::kBorder:
        return step_border(ctrs);
      case State::kDone:
        break;
    }
    return result_;
  }

  // Synchronous driver: prefetch-then-step to completion.
  Status run(ThreadCounters* ctrs) {
    for (;;) {
      prefetch();
      Status s = step(ctrs);
      if (s != Status::kInProgress) {
        return s;
      }
    }
  }

  State state() const { return state_; }
  bool found() const { return result_ == Status::kFound; }
  uint64_t value() const { return value_; }
  // Number of retry events (local revalidations + restarts) this lookup ate;
  // multiget aggregates these into Counter::kMultigetRetry.
  uint32_t retries() const { return retries_; }

  // Border-location results (valid after kAtBorder).
  Border* border() const { return n_->as_border(); }
  VersionValue border_version() const { return v_; }
  // Full-lookup hit provenance (valid after kFound): the border node, the
  // version word validated AFTER the slot's keylenx/lv were read, and the
  // slot the key resolved to. This triple is exactly what a record cache
  // needs to later re-validate the entry with changed_since().
  Border* hit_border() const { return n_->as_border(); }
  VersionValue hit_version() const { return v_; }
  int hit_slot() const { return hit_slot_; }
  // The observed true root of the current layer; callers keep it so retries
  // skip forwarding chains.
  Node* layer_root() const { return root_; }

 private:
  int search_ord() const {
    return key_.has_suffix() ? 9 : static_cast<int>(key_.length_in_slice());
  }

  static void count(ThreadCounters* ctrs, Counter which) {
    if (ctrs != nullptr) {
      ctrs->inc(which);
    }
  }

  Status finish(bool found, uint64_t lv, int slot = -1) {
    state_ = State::kDone;
    value_ = lv;
    hit_slot_ = found ? slot : -1;
    result_ = found ? Status::kFound : Status::kNotFound;
    return result_;
  }

  // The layer this cursor is in has been removed entirely. Border-location
  // callers handle that themselves; full lookups restart from layer 0.
  Status dead_layer(ThreadCounters* ctrs) {
    if (treeroot_ == nullptr) {
      state_ = State::kDone;
      result_ = Status::kDeadLayer;
      return result_;
    }
    count(ctrs, Counter::kGetRetryFromRoot);
    ++retries_;
    key_.unshift_all();
    slice_ = key_.slice();
    ord_ = search_ord();
    root_ = treeroot_->load(std::memory_order_acquire);
    state_ = State::kLayerEntry;
    return Status::kInProgress;
  }

  // Touches root_: stabilize it and ascend stale/retired entry points —
  // deleted nodes forward through parent(); live non-roots climb until the
  // true root (§4.6.4's lazily updated layer roots).
  Status step_layer_entry(ThreadCounters* ctrs) {
    Node* n = root_;
    if (n == nullptr) {
      return dead_layer(ctrs);
    }
    VersionValue v = n->version().stable();
    while (v.deleted() || !v.is_root()) {
      Node* p = n->parent();
      if (p == nullptr) {
        if (v.deleted()) {
          return dead_layer(ctrs);  // this layer was removed entirely
        }
        // Root flag observed clear before the new parent store; reload.
        spin_pause();
        v = n->version().stable();
        continue;
      }
      n = p;
      v = n->version().stable();
    }
    root_ = n;
    return arrive(n, v);
  }

  // Touches child_ (the node prefetch() announced): hand-over-hand
  // validation against the parent we came from (Figure 6).
  Status step_descend(ThreadCounters*) {
    VersionValue cv = child_->version().stable();
    if (!n_->version().changed_since(v_)) {
      return arrive(child_, cv);
    }
    VersionValue v2 = n_->version().stable();
    if (v2.vsplit() != v_.vsplit() || v2.deleted()) {
      state_ = State::kLayerEntry;  // split: retry from the layer root
      return Status::kInProgress;
    }
    v_ = v2;  // plain insert: retry from this node
    return select_child();
  }

  // Adopt a node the descent just validated its way into.
  Status arrive(Node* n, VersionValue v) {
    n_ = n;
    v_ = v;
    if (v.is_border()) {
      if (treeroot_ == nullptr) {
        state_ = State::kDone;
        result_ = Status::kAtBorder;
        return result_;
      }
      state_ = State::kBorder;
      return Status::kInProgress;
    }
    return select_child();
  }

  // At interior n_ (already in cache) with stable v_: pick the child the next
  // step will touch. Loops only over hot re-reads of n_.
  Status select_child() {
    for (;;) {
      if (v_.deleted()) {
        root_ = n_;  // re-entry ascends through the forwarding parent pointer
        state_ = State::kLayerEntry;
        return Status::kInProgress;
      }
      Interior* in = n_->as_interior();
      child_ = in->child(in->child_index(slice_));
      if (child_ != nullptr) {
        state_ = State::kDescend;
        return Status::kInProgress;
      }
      // Torn read during a concurrent reshape; re-stabilize and retry.
      v_ = n_->version().stable();
    }
  }

  // Figure 7's forward loop: search the border, validate, follow the B-link
  // chain right when the key's range moved, descend layers, spin across the
  // §4.6.3 UNSTABLE window.
  Status step_border(ThreadCounters* ctrs) {
    for (;;) {
      if (v_.deleted()) {
        root_ = n_;  // re-entry follows the forwarding pointer
        state_ = State::kLayerEntry;
        return Status::kInProgress;
      }
      Border* n = n_->as_border();
      Permuter perm = n->permutation();
      int pos;
      int slot = n->find(perm, slice_, ord_, &pos);
      uint8_t kx = 0;
      uint64_t lv = 0;
      bool suffix_eq = false;
      if (slot >= 0) {
        kx = n->keylenx(slot);
        lv = n->lv(slot);
        if (keylenx_has_suffix(kx)) {
          // key_.has_suffix() first: kx is re-read after find() and may be
          // torn relative to the match (a racing insert or make-layer can
          // rewrite the slot between the two loads). A suffix-bearing slot
          // cannot stably match a key with under 9 bytes left, so the
          // version check below retries the mismatch — but key_.suffix()
          // must not be asked for bytes the key does not have.
          StringBag* bag = n->suffixes();
          suffix_eq = key_.has_suffix() && bag != nullptr &&
                      bag->get(slot) == key_.suffix();
        }
      }
      if (n->version().changed_since(v_)) {
        // Stabilize, then chase the B-link chain right if the key's range
        // moved (Figure 7's while loop).
        v_ = n->version().stable();
        count(ctrs, Counter::kGetRetryLocal);
        ++retries_;
        Border* nx = n->next();
        while (!v_.deleted() && nx != nullptr && slice_ >= nx->lowkey()) {
          n = nx;
          v_ = n->version().stable();
          nx = n->next();
          count(ctrs, Counter::kGetForward);
        }
        n_ = n;
        continue;
      }
      if (slot < 0) {
        return finish(false, 0);
      }
      if (kx <= 8) {
        return finish(true, lv, slot);
      }
      if (keylenx_has_suffix(kx)) {
        return finish(suffix_eq, lv, slot);
      }
      if (keylenx_is_layer(kx)) {
        // Layer descend (§4.6.3): advance the key one slice and re-enter at
        // the sub-layer's stored root.
        root_ = reinterpret_cast<Node*>(lv);
        key_.shift();
        slice_ = key_.slice();
        ord_ = search_ord();
        state_ = State::kLayerEntry;
        return Status::kInProgress;
      }
      // UNSTABLE: a layer is being created under this slot; spin (§4.6.3).
      spin_pause();
    }
  }

  const std::atomic<Node*>* treeroot_;  // null in border-location mode
  Key key_;
  Node* root_ = nullptr;   // current layer's entry point / observed true root
  Node* n_ = nullptr;      // current node (stable version v_)
  Node* child_ = nullptr;  // pending hop target in kDescend
  uint64_t slice_ = 0;
  int ord_ = 0;
  VersionValue v_;
  uint64_t value_ = 0;
  int hit_slot_ = -1;
  uint32_t retries_ = 0;
  State state_ = State::kLayerEntry;
  Status result_ = Status::kInProgress;
};

// WriteCursor — the locked-writer variant of the resumable descent (§4.8's
// batched operation applied to puts/removes).
//
// A border-location LookupCursor finds the border responsible for a slice;
// the locked writers then need locate_locked's tail: take the border's lock,
// restart through the forwarding parent if the node was deleted in the
// meantime, and follow the B-link next() chain right hand-over-hand under
// lock when a concurrent split moved the slice's range. Before this existed
// that tail lived only inside BasicTree::locate_locked's synchronous loop;
// WriteCursor packages descent + acquire as one resumable machine so
// BasicTree::multiput can round-robin a window of in-flight write descents
// exactly like multiget does with LookupCursors — every cursor's next cache
// line announced via prefetch() before any node is touched — while
// locate_locked itself becomes the one-cursor synchronous driver.
//
// Terminal states: kLocked (border() is LOCKED and responsible for the
// slice; the caller applies its write and must unlock or consume the lock)
// or kDeadLayer (the entered layer was removed; the caller restarts from
// layer 0 via reset()). At most one border lock is ever held per cursor, and
// a batch driver applies-and-releases at each kLocked before stepping any
// other cursor, so batched writers acquire exactly like sequential ones and
// cannot invert lock order.

template <typename C>
class WriteCursor {
 public:
  using Node = NodeBase<C>;
  using Border = BorderNode<C>;

  enum class Status : uint8_t {
    kInProgress,
    kLocked,     // border() locked and responsible for the slice
    kDeadLayer,  // the entered layer was removed entirely
  };

  // Locate-and-lock the border responsible for `slice` in the layer entered
  // at `entry`.
  WriteCursor(Node* entry, uint64_t slice) : slice_(slice) {
    look_.emplace(entry, slice);
  }

  // Re-arm for a new (entry, slice) — used after a layer shift or a restart
  // from the tree root.
  void reset(Node* entry, uint64_t slice) {
    slice_ = slice;
    locked_ = nullptr;
    root_ = nullptr;
    look_.emplace(entry, slice);
  }

  void prefetch() const {
    if (look_) {
      look_->prefetch();
    }
  }

  // Advance by roughly one DRAM touch. `ctrs` (nullable) receives the
  // kGetForward events the synchronous locate_locked counted; descent-side
  // retries are aggregated in retries() like LookupCursor's.
  Status step(ThreadCounters* ctrs) {
    using LStatus = typename LookupCursor<C>::Status;
    LStatus st = look_->step(nullptr);
    if (st == LStatus::kInProgress) {
      return Status::kInProgress;
    }
    if (st == LStatus::kDeadLayer) {
      return Status::kDeadLayer;
    }
    assert(st == LStatus::kAtBorder);
    // locate_locked's tail: acquire, then settle responsibility under lock.
    Border* n = look_->border();
    root_ = look_->layer_root();
    n->version().lock();
    if (n->version().load().deleted()) {
      n->version().unlock();
      return restart_at(n);
    }
    for (;;) {
      Border* nx = n->next();
      if (nx == nullptr || slice_ < nx->lowkey()) {
        locked_ = n;
        return Status::kLocked;
      }
      if (ctrs != nullptr) {
        ctrs->inc(Counter::kGetForward);
      }
      nx->version().lock();
      n->version().unlock();
      n = nx;
      if (n->version().load().deleted()) {
        n->version().unlock();
        return restart_at(n);
      }
    }
  }

  // Synchronous driver: prefetch-then-step to completion (locate_locked).
  Status run(ThreadCounters* ctrs) {
    for (;;) {
      prefetch();
      Status s = step(ctrs);
      if (s != Status::kInProgress) {
        return s;
      }
    }
  }

  // Valid after kLocked: the LOCKED responsible border, still held.
  Border* locked() const { return locked_; }
  // The observed true root of the current layer; callers keep it so retries
  // skip forwarding chains.
  Node* layer_root() const { return root_; }
  // Descent retries eaten so far (restarts after losing a deleted border plus
  // the inner lookup's revalidations).
  uint32_t retries() const {
    return retries_ + (look_ ? look_->retries() : 0);
  }

 private:
  // The locked border died under us: re-descend through its forwarding
  // parent pointer, exactly like locate_locked's deleted-node retry.
  Status restart_at(Border* n) {
    ++retries_;
    retries_ += look_->retries();
    look_.emplace(static_cast<Node*>(n), slice_);
    return Status::kInProgress;
  }

  std::optional<LookupCursor<C>> look_;
  uint64_t slice_ = 0;
  Border* locked_ = nullptr;
  Node* root_ = nullptr;
  uint32_t retries_ = 0;
};

// ScanCursor — the resumable sibling of LookupCursor for §3's getrange.
//
// Where LookupCursor resolves one key, ScanCursor streams an ordered range:
// it snapshots one whole border node at a time into cursor-private storage —
// a stacked arena of fixed-width Entry records (`ents_`), one slab per
// trie-layer frame, with suffixes captured as zero-copy views into the
// node's append-only, epoch-protected StringBag instead of per-entry heap
// strings — validates the copy against the node's version word (Figure 7),
// and then advances border-to-border along the B-link next() chain. Because
// every layer frame keeps its own snapshot alive in the arena, popping back
// out of a sub-layer resumes the parent's already-validated copy where it
// left off; border-locating descents happen only on layer entry, when a
// node fell off the chain (deleted / dead layer), or when the cursor
// re-attaches after an epoch gap — never per node visit or per layer pop,
// which is what makes long scans allocation-free and descent-free in steady
// state (Counter::kScanNodes vs kScanRedescents).
//
// Suffix views stay valid for the whole drive because StringBags never
// overwrite published bytes and replaced bags are epoch-reclaimed, so the
// caller's epoch guard pins them; the bytes are copied exactly once, into
// the key buffer, when a pair's key is materialized.
//
// The trie-layer stack reuses one frame vector and one key buffer: each layer
// owns a fixed prefix of `keybuf_` (grown in place, never reallocated per
// frame), and the per-frame resume suffix lives in a single reused buffer
// (only the top frame can have one). Every buffer growth event is counted in
// Counter::kScanAllocs and alloc_events(); on the steady-state chain-walk
// path that count stays zero — the perf claim is a counter, not a vibe.
//
// Driving protocol:
//
//   ScanCursor<C> cur(root, first_key);   // or cur.reset(root, first_key)
//   while (size_t n = cur.next_batch(&ti.counters())) {
//     cur.prefetch_pending();              // overlap the next border's fetch
//     for (size_t i = 0; i < n; ++i) emit(cur.key(i), cur.value(i));
//   }
//
// One batch is the run of emittable pairs from one validated border snapshot
// (a mid-node layer link ends the batch early). Epoch rules: everything that
// touches the tree or a batch — next_batch(), prefetch_pending(),
// key()/value(), detach() — runs under the caller's epoch guard, and the
// guard must be *continuous* across consecutive next_batch() calls. To
// release it between batches, call detach() while the guard is still held —
// the cursor converts its position to a pure key-valued resume point and the
// next next_batch() (under a fresh guard) re-descends from the root (one
// kScanRedescents event), exactly like a fresh scan starting just after the
// last returned pair.
//
// Snapshot-per-node is also the consistency guarantee: pairs from one border
// node form an atomic snapshot, but the scan as a whole is not atomic with
// respect to concurrent inserts/removes (§3). Keys present for the whole
// scan are always reported; concurrently inserted/removed keys may or may
// not be.

template <typename C>
class ScanCursor {
 public:
  using Node = NodeBase<C>;
  using Border = BorderNode<C>;
  static constexpr int kWidth = Border::kWidth;

  // Starts a scan at the first key >= `first` (`first` is copied; the view
  // need not outlive the call).
  ScanCursor(const std::atomic<Node*>& treeroot, std::string_view first)
      : treeroot_(&treeroot) {
    resume_key_.assign(first);
  }

  // An empty cursor to be reset() before use — exists so drivers can keep a
  // long-lived cursor whose buffers stay warm across many scans.
  ScanCursor() = default;

  // Re-aim the cursor at a new range (and possibly a new tree), keeping
  // every buffer's capacity. This is the allocation-free way to run many
  // scans: after the first few, reset() + a full drive allocate nothing.
  void reset(const std::atomic<Node*>& treeroot, std::string_view first) {
    treeroot_ = &treeroot;
    size_t cap0 = resume_key_.capacity();
    resume_key_.assign(first);
    track_growth(cap0, resume_key_.capacity());
    resume_skip_ = false;
    done_ = false;
    frames_.clear();
    batch_count_ = 0;
  }

  // Advances to the next run of emittable pairs. Returns the batch size, 0
  // when the scan is exhausted. Requires an epoch guard held continuously
  // since the previous next_batch() (or a detach() in between).
  //
  // `max_pairs` is the driver's remaining limit: snapshots stop copying once
  // they can satisfy it (plus one entry for a possible boundary skip), so a
  // short scan never pays for a whole node's worth of entries. A truncated
  // node is revisited — never skipped — by the next call. The returned batch
  // may hold up to max_pairs + 1 pairs; drivers that stop mid-batch at their
  // limit must not reuse the cursor afterwards (detach's resume point is the
  // batch's last pair).
  size_t next_batch(ThreadCounters* ctrs, size_t max_pairs = ~size_t{0}) {
    ctrs_ = ctrs;
    hint_ = max_pairs == 0 ? 1 : max_pairs;
    batch_count_ = 0;
    if (done_) {
      return 0;
    }
    if (frames_.empty()) {
      attach();
    }
    for (;;) {
      if (frames_.empty()) {
        done_ = true;
        return 0;
      }
      if (!frames_.back().snap_valid) {
        Frame& f = frames_.back();
        if (f.node == nullptr && !locate(f)) {
          continue;
        }
        take_snapshot();
        continue;  // take_snapshot may have redirected to a re-descent
      }
      if (consume()) {
        return batch_count_;
      }
      if (done_) {
        return 0;
      }
    }
  }

  size_t size() const { return batch_count_; }

  uint64_t value(size_t i) const {
    assert(i < batch_count_);
    return ents_[batch_lo_ + i].lv;
  }

  // Materializes batch pair i's full key into the shared key buffer. The
  // view is valid until the next key()/next_batch() call. Reads the suffix
  // bytes through the snapshot's StringBag view: call under the guard.
  //
  // keybuf_ is used as raw storage (its size is a high-water mark; logical
  // lengths live in the frames and the returned view), so materializing a
  // pair is two inline memcpys, not string appends.
  std::string_view key(size_t i) {
    assert(i < batch_count_);
    const Entry& e = ents_[batch_lo_ + i];
    int eo = keylenx_ord(e.kx);
    size_t klen = eo < 9 ? static_cast<size_t>(eo) : kSliceBytes;
    size_t total = batch_prefix_len_ + klen + e.suf_len;
    reserve_keybuf(batch_prefix_len_ + kSliceBytes + e.suf_len);
    char* p = keybuf_.data() + batch_prefix_len_;
    slice_to_bytes(e.slice, p);  // full 8 bytes; the view exposes klen of them
    if (e.suf_len != 0) {
      std::memcpy(p + kSliceBytes, e.suf, e.suf_len);
    }
    return std::string_view(keybuf_.data(), total);
  }

  // Announce the memory the next next_batch() will touch — the pending
  // border (and its suffix StringBag) when the chain walk already knows it,
  // or the sub-layer root when the batch stopped at a layer link — so the
  // fetch overlaps with the caller's emission of the current batch.
  // Dereferences shared nodes: call under the same epoch guard as the
  // next_batch() that produced the batch.
  void prefetch_pending() const {
    if constexpr (!C::kPrefetch) {
      return;
    }
    if (done_ || frames_.empty()) {
      return;
    }
    const Frame& f = frames_.back();
    if (f.snap_valid) {
      if (f.snap_pos < f.snap_count) {
        const Entry& e = ents_[f.ent_off + static_cast<size_t>(f.snap_pos)];
        if (keylenx_is_layer(e.kx)) {
          prefetch_object(reinterpret_cast<const Node*>(e.lv), sizeof(Border));
          return;
        }
      }
      if (f.snap_next != nullptr) {
        prefetch_border(f.snap_next);
      }
      return;
    }
    if (f.node != nullptr) {
      prefetch_border(f.node);
    } else if (f.root != nullptr) {
      prefetch_object(f.root, sizeof(Border));
    }
  }

  // Converts the cursor's position into a pure key-valued resume point and
  // forgets every node pointer, so the caller may drop its epoch guard
  // afterwards. Call while the guard is still held (the resume key is
  // materialized from the snapshot's StringBag views). The next next_batch()
  // (under a fresh guard) re-descends from the tree root to just past the
  // last returned pair.
  void detach() {
    if (done_) {
      return;
    }
    if (batch_count_ > 0) {
      std::string_view last = key(batch_count_ - 1);
      size_t cap0 = resume_key_.capacity();
      resume_key_.assign(last);
      track_growth(cap0, resume_key_.capacity());
      resume_skip_ = true;
    }
    frames_.clear();
  }

  bool done() const { return done_; }

  // Buffer growth events since construction. After warm-up (buffers sized to
  // the workload's key shapes) the steady-state chain walk adds zero.
  uint32_t alloc_events() const { return alloc_events_; }

 private:
  // cord value meaning "past every key with cslice in this layer" — used for
  // parent frames while a sub-layer scan is in flight, so popping back never
  // re-enters the exhausted layer.
  static constexpr int kPastSlice = 10;

  struct Frame {
    Node* root;        // observed true root of this layer
    Border* node;      // current border; nullptr => locate() descends
    size_t prefix_len; // bytes of keybuf_ owned by enclosing layers
    uint64_t cslice;   // resume point: next key must be >= (cslice, cord, csuf_)
    int cord;          // 0..9, or kPastSlice
    bool skip_equal;   // position is exclusive (a pair was already emitted)
    // This frame's snapshot slab: ents_[ent_off, ent_off + snap_count). It
    // stays live while sub-layer frames run above it, so popping back just
    // continues at snap_pos.
    bool snap_valid;
    int snap_pos;
    int snap_count;
    Border* snap_next;  // right sibling read inside the validated snapshot
    size_t ent_off;
  };

  // One border-node entry. `suf` views the node's StringBag — append-only
  // and epoch-protected, so the view outlives the snapshot for as long as
  // the caller's guard does.
  struct Entry {
    uint64_t slice;
    uint64_t lv;
    const char* suf;
    uint32_t suf_len;
    uint8_t kx;
  };

  static void prefetch_border(const Border* n) {
    prefetch_object(n, sizeof(Border));
    const StringBag* bag = n->suffixes();
    if (bag != nullptr) {
      prefetch_object(bag, LookupCursor<C>::kSuffixPrefetchBytes);
    }
  }

  void count(Counter which) {
    if (ctrs_ != nullptr) {
      ctrs_->inc(which);
    }
  }

  void track_growth(size_t cap_before, size_t cap_after) {
    if (cap_after != cap_before) {
      ++alloc_events_;
      count(Counter::kScanAllocs);
    }
  }

  // keybuf_'s size is a monotone high-water mark over raw key storage;
  // growth happens only when a deeper layer or longer key shape first
  // appears.
  void reserve_keybuf(size_t n) {
    if (keybuf_.size() < n) {
      size_t cap0 = keybuf_.capacity();
      keybuf_.resize(n);
      track_growth(cap0, keybuf_.capacity());
    }
  }

  // (Re)build the frame stack from the key-valued resume point: one layer-0
  // frame whose cursor decomposes resume_key_ into (slice, ord, suffix).
  // Deeper resume layers are re-entered organically — the layer link at the
  // resume slice matches the frame cursor and descend() consumes another 8
  // bytes of the resume suffix.
  void attach() {
    frames_.clear();
    Frame f0;
    f0.root = treeroot_->load(std::memory_order_acquire);
    f0.node = nullptr;
    f0.prefix_len = 0;
    f0.cslice = make_slice(resume_key_);
    f0.cord = resume_key_.size() > kSliceBytes ? 9 : static_cast<int>(resume_key_.size());
    f0.skip_equal = resume_skip_;
    f0.snap_valid = false;
    f0.snap_pos = 0;
    f0.snap_count = 0;
    f0.snap_next = nullptr;
    f0.ent_off = 0;
    size_t cap0 = csuf_.capacity();
    if (resume_key_.size() > kSliceBytes) {
      csuf_.assign(resume_key_, kSliceBytes, std::string::npos);
    } else {
      csuf_.clear();
    }
    track_growth(cap0, csuf_.capacity());
    size_t fcap0 = frames_.capacity();
    frames_.push_back(f0);
    track_growth(fcap0, frames_.capacity());
  }

  // Locate the border responsible for f.cslice in f's layer (a
  // border-location LookupCursor). True: f.node set. False: the layer died — the
  // frame was popped (or layer 0's root reloaded) and the caller re-loops.
  bool locate(Frame& f) {
    count(Counter::kScanRedescents);
    LookupCursor<C> cur(f.root, f.cslice);
    if (cur.run(nullptr) == LookupCursor<C>::Status::kDeadLayer) {
      if (frames_.size() == 1) {
        f.root = treeroot_->load(std::memory_order_acquire);
        return false;
      }
      pop_frame();
      return false;
    }
    f.root = cur.layer_root();
    f.node = cur.border();
    return true;
  }

  void pop_frame() {
    // The arena rewinds implicitly: slab offsets are derived from the
    // surviving frames, and the popped slab's records are left untouched
    // until the next snapshot overwrites them (a batch returned by this very
    // call may still read them).
    frames_.pop_back();
    if (frames_.empty()) {
      done_ = true;
    }
  }

  // Copy the top frame's border into its arena slab and validate the copy
  // against the node's version (Figure 7's read protocol, batched). On a
  // deleted node the frame is redirected to re-descend through the
  // forwarding parent pointer instead.
  void take_snapshot() {
    Frame& f = frames_.back();
    Border* n = f.node;
    if (ents_.size() < f.ent_off + static_cast<size_t>(kWidth)) {
      size_t cap0 = ents_.capacity();
      ents_.resize(f.ent_off + static_cast<size_t>(kWidth));
      track_growth(cap0, ents_.capacity());
    }
    Entry* snap = ents_.data() + f.ent_off;
    for (;;) {
      VersionValue v = n->version().stable();
      if (v.deleted()) {
        // Fell off the chain: re-enter the layer via forwarding pointers
        // (locate() counts the re-descent).
        f.root = n;
        f.node = nullptr;
        return;
      }
      Permuter perm = n->permutation();
      Border* nx = n->next();
      // Skip entries strictly below the resume point at copy time (an
      // in-node search over the same permutation snapshot), so a short scan
      // starting mid-node never copies the node's irrelevant prefix.
      // Boundary entries (equal slice+ord) are still copied; consume() owns
      // the suffix-compare / skip-equal decision.
      int start = 0;
      if (f.cslice != 0 || f.cord != 0) {
        n->find(perm, f.cslice, f.cord, &start);
      }
      // Copy no more than the driver can emit, plus one entry for the single
      // possible boundary skip (at most one entry can equal the resume
      // point). A truncated snapshot "hops" back to this same node so the
      // rest of it is picked up by the next call — the +1 guarantees every
      // revisit makes progress.
      int cap = kWidth;
      if (hint_ < static_cast<size_t>(kWidth)) {
        cap = static_cast<int>(hint_) + 1;
      }
      int cnt = 0;
      int i = start;
      bool unstable = false;
      StringBag* bag = n->suffixes();
      for (; i < perm.size() && cnt < cap; ++i) {
        int s = perm.get(i);
        Entry& e = snap[cnt++];
        e.slice = n->slice(s);
        e.kx = n->keylenx(s);
        e.lv = n->lv(s);
        e.suf = nullptr;
        e.suf_len = 0;
        if (keylenx_has_suffix(e.kx)) {
          if (bag != nullptr) {
            std::string_view suf = bag->get(s);
            e.suf = suf.data();
            e.suf_len = static_cast<uint32_t>(suf.size());
          }
        } else if (keylenx_is_unstable(e.kx)) {
          unstable = true;
        }
      }
      if (n->version().changed_since(v)) {
        // An insert or split landed mid-copy. Re-stabilize and re-copy this
        // same node: splits move keys strictly right, so anything that left
        // is met later on the next() chain — no re-descent needed.
        count(Counter::kScanRetries);
        continue;
      }
      if (unstable) {
        spin_pause();  // §4.6.3 layer creation in flight under a slot
        count(Counter::kScanRetries);
        continue;
      }
      f.snap_count = cnt;
      f.snap_pos = 0;
      // A truncated snapshot hops back to this same node — never to the
      // sibling, which would skip the uncopied tail; the revisit re-snapshots
      // from the settled resume cursor and the +1 over the hint guarantees it
      // makes progress.
      f.snap_next = i < perm.size() ? n : nx;
      f.snap_valid = true;
      count(Counter::kScanNodes);
      return;
    }
  }

  // Advance the frame's resume cursor to the last pair a consume() pass
  // emitted — once per batch, not per pair (only the final position
  // matters; the strict entry ordering makes the stale in-batch cursor
  // harmless to the filters).
  void settle_cursor(Frame& f, const Entry* last_emitted) {
    if (last_emitted == nullptr) {
      return;
    }
    f.cslice = last_emitted->slice;
    f.cord = keylenx_ord(last_emitted->kx);
    f.skip_equal = true;
    if (keylenx_has_suffix(last_emitted->kx)) {
      size_t cap0 = csuf_.capacity();
      csuf_.assign(last_emitted->suf, last_emitted->suf_len);
      track_growth(cap0, csuf_.capacity());
    } else {
      csuf_.clear();
    }
  }

  // Consume validated snapshot entries into a batch. True: a non-empty batch
  // is ready. False: keep driving (descended into a sub-layer, or the node
  // held nothing emittable and the cursor hopped the chain / popped).
  bool consume() {
    Frame& f = frames_.back();
    batch_lo_ = f.ent_off + static_cast<size_t>(f.snap_pos);
    batch_count_ = 0;
    batch_prefix_len_ = f.prefix_len;
    const Entry* last_emitted = nullptr;
    while (f.snap_pos < f.snap_count) {
      Entry& e = ents_[f.ent_off + static_cast<size_t>(f.snap_pos)];
      int eo = keylenx_ord(e.kx);
      // Filter entries at or before the resume point. Entries are strictly
      // increasing by (slice, ord), so skips only ever precede the batch.
      if (e.slice < f.cslice || (e.slice == f.cslice && eo < f.cord)) {
        assert(batch_count_ == 0);
        batch_lo_ = f.ent_off + static_cast<size_t>(++f.snap_pos);
        continue;
      }
      if (e.slice == f.cslice && eo == f.cord) {
        if (eo < 9) {
          if (f.skip_equal) {
            assert(batch_count_ == 0);
            batch_lo_ = f.ent_off + static_cast<size_t>(++f.snap_pos);
            continue;
          }
        } else if (keylenx_has_suffix(e.kx)) {
          std::string_view suf(e.suf, e.suf_len);
          int c = suf.compare(csuf_);
          if (c < 0 || (c == 0 && f.skip_equal)) {
            assert(batch_count_ == 0);
            batch_lo_ = f.ent_off + static_cast<size_t>(++f.snap_pos);
            continue;
          }
        }
      }
      if (keylenx_is_layer(e.kx)) {
        if (batch_count_ > 0) {
          settle_cursor(f, last_emitted);
          return true;  // flush first; next_batch() resumes at this link
        }
        descend(e);
        return false;
      }
      // Flush before the documented max_pairs + 1 bound is exceeded: a
      // parent snapshot replayed after a layer pop can hold more remaining
      // entries than this call's hint (take_snapshot only caps fresh copies).
      // The snapshot stays valid; the next call resumes at snap_pos.
      if (batch_count_ > hint_) {
        settle_cursor(f, last_emitted);
        return true;
      }
      // Emittable pair; the frame cursor is settled once at batch end.
      last_emitted = &e;
      ++f.snap_pos;
      ++batch_count_;
    }
    settle_cursor(f, last_emitted);
    // Snapshot exhausted: hop to the already-known right sibling (the
    // allocation-free, descent-free fast path) or pop the layer (the parent
    // frame's own snapshot is still live in the arena — no re-descent, no
    // re-snapshot; it just continues at its saved position).
    f.snap_valid = false;
    if (f.snap_next != nullptr) {
      f.node = f.snap_next;
    } else {
      pop_frame();
    }
    return batch_count_ > 0;
  }

  // Push a sub-layer frame for layer link `e`. The parent cursor moves past
  // the link's slice (kPastSlice) so the exhausted layer is never re-entered;
  // the child inherits the remaining resume suffix when the link sits exactly
  // at the parent's resume slice. The parent's snapshot stays live in the
  // arena below the child's slab.
  void descend(const Entry& e) {
    Frame& f = frames_.back();
    bool use_sub = e.slice == f.cslice && f.cord == 9;
    bool subskip = use_sub && f.skip_equal;
    f.cslice = e.slice;
    f.cord = kPastSlice;
    f.skip_equal = false;
    ++f.snap_pos;  // the link is consumed; the pop resumes past it
    size_t parent_prefix = f.prefix_len;
    reserve_keybuf(parent_prefix + kSliceBytes);
    slice_to_bytes(e.slice, keybuf_.data() + parent_prefix);
    Frame nf;
    nf.root = reinterpret_cast<Node*>(e.lv);
    nf.node = nullptr;
    nf.prefix_len = parent_prefix + kSliceBytes;
    nf.snap_valid = false;
    nf.snap_pos = 0;
    nf.snap_count = 0;
    nf.snap_next = nullptr;
    nf.ent_off = f.ent_off + static_cast<size_t>(f.snap_count);
    if (use_sub) {
      nf.cslice = make_slice(csuf_);
      nf.cord = csuf_.size() > kSliceBytes ? 9 : static_cast<int>(csuf_.size());
      nf.skip_equal = subskip;
      csuf_.erase(0, csuf_.size() < kSliceBytes ? csuf_.size() : kSliceBytes);
    } else {
      nf.cslice = 0;
      nf.cord = 0;
      nf.skip_equal = false;
      csuf_.clear();
    }
    size_t fcap0 = frames_.capacity();
    frames_.push_back(nf);
    track_growth(fcap0, frames_.capacity());
  }

  const std::atomic<Node*>* treeroot_ = nullptr;
  std::vector<Frame> frames_;  // reused layer stack; grows only on new depth
  std::vector<Entry> ents_;    // stacked snapshot arena, one slab per frame
  bool done_ = false;
  size_t batch_lo_ = 0;        // batch start, absolute index into ents_
  size_t batch_count_ = 0;
  size_t batch_prefix_len_ = 0;
  size_t hint_ = ~size_t{0};   // driver's remaining-pairs limit for snapshots
  std::string keybuf_;      // layer prefixes + materialized key, in place
  std::string csuf_;        // top frame's resume suffix
  std::string resume_key_;  // key-valued resume point for detach/attach
  bool resume_skip_ = false;
  uint32_t alloc_events_ = 0;
  ThreadCounters* ctrs_ = nullptr;
};

}  // namespace masstree

#endif  // MASSTREE_CORE_CURSOR_H_
