// The fast concurrent B+-tree family of §6.2/§6.4 — the strongest non-trie
// baselines in Figure 8 ("B-tree", "+Prefetch", "+Permuter"), the
// fixed-8-byte-key variant of §6.4, and the pkB-tree of §4.1.
//
// One fanout-15 B+-tree implementation, templated over:
//   Rep        — how nodes store keys:
//                KeyRep16  : first 16 bytes inline, remainder in a heap block
//                            ("Each node has space for up to the first 16
//                             bytes of each key"); comparisons touching the
//                            remainder cost a dependent cache miss, which is
//                            exactly what Figure 9 measures.
//                KeyRep8   : fixed-size 8-byte keys only (§6.4).
//                KeyRepPk2 : 2-byte partial keys + pointer to the full key
//                            (partial-key B-tree, Bohannon et al. [8]).
//   kPrefetch  — prefetch all node cache lines before use ("+Prefetch").
//   kPermuter  — publish inserts via the §4.6.2 permutation ("+Permuter");
//                without it, inserts shift keys under an `inserting` mark and
//                bump vinsert, forcing concurrent readers to retry.
//   Policy     — ConcurrentPolicy / SequentialPolicy.
//
// Concurrency control is the §4 scheme (version words, B-link forwarding,
// hand-over-hand split locking). These baselines support get/insert/update —
// the operations the factor analysis exercises; remove is not implemented.

#ifndef MASSTREE_BASELINES_FAST_BTREE_H_
#define MASSTREE_BASELINES_FAST_BTREE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <new>
#include <string_view>

#include "core/permuter.h"
#include "core/threadinfo.h"
#include "core/version.h"
#include "key/keyslice.h"
#include "util/prefetch.h"

namespace masstree {

// ---------------------------------------------------------------------
// Key representations. All fields are relaxed atomics: they are read by
// lock-free readers and validated through the node version protocol.

// First 16 bytes inline as two byte-swapped slices; longer keys keep their
// tail (bytes 16..) in an immutable heap block.
struct KeyRep16 {
  std::atomic<uint64_t> s0{0};
  std::atomic<uint64_t> s1{0};
  std::atomic<uint32_t> len{0};
  std::atomic<const char*> rest{nullptr};

  static constexpr size_t kInline = 16;

  void assign(std::string_view k, ThreadContext& ti) {
    s0.store(make_slice(k), std::memory_order_relaxed);
    s1.store(k.size() > 8 ? make_slice(k.substr(8)) : 0, std::memory_order_relaxed);
    len.store(static_cast<uint32_t>(k.size()), std::memory_order_relaxed);
    if (k.size() > kInline) {
      size_t tail = k.size() - kInline;
      char* heap = static_cast<char*>(ti.allocate(tail));
      std::memcpy(heap, k.data() + kInline, tail);
      rest.store(heap, std::memory_order_relaxed);
    } else {
      rest.store(nullptr, std::memory_order_relaxed);
    }
  }

  void copy_from(const KeyRep16& o) {
    s0.store(o.s0.load(std::memory_order_relaxed), std::memory_order_relaxed);
    s1.store(o.s1.load(std::memory_order_relaxed), std::memory_order_relaxed);
    len.store(o.len.load(std::memory_order_relaxed), std::memory_order_relaxed);
    // Heap tails are immutable: sharing the pointer is safe.
    rest.store(o.rest.load(std::memory_order_relaxed), std::memory_order_relaxed);
  }

  // Lexicographic comparison of the stored key against k: (slice0, slice1,
  // tail bytes, length). Equal slices with unequal lengths <= 16 only happen
  // when the padding bytes are genuine NULs, and the length tiebreak then
  // matches string order.
  int compare(std::string_view k) const {
    uint64_t t0 = make_slice(k);
    uint64_t m0 = s0.load(std::memory_order_relaxed);
    if (m0 != t0) {
      return m0 < t0 ? -1 : 1;
    }
    uint64_t t1 = k.size() > 8 ? make_slice(k.substr(8)) : 0;
    uint64_t m1 = s1.load(std::memory_order_relaxed);
    if (m1 != t1) {
      return m1 < t1 ? -1 : 1;
    }
    uint32_t mlen = len.load(std::memory_order_relaxed);
    size_t mtail = mlen > kInline ? mlen - kInline : 0;
    size_t ttail = k.size() > kInline ? k.size() - kInline : 0;
    if (mtail != 0 || ttail != 0) {
      // The dependent fetch Figure 9 charges to "+Permuter".
      const char* heap = rest.load(std::memory_order_relaxed);
      size_t minlen = mtail < ttail ? mtail : ttail;
      if (minlen != 0 && heap != nullptr) {
        int c = std::memcmp(heap, k.data() + kInline, minlen);
        if (c != 0) {
          return c < 0 ? -1 : 1;
        }
      }
    }
    if (mlen != k.size()) {
      return mlen < k.size() ? -1 : 1;
    }
    return 0;
  }
};

// Fixed 8-byte keys: one slice, no lengths, no tails (§6.4's comparison
// point for the cost of variable-length key support).
struct KeyRep8 {
  std::atomic<uint64_t> s0{0};

  void assign(std::string_view k, ThreadContext&) {
    assert(k.size() == 8);
    s0.store(make_slice(k), std::memory_order_relaxed);
  }
  void copy_from(const KeyRep8& o) {
    s0.store(o.s0.load(std::memory_order_relaxed), std::memory_order_relaxed);
  }
  int compare(std::string_view k) const {
    uint64_t t = make_slice(k);
    uint64_t m = s0.load(std::memory_order_relaxed);
    return m == t ? 0 : (m < t ? -1 : 1);
  }
};

// pkB-tree (§4.1): nodes hold a 2-byte partial key plus a pointer to the
// full key; any comparison the partial key cannot decide chases the pointer.
struct KeyRepPk2 {
  std::atomic<uint16_t> partial{0};
  std::atomic<uint32_t> len{0};
  std::atomic<const char*> full{nullptr};

  static uint16_t partial_of(std::string_view k) {
    uint16_t p = 0;
    if (!k.empty()) {
      p = static_cast<uint16_t>(static_cast<unsigned char>(k[0])) << 8;
    }
    if (k.size() > 1) {
      p |= static_cast<unsigned char>(k[1]);
    }
    return p;
  }

  void assign(std::string_view k, ThreadContext& ti) {
    partial.store(partial_of(k), std::memory_order_relaxed);
    len.store(static_cast<uint32_t>(k.size()), std::memory_order_relaxed);
    char* heap = static_cast<char*>(ti.allocate(k.size() > 0 ? k.size() : 1));
    std::memcpy(heap, k.data(), k.size());
    full.store(heap, std::memory_order_relaxed);
  }
  void copy_from(const KeyRepPk2& o) {
    partial.store(o.partial.load(std::memory_order_relaxed), std::memory_order_relaxed);
    len.store(o.len.load(std::memory_order_relaxed), std::memory_order_relaxed);
    full.store(o.full.load(std::memory_order_relaxed), std::memory_order_relaxed);
  }
  int compare(std::string_view k) const {
    uint16_t tp = partial_of(k);
    uint16_t mp = partial.load(std::memory_order_relaxed);
    if (mp != tp) {
      return mp < tp ? -1 : 1;
    }
    // Partial keys tie: fetch the full key (the pkB-tree's cache miss).
    const char* heap = full.load(std::memory_order_relaxed);
    uint32_t mlen = len.load(std::memory_order_relaxed);
    if (heap == nullptr) {
      return -1;  // torn read; version validation will retry
    }
    size_t minlen = mlen < k.size() ? mlen : k.size();
    int c = minlen ? std::memcmp(heap, k.data(), minlen) : 0;
    if (c != 0) {
      return c < 0 ? -1 : 1;
    }
    return mlen == k.size() ? 0 : (mlen < k.size() ? -1 : 1);
  }
};

// ---------------------------------------------------------------------

struct FastBtreeDefaultConfig {
  using Policy = ConcurrentPolicy;
  using Rep = KeyRep16;
  static constexpr int kWidth = 15;
  static constexpr bool kPrefetch = true;
  static constexpr bool kPermuter = true;
};

template <typename C = FastBtreeDefaultConfig>
class FastBtree {
 public:
  using Policy = typename C::Policy;
  using Rep = typename C::Rep;
  static constexpr int kWidth = C::kWidth;

  explicit FastBtree(ThreadContext& ti) {
    root_.store(make_border(ti, /*root=*/true), std::memory_order_release);
  }

  bool get(std::string_view key, uint64_t* value, ThreadContext& ti) const {
    EpochGuard guard(ti.slot());
    for (;;) {
      Border* n;
      VersionValue v;
      find_border(key, &n, &v);
      for (;;) {
        int idx = -1;
        int count = n->count();
        for (int i = 0; i < count; ++i) {
          int slot = n->slot_at(i);
          int c = n->keys[slot].compare(key);
          if (c == 0) {
            idx = slot;
            break;
          }
          if (c > 0) {
            break;
          }
        }
        uint64_t lv = idx >= 0 ? n->values[idx].load(std::memory_order_relaxed) : 0;
        if (n->version().changed_since(v)) {
          v = n->version().stable();
          Border* nx = n->next.load(std::memory_order_acquire);
          while (nx != nullptr && nx->lowkey.compare(key) <= 0) {
            n = nx;
            v = n->version().stable();
            nx = n->next.load(std::memory_order_acquire);
          }
          continue;
        }
        if (idx < 0) {
          return false;
        }
        *value = lv;
        return true;
      }
    }
  }

  // Insert or update. Returns true if a new key was added.
  bool insert(std::string_view key, uint64_t value, ThreadContext& ti) {
    EpochGuard guard(ti.slot());
    Border* n = locate_locked(key);
    // Search under lock.
    int count = n->count();
    int pos = count;
    int match = -1;
    for (int i = 0; i < count; ++i) {
      int slot = n->slot_at(i);
      int c = n->keys[slot].compare(key);
      if (c == 0) {
        match = slot;
        break;
      }
      if (c > 0) {
        pos = i;
        break;
      }
    }
    if (match >= 0) {
      n->values[match].store(value, std::memory_order_release);
      n->version().unlock();
      return false;
    }
    if (count < kWidth) {
      insert_at(n, pos, key, value, ti);
      n->version().unlock();
      return true;
    }
    split_insert(n, pos, key, value, ti);
    return true;
  }

 private:
  struct Node {
    explicit Node(uint32_t bits) : version_(bits) {}
    NodeVersion<Policy>& version() { return version_; }
    const NodeVersion<Policy>& version() const { return version_; }
    bool is_border() const { return version_.is_border_relaxed(); }
    NodeVersion<Policy> version_;
    std::atomic<Node*> parent{nullptr};
  };

  struct alignas(kCacheLineSize) Border : Node {
    explicit Border(bool root)
        : Node(VersionValue::kBorder | (root ? VersionValue::kRoot : 0)),
          permutation(Permuter::make_empty().value()) {}

    void prefetch_me() const {
      if constexpr (C::kPrefetch) {
        prefetch_object(this, sizeof(*this));
      }
    }

    // Count/slot accessors bridging the permuter and sorted-array modes.
    int count() const {
      if constexpr (C::kPermuter) {
        return Permuter(permutation.load(std::memory_order_acquire)).size();
      } else {
        return nkeys.load(std::memory_order_acquire);
      }
    }
    int slot_at(int i) const {
      if constexpr (C::kPermuter) {
        return Permuter(permutation.load(std::memory_order_acquire)).get(i);
      } else {
        return i;
      }
    }

    std::atomic<uint64_t> permutation;  // kPermuter mode
    std::atomic<int> nkeys{0};          // sorted-array mode
    Rep keys[kWidth];
    std::atomic<uint64_t> values[kWidth];
    std::atomic<Border*> next{nullptr};
    Rep lowkey;  // immutable after creation
  };

  struct alignas(kCacheLineSize) Interior : Node {
    explicit Interior(bool root) : Node(root ? VersionValue::kRoot : 0) {}

    void prefetch_me() const {
      if constexpr (C::kPrefetch) {
        prefetch_object(this, sizeof(*this));
      }
    }

    // Index of the child covering `key`.
    int child_index(std::string_view key) const {
      int n = nkeys.load(std::memory_order_relaxed);
      int i = 0;
      while (i < n && keys[i].compare(key) <= 0) {
        ++i;
      }
      return i;
    }
    int find_child(const Node* c) const {
      for (int i = 0; i <= nkeys.load(std::memory_order_relaxed); ++i) {
        if (child[i].load(std::memory_order_relaxed) == c) {
          return i;
        }
      }
      return -1;
    }

    std::atomic<int> nkeys{0};
    Rep keys[kWidth];
    std::atomic<Node*> child[kWidth + 1];
  };

  static Border* make_border(ThreadContext& ti, bool root) {
    return new (ti.allocate(sizeof(Border))) Border(root);
  }
  static Interior* make_interior(ThreadContext& ti, bool root) {
    auto* p = new (ti.allocate(sizeof(Interior))) Interior(root);
    for (int i = 0; i <= kWidth; ++i) {
      p->child[i].store(nullptr, std::memory_order_relaxed);
    }
    return p;
  }

  void find_border(std::string_view key, Border** out, VersionValue* vout) const {
  retry:
    Node* n = root_.load(std::memory_order_acquire);
    VersionValue v = n->version().stable();
    while (!v.is_root()) {
      Node* p = n->parent.load(std::memory_order_acquire);
      if (p == nullptr) {
        spin_pause();
        v = n->version().stable();
        continue;
      }
      n = p;
      v = n->version().stable();
    }
    while (!v.is_border()) {
      Interior* in = static_cast<Interior*>(n);
      in->prefetch_me();
      int ci = in->child_index(key);
      Node* child = in->child[ci].load(std::memory_order_acquire);
      if (child == nullptr) {
        v = n->version().stable();
        continue;
      }
      VersionValue cv = child->version().stable();
      if (!in->version().changed_since(v)) {
        n = child;
        v = cv;
        continue;
      }
      VersionValue v2 = n->version().stable();
      if (v2.vsplit() != v.vsplit()) {
        goto retry;
      }
      v = v2;
    }
    static_cast<Border*>(n)->prefetch_me();
    *out = static_cast<Border*>(n);
    *vout = v;
  }

  Border* locate_locked(std::string_view key) const {
    Border* n;
    VersionValue v;
    find_border(key, &n, &v);
    n->version().lock();
    for (;;) {
      Border* nx = n->next.load(std::memory_order_acquire);
      if (nx == nullptr || nx->lowkey.compare(key) > 0) {
        return n;
      }
      nx->version().lock();
      n->version().unlock();
      n = nx;
    }
  }

  void insert_at(Border* n, int pos, std::string_view key, uint64_t value,
                 ThreadContext& ti) {
    if constexpr (C::kPermuter) {
      // "+Permuter": write the free slot, then publish order + count with
      // one release store. Readers never retry on plain inserts.
      Permuter perm(n->permutation.load(std::memory_order_relaxed));
      int slot = perm.back();
      n->keys[slot].assign(key, ti);
      n->values[slot].store(value, std::memory_order_relaxed);
      release_fence();
      perm.insert_from_back(pos);
      n->permutation.store(perm.value(), std::memory_order_release);
    } else {
      // Conventional B-tree insert: shift the sorted array under an
      // `inserting` mark; unlock bumps vinsert and readers retry (§6.2:
      // "Conventional B-tree inserts must rearrange a node's keys").
      n->version().mark_inserting();
      int count = n->nkeys.load(std::memory_order_relaxed);
      for (int i = count; i > pos; --i) {
        n->keys[i].copy_from(n->keys[i - 1]);
        n->values[i].store(n->values[i - 1].load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
      }
      n->keys[pos].assign(key, ti);
      n->values[pos].store(value, std::memory_order_relaxed);
      release_fence();
      n->nkeys.store(count + 1, std::memory_order_release);
    }
  }

  void split_insert(Border* n, int pos, std::string_view key, uint64_t value,
                    ThreadContext& ti) {
    constexpr int W = kWidth;
    n->version().mark_splitting();
    Border* n2 = make_border(ti, false);
    n2->version().assign_locked_from(n->version().load());
    n2->version().set_root(false);

    // Sorted slot order of existing keys.
    int order[W];
    for (int i = 0; i < W; ++i) {
      order[i] = n->slot_at(i);
    }
    int m = (W + 1) / 2;  // left keeps m entries of the W+1 virtual array
    bool new_left = pos < m;

    // Move right portion (virtual indexes m..W) into n2 slots 0..: the
    // virtual array interleaves the new key at `pos`.
    int out = 0;
    int first_right_slot = -1;
    for (int vi = m; vi <= W; ++vi) {
      if (vi == pos) {
        n2->keys[out].assign(key, ti);
        n2->values[out].store(value, std::memory_order_relaxed);
      } else {
        int src = order[vi > pos ? vi - 1 : vi];
        if (first_right_slot < 0) {
          first_right_slot = src;
        }
        n2->keys[out].copy_from(n->keys[src]);
        n2->values[out].store(n->values[src].load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
      }
      ++out;
    }
    // n2's lowkey = its smallest key.
    n2->lowkey.copy_from(n2->keys[0]);
    if constexpr (C::kPermuter) {
      n2->permutation.store(Permuter::make_sorted(out).value(), std::memory_order_relaxed);
    } else {
      n2->nkeys.store(out, std::memory_order_relaxed);
    }

    // Rebuild n with the left portion.
    if constexpr (C::kPermuter) {
      bool kept[W] = {};
      int norder[W];
      int kc = 0;
      int newpos = -1;
      for (int vi = 0; vi < m; ++vi) {
        if (vi == pos) {
          newpos = kc;
          norder[kc++] = -1;
        } else {
          int src = order[vi > pos ? vi - 1 : vi];
          norder[kc++] = src;
          kept[src] = true;
        }
      }
      if (new_left) {
        int fs = -1;
        for (int s = 0; s < W; ++s) {
          if (!kept[s]) {
            fs = s;
            break;
          }
        }
        n->keys[fs].assign(key, ti);
        n->values[fs].store(value, std::memory_order_relaxed);
        norder[newpos] = fs;
        kept[fs] = true;
      }
      uint64_t px = static_cast<uint64_t>(kc);
      int nib = 1;
      for (int i = 0; i < kc; ++i) {
        px |= static_cast<uint64_t>(norder[i]) << (4 * nib++);
      }
      for (int s = 0; s < W; ++s) {
        if (!kept[s]) {
          px |= static_cast<uint64_t>(s) << (4 * nib++);
        }
      }
      release_fence();
      n->permutation.store(px, std::memory_order_release);
    } else {
      // Sorted-array mode: slots already sorted; left keeps a prefix, and the
      // new key (if left) must be shifted in.
      int keep = new_left ? m - 1 : m;
      if (new_left) {
        for (int i = keep; i > pos; --i) {
          n->keys[i].copy_from(n->keys[i - 1]);
          n->values[i].store(n->values[i - 1].load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
        }
        n->keys[pos].assign(key, ti);
        n->values[pos].store(value, std::memory_order_relaxed);
        keep = m;
      }
      release_fence();
      n->nkeys.store(keep, std::memory_order_release);
    }

    Border* old_next = n->next.load(std::memory_order_relaxed);
    n2->next.store(old_next, std::memory_order_relaxed);
    release_fence();
    n->next.store(n2, std::memory_order_release);

    ascend(n, n2, &n2->lowkey, ti);
  }

  // Insert (sep, right) above left, splitting interiors as needed.
  void ascend(Node* left, Node* right, const Rep* sep, ThreadContext& ti) {
    for (;;) {
      Interior* p = locked_parent(left);
      if (p == nullptr) {
        Interior* r = make_interior(ti, true);
        r->nkeys.store(1, std::memory_order_relaxed);
        r->keys[0].copy_from(*sep);
        r->child[0].store(left, std::memory_order_relaxed);
        r->child[1].store(right, std::memory_order_relaxed);
        left->parent.store(r, std::memory_order_release);
        right->parent.store(r, std::memory_order_release);
        left->version().set_root(false);
        Node* expected = left;
        root_.compare_exchange_strong(expected, r, std::memory_order_acq_rel);
        left->version().unlock();
        right->version().unlock();
        return;
      }
      int nk = p->nkeys.load(std::memory_order_relaxed);
      if (nk < kWidth) {
        p->version().mark_inserting();
        int ci = p->find_child(left);
        assert(ci >= 0);
        for (int i = nk; i > ci; --i) {
          p->keys[i].copy_from(p->keys[i - 1]);
        }
        for (int i = nk + 1; i > ci + 1; --i) {
          p->child[i].store(p->child[i - 1].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
        }
        p->keys[ci].copy_from(*sep);
        p->child[ci + 1].store(right, std::memory_order_release);
        right->parent.store(p, std::memory_order_release);
        p->nkeys.store(nk + 1, std::memory_order_release);
        left->version().unlock();
        right->version().unlock();
        p->version().unlock();
        return;
      }
      // Split the parent.
      p->version().mark_splitting();
      left->version().unlock();
      Interior* p2 = make_interior(ti, false);
      p2->version().assign_locked_from(p->version().load());
      p2->version().set_root(false);
      int ci = p->find_child(left);
      assert(ci >= 0);

      // Compose the virtual arrays (kWidth+1 keys, kWidth+2 children).
      const Rep* keys[kWidth + 1];
      Node* children[kWidth + 2];
      {
        int cpos = 0;
        for (int i = 0; i <= kWidth; ++i) {
          children[cpos++] = p->child[i].load(std::memory_order_relaxed);
          if (i == ci) {
            children[cpos++] = right;
          }
        }
        int kpos = 0;
        for (int i = 0; i < kWidth; ++i) {
          if (i == ci) {
            keys[kpos++] = sep;
          }
          keys[kpos++] = &p->keys[i];
        }
        if (ci == kWidth) {
          keys[kpos++] = sep;
        }
      }
      int mm = (kWidth + 1) / 2;
      // Copy the up-key by value into p2's spare storage (slot kWidth-1 of
      // p2 is unused: p2 receives kWidth - mm keys < kWidth).
      int rn = kWidth - mm;
      for (int i = 0; i < rn; ++i) {
        p2->keys[i].copy_from(*keys[mm + 1 + i]);
      }
      p2->nkeys.store(rn, std::memory_order_relaxed);
      for (int i = 0; i <= rn; ++i) {
        Node* c = children[mm + 1 + i];
        p2->child[i].store(c, std::memory_order_relaxed);
        c->parent.store(p2, std::memory_order_release);
      }
      // The separator that moves up. Stash a copy in p2's last key slot so
      // the next loop iteration has stable storage for it.
      p2->keys[kWidth - 1].copy_from(*keys[mm]);
      const Rep* upkey = &p2->keys[kWidth - 1];

      // Rewrite p's left portion (readers retry on vsplit). Descending order:
      // keys[i] may alias p->keys[i-1] (the shifted region right of ci), so
      // ascending copies would read already-overwritten slots.
      for (int i = mm - 1; i >= 0; --i) {
        if (keys[i] != &p->keys[i]) {
          p->keys[i].copy_from(*keys[i]);
        }
      }
      p->nkeys.store(mm, std::memory_order_relaxed);
      for (int i = 0; i <= mm; ++i) {
        Node* c = children[i];
        p->child[i].store(c, std::memory_order_relaxed);
        c->parent.store(p, std::memory_order_release);
      }
      right->version().unlock();
      left = p;
      right = p2;
      sep = upkey;
    }
  }

  static Interior* locked_parent(Node* n) {
    for (;;) {
      Node* p = n->parent.load(std::memory_order_acquire);
      if (p == nullptr) {
        return nullptr;
      }
      p->version().lock();
      if (n->parent.load(std::memory_order_acquire) == p) {
        return static_cast<Interior*>(p);
      }
      p->version().unlock();
    }
  }

  std::atomic<Node*> root_;
};

// The named Figure 8 / §6.4 variants.
struct BtreeNoPrefetchConfig : FastBtreeDefaultConfig {
  static constexpr bool kPrefetch = false;
  static constexpr bool kPermuter = false;
};
struct BtreePrefetchConfig : FastBtreeDefaultConfig {
  static constexpr bool kPermuter = false;
};
struct BtreePermuterConfig : FastBtreeDefaultConfig {};
struct BtreeFixed8Config : FastBtreeDefaultConfig {
  using Rep = KeyRep8;
};
struct PkBtreeConfig : FastBtreeDefaultConfig {
  using Rep = KeyRepPk2;
};

using BtreePlain = FastBtree<BtreeNoPrefetchConfig>;      // "B-tree"
using BtreePrefetch = FastBtree<BtreePrefetchConfig>;     // "+Prefetch"
using BtreePermuter = FastBtree<BtreePermuterConfig>;     // "+Permuter"
using BtreeFixed8 = FastBtree<BtreeFixed8Config>;         // §6.4 fixed keys
using PkBtree = FastBtree<PkBtreeConfig>;                 // §4.1 pkB-tree

}  // namespace masstree

#endif  // MASSTREE_BASELINES_FAST_BTREE_H_
