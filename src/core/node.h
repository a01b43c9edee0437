// Masstree node structures (§4.2, Figure 2).
//
// Border nodes are the leaves of each layer's B+-tree; they hold key slices,
// per-slot key lengths (keylenx), values-or-layer-links, the permutation, the
// doubly linked sibling list, and a pointer to suffix storage. Interior nodes
// hold sorted slices and child pointers. Both embed the §4.5 version word and
// a parent pointer (protected by the parent's lock; doubles as a forwarding
// pointer after a node is retired).
//
// Readers access per-slot fields without locks, so every racy field is a
// relaxed std::atomic; consistency is established by the version/permutation
// validation protocol, not by the individual loads.

#ifndef MASSTREE_CORE_NODE_H_
#define MASSTREE_CORE_NODE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <new>
#include <string_view>

#include "core/permuter.h"
#include "core/stringbag.h"
#include "core/threadinfo.h"
#include "core/version.h"
#include "key/key.h"
#include "util/prefetch.h"

namespace masstree {

// Tree configuration. The defaults reproduce the published system: 15-way
// nodes (a four-cache-line border node, §4.2), prefetching on, linear in-node
// search (§4.8). Benchmarks instantiate variants for the ablations.
struct DefaultConfig {
  using Policy = ConcurrentPolicy;
  static constexpr int kLeafWidth = 15;
  static constexpr int kInteriorWidth = 15;
  static constexpr bool kPrefetch = true;
  static constexpr bool kLinearSearch = true;
  // 0 = adaptive suffix bags (size to demand, grow by doubling, §4.2);
  // nonzero = allocate this many suffix bytes per node up front (the simpler
  // fixed scheme the paper compares against).
  static constexpr size_t kFixedSuffixBytes = 0;
};

// Single-core variant (§6.4): locks, fences, and retries compile out.
struct SequentialConfig : DefaultConfig {
  using Policy = SequentialPolicy;
};

// Per-slot key-length encoding. Values 0..8 mean the key ends inside this
// slice and occupies that many bytes of it. Larger values flag the three
// "key continues" states.
enum KeylenX : uint8_t {
  kKeylenxSuffix = 9,         // key continues; suffix stored in the bag
  kKeylenxLayer = 10,         // lv points at a deeper trie layer's root
  kKeylenxUnstableLayer = 11, // §4.6.3 mid-transition marker; readers retry
};

// Ordering class of a keylenx: all "continues" states tie at 9 (at most one
// such slot exists per slice, so the tie never needs breaking in a node).
inline int keylenx_ord(uint8_t kx) { return kx <= 8 ? kx : 9; }
inline bool keylenx_is_layer(uint8_t kx) { return kx == kKeylenxLayer; }
inline bool keylenx_is_unstable(uint8_t kx) { return kx == kKeylenxUnstableLayer; }
inline bool keylenx_has_suffix(uint8_t kx) { return kx == kKeylenxSuffix; }

template <typename C>
class BorderNode;
template <typename C>
class InteriorNode;

template <typename C>
class NodeBase {
 public:
  using Policy = typename C::Policy;

  explicit NodeBase(uint32_t version_bits) : version_(version_bits) {}

  NodeVersion<Policy>& version() { return version_; }
  const NodeVersion<Policy>& version() const { return version_; }

  bool is_border() const { return version_.is_border_relaxed(); }

  BorderNode<C>* as_border() {
    assert(is_border());
    return static_cast<BorderNode<C>*>(this);
  }
  const BorderNode<C>* as_border() const {
    assert(is_border());
    return static_cast<const BorderNode<C>*>(this);
  }
  InteriorNode<C>* as_interior() {
    assert(!is_border());
    return static_cast<InteriorNode<C>*>(this);
  }
  const InteriorNode<C>* as_interior() const {
    assert(!is_border());
    return static_cast<const InteriorNode<C>*>(this);
  }

  // The parent interior node. For retired (deleted) nodes this is a
  // forwarding pointer that leads descents back to live territory; for layer
  // roots it is null.
  NodeBase* parent() const { return parent_.load(std::memory_order_acquire); }
  void set_parent(NodeBase* p) { parent_.store(p, std::memory_order_release); }

 protected:
  NodeVersion<Policy> version_;
  std::atomic<NodeBase*> parent_{nullptr};
};

template <typename C>
class alignas(kCacheLineSize) BorderNode : public NodeBase<C> {
 public:
  static constexpr int kWidth = C::kLeafWidth;
  static_assert(kWidth >= 2 && kWidth <= Permuter::kMaxWidth,
                "border width limited by the 4-bit permuter subfields");

  using Base = NodeBase<C>;

  // Allocates and constructs an empty border node.
  static BorderNode* make(ThreadContext& ti, bool is_root) {
    void* mem = ti.allocate(sizeof(BorderNode));
    return new (mem) BorderNode(is_root);
  }

  void prefetch() const {
    if constexpr (C::kPrefetch) {
      prefetch_object(this, sizeof(*this));
    }
  }

  Permuter permutation() const {
    return Permuter(permutation_.load(std::memory_order_acquire));
  }
  void set_permutation(Permuter p) {
    permutation_.store(p.value(), std::memory_order_release);
  }

  uint64_t slice(int slot) const { return keyslice_[slot].load(std::memory_order_relaxed); }
  uint8_t keylenx(int slot) const { return keylenx_[slot].load(std::memory_order_relaxed); }
  // Acquire, not relaxed: lv may hold a pointer (a Row boxed by the kvstore
  // layer, or a layer root) whose pointee the caller dereferences. The
  // acquire pairs with set_lv's release so the pointee's initialization is
  // visible — dependency ordering would do on real hardware, but the C++
  // model (and TSan) requires the pairing. Free on x86/ARM loads.
  uint64_t lv(int slot) const { return lv_[slot].load(std::memory_order_acquire); }
  NodeBase<C>* layer(int slot) const { return reinterpret_cast<NodeBase<C>*>(lv(slot)); }

  void set_slice(int slot, uint64_t s) { keyslice_[slot].store(s, std::memory_order_relaxed); }
  void set_keylenx(int slot, uint8_t kx) { keylenx_[slot].store(kx, std::memory_order_release); }
  void set_lv(int slot, uint64_t v) { lv_[slot].store(v, std::memory_order_release); }

  BorderNode* next() const { return next_.load(std::memory_order_acquire); }
  BorderNode* prev() const { return prev_.load(std::memory_order_acquire); }
  void set_next(BorderNode* n) { next_.store(n, std::memory_order_release); }
  void set_prev(BorderNode* p) { prev_.store(p, std::memory_order_release); }

  StringBag* suffixes() const { return ksuf_.load(std::memory_order_acquire); }
  std::string_view suffix(int slot) const {
    StringBag* bag = suffixes();
    assert(bag != nullptr);
    return bag->get(slot);
  }

  // Lowest slice this node can be responsible for; constant over the node's
  // lifetime (§4.6.4). Only meaningful for non-leftmost nodes.
  uint64_t lowkey() const { return lowkey_; }
  void set_lowkey(uint64_t k) { lowkey_ = k; }

  // In-node search among live keys for (slice, ord). Returns the slot if an
  // exact (slice, ord-class) match exists, else -1; *pos receives the sorted
  // position of the match or the insertion point. Pass the permutation
  // snapshot the caller validated (or read under lock).
  int find(Permuter perm, uint64_t slice, int ord, int* pos) const {
    if constexpr (C::kLinearSearch) {
      return find_linear(perm, slice, ord, pos);
    } else {
      return find_binary(perm, slice, ord, pos);
    }
  }

  int find_linear(Permuter perm, uint64_t slice, int ord, int* pos) const {
    int n = perm.size();
    int i = 0;
    for (; i < n; ++i) {
      int slot = perm.get(i);
      uint64_t s = this->slice(slot);
      if (s < slice) {
        continue;
      }
      if (s > slice) {
        break;
      }
      int eo = keylenx_ord(keylenx(slot));
      if (eo < ord) {
        continue;
      }
      *pos = i;
      return eo == ord ? slot : -1;
    }
    *pos = i;
    return -1;
  }

  int find_binary(Permuter perm, uint64_t slice, int ord, int* pos) const {
    int lo = 0, hi = perm.size();
    while (lo < hi) {
      int mid = (lo + hi) / 2;
      int slot = perm.get(mid);
      uint64_t s = this->slice(slot);
      int eo = keylenx_ord(keylenx(slot));
      if (s < slice || (s == slice && eo < ord)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    *pos = lo;
    if (lo < perm.size()) {
      int slot = perm.get(lo);
      if (this->slice(slot) == slice && keylenx_ord(keylenx(slot)) == ord) {
        return slot;
      }
    }
    return -1;
  }

  // Writer-side bookkeeping: number of removals (or split evacuations) whose
  // slots may be reused. Guarded by the node lock.
  uint8_t nremoved_ = 0;
  // Writer-side: the slot this node inserted last, or kNoSlot. A split whose
  // new key lands right after it is an ascending run (split_insert). Guarded
  // by the node lock; it sits in padding, so the node keeps its size.
  static constexpr uint8_t kNoSlot = 0xFF;
  uint8_t last_insert_ = kNoSlot;

  // Raw field access for split/maintenance code paths (lock held).
  std::atomic<uint64_t>& raw_permutation() { return permutation_; }
  std::atomic<StringBag*>& raw_suffixes() { return ksuf_; }

 private:
  explicit BorderNode(bool is_root)
      : Base(VersionValue::kBorder | (is_root ? VersionValue::kRoot : 0)),
        permutation_(Permuter::make_empty().value()) {
    for (int i = 0; i < kWidth; ++i) {
      keyslice_[i].store(0, std::memory_order_relaxed);
      keylenx_[i].store(0, std::memory_order_relaxed);
      lv_[i].store(0, std::memory_order_relaxed);
    }
  }

  std::atomic<uint64_t> permutation_;
  std::atomic<uint64_t> keyslice_[kWidth];
  std::atomic<uint64_t> lv_[kWidth];
  std::atomic<uint8_t> keylenx_[kWidth];
  std::atomic<BorderNode*> next_{nullptr};
  std::atomic<BorderNode*> prev_{nullptr};
  std::atomic<StringBag*> ksuf_{nullptr};
  uint64_t lowkey_ = 0;
};

// Five cache lines: the 15-slot border node must stay in the 320 B class.
static_assert(sizeof(BorderNode<DefaultConfig>) == 5 * kCacheLineSize,
              "BorderNode grew out of the 320 B size class");

template <typename C>
class alignas(kCacheLineSize) InteriorNode : public NodeBase<C> {
 public:
  static constexpr int kWidth = C::kInteriorWidth;
  using Base = NodeBase<C>;

  static InteriorNode* make(ThreadContext& ti, bool is_root) {
    void* mem = ti.allocate(sizeof(InteriorNode));
    return new (mem) InteriorNode(is_root);
  }

  void prefetch() const {
    if constexpr (C::kPrefetch) {
      prefetch_object(this, sizeof(*this));
    }
  }

  int nkeys() const { return nkeys_.load(std::memory_order_relaxed); }
  void set_nkeys(int n) { nkeys_.store(static_cast<uint8_t>(n), std::memory_order_relaxed); }

  uint64_t key(int i) const { return keyslice_[i].load(std::memory_order_relaxed); }
  void set_key(int i, uint64_t k) { keyslice_[i].store(k, std::memory_order_relaxed); }

  NodeBase<C>* child(int i) const { return child_[i].load(std::memory_order_acquire); }
  void set_child(int i, NodeBase<C>* c) { child_[i].store(c, std::memory_order_release); }

  // Index of the child subtree responsible for `slice`: the number of keys
  // <= slice (equal separators send the probe right, keeping all keys with
  // one slice in one subtree).
  int child_index(uint64_t slice) const {
    int n = nkeys();
    if constexpr (C::kLinearSearch) {
      int i = 0;
      while (i < n && key(i) <= slice) {
        ++i;
      }
      return i;
    } else {
      int lo = 0, hi = n;
      while (lo < hi) {
        int mid = (lo + hi) / 2;
        if (key(mid) <= slice) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return lo;
    }
  }

  // Position of a specific child pointer, or -1. Lock held.
  int find_child(const NodeBase<C>* c) const {
    for (int i = 0; i <= nkeys(); ++i) {
      if (child(i) == c) {
        return i;
      }
    }
    return -1;
  }

 private:
  explicit InteriorNode(bool is_root)
      : Base(is_root ? VersionValue::kRoot : 0) {
    for (int i = 0; i <= kWidth; ++i) {
      child_[i].store(nullptr, std::memory_order_relaxed);
    }
  }

  std::atomic<uint8_t> nkeys_{0};
  std::atomic<uint64_t> keyslice_[kWidth];
  std::atomic<NodeBase<C>*> child_[kWidth + 1];
};

}  // namespace masstree

#endif  // MASSTREE_CORE_NODE_H_
