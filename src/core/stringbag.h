// StringBag — per-border-node key-suffix storage (§4.2).
//
// "Border nodes store the suffixes of their keys in keysuffixes data
//  structures. These are located either inline or in separate memory blocks;
//  Masstree adaptively decides how much per-node memory to allocate for
//  suffixes ... this approach reduces memory usage by up to 16% for workloads
//  with short keys and improves performance by 3%."
//
// Our bag is a single allocation: a header with one 4-byte data position
// per slot, followed by append-only string data in which every suffix is
// stored behind its length (one byte, or 0xFF plus a 4-byte length for
// suffixes of 255 bytes and more). Position 0 lies inside the header, so a
// ref of 0 reads as the empty suffix. Adaptivity: nodes start with no bag
// at all (most nodes hold no suffixes); the first suffix allocates a small
// bag, rounded up to its size class, and uses all of it; later overflow
// doubles it. Bags are append-only — replacing a slot's suffix writes fresh
// bytes and republishes the ref — so concurrent readers either see the old
// suffix or the new one, and the insert's version/permutation validation
// sorts out which was current. Old bags are epoch-reclaimed.

#ifndef MASSTREE_CORE_STRINGBAG_H_
#define MASSTREE_CORE_STRINGBAG_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "core/threadinfo.h"

namespace masstree {

// alignas keeps sizeof a multiple of 8 so the refs() array that directly
// follows the header is properly aligned for std::atomic<uint32_t>.
class alignas(8) StringBag {
 public:
  // Bytes one suffix of `len` bytes takes in the data area: its length
  // prefix plus the bytes. Every caller that sizes a bag counts with this.
  static constexpr size_t stored_size(size_t len) {
    return len + (len < kLongLen ? 1 : 1 + sizeof(uint32_t));
  }

  // Builds an empty bag with room for at least `data_capacity` stored bytes
  // (see stored_size) across `width` slots. The allocation is rounded up to
  // its Flow size class, and the bag takes the rounding as extra room.
  static StringBag* make(ThreadContext& ti, int width, size_t data_capacity) {
    size_t bytes = internal::class_size_for(header_bytes(width) + data_capacity);
    auto* bag = static_cast<StringBag*>(ti.allocate(bytes));
    bag->capacity_ = static_cast<uint32_t>(bytes);
    bag->used_ = static_cast<uint32_t>(header_bytes(width));
    bag->width_ = static_cast<uint16_t>(width);
    for (int i = 0; i < width; ++i) {
      bag->refs()[i].store(0, std::memory_order_relaxed);
    }
    return bag;
  }

  // Copy constructor over a new allocation, keeping only the slots whose bit
  // is set in live_mask (used by splits and bag growth); `extra_capacity`
  // stored bytes of room are added on top.
  static StringBag* make_copy(ThreadContext& ti, const StringBag& src, uint32_t live_mask,
                              size_t extra_capacity) {
    size_t need = 0;
    for (int i = 0; i < src.width_; ++i) {
      if (live_mask & (1u << i)) {
        need += stored_size(src.get(i).size());
      }
    }
    StringBag* bag = make(ti, src.width_, need + extra_capacity);
    for (int i = 0; i < src.width_; ++i) {
      if (live_mask & (1u << i)) {
        bool ok = bag->assign(i, src.get(i));
        (void)ok;
        assert(ok);
      }
    }
    return bag;
  }

  // Total allocation size, header included (for memory accounting).
  size_t capacity() const { return capacity_; }
  size_t used_bytes() const { return used_; }

  // Store `suffix` for `slot`. Returns false if the bag is out of room (the
  // caller grows the bag and retries). Never overwrites previously written
  // bytes, so concurrent readers of other slots are undisturbed.
  bool assign(int slot, std::string_view suffix) {
    assert(slot >= 0 && slot < width_);
    size_t need = stored_size(suffix.size());
    if (used_ + need > capacity_) {
      return false;
    }
    uint32_t pos = used_;
    char* p = base() + pos;
    if (suffix.size() < kLongLen) {
      *p++ = static_cast<char>(suffix.size());
    } else {
      uint32_t len = static_cast<uint32_t>(suffix.size());
      *p++ = static_cast<char>(kLongLen);
      std::memcpy(p, &len, sizeof(len));
      p += sizeof(len);
    }
    std::memcpy(p, suffix.data(), suffix.size());
    used_ += static_cast<uint32_t>(need);
    // Publish the position with one release store: a reader that sees it
    // also sees the length prefix and the bytes behind it.
    refs()[slot].store(pos, std::memory_order_release);
    return true;
  }

  std::string_view get(int slot) const {
    assert(slot >= 0 && slot < width_);
    uint32_t pos = refs()[slot].load(std::memory_order_acquire);
    if (pos == 0) {
      return std::string_view();
    }
    const char* p = base() + pos;
    size_t len = static_cast<unsigned char>(*p++);
    if (len == kLongLen) {
      uint32_t long_len;
      std::memcpy(&long_len, p, sizeof(long_len));
      len = long_len;
      p += sizeof(long_len);
    }
    return std::string_view(p, len);
  }

  bool equals(int slot, std::string_view suffix) const { return get(slot) == suffix; }

  int width() const { return width_; }

 private:
  // A length byte of 0xFF announces a 4-byte length.
  static constexpr size_t kLongLen = 0xFF;

  static size_t header_bytes(int width) {
    return sizeof(StringBag) + static_cast<size_t>(width) * sizeof(std::atomic<uint32_t>);
  }

  std::atomic<uint32_t>* refs() {
    return reinterpret_cast<std::atomic<uint32_t>*>(this + 1);
  }
  const std::atomic<uint32_t>* refs() const {
    return reinterpret_cast<const std::atomic<uint32_t>*>(this + 1);
  }
  char* base() { return reinterpret_cast<char*>(this); }
  const char* base() const { return reinterpret_cast<const char*>(this); }

  uint32_t capacity_;  // total bytes including header
  uint32_t used_;      // append cursor (bytes from base)
  uint16_t width_;
  uint16_t pad_ = 0;
};

}  // namespace masstree

#endif  // MASSTREE_CORE_STRINGBAG_H_
