// Row — the Masstree value representation (§4.7).
//
// "The Masstree system stores values consisting of a version number and an
//  array of variable-length strings called columns. ... Multi-column puts are
//  atomic: a concurrent get will see either all or none of a put's column
//  modifications. ... Each value is allocated as a single memory block.
//  Modifications don't act in place ... put creates a new value object,
//  copying unmodified columns from the old value object as appropriate."
//
// Layout: one allocation holding {version, ncols, offsets[ncols+1], bytes}.
// Rows are immutable after construction; replacing a row swaps the tree's
// value pointer with one aligned write, and the old row is epoch-reclaimed.
// (This is the paper's small-value design; §4.7's per-column variant for
// large values trades copying for indirection and is out of scope here —
// see DESIGN.md.)

#ifndef MASSTREE_VALUE_ROW_H_
#define MASSTREE_VALUE_ROW_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#include "core/threadinfo.h"

namespace masstree {

// One column write within a put.
struct ColumnUpdate {
  unsigned col;
  std::string_view data;
};

class Row {
 public:
  // Build a row from scratch: columns not mentioned become empty.
  static Row* make(ThreadContext& ti, std::span<const ColumnUpdate> updates,
                   uint64_t version) {
    unsigned ncols = 0;
    for (const auto& u : updates) {
      if (u.col + 1 > ncols) {
        ncols = u.col + 1;
      }
    }
    return build(ti, nullptr, updates, ncols, version);
  }

  // Copy-on-write update: returns a fresh row with `updates` applied over
  // `old` (which may be null). Never mutates `old` (§4.7).
  static Row* update(ThreadContext& ti, const Row* old, std::span<const ColumnUpdate> updates,
                     uint64_t version) {
    unsigned ncols = old != nullptr ? old->ncols() : 0;
    for (const auto& u : updates) {
      if (u.col + 1 > ncols) {
        ncols = u.col + 1;
      }
    }
    return build(ti, old, updates, ncols, version);
  }

  // Braced-list conveniences: Row::make(ti, {{0, "v"}}, ver).
  static Row* make(ThreadContext& ti, std::initializer_list<ColumnUpdate> updates,
                   uint64_t version) {
    return make(ti, std::span<const ColumnUpdate>(updates.begin(), updates.size()),
                version);
  }

  static Row* update(ThreadContext& ti, const Row* old,
                     std::initializer_list<ColumnUpdate> updates, uint64_t version) {
    return update(ti, old,
                  std::span<const ColumnUpdate>(updates.begin(), updates.size()),
                  version);
  }

  uint64_t version() const { return version_; }
  unsigned ncols() const { return ncols_; }

  std::string_view col(unsigned i) const {
    if (i >= ncols_) {
      return {};
    }
    const uint32_t* off = offsets();
    return std::string_view(data() + off[i], off[i + 1] - off[i]);
  }

  // Total allocation footprint (for memory accounting).
  size_t bytes() const {
    return sizeof(Row) + (ncols_ + 1) * sizeof(uint32_t) + offsets()[ncols_];
  }

  static void deallocate(void* p) { Arena::deallocate(p); }

  // Helpers for storing Row* in the tree's opaque value slots.
  static uint64_t to_slot(const Row* r) { return reinterpret_cast<uint64_t>(r); }
  static Row* from_slot(uint64_t v) { return reinterpret_cast<Row*>(v); }

 private:
  static Row* build(ThreadContext& ti, const Row* old, std::span<const ColumnUpdate> updates,
                    unsigned ncols, uint64_t version) {
    // Resolve each column to its source (update wins over old row). The
    // scratch keeps its capacity across calls, so the row is the only
    // allocation of a put once the thread has seen its widest row.
    thread_local std::vector<std::string_view> cols;
    size_t total = 0;
    cols.resize(ncols);
    for (unsigned i = 0; i < ncols; ++i) {
      cols[i] = old != nullptr ? old->col(i) : std::string_view();
    }
    for (const auto& u : updates) {
      cols[u.col] = u.data;
    }
    for (unsigned i = 0; i < ncols; ++i) {
      total += cols[i].size();
    }
    size_t bytes = sizeof(Row) + (ncols + 1) * sizeof(uint32_t) + total;
    Row* r = static_cast<Row*>(ti.allocate(bytes));
    r->version_ = version;
    r->ncols_ = ncols;
    uint32_t* off = r->offsets_mut();
    char* d = r->data_mut();
    uint32_t pos = 0;
    for (unsigned i = 0; i < ncols; ++i) {
      off[i] = pos;
      std::memcpy(d + pos, cols[i].data(), cols[i].size());
      pos += static_cast<uint32_t>(cols[i].size());
    }
    off[ncols] = pos;
    return r;
  }

  const uint32_t* offsets() const {
    return reinterpret_cast<const uint32_t*>(this + 1);
  }
  uint32_t* offsets_mut() { return reinterpret_cast<uint32_t*>(this + 1); }
  const char* data() const {
    return reinterpret_cast<const char*>(offsets() + ncols_ + 1);
  }
  char* data_mut() { return reinterpret_cast<char*>(offsets_mut() + ncols_ + 1); }

  uint64_t version_;
  uint32_t ncols_;
  uint32_t pad_ = 0;
};

}  // namespace masstree

#endif  // MASSTREE_VALUE_ROW_H_
