// Row (multi-column COW value, §4.7) tests.

#include "value/row.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

// Global operator new, replaced to count the heap allocations made while
// g_count_news is set (Row.BuildAllocatesOnlyTheRow).
namespace {
std::atomic<bool> g_count_news{false};
std::atomic<uint64_t> g_news{0};
}  // namespace

__attribute__((noinline)) void* operator new(std::size_t n) {
  if (g_count_news.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n != 0 ? n : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
// All three out of line, so the compiler never sees free() meet operator
// new's pointer at an inlined call site (GCC 12's -Wmismatched-new-delete
// stops a Release build when it does).
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace masstree {
namespace {

class RowTest : public ::testing::Test {
 protected:
  ThreadContext ti_;
};

TEST_F(RowTest, MakeAndRead) {
  Row* r = Row::make(ti_, {{0, "alpha"}, {2, "gamma"}}, 7);
  EXPECT_EQ(r->version(), 7u);
  EXPECT_EQ(r->ncols(), 3u);
  EXPECT_EQ(r->col(0), "alpha");
  EXPECT_EQ(r->col(1), "");  // unset column between set ones
  EXPECT_EQ(r->col(2), "gamma");
  EXPECT_EQ(r->col(99), "");  // out of range reads empty
  Row::deallocate(r);
}

TEST_F(RowTest, EmptyRow) {
  Row* r = Row::make(ti_, {}, 1);
  EXPECT_EQ(r->ncols(), 0u);
  EXPECT_EQ(r->col(0), "");
  Row::deallocate(r);
}

TEST_F(RowTest, UpdateCopiesUnmodifiedColumns) {
  Row* r1 = Row::make(ti_, {{0, "aaa"}, {1, "bbb"}, {2, "ccc"}}, 1);
  Row* r2 = Row::update(ti_, r1, {{1, "BBB"}}, 2);
  // Old row untouched (§4.7: modifications don't act in place).
  EXPECT_EQ(r1->col(1), "bbb");
  EXPECT_EQ(r2->col(0), "aaa");
  EXPECT_EQ(r2->col(1), "BBB");
  EXPECT_EQ(r2->col(2), "ccc");
  EXPECT_EQ(r2->version(), 2u);
  Row::deallocate(r1);
  Row::deallocate(r2);
}

TEST_F(RowTest, UpdateWidensColumnSet) {
  Row* r1 = Row::make(ti_, {{0, "x"}}, 1);
  Row* r2 = Row::update(ti_, r1, {{4, "wide"}}, 2);
  EXPECT_EQ(r2->ncols(), 5u);
  EXPECT_EQ(r2->col(0), "x");
  EXPECT_EQ(r2->col(4), "wide");
  Row::deallocate(r1);
  Row::deallocate(r2);
}

TEST_F(RowTest, UpdateFromNull) {
  Row* r = Row::update(ti_, nullptr, {{1, "solo"}}, 3);
  EXPECT_EQ(r->ncols(), 2u);
  EXPECT_EQ(r->col(1), "solo");
  Row::deallocate(r);
}

TEST_F(RowTest, BinaryColumnData) {
  std::string bin("\x00\x01\x02\xff", 4);
  Row* r = Row::make(ti_, {{0, bin}}, 1);
  EXPECT_EQ(r->col(0), bin);
  Row::deallocate(r);
}

TEST_F(RowTest, SlotRoundTrip) {
  Row* r = Row::make(ti_, {{0, "v"}}, 1);
  uint64_t slot = Row::to_slot(r);
  EXPECT_EQ(Row::from_slot(slot), r);
  Row::deallocate(r);
}

TEST_F(RowTest, TenByFourColumns) {
  // The MYCSB configuration: 10 columns of 4 bytes (§7).
  std::vector<ColumnUpdate> updates;
  std::vector<std::string> data;
  for (unsigned i = 0; i < 10; ++i) {
    data.push_back("c" + std::to_string(i) + "x");
    data.back().resize(4, '_');
  }
  for (unsigned i = 0; i < 10; ++i) {
    updates.push_back({i, data[i]});
  }
  Row* r = Row::make(ti_, updates, 5);
  EXPECT_EQ(r->ncols(), 10u);
  for (unsigned i = 0; i < 10; ++i) {
    EXPECT_EQ(r->col(i), data[i]);
    EXPECT_EQ(r->col(i).size(), 4u);
  }
  Row::deallocate(r);
}

TEST(Row, BuildAllocatesOnlyTheRow) {
  // A put builds its row in one Flow allocation; resolving the columns
  // must not touch the heap once the thread has built a row this wide.
  ThreadContext ti;
  std::string value(1024, 'v');
  Row* r = Row::make(ti, {{0, value}}, 1);
  Row* warm = Row::update(ti, r, {{0, value}}, 2);
  Row::deallocate(r);
  r = warm;
  g_news.store(0);
  g_count_news.store(true);
  for (uint64_t v = 3; v < 1003; ++v) {
    Row* next = Row::update(ti, r, {{0, value}}, v);
    Row::deallocate(r);
    r = next;
  }
  g_count_news.store(false);
  EXPECT_EQ(g_news.load(), 0u);
  EXPECT_EQ(r->col(0), value);
  Row::deallocate(r);
}

}  // namespace
}  // namespace masstree
