// Suffix-bag tests (§4.2).

#include "core/stringbag.h"

#include <gtest/gtest.h>

#include <string>

#include "core/threadinfo.h"

namespace masstree {
namespace {

class StringBagTest : public ::testing::Test {
 protected:
  ThreadContext ti_;
};

TEST_F(StringBagTest, AssignAndGet) {
  StringBag* bag = StringBag::make(ti_, 15, 64);
  EXPECT_TRUE(bag->assign(0, "hello"));
  EXPECT_TRUE(bag->assign(3, "world!"));
  EXPECT_EQ(bag->get(0), "hello");
  EXPECT_EQ(bag->get(3), "world!");
  EXPECT_EQ(bag->get(1), "");  // unset slots read as empty
  Arena::deallocate(bag);
}

TEST_F(StringBagTest, BinarySuffixes) {
  StringBag* bag = StringBag::make(ti_, 15, 64);
  std::string bin("\x00\x01\xff\x00zz", 6);
  EXPECT_TRUE(bag->assign(7, bin));
  EXPECT_EQ(bag->get(7), bin);
  EXPECT_TRUE(bag->equals(7, bin));
  EXPECT_FALSE(bag->equals(7, "zz"));
  Arena::deallocate(bag);
}

TEST_F(StringBagTest, OverflowReturnsFalse) {
  // A bag holds at least its request and at most its size class; once
  // filled to capacity() it refuses even one more byte.
  StringBag* bag = StringBag::make(ti_, 15, 8);
  ASSERT_GE(bag->capacity(), bag->used_bytes() + 8);
  EXPECT_EQ(bag->capacity(), internal::class_size_for(bag->capacity()));
  EXPECT_TRUE(bag->assign(0, "12345678"));
  std::string rest(bag->capacity() - bag->used_bytes(), 'r');
  EXPECT_TRUE(bag->assign(1, rest));
  EXPECT_EQ(bag->used_bytes(), bag->capacity());
  EXPECT_FALSE(bag->assign(2, "x"));  // full
  EXPECT_EQ(bag->get(0), "12345678");
  EXPECT_EQ(bag->get(1), rest);
  Arena::deallocate(bag);
}

TEST_F(StringBagTest, ReassignIsAppendOnly) {
  StringBag* bag = StringBag::make(ti_, 15, 64);
  EXPECT_TRUE(bag->assign(2, "first"));
  std::string_view old = bag->get(2);
  EXPECT_TRUE(bag->assign(2, "second"));
  EXPECT_EQ(bag->get(2), "second");
  // The old bytes are still intact (a concurrent reader holding the old ref
  // must not see them scribbled).
  EXPECT_EQ(old, "first");
  Arena::deallocate(bag);
}

TEST_F(StringBagTest, CopyKeepsOnlyLiveMask) {
  StringBag* bag = StringBag::make(ti_, 15, 128);
  bag->assign(0, "zero");
  bag->assign(1, "one");
  bag->assign(2, "two");
  StringBag* copy = StringBag::make_copy(ti_, *bag, (1u << 0) | (1u << 2), 32);
  EXPECT_EQ(copy->get(0), "zero");
  EXPECT_EQ(copy->get(1), "");
  EXPECT_EQ(copy->get(2), "two");
  // Room for more.
  EXPECT_TRUE(copy->assign(5, "fivefive"));
  Arena::deallocate(bag);
  Arena::deallocate(copy);
}

TEST_F(StringBagTest, EmptySuffixIsValid) {
  // Key "ABCDEFGH" + layer link vs suffix "" distinction: an empty suffix is
  // representable (used when a 9..16-byte key's tail is empty after a shift —
  // degenerate but legal for binary keys).
  StringBag* bag = StringBag::make(ti_, 15, 16);
  EXPECT_TRUE(bag->assign(4, ""));
  EXPECT_EQ(bag->get(4), "");
  EXPECT_TRUE(bag->equals(4, ""));
  Arena::deallocate(bag);
}

TEST_F(StringBagTest, AdaptiveGrowthKeepsMemoryModest) {
  // The adaptive policy (start small, grow on demand) should use far less
  // than the fixed worst case (15 slots x max suffix) for short-key loads.
  StringBag* bag = StringBag::make(ti_, 15, 2 + 24);
  EXPECT_TRUE(bag->assign(0, "ab"));
  EXPECT_LT(bag->capacity(), 15u * 256u / 4u);
  Arena::deallocate(bag);
}

}  // namespace
}  // namespace masstree
