// Suffix-bag tests (§4.2).

#include "core/stringbag.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

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
  // filled to capacity() it refuses even one more byte. Each suffix takes a
  // one-byte length prefix, so a request of stored_size(8) fits "12345678".
  StringBag* bag = StringBag::make(ti_, 15, StringBag::stored_size(8));
  ASSERT_GE(bag->capacity(), bag->used_bytes() + StringBag::stored_size(8));
  EXPECT_EQ(bag->capacity(), internal::class_size_for(bag->capacity()));
  EXPECT_TRUE(bag->assign(0, "12345678"));
  size_t room = bag->capacity() - bag->used_bytes();
  ASSERT_LT(room, 256u);  // the rest takes a one-byte prefix
  std::string rest(room - 1, 'r');
  EXPECT_TRUE(bag->assign(1, rest));
  EXPECT_EQ(bag->used_bytes(), bag->capacity());
  EXPECT_FALSE(bag->assign(2, "x"));  // full
  EXPECT_FALSE(bag->assign(2, ""));   // even an empty suffix needs its prefix
  EXPECT_EQ(bag->get(0), "12345678");
  EXPECT_EQ(bag->get(1), rest);
  EXPECT_EQ(bag->get(2), "");
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

// Lengths around the one-byte prefix's limit (254 is the longest short
// form, 255 the shortest long form) and one past 64 KiB, side by side in one
// bag, with a never-assigned slot and a reassigned one among them; then
// copies of the bag, whole and masked.
TEST_F(StringBagTest, LengthPrefixBoundaries) {
  const size_t lens[] = {0, 1, 254, 255, 256, 70000};
  EXPECT_EQ(StringBag::stored_size(0), 1u);
  EXPECT_EQ(StringBag::stored_size(254), 255u);
  EXPECT_EQ(StringBag::stored_size(255), 260u);
  EXPECT_EQ(StringBag::stored_size(70000), 70005u);
  std::vector<std::string> sufs;
  size_t need = 2 * StringBag::stored_size(3);  // slot 13: "old", then "new"
  for (size_t i = 0; i < std::size(lens); ++i) {
    std::string suf(lens[i], '\0');
    for (size_t j = 0; j < suf.size(); ++j) {
      suf[j] = static_cast<char>('a' + (i * 7 + j) % 26);
    }
    need += StringBag::stored_size(suf.size());
    sufs.push_back(std::move(suf));
  }
  StringBag* bag = StringBag::make(ti_, 15, need);
  // Slots 0, 2, ..., 10 hold the six lengths; slot 1 is never assigned.
  for (size_t i = 0; i < sufs.size(); ++i) {
    ASSERT_TRUE(bag->assign(static_cast<int>(2 * i), sufs[i])) << lens[i];
  }
  ASSERT_TRUE(bag->assign(13, "old"));
  ASSERT_TRUE(bag->assign(13, "new"));
  const uint32_t assigned = 0x555u | (1u << 13);
  StringBag* copy = StringBag::make_copy(ti_, *bag, assigned, 0);
  for (StringBag* b : {bag, copy}) {
    for (size_t i = 0; i < sufs.size(); ++i) {
      EXPECT_EQ(b->get(static_cast<int>(2 * i)), sufs[i]) << lens[i];
    }
    EXPECT_EQ(b->get(1), "");
    EXPECT_EQ(b->get(13), "new");
  }
  // The copy drops the reassigned slot's old bytes.
  EXPECT_EQ(copy->used_bytes(), bag->used_bytes() - StringBag::stored_size(3));
  StringBag* some = StringBag::make_copy(ti_, *bag, (1u << 6) | (1u << 10) | (1u << 13), 0);
  EXPECT_EQ(some->get(6), sufs[3]);
  EXPECT_EQ(some->get(10), sufs[5]);
  EXPECT_EQ(some->get(13), "new");
  EXPECT_EQ(some->get(0), "");
  EXPECT_EQ(some->get(4), "");
  Arena::deallocate(bag);
  Arena::deallocate(copy);
  Arena::deallocate(some);
}

// A 15-slot bag of decimal-key suffixes (1-2 bytes each) fits the 128 B
// size class: a 76-byte header of 4-byte slot refs plus 3 bytes a suffix.
TEST_F(StringBagTest, ShortSuffixBagFitsOneHundredTwentyEightBytes) {
  StringBag* bag = StringBag::make(ti_, 15, 15 * StringBag::stored_size(2));
  EXPECT_EQ(bag->capacity(), 128u);
  for (int i = 0; i < 15; ++i) {
    EXPECT_TRUE(bag->assign(i, std::to_string(10 + i)));
  }
  for (int i = 0; i < 15; ++i) {
    EXPECT_EQ(bag->get(i), std::to_string(10 + i));
  }
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
