// Unit tests for util/bit_vector.h: BitVector and VisitedSet.

#include "util/bit_vector.h"

#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace hybridlsh {
namespace util {
namespace {

TEST(BitVectorTest, StartsAllZero) {
  BitVector bits(130);
  EXPECT_EQ(bits.size(), 130u);
  for (size_t i = 0; i < 130; ++i) EXPECT_FALSE(bits.Get(i));
  EXPECT_EQ(bits.Count(), 0u);
}

TEST(BitVectorTest, SetAndGet) {
  BitVector bits(130);
  bits.Set(0);
  bits.Set(63);
  bits.Set(64);
  bits.Set(129);
  EXPECT_TRUE(bits.Get(0));
  EXPECT_TRUE(bits.Get(63));
  EXPECT_TRUE(bits.Get(64));
  EXPECT_TRUE(bits.Get(129));
  EXPECT_FALSE(bits.Get(1));
  EXPECT_FALSE(bits.Get(65));
  EXPECT_EQ(bits.Count(), 4u);
}

TEST(BitVectorTest, ClearSingleBit) {
  BitVector bits(64);
  bits.Set(10);
  bits.Set(11);
  bits.Clear(10);
  EXPECT_FALSE(bits.Get(10));
  EXPECT_TRUE(bits.Get(11));
}

TEST(BitVectorTest, TestAndSetReportsPriorValue) {
  BitVector bits(10);
  EXPECT_FALSE(bits.TestAndSet(3));
  EXPECT_TRUE(bits.TestAndSet(3));
  EXPECT_TRUE(bits.Get(3));
}

TEST(BitVectorTest, ClearAll) {
  BitVector bits(200);
  for (size_t i = 0; i < 200; i += 3) bits.Set(i);
  bits.ClearAll();
  EXPECT_EQ(bits.Count(), 0u);
}

TEST(BitVectorTest, ResizeZeroesEverything) {
  BitVector bits(10);
  bits.Set(5);
  bits.Resize(100);
  EXPECT_EQ(bits.size(), 100u);
  EXPECT_EQ(bits.Count(), 0u);
}

TEST(BitVectorTest, CountAcrossWordBoundaries) {
  BitVector bits(192);
  for (size_t i = 0; i < 192; ++i) bits.Set(i);
  EXPECT_EQ(bits.Count(), 192u);
}

TEST(BitVectorTest, EmptyVector) {
  BitVector bits;
  EXPECT_EQ(bits.size(), 0u);
  EXPECT_EQ(bits.Count(), 0u);
}

TEST(VisitedSetTest, InsertReturnsTrueOnFirstOccurrence) {
  VisitedSet set(100);
  EXPECT_TRUE(set.Insert(42));
  EXPECT_FALSE(set.Insert(42));
  EXPECT_TRUE(set.Insert(7));
  EXPECT_EQ(set.size(), 2u);
}

TEST(VisitedSetTest, ContainsTracksInserts) {
  VisitedSet set(100);
  EXPECT_FALSE(set.Contains(5));
  set.Insert(5);
  EXPECT_TRUE(set.Contains(5));
}

TEST(VisitedSetTest, TouchedPreservesFirstOccurrenceOrder) {
  VisitedSet set(100);
  set.Insert(9);
  set.Insert(2);
  set.Insert(9);  // duplicate, not re-added
  set.Insert(55);
  EXPECT_EQ(set.touched(), (std::vector<uint32_t>{9, 2, 55}));
}

TEST(VisitedSetTest, ResetClearsOnlyTouchedBits) {
  VisitedSet set(1000);
  for (uint32_t id : {1u, 500u, 999u}) set.Insert(id);
  set.Reset();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.Contains(1));
  EXPECT_FALSE(set.Contains(500));
  EXPECT_FALSE(set.Contains(999));
  // Reusable after reset.
  EXPECT_TRUE(set.Insert(500));
}

TEST(VisitedSetTest, ManyQueriesReuseWithoutLeakage) {
  VisitedSet set(256);
  for (int query = 0; query < 50; ++query) {
    for (uint32_t id = 0; id < 256; id += 7) {
      EXPECT_TRUE(set.Insert(id)) << "query " << query << " id " << id;
    }
    set.Reset();
  }
}

TEST(VisitedSetTest, CapacityMatchesConstruction) {
  VisitedSet set(123);
  EXPECT_EQ(set.capacity(), 123u);
}

TEST(VisitedSetTest, ResizeClears) {
  VisitedSet set(10);
  set.Insert(3);
  set.Resize(20);
  EXPECT_EQ(set.capacity(), 20u);
  EXPECT_FALSE(set.Contains(3));
  EXPECT_EQ(set.size(), 0u);
}

TEST(VisitedSetTest, BoundaryIds) {
  VisitedSet set(64);
  EXPECT_TRUE(set.Insert(0));
  EXPECT_TRUE(set.Insert(63));
  EXPECT_FALSE(set.Insert(0));
  EXPECT_FALSE(set.Insert(63));
}

// --- Word-level bulk operations (the filter stage's primitives). -----------

TEST(BitVectorBulkTest, AndWithIntersects) {
  BitVector a(200), b(200);
  for (size_t i = 0; i < 200; i += 2) a.Set(i);
  for (size_t i = 0; i < 200; i += 3) b.Set(i);
  a.AndWith(b);
  for (size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(a.Get(i), i % 6 == 0) << "bit " << i;
  }
}

TEST(BitVectorBulkTest, AndWithShorterOtherClearsTail) {
  // Bits at or past the other's size have no counterpart: AND with an
  // absent bit is 0.
  BitVector a(200), b(70);
  a.Set(5);
  a.Set(69);
  a.Set(70);   // past b: must clear
  a.Set(199);  // past b: must clear
  b.Set(5);
  b.Set(69);
  a.AndWith(b);
  EXPECT_TRUE(a.Get(5));
  EXPECT_TRUE(a.Get(69));
  EXPECT_FALSE(a.Get(70));
  EXPECT_FALSE(a.Get(199));
  EXPECT_EQ(a.Count(), 2u);
}

TEST(BitVectorBulkTest, OrWithUnionAndTailMasking) {
  BitVector a(100), b(130);
  a.Set(1);
  b.Set(2);
  b.Set(99);
  b.Set(120);  // beyond a's size: must NOT leak into a
  a.OrWith(b);
  EXPECT_TRUE(a.Get(1));
  EXPECT_TRUE(a.Get(2));
  EXPECT_TRUE(a.Get(99));
  EXPECT_EQ(a.Count(), 3u);
  // The tail word of `a` is shared with bits 100..127 of `b`; OrWith must
  // re-mask so Count and iteration never see phantom bits.
  size_t visited = 0;
  a.ForEachSetBitInRange(0, a.size(), [&](size_t) { ++visited; });
  EXPECT_EQ(visited, 3u);
}

TEST(BitVectorBulkTest, AndWithNotSubtracts) {
  BitVector a(128), dead(128);
  for (size_t i = 0; i < 128; ++i) a.Set(i);
  dead.Set(0);
  dead.Set(64);
  dead.Set(127);
  a.AndWithNot(dead);
  EXPECT_FALSE(a.Get(0));
  EXPECT_FALSE(a.Get(64));
  EXPECT_FALSE(a.Get(127));
  EXPECT_EQ(a.Count(), 125u);
}

TEST(BitVectorBulkTest, AndWithNotShorterOtherLeavesTail) {
  // A tombstone map that hasn't grown to cover an id cannot have marked
  // it dead: bits past other.size() stay set.
  BitVector a(200), dead(70);
  a.Set(10);
  a.Set(100);
  dead.Set(10);
  a.AndWithNot(dead);
  EXPECT_FALSE(a.Get(10));
  EXPECT_TRUE(a.Get(100));
}

TEST(BitVectorBulkTest, CountAndMatchesManualIntersection) {
  BitVector a(300), b(300);
  for (size_t i = 0; i < 300; i += 5) a.Set(i);
  for (size_t i = 0; i < 300; i += 7) b.Set(i);
  size_t expected = 0;
  for (size_t i = 0; i < 300; ++i) expected += a.Get(i) && b.Get(i);
  EXPECT_EQ(a.CountAnd(b), expected);
  EXPECT_EQ(b.CountAnd(a), expected);
}

TEST(BitVectorBulkTest, CountAndDifferentSizes) {
  BitVector a(64), b(1000);
  a.Set(63);
  b.Set(63);
  b.Set(999);
  EXPECT_EQ(a.CountAnd(b), 1u);
  EXPECT_EQ(b.CountAnd(a), 1u);
}

TEST(BitVectorBulkTest, ForEachSetBitInRangeBoundaries) {
  BitVector bits(256);
  bits.Set(0);
  bits.Set(63);
  bits.Set(64);
  bits.Set(128);
  bits.Set(255);
  std::vector<size_t> seen;
  bits.ForEachSetBitInRange(63, 129, [&](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<size_t>{63, 64, 128}));
  seen.clear();
  bits.ForEachSetBitInRange(0, 256, [&](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<size_t>{0, 63, 64, 128, 255}));
  seen.clear();
  bits.ForEachSetBitInRange(100, 1000, [&](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<size_t>{128, 255}));  // end clamps to size
  seen.clear();
  bits.ForEachSetBitInRange(50, 50, [&](size_t i) { seen.push_back(i); });
  EXPECT_TRUE(seen.empty());
}

TEST(BitVectorBulkTest, AppendClearBitsAcquireMatchesPerBitReference) {
  // The whole-run linear scan's tombstone read: one word at a time, a word
  // with no bit set appended as a 64-id run. Checked against a per-bit
  // reference on unaligned and aligned bounds, empty ranges, all-set and
  // all-clear words, and ranges ending at size().
  BitVector bits(300);
  for (size_t i = 64; i < 128; ++i) bits.Set(i);  // an all-set word
  bits.Set(0);
  bits.Set(130);
  bits.Set(191);
  bits.Set(299);  // the last bit; bits 192..255 stay an all-clear word
  const auto reference = [&](size_t begin, size_t end) {
    std::vector<uint32_t> ids = {7};  // appends after existing content
    for (size_t i = begin; i < end; ++i) {
      if (!bits.Get(i)) ids.push_back(static_cast<uint32_t>(i));
    }
    return ids;
  };
  const size_t bounds[] = {0, 1, 5, 63, 64, 65, 127, 128, 129,
                           191, 192, 256, 299, 300};
  for (const size_t begin : bounds) {
    for (const size_t end : bounds) {
      if (end < begin) continue;
      std::vector<uint32_t> ids = {7};
      bits.AppendClearBitsAcquire(begin, end, &ids);
      EXPECT_EQ(ids, reference(begin, end))
          << "[" << begin << ", " << end << ")";
    }
  }
  std::vector<uint32_t> ids;
  bits.AppendClearBitsAcquire(64, 128, &ids);  // all set
  EXPECT_TRUE(ids.empty());
  bits.AppendClearBitsAcquire(192, 256, &ids);  // all clear
  ASSERT_EQ(ids.size(), 64u);
  EXPECT_EQ(ids.front(), 192u);
  EXPECT_EQ(ids.back(), 255u);
  ids.clear();
  bits.AppendClearBitsAcquire(40, 40, &ids);  // empty
  EXPECT_TRUE(ids.empty());

  // Random fills, every alignment of a range ending at size().
  std::mt19937 rng(17);
  for (int round = 0; round < 20; ++round) {
    BitVector random(1 + rng() % 700);
    for (size_t i = 0; i < random.size(); ++i) {
      if (rng() % 5 == 0) random.Set(i);
    }
    const size_t begin = rng() % random.size();
    std::vector<uint32_t> want;
    for (size_t i = begin; i < random.size(); ++i) {
      if (!random.Get(i)) want.push_back(static_cast<uint32_t>(i));
    }
    std::vector<uint32_t> got;
    random.AppendClearBitsAcquire(begin, random.size(), &got);
    EXPECT_EQ(got, want) << "size " << random.size() << " begin " << begin;
  }
}

TEST(BitVectorBulkTest, BulkOpsSafeWithConcurrentReaders) {
  // AndWith/AndWithNot load the OTHER vector with acquire semantics while
  // a writer marks bits via SetConcurrent — the composition the engine
  // performs against the live tombstone bitmap. The result must be a
  // subset of the predicate bits with no torn words; whether a racing
  // tombstone is observed is timing, not correctness.
  constexpr size_t kBits = 1 << 14;
  BitVector tombstones(kBits);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    size_t i = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      tombstones.SetConcurrent((i * 2654435761u) % kBits);
      i += 1;
    }
  });
  for (int round = 0; round < 200; ++round) {
    BitVector filter(kBits);
    for (size_t i = 0; i < kBits; i += 3) filter.Set(i);
    const size_t before = filter.Count();
    filter.AndWithNot(tombstones);
    // Never gains bits, never drops non-tombstoned ones spuriously: every
    // cleared bit must be dead by now (tombstones only ever get set).
    EXPECT_LE(filter.Count(), before);
    filter.ForEachSetBitInRange(0, kBits, [&](size_t i) {
      EXPECT_EQ(i % 3, 0u);
    });
  }
  stop.store(true);
  writer.join();
}

}  // namespace
}  // namespace util
}  // namespace hybridlsh
