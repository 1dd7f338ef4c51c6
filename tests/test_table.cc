// Tests for lsh/table.h: bucket grouping, sketch materialization policy,
// the small-bucket on-demand trick, the flat bucket directory (shared home
// slots, wrap-around, misses inside a probe run), and serialization.

#include "lsh/table.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace hybridlsh {
namespace lsh {
namespace {

LshTable::Options SmallThreshold(size_t threshold) {
  LshTable::Options options;
  options.hll_precision = 7;
  options.small_bucket_threshold = threshold;
  return options;
}

TEST(LshTableTest, EmptyBuild) {
  LshTable table;
  table.Build({}, SmallThreshold(0));
  EXPECT_EQ(table.num_buckets(), 0u);
  EXPECT_EQ(table.num_points(), 0u);
  EXPECT_TRUE(table.Lookup(42).empty());
}

TEST(LshTableTest, GroupsIdsByKey) {
  // Points 0,2,4 -> key 10; 1,3 -> key 20; 5 -> key 30.
  const std::vector<uint64_t> keys{10, 20, 10, 20, 10, 30};
  LshTable table;
  table.Build(keys, SmallThreshold(0));
  EXPECT_EQ(table.num_buckets(), 3u);
  EXPECT_EQ(table.num_points(), 6u);
  EXPECT_EQ(table.max_bucket_size(), 3u);

  auto bucket10 = table.Lookup(10);
  std::vector<uint32_t> ids10(bucket10.ids.begin(), bucket10.ids.end());
  std::sort(ids10.begin(), ids10.end());
  EXPECT_EQ(ids10, (std::vector<uint32_t>{0, 2, 4}));

  auto bucket30 = table.Lookup(30);
  EXPECT_EQ(bucket30.size(), 1u);
  EXPECT_EQ(bucket30.ids[0], 5u);
}

TEST(LshTableTest, LookupMissReturnsEmpty) {
  const std::vector<uint64_t> keys{1, 1, 2};
  LshTable table;
  table.Build(keys, SmallThreshold(0));
  const auto view = table.Lookup(999);
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.sketch, nullptr);
}

TEST(LshTableTest, ThresholdZeroSketchesEverything) {
  const std::vector<uint64_t> keys{1, 1, 2};
  LshTable table;
  table.Build(keys, SmallThreshold(0));
  EXPECT_EQ(table.num_sketches(), 2u);
  EXPECT_NE(table.Lookup(1).sketch, nullptr);
  EXPECT_NE(table.Lookup(2).sketch, nullptr);
}

TEST(LshTableTest, ThresholdSkipsSmallBuckets) {
  // Bucket 1 has 3 ids, bucket 2 has 1: threshold 2 sketches only bucket 1.
  const std::vector<uint64_t> keys{1, 1, 1, 2};
  LshTable table;
  table.Build(keys, SmallThreshold(2));
  EXPECT_EQ(table.num_sketches(), 1u);
  EXPECT_NE(table.Lookup(1).sketch, nullptr);
  EXPECT_EQ(table.Lookup(2).sketch, nullptr);
}

TEST(LshTableTest, AutoThresholdUsesRegisterCount) {
  // m = 2^7 = 128: buckets below 128 ids get no sketch under kThresholdAuto.
  std::vector<uint64_t> keys;
  for (int i = 0; i < 127; ++i) keys.push_back(1);
  for (int i = 0; i < 128; ++i) keys.push_back(2);
  LshTable table;
  LshTable::Options options;  // defaults: precision 7, auto threshold
  table.Build(keys, options);
  EXPECT_EQ(table.num_sketches(), 1u);
  EXPECT_EQ(table.Lookup(1).sketch, nullptr);
  EXPECT_NE(table.Lookup(2).sketch, nullptr);
}

TEST(LshTableTest, SketchEstimatesBucketSize) {
  std::vector<uint64_t> keys(5000, 7);  // one big bucket
  LshTable table;
  table.Build(keys, SmallThreshold(0));
  const auto view = table.Lookup(7);
  ASSERT_NE(view.sketch, nullptr);
  EXPECT_NEAR(view.sketch->Estimate(), 5000.0,
              5000.0 * 4 * view.sketch->StandardError());
}

TEST(LshTableTest, SketchMatchesDirectConstruction) {
  // The bucket sketch must be byte-identical to hashing the same ids into a
  // fresh HLL — required for on-demand folding to agree with materialized
  // sketches.
  const std::vector<uint64_t> keys{5, 9, 5, 5, 9};
  LshTable table;
  table.Build(keys, SmallThreshold(0));
  hll::HyperLogLog expected(7);
  expected.AddPoint(0);
  expected.AddPoint(2);
  expected.AddPoint(3);
  EXPECT_EQ(*table.Lookup(5).sketch, expected);
}

TEST(LshTableTest, RebuildReplacesContent) {
  LshTable table;
  table.Build(std::vector<uint64_t>{1, 1}, SmallThreshold(0));
  table.Build(std::vector<uint64_t>{2}, SmallThreshold(0));
  EXPECT_TRUE(table.Lookup(1).empty());
  EXPECT_EQ(table.Lookup(2).size(), 1u);
  EXPECT_EQ(table.num_points(), 1u);
}

TEST(LshTableTest, MemoryAccounting) {
  std::vector<uint64_t> keys(1000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i % 10;
  LshTable table;
  table.Build(keys, SmallThreshold(0));
  EXPECT_GT(table.MemoryBytes(), 1000 * sizeof(uint32_t));
  EXPECT_EQ(table.SketchBytes(), 10u * 128u);  // 10 sketches at m=128
  // No sketches -> no sketch bytes.
  LshTable lean;
  lean.Build(keys, SmallThreshold(SIZE_MAX));
  EXPECT_EQ(lean.SketchBytes(), 0u);
  EXPECT_LT(lean.MemoryBytes(), table.MemoryBytes());
}

TEST(LshTableTest, ManyDistinctKeys) {
  std::vector<uint64_t> keys(500);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i * 1315423911ULL;
  LshTable table;
  table.Build(keys, SmallThreshold(0));
  EXPECT_EQ(table.num_buckets(), 500u);
  EXPECT_EQ(table.max_bucket_size(), 1u);
  for (size_t i = 0; i < keys.size(); i += 53) {
    const auto view = table.Lookup(keys[i]);
    ASSERT_EQ(view.size(), 1u);
    EXPECT_EQ(view.ids[0], i);
  }
}

// --- Bucket directory ---------------------------------------------------------
// The directory probes linearly from slot (key ^ key >> 32) & mask. A key
// (x << 32) | (x ^ c) folds to c in its low 32 bits, so every such key
// shares one home slot whatever the directory size; c = 0xffffffff puts
// that home at the last slot, so probe runs wrap to slot 0.

uint64_t KeyWithFold(uint32_t x, uint32_t c) {
  return (static_cast<uint64_t>(x) << 32) | (x ^ c);
}

std::vector<uint32_t> IdsOf(const LshTable::BucketView& view) {
  return {view.ids.begin(), view.ids.end()};
}

// Point i of `keys` belongs to bucket keys[i]; returns each bucket's ids.
std::map<uint64_t, std::vector<uint32_t>> Reference(
    const std::vector<uint64_t>& keys, const std::vector<uint32_t>& ids) {
  std::map<uint64_t, std::vector<uint32_t>> buckets;
  for (size_t i = 0; i < keys.size(); ++i) buckets[keys[i]].push_back(ids[i]);
  for (auto& [key, bucket] : buckets) std::sort(bucket.begin(), bucket.end());
  return buckets;
}

// Every key of `expected` returns its exact (ascending) id span, with a
// sketch exactly when the bucket reaches `threshold`, and that sketch
// equals one built from the ids; every key of `absent` returns empty.
void ExpectMatches(const LshTable& table,
                   const std::map<uint64_t, std::vector<uint32_t>>& expected,
                   const std::vector<uint64_t>& absent, size_t threshold) {
  ASSERT_EQ(table.num_buckets(), expected.size());
  size_t sketched = 0;
  for (const auto& [key, ids] : expected) {
    const auto view = table.Lookup(key);
    EXPECT_EQ(IdsOf(view), ids) << "key " << key;
    if (ids.size() >= threshold) {
      ++sketched;
      ASSERT_NE(view.sketch, nullptr) << "key " << key;
      hll::HyperLogLog direct(7);
      for (const uint32_t id : ids) direct.AddPoint(id);
      EXPECT_EQ(*view.sketch, direct) << "key " << key;
    } else {
      EXPECT_EQ(view.sketch, nullptr) << "key " << key;
    }
  }
  EXPECT_EQ(table.num_sketches(), sketched);
  for (const uint64_t key : absent) {
    if (expected.count(key) != 0) continue;
    const auto view = table.Lookup(key);
    EXPECT_TRUE(view.empty()) << "absent key " << key;
    EXPECT_EQ(view.sketch, nullptr) << "absent key " << key;
  }
}

std::vector<uint8_t> Bytes(const LshTable& table) {
  util::ByteWriter writer;
  table.Serialize(&writer);
  return writer.bytes();
}

LshTable RoundTrip(const LshTable& table) {
  const std::vector<uint8_t> bytes = Bytes(table);
  util::ByteReader reader(bytes);
  auto parsed = LshTable::Deserialize(&reader);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(reader.remaining(), 0u);
  return parsed.ok() ? std::move(*parsed) : LshTable();
}

TEST(LshTableDirectoryTest, KeysSharingOneHomeSlot) {
  // Five buckets, all homed at one slot; then absent keys with the same
  // home, which must walk the whole run and stop at its end.
  std::vector<uint64_t> keys;
  for (uint32_t x = 1; x <= 5; ++x) {
    for (uint32_t copy = 0; copy < x; ++copy) keys.push_back(KeyWithFold(x, 6));
  }
  std::vector<uint32_t> ids(keys.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);
  LshTable table;
  table.Build(keys, SmallThreshold(3));
  ExpectMatches(table, Reference(keys, ids),
                {KeyWithFold(0, 6), KeyWithFold(6, 6), KeyWithFold(99, 6)}, 3);
}

TEST(LshTableDirectoryTest, ProbeRunWrapsPastTheLastSlot) {
  // Every key homes at the last slot, so all but one bucket live in the
  // slots after the wrap; absent keys homed there walk the wrapped run.
  const uint32_t kLast = 0xffffffffu;
  std::vector<uint64_t> keys;
  for (uint32_t x = 1; x <= 4; ++x) keys.push_back(KeyWithFold(x, kLast));
  keys.push_back(KeyWithFold(7, 0));  // homed at slot 0, inside the run
  std::vector<uint32_t> ids(keys.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = 100 + 2 * i;
  const std::vector<uint64_t> absent{KeyWithFold(5, kLast), KeyWithFold(8, 0),
                                     KeyWithFold(9, 1)};
  LshTable table;
  table.BuildFromEntries(keys, ids, SmallThreshold(0));
  ExpectMatches(table, Reference(keys, ids), absent, 0);
  ExpectMatches(RoundTrip(table), Reference(keys, ids), absent, 0);
}

TEST(LshTableDirectoryTest, KeyZeroIsAnOrdinaryKey) {
  // An empty slot is marked by its size field, not its key, so the
  // all-zero key (a possible hash value) is stored and found.
  const std::vector<uint64_t> keys{0, 0, 5};
  LshTable table;
  table.Build(keys, SmallThreshold(SIZE_MAX));
  EXPECT_EQ(IdsOf(table.Lookup(0)), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(IdsOf(table.Lookup(5)), (std::vector<uint32_t>{2}));
  LshTable never_built;
  EXPECT_TRUE(never_built.Lookup(0).empty());
}

TEST(LshTableDirectoryTest, MatchesMapReferenceOverBothBuilders) {
  std::mt19937_64 rng(20170321);
  for (int trial = 0; trial < 40; ++trial) {
    // Keys drawn from a small pool (so buckets hold several ids) mixed
    // with keys forced onto a few home slots (so probe runs form).
    const size_t n = 1 + rng() % 600;
    const size_t pool = 1 + rng() % 80;
    std::vector<uint64_t> pool_keys(pool);
    for (uint64_t& key : pool_keys) {
      key = rng() % 3 == 0 ? KeyWithFold(static_cast<uint32_t>(rng()),
                                         static_cast<uint32_t>(rng() % 4))
                           : rng();
    }
    std::vector<uint64_t> keys(n);
    for (uint64_t& key : keys) key = pool_keys[rng() % pool];
    std::vector<uint64_t> absent;
    for (int a = 0; a < 64; ++a) {
      absent.push_back(a % 2 == 0 ? rng()
                                  : KeyWithFold(static_cast<uint32_t>(rng()),
                                                static_cast<uint32_t>(a % 4)));
    }
    const size_t threshold = rng() % 12;

    LshTable::Options options = SmallThreshold(threshold);
    options.id_base = static_cast<uint32_t>(rng() % 1000);
    std::vector<uint32_t> contiguous(n);
    for (size_t i = 0; i < n; ++i) {
      contiguous[i] = options.id_base + static_cast<uint32_t>(i);
    }
    LshTable built;
    built.Build(keys, options);
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectMatches(built, Reference(keys, contiguous), absent, threshold);

    // Explicit entries: distinct ids in shuffled order.
    std::vector<uint32_t> ids(n);
    for (size_t i = 0; i < n; ++i) ids[i] = static_cast<uint32_t>(7 * i + 3);
    std::shuffle(ids.begin(), ids.end(), rng);
    LshTable merged;
    merged.BuildFromEntries(keys, ids, options);
    const auto expected = Reference(keys, ids);
    ExpectMatches(merged, expected, absent, threshold);

    // The third builder: Deserialize, whose re-serialization is identical.
    const LshTable parsed = RoundTrip(merged);
    ExpectMatches(parsed, expected, absent, threshold);
    EXPECT_EQ(Bytes(parsed), Bytes(merged));
    EXPECT_EQ(parsed.max_bucket_size(), merged.max_bucket_size());

    // ExportEntries lists every entry once; rebuilding gives the table back.
    std::vector<uint64_t> export_keys;
    std::vector<uint32_t> export_ids;
    parsed.ExportEntries(&export_keys, &export_ids);
    EXPECT_EQ(Reference(export_keys, export_ids), expected);
  }
}

TEST(LshTableDirectoryTest, MemoryCountsTheDirectoryExactly) {
  // 10 buckets -> 32 slots (the directory is at most half full, in powers
  // of two) of 16 bytes, beside 4 bytes per id; no sketches.
  std::vector<uint64_t> keys(1000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i % 10;
  LshTable table;
  table.Build(keys, SmallThreshold(SIZE_MAX));
  EXPECT_EQ(table.MemoryBytes(), 1000 * sizeof(uint32_t) + 32 * 16);
  LshTable empty;
  empty.Build({}, SmallThreshold(SIZE_MAX));
  EXPECT_EQ(empty.MemoryBytes(), 16u);  // one empty slot
}

// --- Deserialize validation -------------------------------------------------

struct RawTable {
  uint64_t num_ids = 0;
  std::vector<uint64_t> keys;
  std::vector<size_t> offsets;
  std::vector<uint32_t> ids;
  std::vector<int32_t> sketch_of_bucket;
  size_t num_sketches = 0;

  std::vector<uint8_t> Encode() const {
    util::ByteWriter writer;
    writer.WriteU64(keys.size());
    writer.WriteU64(num_ids);
    writer.WriteU64(1);
    writer.WriteArray<uint64_t>(keys);
    writer.WriteArray<size_t>(offsets);
    writer.WriteArray<uint32_t>(ids);
    writer.WriteArray<int32_t>(sketch_of_bucket);
    writer.WriteU64(num_sketches);
    for (size_t s = 0; s < num_sketches; ++s) {
      writer.WriteBlob(hll::HyperLogLog(7).Serialize());
    }
    return writer.bytes();
  }
};

util::Status Parse(const std::vector<uint8_t>& bytes) {
  util::ByteReader reader(bytes);
  return LshTable::Deserialize(&reader).status();
}

TEST(LshTableDirectoryTest, DeserializeAcceptsAHandBuiltTable) {
  const RawTable raw{2, {7, 9}, {0, 1, 2}, {4, 5}, {-1, 0}, 1};
  const std::vector<uint8_t> bytes = raw.Encode();
  util::ByteReader reader(bytes);
  auto table = LshTable::Deserialize(&reader);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(IdsOf(table->Lookup(7)), (std::vector<uint32_t>{4}));
  EXPECT_EQ(table->Lookup(7).sketch, nullptr);
  EXPECT_EQ(IdsOf(table->Lookup(9)), (std::vector<uint32_t>{5}));
  EXPECT_NE(table->Lookup(9).sketch, nullptr);
  EXPECT_EQ(Bytes(*table), bytes);
}

TEST(LshTableDirectoryTest, DeserializeRejectsMalformedDirectories) {
  struct Case {
    const char* name;
    RawTable raw;
    const char* message;
  };
  const Case cases[] = {
      {"repeated bucket key",
       {2, {7, 7}, {0, 1, 2}, {4, 5}, {-1, -1}, 0},
       "duplicate bucket key"},
      {"empty bucket",
       {1, {7, 9}, {0, 0, 1}, {4}, {-1, -1}, 0},
       "offsets"},
      {"one sketch for two buckets",
       {2, {7, 9}, {0, 1, 2}, {4, 5}, {0, 0}, 1},
       "sketch shared"},
      {"sketch index out of range",
       {2, {7, 9}, {0, 1, 2}, {4, 5}, {-1, 1}, 1},
       "sketch index"},
      // More ids than the slots' 32-bit begin/size fields address; the
      // count is rejected before any array is read.
      {"id count too large",
       {uint64_t{LshTable::kMaxIds} + 1, {7}, {0, 1}, {4}, {-1}, 0},
       "32-bit"},
  };
  for (const Case& c : cases) {
    const util::Status status = Parse(c.raw.Encode());
    EXPECT_EQ(status.code(), util::StatusCode::kDataLoss) << c.name;
    EXPECT_NE(status.message().find(c.message), std::string::npos)
        << c.name << ": " << status.ToString();
  }
}

}  // namespace
}  // namespace lsh
}  // namespace hybridlsh
