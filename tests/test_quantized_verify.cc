// Tests for the quantized verification tier: the int8 mirror
// (data/quantized.h), the int8 screen kernels and VerifyBlockQuantized
// (core/kernels.h), and the engine wiring (mirror lifecycle, snapshot
// sidecar, memory accounting) in engine/sharded_engine.h.
//
// The load-bearing property is EXACTNESS: VerifyBlockQuantized must append
// the same ids in the same order as VerifyBlock for every metric, radius,
// tier, and candidate mix — the screen may only change how fast a verdict
// is reached, never the verdict. Engine-level tests assert the same
// bit-identity between quantized-on (the default) and quantized-off
// serving, through churn, snapshots, and concurrent readers.

#include "data/quantized.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <random>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/kernels.h"
#include "data/synthetic.h"
#include "data/workload.h"
#include "engine/search_engine.h"
#include "engine/sharded_engine.h"
#include "engine/snapshot.h"
#include "lsh/families.h"
#include "util/serialize.h"
#include "util/simd.h"

namespace hybridlsh {
namespace {

namespace fs = std::filesystem;
using engine::EngineOptions;
using util::simd::Tier;

/// Restores the process-wide resolved tier when a test scope ends.
class TierGuard {
 public:
  TierGuard() : saved_(util::simd::ResolvedTier()) {}
  ~TierGuard() { util::simd::SetResolvedTierForTest(saved_); }

 private:
  Tier saved_;
};

std::vector<int8_t> RandomCodes(size_t n, std::mt19937* rng) {
  std::uniform_int_distribution<int> dist(-127, 127);
  std::vector<int8_t> codes(n);
  for (int8_t& c : codes) c = static_cast<int8_t>(dist(*rng));
  return codes;
}

// --- Int8 kernels. -----------------------------------------------------------

TEST(Int8KernelTest, AllTiersMatchTheScalarSumsExactly) {
  std::mt19937 rng(7);
  for (size_t dim : {size_t{1}, size_t{3}, size_t{8}, size_t{15}, size_t{16},
                     size_t{31}, size_t{32}, size_t{33}, size_t{64},
                     size_t{127}, size_t{257}}) {
    for (int rep = 0; rep < 8; ++rep) {
      // Unaligned starts on odd reps: the kernels take raw pointers.
      const std::vector<int8_t> buf_a = RandomCodes(dim + 1, &rng);
      const std::vector<int8_t> buf_b = RandomCodes(dim + 1, &rng);
      const int8_t* a = buf_a.data() + (rep % 2);
      const int8_t* b = buf_b.data() + (rep % 2);
      int64_t ref_l1 = 0, ref_l2 = 0, ref_dot = 0;
      for (size_t d = 0; d < dim; ++d) {
        const int64_t x = a[d], y = b[d];
        ref_l1 += std::abs(x - y);
        ref_l2 += (x - y) * (x - y);
        ref_dot += x * y;
      }
      for (Tier tier : util::simd::SupportedTiers()) {
        const core::kernels::Int8KernelTable& table =
            core::kernels::Int8KernelsForTier(tier);
        // Integer sums are exact in any accumulation order: EQ, not NEAR.
        EXPECT_EQ(table.l1(a, b, dim), ref_l1)
            << "tier " << util::simd::TierName(tier) << " dim " << dim;
        EXPECT_EQ(table.l2sq(a, b, dim), ref_l2)
            << "tier " << util::simd::TierName(tier) << " dim " << dim;
        EXPECT_EQ(table.dot(a, b, dim), ref_dot)
            << "tier " << util::simd::TierName(tier) << " dim " << dim;
      }
    }
  }
}

TEST(Int8KernelTest, NoOverflowAtMaxDimAndExtremeCodes) {
  // The worst case the int32 accumulator must survive: kMaxDim elements at
  // the extremes (l2sq = kMaxDim * 254^2 just fits in int32).
  const size_t dim = data::QuantizedMirror::kMaxDim;
  std::vector<int8_t> a(dim, 127), b(dim, -127);
  const int64_t ref_l2 = static_cast<int64_t>(dim) * 254 * 254;
  ASSERT_LE(ref_l2, std::numeric_limits<int32_t>::max());
  for (Tier tier : util::simd::SupportedTiers()) {
    const core::kernels::Int8KernelTable& table =
        core::kernels::Int8KernelsForTier(tier);
    EXPECT_EQ(table.l1(a.data(), b.data(), dim),
              static_cast<int32_t>(dim * 254));
    EXPECT_EQ(table.l2sq(a.data(), b.data(), dim),
              static_cast<int32_t>(ref_l2));
    EXPECT_EQ(table.dot(a.data(), b.data(), dim),
              static_cast<int32_t>(-static_cast<int64_t>(dim) * 127 * 127));
  }
}

TEST(Int8KernelTest, BlockFormsMatchThePairKernelsExactly) {
  // The block forms gather rows by id and (on avx2) interleave candidate
  // pairs, but integer sums are exact in any order: every tier, every
  // count parity, and every dim tail must reproduce the pair kernels
  // bit-for-bit.
  std::mt19937 rng(19);
  for (size_t dim : {size_t{1}, size_t{16}, size_t{31}, size_t{32},
                     size_t{33}, size_t{64}, size_t{100}}) {
    const size_t rows = 40;
    const std::vector<int8_t> codes = RandomCodes(rows * dim, &rng);
    const std::vector<int8_t> query = RandomCodes(dim, &rng);
    for (size_t count : {size_t{0}, size_t{1}, size_t{7}, size_t{24}}) {
      std::vector<uint32_t> ids(count);
      std::uniform_int_distribution<uint32_t> pick(0, rows - 1);
      for (uint32_t& id : ids) id = pick(rng);
      for (Tier tier : util::simd::SupportedTiers()) {
        const core::kernels::Int8KernelTable& table =
            core::kernels::Int8KernelsForTier(tier);
        const struct {
          int32_t (*pair)(const int8_t*, const int8_t*, size_t);
          void (*block)(const int8_t*, size_t, const uint32_t*, size_t,
                        const int8_t*, int32_t*);
        } forms[] = {{table.l1, table.l1_block},
                     {table.l2sq, table.l2sq_block},
                     {table.dot, table.dot_block}};
        for (const auto& f : forms) {
          std::vector<int32_t> sums(count, -1);
          f.block(codes.data(), dim, ids.data(), count, query.data(),
                  sums.data());
          for (size_t k = 0; k < count; ++k) {
            EXPECT_EQ(sums[k],
                      f.pair(codes.data() + ids[k] * dim, query.data(), dim))
                << "tier " << util::simd::TierName(tier) << " dim " << dim
                << " count " << count << " k " << k;
          }
        }
      }
    }
  }
}

TEST(Int8KernelTest, DispatchFollowsResolvedTier) {
  TierGuard guard;
  for (Tier tier : util::simd::SupportedTiers()) {
    util::simd::SetResolvedTierForTest(tier);
    EXPECT_EQ(core::kernels::Int8Kernels().tier, tier);
  }
}

// --- The quantized mirror. ---------------------------------------------------

TEST(QuantizedMirrorTest, BuildAndIncrementalAppendProduceIdenticalCodes) {
  const data::DenseDataset dataset = data::MakeCorelLike(300, 16, 11);
  const auto whole = data::QuantizedMirror::Build(dataset);
  ASSERT_TRUE(whole.enabled());
  ASSERT_EQ(whole.size(), dataset.size());

  // Rebuild over the full dataset but quantize the second half through
  // AppendRow: the calibration scan covers all rows either way (the engine
  // only appends rows it also calibrated over or flags exact_only), so the
  // codes must match bit for bit.
  auto incremental = data::QuantizedMirror::Build(dataset);
  // Quantization is a pure function of (scale, row): append a copy of each
  // row again and compare against the built codes for the same row.
  for (size_t i = 0; i < dataset.size(); ++i) {
    incremental.AppendRow(dataset.point(i));
  }
  ASSERT_EQ(incremental.size(), 2 * dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    EXPECT_FALSE(incremental.exact_only(dataset.size() + i));
    for (size_t d = 0; d < dataset.dim(); ++d) {
      ASSERT_EQ(incremental.row(dataset.size() + i)[d], whole.row(i)[d])
          << "row " << i << " dim " << d;
    }
  }
}

TEST(QuantizedMirrorTest, OutOfRangeAndNonFiniteRowsAreFlaggedExactOnly) {
  data::DenseDataset dataset(0, 0);
  for (int i = 0; i < 4; ++i) {
    std::vector<float> p(8, 0.5f * static_cast<float>(i + 1));
    dataset.Append(p);
  }
  auto mirror = data::QuantizedMirror::Build(dataset);
  ASSERT_TRUE(mirror.enabled());

  std::vector<float> huge(8, 100.0f);  // far past the calibrated max (2.0)
  mirror.AppendRow(huge.data());
  EXPECT_TRUE(mirror.exact_only(4));
  EXPECT_EQ(mirror.row(4)[0], 127);  // stored clamped, not garbage

  std::vector<float> nan_row(8, std::numeric_limits<float>::quiet_NaN());
  mirror.AppendRow(nan_row.data());
  EXPECT_TRUE(mirror.exact_only(5));

  std::vector<float> fine(8, -1.5f);
  mirror.AppendRow(fine.data());
  EXPECT_FALSE(mirror.exact_only(6));
}

TEST(QuantizedMirrorTest, AllZeroDatasetDisablesTheMirror) {
  const data::DenseDataset zeros(10, 8);
  const auto mirror = data::QuantizedMirror::Build(zeros);
  EXPECT_FALSE(mirror.enabled());
}

TEST(QuantizedMirrorTest, SaveLoadRoundTripAndCorruptionRejection) {
  const data::DenseDataset dataset = data::MakeCorelLike(150, 12, 13);
  auto mirror = data::QuantizedMirror::Build(dataset);
  std::vector<float> huge(12, 1e6f);
  mirror.AppendRow(huge.data());  // one exact_only row must round-trip too

  util::ByteWriter writer;
  mirror.Save(&writer);
  {
    util::ByteReader reader(writer.bytes());
    auto loaded = data::QuantizedMirror::Load(&reader, 12, mirror.size());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_TRUE(reader.ExpectEnd().ok());
    EXPECT_EQ(loaded->dim(), mirror.dim());
    EXPECT_DOUBLE_EQ(loaded->scale(), mirror.scale());
    ASSERT_EQ(loaded->size(), mirror.size());
    for (size_t i = 0; i < mirror.size(); ++i) {
      EXPECT_EQ(loaded->exact_only(i), mirror.exact_only(i)) << "row " << i;
      for (size_t d = 0; d < mirror.dim(); ++d) {
        ASSERT_EQ(loaded->row(i)[d], mirror.row(i)[d]);
      }
    }
  }
  {
    // Dimension mismatch is a clean error, not a misparse.
    util::ByteReader reader(writer.bytes());
    EXPECT_FALSE(data::QuantizedMirror::Load(&reader, 13, 1000).ok());
  }
  {
    // Truncation is a clean error.
    const std::vector<uint8_t>& bytes = writer.bytes();
    util::ByteReader reader(
        std::span<const uint8_t>(bytes.data(), bytes.size() / 2));
    EXPECT_FALSE(data::QuantizedMirror::Load(&reader, 12, 1000).ok());
  }
}

// --- VerifyBlockQuantized vs VerifyBlock: the exactness property. ------------

class QuantizedVerifyTest : public ::testing::Test {
 protected:
  /// Compares the two verifiers over `ids` for one (metric, radius) and
  /// requires the appended outputs to be IDENTICAL VECTORS.
  static void ExpectIdentical(const data::DenseDataset& dataset,
                              const data::QuantizedMirror& mirror,
                              data::Metric metric, const float* query,
                              std::span<const uint32_t> ids, double radius,
                              core::kernels::QuantizedScreenStats* stats) {
    std::vector<uint32_t> exact, screened;
    core::kernels::VerifyBlock(dataset, metric, query, ids, radius, &exact);
    const size_t reported = core::kernels::VerifyBlockQuantized(
        dataset, mirror, metric, query, ids, radius, &screened, stats);
    ASSERT_EQ(screened, exact) << "metric " << static_cast<int>(metric)
                               << " radius " << radius;
    EXPECT_EQ(reported, screened.size());
  }
};

TEST_F(QuantizedVerifyTest, MatchesVerifyBlockOverMetricsRadiiAndSeeds) {
  std::mt19937 rng(3);
  core::kernels::QuantizedScreenStats stats;
  for (uint64_t seed : {21u, 22u, 23u}) {
    for (size_t dim : {size_t{8}, size_t{16}, size_t{33}}) {
      data::DenseDataset dataset = data::MakeCorelLike(600, dim, seed);
      dataset.PrecomputeNorms();
      const auto mirror = data::QuantizedMirror::Build(dataset);
      ASSERT_TRUE(mirror.enabled());
      const data::DenseSplit split = data::SplitQueries(dataset, 8, seed + 1);

      std::vector<uint32_t> all_ids(split.base.size());
      for (size_t i = 0; i < all_ids.size(); ++i) {
        all_ids[i] = static_cast<uint32_t>(i);
      }
      std::vector<uint32_t> shuffled = all_ids;
      std::shuffle(shuffled.begin(), shuffled.end(), rng);

      // The mirror indexes the split base (same prefix ids as `dataset`).
      data::DenseDataset base = split.base;
      base.PrecomputeNorms();
      const auto base_mirror = data::QuantizedMirror::Build(base);
      for (size_t q = 0; q < split.queries.size(); ++q) {
        const float* query = split.queries.point(q);
        for (const double radius : {0.0, 0.05, 0.2, 0.4, 0.8, 1.6, 3.0}) {
          ExpectIdentical(base, base_mirror, data::Metric::kL2, query,
                          all_ids, radius, &stats);
          ExpectIdentical(base, base_mirror, data::Metric::kL2, query,
                          shuffled, radius, &stats);
          ExpectIdentical(base, base_mirror, data::Metric::kL1, query,
                          all_ids, radius * dim / 4.0, &stats);
          ExpectIdentical(base, base_mirror, data::Metric::kCosine, query,
                          shuffled, radius / 4.0, &stats);
        }
      }
    }
  }
  // The screen must actually classify on realistic inputs — a screen that
  // marks everything borderline is "exact" but useless.
  EXPECT_GT(stats.definite_out, 0u);
  EXPECT_GT(stats.definite_in, 0u);
  EXPECT_LT(stats.borderline, stats.screened / 4);
}

TEST_F(QuantizedVerifyTest, MatchesVerifyBlockOnEveryTier) {
  TierGuard guard;
  data::DenseDataset dataset = data::MakeCorelLike(400, 16, 31);
  const data::DenseSplit split = data::SplitQueries(dataset, 5, 32);
  data::DenseDataset base = split.base;
  base.PrecomputeNorms();
  const auto base_mirror = data::QuantizedMirror::Build(base);
  std::vector<uint32_t> ids(base.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);

  core::kernels::QuantizedScreenStats stats;
  for (Tier tier : util::simd::SupportedTiers()) {
    util::simd::SetResolvedTierForTest(tier);
    for (size_t q = 0; q < split.queries.size(); ++q) {
      for (const double radius : {0.1, 0.4, 1.0}) {
        ExpectIdentical(base, base_mirror, data::Metric::kL2,
                        split.queries.point(q), ids, radius, &stats);
        ExpectIdentical(base, base_mirror, data::Metric::kCosine,
                        split.queries.point(q), ids, radius / 5.0, &stats);
      }
    }
  }
}

TEST_F(QuantizedVerifyTest, DegenerateInputsStillMatchExactly) {
  data::DenseDataset dataset = data::MakeCorelLike(200, 8, 41);
  dataset.PrecomputeNorms();
  const auto mirror = data::QuantizedMirror::Build(dataset);
  std::vector<uint32_t> ids(dataset.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);
  core::kernels::QuantizedScreenStats stats;

  // NaN query: every float comparison is false, so both paths report
  // nothing — the screen must not "definitely include" anything.
  std::vector<float> nan_query(8, std::numeric_limits<float>::quiet_NaN());
  ExpectIdentical(dataset, mirror, data::Metric::kL2, nan_query.data(), ids,
                  0.5, &stats);

  const float* query = dataset.point(0);
  // Negative radius reports nothing anywhere (cosine's clamped floor is 0).
  ExpectIdentical(dataset, mirror, data::Metric::kL2, query, ids, -1.0,
                  &stats);
  ExpectIdentical(dataset, mirror, data::Metric::kCosine, query, ids, -0.5,
                  &stats);
  // Cosine at radius >= 2: the float distance is clamped into [0, 2], so
  // everything matches; the screen must defer rather than reject.
  ExpectIdentical(dataset, mirror, data::Metric::kCosine, query, ids, 2.0,
                  &stats);
  ExpectIdentical(dataset, mirror, data::Metric::kCosine, query, ids, 5.0,
                  &stats);
  // Ids beyond the mirror (a racing reader's view) rescore exactly.
  auto short_mirror = data::QuantizedMirror::Build(dataset);
  data::DenseDataset longer = dataset;
  std::vector<float> extra(8, 0.25f);
  longer.Append(extra);
  std::vector<uint32_t> with_new = ids;
  with_new.push_back(static_cast<uint32_t>(longer.size() - 1));
  ExpectIdentical(longer, short_mirror, data::Metric::kL2, query, with_new,
                  0.5, &stats);
}

TEST_F(QuantizedVerifyTest, BlockEdgesAndForcedCandidatesMatchOnEveryTier) {
  // The screen classifies candidates in blocks of 64 and emits each block
  // from bit masks. Candidate counts around the block size, with the
  // candidates the bound cannot cover (exact_only rows, ids past the
  // mirror's published rows) at the block edges, must still emit exactly
  // VerifyBlock's ids in VerifyBlock's order, for every metric and tier.
  TierGuard guard;
  constexpr size_t kEdgeDim = 16;
  constexpr uint32_t kCalibrated = 300;
  data::DenseDataset dataset = data::MakeCorelLike(kCalibrated, kEdgeDim, 131);
  auto mirror = data::QuantizedMirror::Build(dataset);
  // exact_only rows: appended to both after calibration, far outside it.
  std::vector<uint32_t> forced_ids;
  for (size_t i = 0; i < 4; ++i) {
    std::vector<float> row(dataset.point(i), dataset.point(i) + kEdgeDim);
    row[i] = i % 2 == 0 ? 50.0f : -50.0f;
    dataset.Append(row);
    mirror.AppendRow(row.data());
    forced_ids.push_back(static_cast<uint32_t>(dataset.size() - 1));
    ASSERT_TRUE(mirror.exact_only(forced_ids.back()));
  }
  // Rows the dataset holds but the mirror has not published (a racing
  // reader's view): near the query, so some of them report.
  for (size_t i = 0; i < 4; ++i) {
    std::vector<float> row(dataset.point(7), dataset.point(7) + kEdgeDim);
    row[i] += 0.05f * static_cast<float>(i + 1);
    dataset.Append(row);
    forced_ids.push_back(static_cast<uint32_t>(dataset.size() - 1));
  }
  ASSERT_EQ(mirror.size(), kCalibrated + 4);
  dataset.PrecomputeNorms();

  std::mt19937 rng(134);
  std::uniform_int_distribution<uint32_t> pick(0, kCalibrated - 1);
  const float* query = dataset.point(7);
  core::kernels::QuantizedScreenStats stats;
  for (Tier tier : util::simd::SupportedTiers()) {
    util::simd::SetResolvedTierForTest(tier);
    for (const size_t count : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                               size_t{65}, size_t{129}}) {
      for (const bool with_forced : {false, true}) {
        std::vector<uint32_t> ids(count);
        for (uint32_t& id : ids) id = pick(rng);
        if (with_forced) {
          // Alternate exact_only and past-mirror ids over the edge slots.
          size_t next = 0;
          for (const size_t pos :
               {size_t{0}, size_t{63}, size_t{64}, count - 1}) {
            if (pos >= count) continue;
            ids[pos] = forced_ids[(next % 2) * 4 + next / 2 % 4];
            ++next;
          }
        }
        for (const double radius : {0.05, 0.3, 0.8}) {
          SCOPED_TRACE(::testing::Message()
                       << "tier " << util::simd::TierName(tier) << " count "
                       << count << " forced " << with_forced << " radius "
                       << radius);
          ExpectIdentical(dataset, mirror, data::Metric::kL2, query, ids,
                          radius, &stats);
          ExpectIdentical(dataset, mirror, data::Metric::kL1, query, ids,
                          radius * kEdgeDim / 4.0, &stats);
          ExpectIdentical(dataset, mirror, data::Metric::kCosine, query, ids,
                          radius / 8.0, &stats);
        }
      }
    }
  }
  EXPECT_GT(stats.definite_in, 0u);
  EXPECT_GT(stats.definite_out, 0u);
}

TEST_F(QuantizedVerifyTest, ExactOnlyRowWithCodesInsideTheRadiusIsRescored) {
  // An exact_only row is stored clamped, so its codes can lie inside the
  // radius while its float row does not. With data max 1.0, a row at the
  // clamp corner (every coordinate 1.0) except one coordinate at 1.5 has
  // exactly the codes of a query at that corner — int8 distance 0 — but
  // lies 0.5 away from it. The screen must rescore it, not report it.
  TierGuard guard;
  constexpr size_t kCornerDim = 8;
  data::DenseDataset dataset(0, 0);
  std::mt19937 rng(141);
  std::uniform_real_distribution<float> coordinate(-0.9f, 0.9f);
  for (size_t i = 0; i < 200; ++i) {
    std::vector<float> row(kCornerDim);
    for (float& x : row) x = coordinate(rng);
    if (i == 0) row[0] = 1.0f;  // the calibrated maximum
    dataset.Append(row);
  }
  auto mirror = data::QuantizedMirror::Build(dataset);
  ASSERT_DOUBLE_EQ(mirror.scale(), 1.0 / 127.0);
  const std::vector<float> corner(kCornerDim, 1.0f);
  std::vector<float> outlier = corner;
  outlier[3] = 1.5f;
  dataset.Append(outlier);
  mirror.AppendRow(outlier.data());
  const uint32_t outlier_id = static_cast<uint32_t>(dataset.size() - 1);
  ASSERT_TRUE(mirror.exact_only(outlier_id));
  for (size_t d = 0; d < kCornerDim; ++d) {
    ASSERT_EQ(mirror.row(outlier_id)[d], 127);
  }
  dataset.PrecomputeNorms();

  std::vector<uint32_t> ids(dataset.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);
  std::vector<uint32_t> exact;
  core::kernels::VerifyBlock(dataset, data::Metric::kL2, corner.data(), ids,
                             0.1, &exact);
  ASSERT_TRUE(std::find(exact.begin(), exact.end(), outlier_id) ==
              exact.end());
  for (Tier tier : util::simd::SupportedTiers()) {
    util::simd::SetResolvedTierForTest(tier);
    SCOPED_TRACE(util::simd::TierName(tier));
    ExpectIdentical(dataset, mirror, data::Metric::kL2, corner.data(), ids,
                    0.1, nullptr);
    ExpectIdentical(dataset, mirror, data::Metric::kL1, corner.data(), ids,
                    0.1, nullptr);
    ExpectIdentical(dataset, mirror, data::Metric::kCosine, corner.data(),
                    ids, 1e-3, nullptr);
    // The row is still found at a radius that covers its float distance.
    ExpectIdentical(dataset, mirror, data::Metric::kL2, corner.data(), ids,
                    0.6, nullptr);
  }
}

// --- Engine integration. -----------------------------------------------------

using L2Engine = engine::ShardedEngine<lsh::PStableFamily>;

constexpr size_t kDim = 16;
constexpr double kRadius = 0.4;

EngineOptions EngineOptionsFor(
    bool quantized, core::ForcedStrategy forced = core::ForcedStrategy::kAuto) {
  EngineOptions options;
  options.num_shards = 3;
  options.num_tables = 20;
  options.k = 7;
  options.seed = 51;
  options.active_seal_threshold = 64;
  options.searcher.cost_model = core::CostModel::FromRatio(6.0);
  options.searcher.forced = forced;
  options.quantized_verify = quantized;
  return options;
}

/// Identical churn on an engine: inserts (including one row far outside
/// the calibrated range, exercising the exact_only path) and removes.
void Churn(L2Engine* engine, const data::DenseDataset& extra) {
  std::vector<float> staging(kDim);
  for (size_t i = 0; i < extra.size(); ++i) {
    staging.assign(extra.point(i), extra.point(i) + kDim);
    HLSH_CHECK(engine->Insert(staging.data()).ok());
  }
  std::vector<float> huge(kDim, 500.0f);
  HLSH_CHECK(engine->Insert(huge.data()).ok());
  for (uint32_t id = 0; id < 300; id += 11) {
    HLSH_CHECK(engine->Remove(id).ok());
  }
}

TEST(QuantizedEngineTest, QuantizedOnAndOffServeBitIdenticalResults) {
  const data::DenseDataset full = data::MakeCorelLike(2500, kDim, 61);
  const data::DenseSplit split = data::SplitQueries(full, 20, 62);
  const data::DenseDataset extra = data::MakeCorelLike(500, kDim, 63);

  for (const auto forced :
       {core::ForcedStrategy::kAuto, core::ForcedStrategy::kAlwaysLsh,
        core::ForcedStrategy::kAlwaysLinear}) {
    data::DenseDataset dataset_on = split.base;
    data::DenseDataset dataset_off = split.base;
    auto on = L2Engine::Build(lsh::PStableFamily::L2(kDim, 2 * kRadius),
                              &dataset_on, EngineOptionsFor(true, forced));
    auto off = L2Engine::Build(lsh::PStableFamily::L2(kDim, 2 * kRadius),
                               &dataset_off, EngineOptionsFor(false, forced));
    ASSERT_TRUE(on.ok() && off.ok());
    EXPECT_TRUE(on->stats().quantized_verify);
    EXPECT_FALSE(off->stats().quantized_verify);

    Churn(&*on, extra);
    Churn(&*off, extra);
    on->DrainMaintenance();
    off->DrainMaintenance();

    std::vector<uint32_t> out_on, out_off;
    engine::ShardedQueryStats stats_on, stats_off;
    for (size_t q = 0; q < split.queries.size(); ++q) {
      out_on.clear();
      out_off.clear();
      on->Query(split.queries.point(q), kRadius, &out_on, &stats_on);
      off->Query(split.queries.point(q), kRadius, &out_off, &stats_off);
      ASSERT_EQ(out_on, out_off)
          << "forced " << static_cast<int>(forced) << " query " << q;
      EXPECT_EQ(stats_on.lsh_shards, stats_off.lsh_shards);
      EXPECT_EQ(stats_on.linear_shards, stats_off.linear_shards);
    }
    // The exact_only insert is found by its own exact self-query.
    std::vector<float> huge(kDim, 500.0f);
    out_on.clear();
    on->Query(huge.data(), 0.001, &out_on);
    ASSERT_EQ(out_on.size(), 1u);
  }
}

TEST(QuantizedEngineTest, ConcurrentReadersStayExactDuringChurn) {
  const data::DenseDataset full = data::MakeCorelLike(2000, kDim, 71);
  const data::DenseSplit split = data::SplitQueries(full, 8, 72);
  const data::DenseDataset extra = data::MakeCorelLike(600, kDim, 73);
  data::DenseDataset dataset = split.base;
  auto engine = L2Engine::Build(lsh::PStableFamily::L2(kDim, 2 * kRadius),
                                &dataset, EngineOptionsFor(true));
  ASSERT_TRUE(engine.ok());

  std::atomic<bool> stop{false};
  std::atomic<size_t> queries_run{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::vector<uint32_t> out;
      size_t q = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        out.clear();
        engine->Query(split.queries.point(q % split.queries.size()), kRadius,
                      &out);
        // Results must be well-formed mid-churn: unique ids within bounds.
        std::sort(out.begin(), out.end());
        EXPECT_TRUE(std::adjacent_find(out.begin(), out.end()) == out.end());
        if (!out.empty()) {
          EXPECT_LT(out.back(), dataset.size());
        }
        ++q;
        queries_run.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  Churn(&*engine, extra);
  while (queries_run.load(std::memory_order_relaxed) < 300) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : readers) thread.join();
  engine->DrainMaintenance();

  // Quiesced: the churned quantized engine must agree bit-for-bit with a
  // quantized-off engine brought to the same state.
  data::DenseDataset dataset_off = split.base;
  auto off = L2Engine::Build(lsh::PStableFamily::L2(kDim, 2 * kRadius),
                             &dataset_off, EngineOptionsFor(false));
  ASSERT_TRUE(off.ok());
  Churn(&*off, extra);
  off->DrainMaintenance();
  std::vector<uint32_t> out_on, out_off;
  for (size_t q = 0; q < split.queries.size(); ++q) {
    out_on.clear();
    out_off.clear();
    engine->Query(split.queries.point(q), kRadius, &out_on);
    off->Query(split.queries.point(q), kRadius, &out_off);
    ASSERT_EQ(out_on, out_off) << "query " << q;
  }
}

TEST(QuantizedEngineTest, MemoryAccountingShowsTheMirrorSaving) {
  const data::DenseDataset full = data::MakeCorelLike(3000, 32, 81);
  data::DenseDataset dataset = full;
  auto on = L2Engine::Build(lsh::PStableFamily::L2(32, 2 * kRadius), &dataset,
                            EngineOptionsFor(true));
  ASSERT_TRUE(on.ok());
  const engine::EngineStats stats = on->stats();
  EXPECT_TRUE(stats.quantized_verify);
  EXPECT_GT(stats.mirror_bytes, 0u);
  EXPECT_GT(stats.dataset_bytes, 0u);
  // The mirror holds 1 byte per element plus 1 flag per row against the
  // dataset's 4-byte floats (+ norm cache): expect roughly a 4x saving.
  EXPECT_GE(stats.dataset_bytes, 3 * stats.mirror_bytes);
  EXPECT_LE(stats.dataset_bytes, 6 * stats.mirror_bytes);

  data::DenseDataset dataset_off = full;
  auto off = L2Engine::Build(lsh::PStableFamily::L2(32, 2 * kRadius),
                             &dataset_off, EngineOptionsFor(false));
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off->stats().quantized_verify);
  EXPECT_EQ(off->stats().mirror_bytes, 0u);
}

TEST(QuantizedEngineTest, NonDenseContainersIgnoreTheOptionGracefully) {
  engine::EngineOptions options;
  options.num_shards = 2;
  options.num_tables = 8;
  options.k = 6;
  options.seed = 7;
  options.quantized_verify = true;
  {
    data::BinaryDataset codes = data::MakeRandomCodes(300, 64, 91);
    auto built =
        engine::BuildMutableEngine(data::Metric::kHamming, &codes, options);
    ASSERT_TRUE(built.ok());
    EXPECT_FALSE((*built)->stats().quantized_verify);
    EXPECT_EQ((*built)->stats().mirror_bytes, 0u);
    std::vector<uint32_t> out;
    ASSERT_TRUE((*built)->Query(codes.point(5), 10.0, &out).ok());
    EXPECT_TRUE(std::find(out.begin(), out.end(), 5u) != out.end());
  }
  {
    data::SparseDataset sparse = data::MakeRandomSparse(300, 4000, 25, 92);
    options.k = 4;
    auto built =
        engine::BuildMutableEngine(data::Metric::kJaccard, &sparse, options);
    ASSERT_TRUE(built.ok());
    EXPECT_FALSE((*built)->stats().quantized_verify);
    std::vector<uint32_t> out;
    ASSERT_TRUE((*built)->Query(sparse.point(7), 0.7, &out).ok());
    EXPECT_TRUE(std::find(out.begin(), out.end(), 7u) != out.end());
  }
}

// --- Snapshot format v2 + the golden v1 fixture. -----------------------------

class QuantizedSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("hybridlsh_qsnap_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }
  std::string Dir(const std::string& name) const {
    return (root_ / name).string();
  }
  fs::path root_;
};

TEST_F(QuantizedSnapshotTest, V2RoundTripCarriesTheMirrorSidecar) {
  const data::DenseDataset full = data::MakeCorelLike(1200, kDim, 101);
  const data::DenseSplit split = data::SplitQueries(full, 15, 102);
  data::DenseDataset dataset = split.base;
  auto live = L2Engine::Build(lsh::PStableFamily::L2(kDim, 2 * kRadius),
                              &dataset, EngineOptionsFor(true));
  ASSERT_TRUE(live.ok());
  Churn(&*live, data::MakeCorelLike(200, kDim, 103));
  ASSERT_TRUE(live->SaveSnapshot(Dir("snap")).ok());

  // The epoch directory holds the sidecar.
  bool found_mirror = false;
  for (const auto& epoch : fs::directory_iterator(Dir("snap"))) {
    if (!epoch.is_directory()) continue;
    found_mirror = fs::exists(epoch.path() / engine::snapshot::kMirrorFile);
  }
  EXPECT_TRUE(found_mirror);

  data::DenseDataset restored_dataset;
  auto restored = L2Engine::OpenSnapshot(Dir("snap"), &restored_dataset);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored->stats().quantized_verify);
  EXPECT_EQ(restored->stats().mirror_bytes, live->stats().mirror_bytes);
  EXPECT_TRUE(restored->options().quantized_verify);

  std::vector<uint32_t> out_a, out_b;
  for (size_t q = 0; q < split.queries.size(); ++q) {
    out_a.clear();
    out_b.clear();
    live->Query(split.queries.point(q), kRadius, &out_a);
    restored->Query(split.queries.point(q), kRadius, &out_b);
    ASSERT_EQ(out_a, out_b) << "query " << q;
  }
}

TEST_F(QuantizedSnapshotTest, QuantizedOffRoundTripsWithoutASidecar) {
  const data::DenseDataset full = data::MakeCorelLike(600, kDim, 111);
  data::DenseDataset dataset = full;
  auto live = L2Engine::Build(lsh::PStableFamily::L2(kDim, 2 * kRadius),
                              &dataset, EngineOptionsFor(false));
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live->SaveSnapshot(Dir("snap")).ok());
  for (const auto& epoch : fs::directory_iterator(Dir("snap"))) {
    if (!epoch.is_directory()) continue;
    EXPECT_FALSE(fs::exists(epoch.path() / engine::snapshot::kMirrorFile));
  }
  data::DenseDataset restored_dataset;
  auto restored = L2Engine::OpenSnapshot(Dir("snap"), &restored_dataset);
  ASSERT_TRUE(restored.ok());
  EXPECT_FALSE(restored->stats().quantized_verify);
  EXPECT_FALSE(restored->options().quantized_verify);
}

TEST_F(QuantizedSnapshotTest, CostModelSplitRoundTripsThroughTheConfig) {
  const data::DenseDataset full = data::MakeCorelLike(400, kDim, 121);
  data::DenseDataset dataset = full;
  auto options = EngineOptionsFor(true);
  options.searcher.cost_model.beta_screen = 1.5;
  options.searcher.cost_model.rescore_fraction = 0.125;
  auto live = L2Engine::Build(lsh::PStableFamily::L2(kDim, 2 * kRadius),
                              &dataset, options);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live->SaveSnapshot(Dir("snap")).ok());
  data::DenseDataset restored_dataset;
  auto restored = L2Engine::OpenSnapshot(Dir("snap"), &restored_dataset);
  ASSERT_TRUE(restored.ok());
  const core::CostModel& model = restored->options().searcher.cost_model;
  EXPECT_DOUBLE_EQ(model.beta_screen, 1.5);
  EXPECT_DOUBLE_EQ(model.rescore_fraction, 0.125);
  EXPECT_DOUBLE_EQ(model.VerifyBeta(), 1.5 + 0.125 * model.beta);
}

TEST(GoldenSnapshotTest, V1FixtureOpensAndRebuildsTheMirror) {
  // A committed format-v1 snapshot (written before the v2 fields and the
  // mirror sidecar existed) must open cleanly: the config's quantized
  // fields take their defaults and the mirror is requantized from the
  // restored dataset. The fixture recipe is reproduced live below; the
  // restored engine must serve identically to the regenerated one.
  const std::string dir =
      std::string(HLSH_TESTDATA_DIR) + "/golden_v1_snapshot";
  auto restored = engine::OpenSnapshotEngine(dir);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->metric(), data::Metric::kL2);
  EXPECT_TRUE((*restored)->stats().quantized_verify);
  EXPECT_GT((*restored)->stats().mirror_bytes, 0u);

  // Regenerate the fixture's engine state (see build-time generator note
  // in CHANGES.md): same data, same churn, same seeds.
  data::DenseDataset dataset = data::MakeCorelLike(200, 16, 77);
  engine::EngineOptions options;
  options.num_shards = 2;
  options.num_tables = 10;
  options.k = 6;
  options.seed = 78;
  options.radius = 0.45;
  options.searcher.cost_model = core::CostModel::FromRatio(6.0);
  auto live = engine::BuildMutableEngine(data::Metric::kL2, &dataset, options);
  ASSERT_TRUE(live.ok());
  for (uint32_t id = 0; id < 40; id += 7) {
    ASSERT_TRUE((*live)->Remove(id).ok());
  }
  std::vector<float> point(16, 0.0f);
  for (int i = 0; i < 8; ++i) {
    for (int d = 0; d < 16; ++d) {
      point[d] = 0.01f * static_cast<float>(i + 1) * static_cast<float>(d + 1);
    }
    ASSERT_TRUE((*live)->Insert(point.data()).ok());
  }
  ASSERT_EQ((*restored)->size(), (*live)->size());

  const data::DenseDataset queries = data::MakeCorelLike(30, 16, 79);
  std::vector<uint32_t> out_a, out_b;
  for (size_t q = 0; q < queries.size(); ++q) {
    out_a.clear();
    out_b.clear();
    ASSERT_TRUE((*live)->Query(queries.point(q), 0.45, &out_a).ok());
    ASSERT_TRUE((*restored)->Query(queries.point(q), 0.45, &out_b).ok());
    ASSERT_EQ(out_a, out_b) << "query " << q;
  }
}

}  // namespace
}  // namespace hybridlsh
