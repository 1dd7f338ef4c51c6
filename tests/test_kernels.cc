// Tests for util/simd.h + core/kernels.h — the vectorized kernel subsystem.
//
// Two layers of guarantees:
//   * accuracy: every kernel matches the plain scalar reference in
//     data/metric.h within float tolerance, across odd dimensions and
//     unaligned row offsets;
//   * determinism: every dispatch tier returns BIT-identical values to the
//     canonical scalar tier (the property the scalar-vs-vectorized query
//     equivalence rests on), verified by swapping the resolved tier
//     mid-process via SetResolvedTierForTest.
//
// End-to-end: hybrid query results (ids and chosen strategy) are identical
// between scalar-forced and vectorized runs on all three dataset
// containers, through a 1-shard engine (static and churned) and a sharded
// engine's batch path.

#include "core/kernels.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/hybridlsh.h"
#include "engine/sharded_engine.h"
#include "util/random.h"
#include "util/simd.h"

namespace hybridlsh {
namespace core {
namespace {

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

/// The tiers this CPU can actually run, scalar first (util/simd.h).
std::vector<Tier> SupportedTiers() { return util::simd::SupportedTiers(); }

std::vector<float> RandomFloats(size_t n, util::Rng* rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng->Uniform(-1.0, 1.0));
  return v;
}

// --- Tier resolution. --------------------------------------------------------

TEST(SimdTierTest, ParseTierNamesAndAuto) {
  Tier tier = Tier::kAvx2;
  EXPECT_TRUE(util::simd::ParseTier("scalar", &tier));
  EXPECT_EQ(tier, Tier::kScalar);
  EXPECT_TRUE(util::simd::ParseTier("sse2", &tier));
  EXPECT_EQ(tier, Tier::kSse2);
  EXPECT_TRUE(util::simd::ParseTier("avx2", &tier));
  EXPECT_EQ(tier, Tier::kAvx2);
  EXPECT_FALSE(util::simd::ParseTier("auto", &tier));
  EXPECT_FALSE(util::simd::ParseTier("", &tier));
  EXPECT_FALSE(util::simd::ParseTier(nullptr, &tier));
  EXPECT_FALSE(util::simd::ParseTier("definitely-not-a-tier", &tier));
}

TEST(SimdTierTest, TierNames) {
  EXPECT_EQ(util::simd::TierName(Tier::kScalar), "scalar");
  EXPECT_EQ(util::simd::TierName(Tier::kSse2), "sse2");
  EXPECT_EQ(util::simd::TierName(Tier::kAvx2), "avx2");
}

TEST(SimdTierTest, DispatchFollowsResolvedTier) {
  TierGuard guard;
  for (Tier tier : SupportedTiers()) {
    util::simd::SetResolvedTierForTest(tier);
    EXPECT_EQ(util::simd::ResolvedTier(), tier);
    EXPECT_EQ(kernels::Kernels().tier, tier);
  }
}

TEST(SimdTierTest, KernelsForTierClampsToCpuSupport) {
  // Requesting more than the CPU supports degrades, never crashes.
  const kernels::KernelTable& table = kernels::KernelsForTier(Tier::kAvx2);
  EXPECT_LE(table.tier, util::simd::MaxSupportedTier());
}

// --- Distance kernels vs. the scalar reference and across tiers. -------------

class KernelPropertyTest : public ::testing::Test {
 protected:
  // Odd dims, sub-block dims, and multi-block dims with remainders.
  const std::vector<size_t> dims_ = {1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100};
};

TEST_F(KernelPropertyTest, DenseKernelsMatchScalarReference) {
  util::Rng rng(41);
  for (const size_t dim : dims_) {
    for (int rep = 0; rep < 4; ++rep) {
      // +1 offset exercises unaligned row starts (matrix rows with odd
      // dims are rarely 32-byte aligned).
      const std::vector<float> buf_a = RandomFloats(dim + 1, &rng);
      const std::vector<float> buf_b = RandomFloats(dim + 1, &rng);
      const float* a = buf_a.data() + (rep % 2);
      const float* b = buf_b.data() + (rep % 2);

      const float ref_l1 = data::L1Distance(a, b, dim);
      const float ref_l2sq = data::SquaredL2Distance(a, b, dim);
      const float ref_dot = data::DotProduct(a, b, dim);
      const float ref_cos = data::CosineDistance(a, b, dim);

      for (Tier tier : SupportedTiers()) {
        const kernels::KernelTable& table = kernels::KernelsForTier(tier);
        const float tol = 1e-4f * static_cast<float>(dim);
        EXPECT_NEAR(table.l1(a, b, dim), ref_l1, tol) << "dim " << dim;
        EXPECT_NEAR(table.l2sq(a, b, dim), ref_l2sq, tol) << "dim " << dim;
        EXPECT_NEAR(table.dot(a, b, dim), ref_dot, tol) << "dim " << dim;
        EXPECT_NEAR(table.cosine(a, b, dim), ref_cos, 1e-4f) << "dim " << dim;
      }
    }
  }
}

TEST_F(KernelPropertyTest, AllTiersAreBitIdenticalToCanonicalScalar) {
  util::Rng rng(42);
  const kernels::KernelTable& scalar = kernels::KernelsForTier(Tier::kScalar);
  for (const size_t dim : dims_) {
    for (int rep = 0; rep < 4; ++rep) {
      const std::vector<float> buf_a = RandomFloats(dim + 1, &rng);
      const std::vector<float> buf_b = RandomFloats(dim + 1, &rng);
      const float* a = buf_a.data() + (rep % 2);
      const float* b = buf_b.data() + (rep % 2);
      for (Tier tier : SupportedTiers()) {
        const kernels::KernelTable& table = kernels::KernelsForTier(tier);
        // Exact equality, not NEAR: the canonical 8-lane accumulation
        // order must make every tier produce the same bits.
        EXPECT_EQ(table.l1(a, b, dim), scalar.l1(a, b, dim))
            << util::simd::TierName(tier) << " dim " << dim;
        EXPECT_EQ(table.l2sq(a, b, dim), scalar.l2sq(a, b, dim))
            << util::simd::TierName(tier) << " dim " << dim;
        EXPECT_EQ(table.dot(a, b, dim), scalar.dot(a, b, dim))
            << util::simd::TierName(tier) << " dim " << dim;
        EXPECT_EQ(table.cosine(a, b, dim), scalar.cosine(a, b, dim))
            << util::simd::TierName(tier) << " dim " << dim;
      }
    }
  }
}

TEST_F(KernelPropertyTest, CosineZeroVectorIsOrthogonal) {
  const std::vector<float> zero(16, 0.0f);
  util::Rng rng(43);
  const std::vector<float> v = RandomFloats(16, &rng);
  for (Tier tier : SupportedTiers()) {
    const kernels::KernelTable& table = kernels::KernelsForTier(tier);
    EXPECT_EQ(table.cosine(zero.data(), v.data(), 16), 1.0f);
    EXPECT_EQ(table.cosine(v.data(), zero.data(), 16), 1.0f);
    EXPECT_EQ(table.cosine(zero.data(), zero.data(), 16), 1.0f);
  }
  // Matches the scalar reference's documented zero-vector behavior.
  EXPECT_EQ(data::CosineDistance(zero.data(), v.data(), 16), 1.0f);
}

TEST_F(KernelPropertyTest, HammingMatchesReferenceExactly) {
  util::Rng rng(44);
  for (const size_t words : {size_t{1}, size_t{2}, size_t{3}, size_t{5},
                             size_t{8}, size_t{9}}) {
    std::vector<uint64_t> a(words), b(words);
    for (size_t i = 0; i < words; ++i) {
      a[i] = rng.NextU64();
      b[i] = rng.NextU64();
    }
    const uint32_t ref = data::HammingDistance(a.data(), b.data(), words);
    for (Tier tier : SupportedTiers()) {
      EXPECT_EQ(kernels::KernelsForTier(tier).hamming(a.data(), b.data(), words),
                ref);
    }
  }
}

// --- Projection kernels (LSH step S1). ---------------------------------------

class ProjectionKernelTest : public ::testing::Test {
 protected:
  const std::vector<size_t> dims_ = {1, 3, 7, 8, 9, 16, 17, 33, 64, 100};
  const std::vector<size_t> ks_ = {1, 2, 5, 16};
};

TEST_F(ProjectionKernelTest, MatvecMatchesCanonicalScalarDot) {
  // The scalar projection kernel IS k canonical 8-lane dots — the anchor
  // every other tier and the blocked form must reproduce bitwise.
  util::Rng rng(51);
  const kernels::ProjectionKernelTable& scalar =
      kernels::ProjectionKernelsForTier(Tier::kScalar);
  for (const size_t dim : dims_) {
    for (const size_t k : ks_) {
      const std::vector<float> matrix = RandomFloats(k * dim, &rng);
      const std::vector<float> query = RandomFloats(dim, &rng);
      std::vector<float> out(k, -1.0f);
      scalar.matvec(matrix.data(), k, dim, query.data(), out.data());
      for (size_t i = 0; i < k; ++i) {
        EXPECT_EQ(out[i], util::simd::DotF32Scalar(matrix.data() + i * dim,
                                                   query.data(), dim))
            << "dim " << dim << " k " << k << " row " << i;
      }
    }
  }
}

TEST_F(ProjectionKernelTest, AllTiersAndBothFormsBitIdentical) {
  // Signatures, probe costs, and the LSH-vs-linear decision all derive
  // from these floats, so exact equality — across tiers AND between the
  // single-query and blocked forms — is the property the hash-once
  // pipeline's determinism rests on.
  util::Rng rng(52);
  const kernels::ProjectionKernelTable& scalar =
      kernels::ProjectionKernelsForTier(Tier::kScalar);
  for (const size_t dim : dims_) {
    for (const size_t k : ks_) {
      const std::vector<float> matrix = RandomFloats(k * dim, &rng);
      // Batch sizes around the AVX2 2-query interleave: odd tail, exact
      // pairs, singleton.
      for (const size_t count : {size_t{1}, size_t{2}, size_t{3}, size_t{5}}) {
        std::vector<std::vector<float>> queries;
        std::vector<const float*> query_ptrs;
        for (size_t q = 0; q < count; ++q) {
          queries.push_back(RandomFloats(dim, &rng));
          query_ptrs.push_back(queries.back().data());
        }
        std::vector<float> reference(count * k);
        for (size_t q = 0; q < count; ++q) {
          scalar.matvec(matrix.data(), k, dim, query_ptrs[q],
                        reference.data() + q * k);
        }
        for (Tier tier : SupportedTiers()) {
          const kernels::ProjectionKernelTable& table =
              kernels::ProjectionKernelsForTier(tier);
          std::vector<float> single(k);
          for (size_t q = 0; q < count; ++q) {
            table.matvec(matrix.data(), k, dim, query_ptrs[q], single.data());
            for (size_t i = 0; i < k; ++i) {
              EXPECT_EQ(single[i], reference[q * k + i])
                  << util::simd::TierName(tier) << " matvec dim " << dim
                  << " k " << k << " query " << q;
            }
          }
          std::vector<float> blocked(count * k, -1.0f);
          table.matvec_block(matrix.data(), k, dim, query_ptrs.data(), count,
                             blocked.data());
          for (size_t i = 0; i < count * k; ++i) {
            EXPECT_EQ(blocked[i], reference[i])
                << util::simd::TierName(tier) << " blocked dim " << dim
                << " k " << k << " count " << count;
          }
        }
      }
    }
  }
}

// --- HLL register kernels. ---------------------------------------------------

TEST(HllKernelTest, MergeMatchesReferenceAcrossTiersAndPrecisions) {
  util::Rng rng(45);
  for (const int precision : {4, 5, 7, 11, 14}) {
    const size_t m = size_t{1} << precision;
    std::vector<uint8_t> dst(m), src(m);
    for (size_t i = 0; i < m; ++i) {
      dst[i] = static_cast<uint8_t>(rng.NextU64() % 60);
      src[i] = static_cast<uint8_t>(rng.NextU64() % 60);
    }
    std::vector<uint8_t> expected(m);
    for (size_t i = 0; i < m; ++i) expected[i] = std::max(dst[i], src[i]);

    for (Tier tier : SupportedTiers()) {
      std::vector<uint8_t> got = dst;
      kernels::KernelsForTier(tier).hll_merge(got.data(), src.data(), m);
      EXPECT_EQ(got, expected) << util::simd::TierName(tier) << " m=" << m;
    }
  }
}

TEST(HllKernelTest, FusedSumBitIdenticalAcrossTiers) {
  util::Rng rng(46);
  for (const int precision : {4, 7, 11, 14}) {
    const size_t m = size_t{1} << precision;
    std::vector<uint8_t> regs(m);
    size_t expected_zeros = 0;
    for (size_t i = 0; i < m; ++i) {
      regs[i] = (rng.NextU64() % 4 == 0) ? 0 : static_cast<uint8_t>(rng.NextU64() % 58);
      expected_zeros += (regs[i] == 0);
    }
    size_t scalar_zeros = 0;
    const double scalar_sum = util::simd::HllRegisterSumScalar(
        regs.data(), m, &scalar_zeros);
    EXPECT_EQ(scalar_zeros, expected_zeros);

    for (Tier tier : SupportedTiers()) {
      size_t zeros = 0;
      const double sum =
          kernels::KernelsForTier(tier).hll_sum(regs.data(), m, &zeros);
      EXPECT_EQ(zeros, expected_zeros) << util::simd::TierName(tier);
      EXPECT_EQ(sum, scalar_sum) << util::simd::TierName(tier);  // bitwise
    }
  }
}

TEST(HllKernelTest, SketchEstimateIdenticalAcrossTiers) {
  TierGuard guard;
  hll::HyperLogLog sketch(7);
  for (uint32_t id = 0; id < 5000; ++id) sketch.AddPoint(id);
  util::simd::SetResolvedTierForTest(Tier::kScalar);
  const double scalar_estimate = sketch.Estimate();
  for (Tier tier : SupportedTiers()) {
    util::simd::SetResolvedTierForTest(tier);
    EXPECT_EQ(sketch.Estimate(), scalar_estimate)
        << util::simd::TierName(tier);
  }
}

// --- Block verification. -----------------------------------------------------

class VerifyBlockTest : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 24;  // odd block count: 3 full, no tail... 24 = 3*8
  void SetUp() override {
    dataset_ = data::MakeCorelLike(600, kDim, 47);
    query_ = RandomFloats(kDim, &rng_);
    for (uint32_t id = 0; id < dataset_.size(); id += 2) ids_.push_back(id);
  }

  double ReferenceDistance(data::Metric metric, uint32_t id) const {
    switch (metric) {
      case data::Metric::kL1:
        return data::L1Distance(dataset_.point(id), query_.data(), kDim);
      case data::Metric::kL2:
        return data::L2Distance(dataset_.point(id), query_.data(), kDim);
      case data::Metric::kCosine:
        return data::CosineDistance(dataset_.point(id), query_.data(), kDim);
      default:
        ADD_FAILURE();
        return 0;
    }
  }

  /// A radius that captures ~30% of the candidates, placed midway between
  /// two order statistics so no candidate sits exactly on the boundary.
  double PickRadius(data::Metric metric) const {
    std::vector<double> dists;
    for (const uint32_t id : ids_) dists.push_back(ReferenceDistance(metric, id));
    std::sort(dists.begin(), dists.end());
    const size_t k = dists.size() * 3 / 10;
    return (dists[k] + dists[k + 1]) / 2.0;
  }

  std::vector<uint32_t> Naive(data::Metric metric, double radius) const {
    std::vector<uint32_t> out;
    for (const uint32_t id : ids_) {
      if (ReferenceDistance(metric, id) <= radius) out.push_back(id);
    }
    return out;
  }

  util::Rng rng_{48};
  data::DenseDataset dataset_;
  std::vector<float> query_;
  std::vector<uint32_t> ids_;
};

TEST_F(VerifyBlockTest, MatchesNaiveVerificationPerMetric) {
  TierGuard guard;
  for (const data::Metric metric :
       {data::Metric::kL2, data::Metric::kL1, data::Metric::kCosine}) {
    const double radius = PickRadius(metric);
    const std::vector<uint32_t> expected = Naive(metric, radius);
    ASSERT_FALSE(expected.empty());
    ASSERT_LT(expected.size(), ids_.size());
    for (Tier tier : SupportedTiers()) {
      util::simd::SetResolvedTierForTest(tier);
      std::vector<uint32_t> got;
      const size_t reported = kernels::VerifyBlock(
          dataset_, metric, query_.data(), ids_, radius, &got);
      EXPECT_EQ(reported, got.size());
      EXPECT_EQ(got, expected)
          << data::MetricName(metric) << " " << util::simd::TierName(tier);
    }
  }
}

TEST_F(VerifyBlockTest, CosineNormFastPathMatchesFusedPath) {
  const double radius = PickRadius(data::Metric::kCosine);
  std::vector<uint32_t> fused;
  ASSERT_FALSE(dataset_.has_norms());
  kernels::VerifyBlock(dataset_, data::Metric::kCosine, query_.data(), ids_,
                       radius, &fused);
  dataset_.PrecomputeNorms();
  ASSERT_TRUE(dataset_.has_norms());
  std::vector<uint32_t> with_norms;
  kernels::VerifyBlock(dataset_, data::Metric::kCosine, query_.data(), ids_,
                       radius, &with_norms);
  EXPECT_FALSE(with_norms.empty());
  EXPECT_EQ(fused, with_norms);
}

// The score pass stores the key the verify compares, so carving by
// `key <= VerifyThreshold` reproduces the verify (float and int8-screened)
// at any radius, including radii placed exactly on a candidate's distance;
// keys are bit-identical across tiers, and mapping them to distances keeps
// their order strictly.
TEST_F(VerifyBlockTest, ScoreKeysCarveExactlyWhatVerifyReports) {
  TierGuard guard;
  const data::QuantizedMirror mirror = data::QuantizedMirror::Build(dataset_);
  ASSERT_TRUE(mirror.enabled());
  for (const bool norms : {false, true}) {
    if (norms) dataset_.PrecomputeNorms();
    for (const data::Metric metric :
         {data::Metric::kL2, data::Metric::kL1, data::Metric::kCosine}) {
      SCOPED_TRACE(testing::Message() << data::MetricName(metric)
                                      << " norms=" << norms);
      std::vector<double> reference_keys;
      for (Tier tier : SupportedTiers()) {
        util::simd::SetResolvedTierForTest(tier);
        std::vector<double> keys(ids_.size());
        kernels::ScoreBlock(dataset_, metric, query_.data(), ids_,
                            keys.data());
        if (tier == Tier::kScalar) {
          reference_keys = keys;
        } else {
          EXPECT_EQ(keys, reference_keys) << util::simd::TierName(tier);
        }
        std::vector<double> radii = {PickRadius(metric)};
        for (size_t k = 0; k < ids_.size(); k += 37) {
          radii.push_back(kernels::KeyToDistance(metric, keys[k]));
        }
        for (const double radius : radii) {
          const double threshold = kernels::VerifyThreshold(metric, radius);
          std::vector<uint32_t> carved, verified, screened;
          for (size_t k = 0; k < ids_.size(); ++k) {
            if (keys[k] <= threshold) carved.push_back(ids_[k]);
          }
          kernels::VerifyBlock(dataset_, metric, query_.data(), ids_, radius,
                               &verified);
          kernels::VerifyBlockQuantized(dataset_, mirror, metric,
                                        query_.data(), ids_, radius,
                                        &screened);
          EXPECT_EQ(carved, verified) << "radius=" << radius;
          EXPECT_EQ(carved, screened) << "radius=" << radius;
        }
      }
      std::vector<double> sorted = reference_keys;
      std::sort(sorted.begin(), sorted.end());
      for (size_t k = 1; k < sorted.size(); ++k) {
        if (sorted[k - 1] == sorted[k]) continue;
        EXPECT_LT(kernels::KeyToDistance(metric, sorted[k - 1]),
                  kernels::KeyToDistance(metric, sorted[k]));
      }
    }
  }
}

TEST_F(VerifyBlockTest, BinaryBlockMatchesNaive) {
  data::BinaryDataset codes = data::MakeRandomCodes(400, 64, 49);
  const uint64_t query = codes.point(7)[0];
  std::vector<uint32_t> ids;
  for (uint32_t id = 0; id < codes.size(); ++id) ids.push_back(id);
  std::vector<uint32_t> expected;
  for (const uint32_t id : ids) {
    if (data::HammingDistance(codes.point(id), &query, 1) <= 20) {
      expected.push_back(id);
    }
  }
  TierGuard guard;
  for (Tier tier : SupportedTiers()) {
    util::simd::SetResolvedTierForTest(tier);
    std::vector<uint32_t> got;
    kernels::VerifyBlock(codes, &query, ids, 20.0, &got);
    EXPECT_EQ(got, expected) << util::simd::TierName(tier);
    // The score pass's key is the Hamming distance the verify compares.
    std::vector<double> keys(ids.size());
    kernels::ScoreBlock(codes, &query, ids, keys.data());
    for (size_t k = 0; k < ids.size(); ++k) {
      EXPECT_EQ(keys[k], data::HammingDistance(codes.point(ids[k]), &query, 1));
    }
  }
}

// --- Norm cache lifecycle (data/dataset.h). ----------------------------------

TEST(DenseNormCacheTest, PrecomputeAndInvalidate) {
  data::DenseDataset dataset = data::MakeCorelLike(100, 16, 50);
  EXPECT_FALSE(dataset.has_norms());
  dataset.PrecomputeNorms();
  ASSERT_TRUE(dataset.has_norms());
  for (size_t i = 0; i < dataset.size(); i += 17) {
    EXPECT_FLOAT_EQ(dataset.norm(i), data::Norm(dataset.point(i), 16));
  }

  // Append keeps a current cache warm by computing the new point's norm in
  // step (the serving engine relies on this under live ingest)...
  const std::vector<float> extra(16, 0.5f);
  dataset.Append(extra);
  ASSERT_TRUE(dataset.has_norms());
  EXPECT_FLOAT_EQ(dataset.norm(dataset.size() - 1),
                  data::Norm(extra.data(), 16));

  // ...but any in-place mutable access invalidates.
  dataset.mutable_point(0)[0] += 1.0f;
  EXPECT_FALSE(dataset.has_norms());
  dataset.PrecomputeNorms();
  dataset.mutable_matrix();
  EXPECT_FALSE(dataset.has_norms());
}

// --- End-to-end equivalence: scalar-forced vs vectorized. --------------------

/// A 1-shard engine over `dataset` (int8 screen on for dense data).
template <typename Family, typename Dataset>
engine::ShardedEngine<Family, Dataset> MakeEngine(
    const Family& family, const Dataset& dataset,
    EngineOptions options) {
  options.searcher.cost_model = CostModel::FromRatio(6.0);
  auto built = engine::ShardedEngine<Family, Dataset>::Build(family, dataset,
                                                             options);
  HLSH_CHECK(built.ok());
  return std::move(*built);
}

/// Runs `queries` through a 1-shard engine under `tier` and returns each
/// query's sorted ids plus the strategy that answered it.
template <typename Engine, typename QuerySet>
std::vector<std::pair<std::vector<uint32_t>, Strategy>> RunUnderTier(
    Engine* engine, const QuerySet& queries, double radius, Tier tier) {
  util::simd::SetResolvedTierForTest(tier);
  std::vector<std::pair<std::vector<uint32_t>, Strategy>> results;
  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<uint32_t> out;
    engine::ShardedQueryStats stats;
    HLSH_CHECK(engine->Query(queries.point(q), radius, &out, &stats).ok());
    std::sort(out.begin(), out.end());
    results.emplace_back(std::move(out), stats.per_shard[0].strategy);
  }
  return results;
}

template <typename Engine, typename QuerySet>
void ExpectTierEquivalence(Engine* engine, const QuerySet& queries,
                           double radius) {
  TierGuard guard;
  const auto scalar = RunUnderTier(engine, queries, radius, Tier::kScalar);
  for (Tier tier : SupportedTiers()) {
    const auto got = RunUnderTier(engine, queries, radius, tier);
    ASSERT_EQ(got.size(), scalar.size());
    for (size_t q = 0; q < got.size(); ++q) {
      EXPECT_EQ(got[q].first, scalar[q].first)
          << "query " << q << " tier " << util::simd::TierName(tier);
      EXPECT_EQ(got[q].second, scalar[q].second)
          << "strategy diverged, query " << q << " tier "
          << util::simd::TierName(tier);
    }
  }
}

TEST(TierEquivalenceTest, DenseL2) {
  data::DenseDataset dataset = data::MakeCorelLike(3000, 32, 51);
  data::DenseDataset queries(0, 32);
  for (int q = 0; q < 8; ++q) {
    queries.Append(std::span<const float>(dataset.point(q * 300), 32));
  }
  EngineOptions options;
  options.num_tables = 20;
  options.radius = 0.45;
  options.seed = 52;
  auto engine = MakeEngine(lsh::PStableFamily::L2(32, 0.9), dataset, options);
  ExpectTierEquivalence(&engine, queries, 0.45);
}

TEST(TierEquivalenceTest, DenseL1) {
  data::DenseDataset dataset = data::MakeCovtypeLike(2500, 20, 53);
  data::DenseDataset queries(0, 20);
  for (int q = 0; q < 8; ++q) {
    queries.Append(std::span<const float>(dataset.point(q * 250), 20));
  }
  EngineOptions options;
  options.num_tables = 20;
  options.radius = 2.0;
  options.seed = 54;
  auto engine = MakeEngine(lsh::PStableFamily::L1(20, 8.0), dataset, options);
  ExpectTierEquivalence(&engine, queries, 2.0);
}

TEST(TierEquivalenceTest, DenseCosineWithNorms) {
  data::WebspamLikeConfig config;
  config.n = 2500;
  config.dim = 48;
  config.seed = 55;
  data::DenseDataset dataset = data::MakeWebspamLike(config);
  data::DenseDataset queries(0, 48);
  for (int q = 0; q < 8; ++q) {
    queries.Append(std::span<const float>(dataset.point(q * 300), 48));
  }
  EngineOptions options;
  options.num_tables = 20;
  options.radius = 0.15;
  options.seed = 56;
  // Exercise the precomputed-norm fast path under every tier.
  dataset.PrecomputeNorms();
  auto engine = MakeEngine(lsh::SimHashFamily(48), dataset, options);
  ExpectTierEquivalence(&engine, queries, 0.15);
}

TEST(TierEquivalenceTest, BinaryHamming) {
  data::BinaryDataset dataset = data::MakeRandomCodes(2500, 64, 57);
  data::BinaryDataset queries(0, 64);
  util::Rng rng(58);
  for (int q = 0; q < 8; ++q) {
    const uint64_t code = dataset.point(q * 300)[0];
    data::PlantNeighborsHamming(&dataset, &code, 6, 4, &rng);
    queries.Append(&code);
  }
  EngineOptions options;
  options.num_tables = 20;
  options.radius = 6.0;
  options.seed = 59;
  auto engine = MakeEngine(lsh::BitSamplingFamily(64), dataset, options);
  ExpectTierEquivalence(&engine, queries, 6.0);
}

TEST(TierEquivalenceTest, SparseJaccard) {
  data::SparseDataset dataset = data::MakeRandomSparse(1500, 4000, 40, 60);
  EngineOptions options;
  options.num_tables = 20;
  options.k = 2;
  options.seed = 61;
  auto engine = MakeEngine(lsh::MinHashFamily(), dataset, options);
  // Query with dataset members (the sparse container has no cheap copy).
  struct QueryView {
    const data::SparseDataset* dataset;
    size_t size() const { return 8; }
    data::SparseDataset::Point point(size_t q) const {
      return dataset->point(q * 150);
    }
  };
  ExpectTierEquivalence(&engine, QueryView{&dataset}, 0.6);
}

TEST(TierEquivalenceTest, OneShardEngineWithChurn) {
  data::DenseDataset dataset = data::MakeCorelLike(2000, 24, 62);
  EngineOptions options;
  options.num_tables = 15;
  options.radius = 0.45;
  options.seed = 63;
  options.active_seal_threshold = 256;
  options.searcher.cost_model = CostModel::FromRatio(6.0);
  auto engine =
      L2Engine::Build(lsh::PStableFamily::L2(24, 0.9), &dataset, options);
  ASSERT_TRUE(engine.ok());
  // Churn: re-insert some points, delete others, leave the active segment
  // non-empty so log and CSR segments both verify, and the initial
  // segment's linear scan falls back to the per-id tombstone test.
  for (uint32_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(engine->Insert(dataset.point(i)).ok());
  }
  for (uint32_t id = 100; id < 200; ++id) {
    ASSERT_TRUE(engine->Remove(id).ok());
  }
  // The full log seals in the background; every tier must see one layout.
  engine->DrainMaintenance();
  data::DenseDataset queries(0, 24);
  for (int q = 0; q < 6; ++q) {
    queries.Append(std::span<const float>(dataset.point(q * 250 + 3), 24));
  }
  ExpectTierEquivalence(&*engine, queries, 0.45);
}

TEST(TierEquivalenceTest, ShardedEngineBatch) {
  TierGuard guard;
  data::DenseDataset dataset = data::MakeCorelLike(3000, 32, 64);
  data::DenseDataset queries(0, 32);
  for (int q = 0; q < 10; ++q) {
    queries.Append(std::span<const float>(dataset.point(q * 280), 32));
  }
  using Engine = engine::ShardedEngine<lsh::PStableFamily>;
  EngineOptions options;
  options.num_shards = 3;
  options.num_threads = 2;
  options.num_tables = 15;
  options.radius = 0.45;
  options.seed = 65;
  options.searcher.cost_model = CostModel::FromRatio(6.0);
  auto engine =
      Engine::Build(lsh::PStableFamily::L2(32, 0.9), dataset, options);
  ASSERT_TRUE(engine.ok());

  std::vector<std::vector<uint32_t>> scalar_results;
  util::simd::SetResolvedTierForTest(Tier::kScalar);
  auto scalar_batch =
      engine->QueryBatch(queries, engine::QuerySpec::Radius(0.45));
  ASSERT_TRUE(scalar_batch.ok());
  for (auto& result : *scalar_batch) {
    std::sort(result.neighbors.begin(), result.neighbors.end());
    scalar_results.push_back(std::move(result.neighbors));
  }
  for (Tier tier : SupportedTiers()) {
    util::simd::SetResolvedTierForTest(tier);
    auto batch = engine->QueryBatch(queries, engine::QuerySpec::Radius(0.45));
    ASSERT_TRUE(batch.ok());
    auto& results = *batch;
    ASSERT_EQ(results.size(), scalar_results.size());
    for (size_t q = 0; q < results.size(); ++q) {
      std::sort(results[q].neighbors.begin(), results[q].neighbors.end());
      EXPECT_EQ(results[q].neighbors, scalar_results[q])
          << "query " << q << " tier " << util::simd::TierName(tier);
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace hybridlsh
