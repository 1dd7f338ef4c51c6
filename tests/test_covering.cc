// Tests for lsh::CoveringFamily (lsh/families.h), most importantly the
// scheme's defining property: ZERO false negatives for Hamming distance
// <= r. Unlike the probabilistic recall of classic LSH, this holds
// deterministically for every query, which makes it an exact (not
// statistical) test. The family runs through the ordinary table build (a
// one-segment engine::SegmentedIndex) and plan walk; table t's function is
// derived from t, not sampled.

#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "data/workload.h"
#include "engine/segmented_index.h"
#include "engine/sharded_engine.h"
#include "engine_oracle.h"
#include "lsh/families.h"
#include "lsh/index.h"

namespace hybridlsh {
namespace lsh {
namespace {

using data::BinaryDataset;
using engine::EngineOptions;
using test_oracle::BuildStatic;
using CoveringTableSet = engine::SegmentedIndex<CoveringFamily>;

EngineOptions MakeOptions(const CoveringFamily& family) {
  EngineOptions options;
  options.num_tables = family.num_tables();
  options.seed = 11;
  options.num_threads = 4;
  return options;
}

util::StatusOr<CoveringTableSet> BuildCovering(const BinaryDataset& dataset,
                                               uint32_t radius) {
  const CoveringFamily family(dataset.width_bits(), radius, /*seed=*/11);
  return BuildStatic(family, dataset, MakeOptions(family));
}

/// Every id the plan walk collects for `query`.
util::VisitedSet Collect(const CoveringTableSet& index, size_t n,
                         const uint64_t* query) {
  util::VisitedSet visited(n);
  index.Acquire().CollectCandidates(test_oracle::PlanOf(index, query),
                                    &visited);
  return visited;
}

TEST(CoveringLshTest, BuildValidatesRadiusAndTableCount) {
  const BinaryDataset dataset = data::MakeRandomCodes(100, 64, 1);
  for (const uint32_t bad_radius : {0u, 13u, 64u}) {
    EXPECT_EQ(BuildCovering(dataset, bad_radius).status().code(),
              util::StatusCode::kInvalidArgument)
        << "radius " << bad_radius;
  }
  const CoveringFamily family(64, 2, 11);
  for (const int bad_tables : {1, 6, 8, 50}) {
    auto options = MakeOptions(family);
    options.num_tables = bad_tables;
    EXPECT_EQ(BuildStatic(family, dataset, options).status().code(),
              util::StatusCode::kInvalidArgument)
        << "tables " << bad_tables;
  }
  const BinaryDataset empty(0, 64);
  const EngineOptions engine_options = MakeOptions(family);
  EXPECT_FALSE(engine::ShardedEngine<CoveringFamily>::Build(family, empty,
                                                            engine_options)
                   .ok());
  auto bad_precision = MakeOptions(family);
  bad_precision.hll_precision = 30;
  EXPECT_FALSE(BuildStatic(family, dataset, bad_precision).ok());
}

TEST(CoveringLshTest, TablesAreTheMaskedCodes) {
  const BinaryDataset dataset = data::MakeRandomCodes(100, 64, 1);
  for (uint32_t r : {1u, 2u, 3u, 4u}) {
    auto index = BuildCovering(dataset, r);
    ASSERT_TRUE(index.ok());
    EXPECT_EQ(index->num_tables(), (1 << (r + 1)) - 1) << "r=" << r;
    // k is the signature width (two slots per code word), not a parameter.
    EXPECT_EQ(index->k(), 2);
    size_t memory_bytes = 0;
    for (const LshTable& table : index->Acquire().view().sealed[0]->tables) {
      memory_bytes += table.MemoryBytes();
    }
    EXPECT_GT(memory_bytes,
              dataset.size() * index->num_tables() * sizeof(uint32_t));
  }
  // Table t's signature is the code AND its mask (a = t + 1): codes that
  // differ only outside the mask share the bucket.
  const CoveringFamily family(64, 3, 5);
  for (size_t t = 0; t < static_cast<size_t>(family.num_tables()); ++t) {
    const uint64_t mask = family.Sample(t).mask[0];
    const uint64_t a = 0x0123456789abcdefULL, b = a ^ ~mask;
    std::vector<int32_t> slots_a(2), slots_b(2);
    family.Signature(family.Sample(t), &a, slots_a);
    family.Signature(family.Sample(t), &b, slots_b);
    EXPECT_EQ(slots_a, slots_b) << "table " << t;
    EXPECT_EQ(static_cast<uint32_t>(slots_a[0]), (a & mask) & 0xffffffffu);
    EXPECT_EQ(static_cast<uint32_t>(slots_a[1]), (a & mask) >> 32);
  }
}

class CoveringNoFalseNegatives : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CoveringNoFalseNegatives, EveryNeighborWithinRadiusIsFound) {
  const uint32_t radius = GetParam();
  BinaryDataset dataset = data::MakeRandomCodes(800, 64, radius);
  util::Rng rng(radius * 7 + 1);

  // Queries with planted neighbors at distance in [1, radius].
  BinaryDataset queries(0, 64);
  for (int q = 0; q < 10; ++q) {
    const uint64_t query = dataset.point(static_cast<size_t>(q) * 70)[0];
    data::PlantNeighborsHamming(&dataset, &query, radius, 5, &rng);
    queries.Append(&query);
  }

  auto index = BuildCovering(dataset, radius);
  ASSERT_TRUE(index.ok());

  for (size_t q = 0; q < queries.size(); ++q) {
    const auto truth = data::RangeScanBinary(dataset, queries.point(q), radius);
    ASSERT_GE(truth.size(), 5u);
    const util::VisitedSet visited =
        Collect(*index, dataset.size(), queries.point(q));
    for (uint32_t id : truth) {
      EXPECT_TRUE(visited.Contains(id))
          << "false negative at radius " << radius << ": id " << id
          << " at distance "
          << data::HammingDistance(dataset.point(id), queries.point(q), 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RadiusSweep, CoveringNoFalseNegatives,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(CoveringLshTest, WiderCodesAlsoCovered) {
  const uint32_t radius = 3;
  BinaryDataset dataset = data::MakeRandomCodes(400, 256, 5);
  util::Rng rng(99);
  std::vector<uint64_t> query(dataset.words_per_code());
  for (size_t w = 0; w < query.size(); ++w) query[w] = dataset.point(10)[w];
  data::PlantNeighborsHamming(&dataset, query.data(), radius, 8, &rng);

  auto index = BuildCovering(dataset, radius);
  ASSERT_TRUE(index.ok());
  const util::VisitedSet visited =
      Collect(*index, dataset.size(), query.data());
  const auto truth = data::RangeScanBinary(dataset, query.data(), radius);
  for (uint32_t id : truth) EXPECT_TRUE(visited.Contains(id));
}

TEST(CoveringLshTest, EstimateProbeCollisionsMatchCollect) {
  const BinaryDataset dataset = data::MakeRandomCodes(1000, 64, 2);
  auto index = BuildCovering(dataset, 3);
  ASSERT_TRUE(index.ok());
  const auto snapshot = index->Acquire();
  auto scratch = index->MakeScratchSketch();
  PlanScratch plan_scratch;
  ProbePlan plan;
  util::VisitedSet visited(dataset.size());
  for (size_t q = 0; q < 10; ++q) {
    ASSERT_TRUE(
        index->ComputePlan(dataset.point(q * 100), 1, &plan_scratch, &plan)
            .ok());
    const auto estimate = snapshot.EstimateProbe(plan, &scratch);
    visited.Reset();
    EXPECT_EQ(snapshot.CollectCandidates(plan, &visited), estimate.collisions);
    EXPECT_GE(estimate.cand_estimate, 0.0);
  }
}

TEST(CoveringLshTest, DistanceIsHamming) {
  const CoveringFamily family(64, 2, 2);
  const uint64_t a = 0, b = 0xf;
  EXPECT_DOUBLE_EQ(family.Distance(&a, &b), 4.0);
}

}  // namespace
}  // namespace lsh
}  // namespace hybridlsh
