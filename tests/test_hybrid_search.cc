// Tests for the paper's Algorithm 2 as a 1-shard ShardedEngine runs it (the
// hybrid searcher; the forced strategies are engine options).
//
// Key properties verified here:
//   * the linear path returns the exact rNNR answer;
//   * the LSH path never reports a point outside the radius and meets the
//     1 - delta recall guarantee;
//   * the hybrid decision picks linear for "hard" (dense) queries and LSH
//     for "easy" (sparse) ones on a Webspam-like density mix (Figure 1's
//     q1 / q2 scenario);
//   * hybrid recall >= LSH recall (the paper's closing observation in §4.2);
//   * forced strategies, stats plumbing, multi-probe execution, and hybrid
//     search over covering LSH all behave.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/hybridlsh.h"

namespace hybridlsh {
namespace core {
namespace {

using data::DenseDataset;
using engine::EngineOptions;

/// Runs one query on `engine` and returns its one shard's decision stats.
template <typename Engine, typename Point>
QueryStats QueryOne(Engine* engine, Point query, double radius,
                    std::vector<uint32_t>* out) {
  engine::ShardedQueryStats stats;
  HLSH_CHECK(engine->Query(query, radius, out, &stats).ok());
  return stats.per_shard[0];
}

// Webspam-like mix: half the points in a tight cosine cluster, half
// diffuse. Queries 0..9 are cluster members ("hard"), 10..19 background
// ("easy").
class HybridCosineTest : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 64;
  static constexpr double kRadius = 0.10;

  void SetUp() override {
    data::WebspamLikeConfig config;
    config.n = 6000;
    config.dim = kDim;
    config.cluster_fraction = 0.5;
    // Tight near-duplicate core: cluster pairs sit well inside r = 0.10, so
    // they collide in most of the 50 tables (the paper's q2 scenario). At
    // this n the hybrid decision needs that density to prefer linear.
    config.eps_min = 0.02;
    config.eps_max = 0.20;
    config.seed = 13;
    dataset_ = data::MakeWebspamLike(config);

    queries_ = DenseDataset(0, kDim);
    for (int q = 0; q < 10; ++q) {  // cluster members
      queries_.Append(std::span<const float>(dataset_.point(q * 250), kDim));
    }
    for (int q = 0; q < 10; ++q) {  // background
      queries_.Append(
          std::span<const float>(dataset_.point(3000 + q * 250), kDim));
    }

  }

  /// A 1-shard engine over dataset_ (paper: ratio 10 for Webspam).
  CosineEngine Engine(ForcedStrategy forced = ForcedStrategy::kAuto,
                      double ratio = 10.0) const {
    EngineOptions options;
    options.num_threads = 8;
    options.num_tables = 50;
    options.delta = 0.1;
    options.radius = kRadius;
    options.seed = 17;
    options.searcher.cost_model = CostModel::FromRatio(ratio);
    options.searcher.forced = forced;
    auto engine =
        CosineEngine::Build(lsh::SimHashFamily(kDim), dataset_, options);
    HLSH_CHECK(engine.ok());
    return std::move(*engine);
  }

  std::vector<uint32_t> Truth(size_t q, double radius = kRadius) const {
    return data::RangeScanDense(dataset_, queries_.point(q), radius,
                                data::Metric::kCosine);
  }

  DenseDataset dataset_;
  DenseDataset queries_;
};

TEST_F(HybridCosineTest, LinearPathIsExact) {
  auto linear = Engine(ForcedStrategy::kAlwaysLinear);
  for (size_t q = 0; q < queries_.size(); q += 5) {
    std::vector<uint32_t> out;
    const QueryStats stats =
        QueryOne(&linear, queries_.point(q), kRadius, &out);
    EXPECT_EQ(out, Truth(q));  // ascending: the scan emits in id order
    EXPECT_EQ(stats.strategy, Strategy::kLinear);
    EXPECT_EQ(stats.output_size, out.size());
  }
}

TEST_F(HybridCosineTest, LshPathReportsOnlyTrueNeighbors) {
  auto lsh = Engine(ForcedStrategy::kAlwaysLsh);
  for (size_t q = 0; q < queries_.size(); ++q) {
    std::vector<uint32_t> out;
    QueryOne(&lsh, queries_.point(q), kRadius, &out);
    for (uint32_t id : out) {
      EXPECT_LE(data::CosineDistance(dataset_.point(id), queries_.point(q),
                                     kDim),
                kRadius + 1e-6);
    }
  }
}

TEST_F(HybridCosineTest, LshPathMeetsRecallGuarantee) {
  auto lsh = Engine(ForcedStrategy::kAlwaysLsh);
  size_t found = 0, total = 0;
  for (size_t q = 0; q < queries_.size(); ++q) {
    const auto truth = Truth(q);
    std::vector<uint32_t> out;
    QueryOne(&lsh, queries_.point(q), kRadius, &out);
    found += static_cast<size_t>(data::Recall(out, truth) *
                                 static_cast<double>(truth.size()) +
                                 0.5);
    total += truth.size();
  }
  EXPECT_GT(static_cast<double>(found) / static_cast<double>(total), 0.85);
}

TEST_F(HybridCosineTest, DecisionSeparatesHardAndEasyQueries) {
  auto hybrid = Engine();
  std::vector<uint32_t> out;
  int cluster_linear = 0, background_linear = 0;
  for (size_t q = 0; q < 10; ++q) {
    const QueryStats stats =
        QueryOne(&hybrid, queries_.point(q), kRadius, &out);
    cluster_linear += (stats.strategy == Strategy::kLinear);
  }
  for (size_t q = 10; q < 20; ++q) {
    const QueryStats stats =
        QueryOne(&hybrid, queries_.point(q), kRadius, &out);
    background_linear += (stats.strategy == Strategy::kLinear);
  }
  // Dense cluster queries should usually trigger linear search; diffuse
  // background queries should stay on LSH.
  EXPECT_GE(cluster_linear, 7) << "hard queries misrouted to LSH";
  EXPECT_LE(background_linear, 3) << "easy queries misrouted to linear";
}

TEST_F(HybridCosineTest, HybridRecallAtLeastLshRecall) {
  auto hybrid = Engine();
  auto lsh = Engine(ForcedStrategy::kAlwaysLsh);
  double hybrid_recall = 0, lsh_recall = 0;
  for (size_t q = 0; q < queries_.size(); ++q) {
    const auto truth = Truth(q);
    std::vector<uint32_t> hybrid_out, lsh_out;
    QueryOne(&hybrid, queries_.point(q), kRadius, &hybrid_out);
    QueryOne(&lsh, queries_.point(q), kRadius, &lsh_out);
    hybrid_recall += data::Recall(hybrid_out, truth);
    lsh_recall += data::Recall(lsh_out, truth);
  }
  // The hybrid answers hard queries exactly, so its recall dominates
  // (paper: "hybrid search gives higher recall ratio than LSH-based
  // search"). Tiny slack for per-query randomness.
  EXPECT_GE(hybrid_recall, lsh_recall - 1e-9);
}

TEST_F(HybridCosineTest, HybridStatsAreConsistent) {
  auto hybrid = Engine();
  for (size_t q = 0; q < queries_.size(); ++q) {
    std::vector<uint32_t> out;
    const QueryStats stats =
        QueryOne(&hybrid, queries_.point(q), kRadius, &out);
    EXPECT_EQ(stats.output_size, out.size());
    EXPECT_GT(stats.linear_cost, 0.0);
    EXPECT_GE(stats.total_seconds, stats.estimate_seconds);
    if (stats.strategy == Strategy::kLsh) {
      EXPECT_LT(stats.lsh_cost, stats.linear_cost);
      EXPECT_GE(stats.cand_actual, stats.output_size);
    } else {
      EXPECT_GE(stats.lsh_cost, stats.linear_cost);
      // Linear path answers exactly.
      EXPECT_EQ(out, Truth(q));
    }
  }
}

TEST_F(HybridCosineTest, ForcedStrategiesBypassDecision) {
  auto lsh = Engine(ForcedStrategy::kAlwaysLsh);
  auto linear = Engine(ForcedStrategy::kAlwaysLinear);
  for (size_t q = 0; q < queries_.size(); q += 4) {
    std::vector<uint32_t> out;
    EXPECT_EQ(QueryOne(&lsh, queries_.point(q), kRadius, &out).strategy,
              Strategy::kLsh);
    out.clear();
    EXPECT_EQ(QueryOne(&linear, queries_.point(q), kRadius, &out).strategy,
              Strategy::kLinear);
  }
}

TEST_F(HybridCosineTest, ExtremeRatiosForceEachPath) {
  // beta/alpha -> infinity makes LSH always cheaper (collisions get free);
  // beta/alpha -> 0 makes the candidate term dominate so dense queries go
  // linear. Check the decision responds to the model.
  std::vector<uint32_t> out;
  auto cheap_dedup = Engine(ForcedStrategy::kAuto, 1e9);
  // With enormous beta, LshCost ~ beta*cand < beta*n unless cand ~ n.
  EXPECT_EQ(QueryOne(&cheap_dedup, queries_.point(0), kRadius, &out).strategy,
            Strategy::kLsh);

  auto pricey_dedup = Engine(ForcedStrategy::kAuto, 1e-9);
  // With beta ~ 0, LinearCost ~ 0 while collisions still cost: linear wins.
  out.clear();
  EXPECT_EQ(QueryOne(&pricey_dedup, queries_.point(0), kRadius, &out).strategy,
            Strategy::kLinear);
}

TEST_F(HybridCosineTest, CandEstimateTracksActual) {
  // The merged sketches' estimate (EstimateProbe, the one a decision in
  // the gap between the bounds reads) against the exact distinct candidate
  // count a forced-LSH query collects. Forced-LSH merges no sketch itself,
  // so the estimate comes from the shard's snapshot on the query's plan.
  auto lsh = Engine(ForcedStrategy::kAlwaysLsh);
  const auto& index = lsh.shard_index(0);
  const auto snapshot = index.Acquire();
  hll::HyperLogLog merged = index.MakeScratchSketch();
  lsh::PlanScratch plan_scratch;
  lsh::ProbePlan plan;
  size_t checked = 0;
  for (size_t q = 0; q < queries_.size(); ++q) {
    std::vector<uint32_t> out;
    const QueryStats stats = QueryOne(&lsh, queries_.point(q), kRadius, &out);
    EXPECT_EQ(stats.cand_estimate, 0.0) << "query " << q;
    if (stats.cand_actual < 50) continue;
    ASSERT_TRUE(
        index.ComputePlan(queries_.point(q), 1, &plan_scratch, &plan).ok());
    const lsh::ProbeEstimate estimate = snapshot.EstimateProbe(plan, &merged);
    EXPECT_EQ(estimate.collisions, stats.collisions) << "query " << q;
    const double rel_err =
        std::abs(estimate.cand_estimate -
                 static_cast<double>(stats.cand_actual)) /
        static_cast<double>(stats.cand_actual);
    EXPECT_LT(rel_err, 0.3) << "query " << q;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(HybridCosineTest, ZeroRadiusReportsOnlyExactDuplicates) {
  auto hybrid = Engine();
  std::vector<uint32_t> out;
  // Query 0 is dataset point 0: cosine distance 0 to itself.
  QueryOne(&hybrid, queries_.point(0), 0.0, &out);
  for (uint32_t id : out) {
    EXPECT_LE(data::CosineDistance(dataset_.point(id), queries_.point(0), kDim),
              1e-6);
  }
}

TEST_F(HybridCosineTest, RadiusBeyondTuningStillNeverFalsePositive) {
  // The cost model is radius-blind: an index tuned for r = 0.10 gives no
  // recall promise at r = 0.5 (the paper ties w/k to the target radius).
  // What must still hold at any radius: every reported id is a true
  // neighbor, and the linear path stays exact.
  auto hybrid = Engine();
  std::vector<uint32_t> out;
  QueryOne(&hybrid, queries_.point(0), 0.5, &out);
  for (uint32_t id : out) {
    EXPECT_LE(data::CosineDistance(dataset_.point(id), queries_.point(0), kDim),
              0.5 + 1e-6);
  }
  auto linear = Engine(ForcedStrategy::kAlwaysLinear);
  out.clear();
  QueryOne(&linear, queries_.point(0), 0.5, &out);
  EXPECT_EQ(out, Truth(0, 0.5));
}

// --- Multi-probe -------------------------------------------------------------

TEST(HybridMultiProbeTest, FewerTablesWithProbesStillRecall) {
  const size_t dim = 16;
  const double radius = 0.4;
  DenseDataset dataset = data::MakeCorelLike(3000, dim, 21);
  util::Rng rng(22);
  DenseDataset queries(0, dim);
  for (int q = 0; q < 10; ++q) {
    std::vector<float> query(dim);
    for (size_t j = 0; j < dim; ++j) query[j] = dataset.point(q * 200)[j];
    data::PlantNeighborsL2(&dataset, query.data(), radius, 6, &rng);
    queries.Append(query);
  }

  // 10 tables (vs the paper's 50) but 8 probes per table.
  auto make = [&](size_t probes) {
    EngineOptions options;
    options.num_threads = 4;
    options.num_tables = 10;
    options.delta = 0.1;
    options.radius = radius;
    options.seed = 23;
    options.searcher.cost_model = CostModel::FromRatio(6.0);
    options.searcher.probes_per_table = probes;
    options.searcher.forced = ForcedStrategy::kAlwaysLsh;
    auto engine =
        L2Engine::Build(lsh::PStableFamily::L2(dim, 2 * radius), dataset,
                        options);
    HLSH_CHECK(engine.ok());
    return std::move(*engine);
  };
  auto engine1 = make(1);
  auto engine8 = make(8);

  double recall1 = 0, recall8 = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    const auto truth = data::RangeScanDense(dataset, queries.point(q), radius,
                                            data::Metric::kL2);
    std::vector<uint32_t> out1, out8;
    QueryOne(&engine1, queries.point(q), radius, &out1);
    QueryOne(&engine8, queries.point(q), radius, &out8);
    recall1 += data::Recall(out1, truth);
    recall8 += data::Recall(out8, truth);
  }
  EXPECT_GE(recall8, recall1);            // probing can only help recall
  EXPECT_GT(recall8 / queries.size(), 0.85);  // and reaches high recall
}

// --- Hybrid search over covering LSH -----------------------------------------

TEST(HybridCoveringTest, NoFalseNegativesThroughFullStack) {
  const uint32_t radius = 4;
  data::BinaryDataset dataset = data::MakeRandomCodes(2000, 64, 31);
  util::Rng rng(32);
  data::BinaryDataset queries(0, 64);
  for (int q = 0; q < 10; ++q) {
    const uint64_t query = dataset.point(q * 150)[0];
    data::PlantNeighborsHamming(&dataset, &query, radius, 5, &rng);
    queries.Append(&query);
  }

  const lsh::CoveringFamily family(64, radius, /*seed=*/33);
  EngineOptions options;
  options.num_threads = 8;
  options.num_tables = family.num_tables();
  options.seed = 33;
  options.searcher.cost_model = CostModel::FromRatio(1.0);
  auto engine = CoveringEngine::Build(family, dataset, options);
  ASSERT_TRUE(engine.ok());
  // A table count other than 2^(r+1) - 1, or a radius outside [1, 12], is
  // an InvalidArgument from the engine build.
  EngineOptions bad = options;
  bad.num_tables = 50;
  EXPECT_EQ(CoveringEngine::Build(family, dataset, bad).status().code(),
            util::StatusCode::kInvalidArgument);
  const lsh::CoveringFamily bad_radius(64, 13, 33);
  EXPECT_EQ(CoveringEngine::Build(bad_radius, dataset, options).status().code(),
            util::StatusCode::kInvalidArgument);

  for (size_t q = 0; q < queries.size(); ++q) {
    const auto truth = data::RangeScanBinary(dataset, queries.point(q), radius);
    std::vector<uint32_t> out;
    const QueryStats stats = QueryOne(&*engine, queries.point(q), radius, &out);
    std::sort(out.begin(), out.end());
    // Hybrid over covering LSH is *exact* regardless of the chosen path:
    // linear is exact by construction, covering-LSH has no false negatives
    // and S3 removes false positives.
    EXPECT_EQ(out, truth) << "query " << q << " strategy "
                          << StrategyName(stats.strategy);
  }
}

}  // namespace
}  // namespace core
}  // namespace hybridlsh
