// End-to-end integration tests: the paper's four evaluation regimes, each
// run through the full stack (generator -> split -> index build with the
// paper's parameters in a 1-shard engine -> hybrid search -> recall against
// exact ground truth). These are scaled-down versions of the Figure 2
// benchmarks with correctness assertions instead of timing plots.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/hybridlsh.h"

namespace hybridlsh {
namespace {

using core::CostModel;
using core::Strategy;
using engine::EngineOptions;

/// A 1-shard engine over `dataset`: the paper's hybrid searcher.
template <typename Engine, typename Family, typename Dataset>
Engine MakeEngine(const Family& family, const Dataset& dataset,
                  EngineOptions options, const CostModel& model,
                  core::ForcedStrategy forced = core::ForcedStrategy::kAuto) {
  options.num_threads = 8;
  options.searcher.cost_model = model;
  options.searcher.forced = forced;
  auto engine = Engine::Build(family, dataset, options);
  HLSH_CHECK(engine.ok());
  return std::move(*engine);
}

// Aggregate recall of the hybrid engine over a query set.
template <typename Engine, typename Queries, typename Truth>
double HybridRecall(Engine* engine, const Queries& queries, double radius,
                    const Truth& truth) {
  double total = 0;
  std::vector<uint32_t> out;
  for (size_t q = 0; q < queries.size(); ++q) {
    out.clear();
    HLSH_CHECK(engine->Query(queries.point(q), radius, &out).ok());
    total += data::Recall(out, truth[q]);
  }
  return total / static_cast<double>(queries.size());
}

TEST(IntegrationTest, CorelRegimeL2) {
  // Corel Images: L2, w = 2r, k = 7 (paper §4.1).
  const size_t dim = 32;
  const double radius = 0.45;
  const data::DenseDataset full = data::MakeCorelLike(8000, dim, 101);
  const data::DenseSplit split = data::SplitQueries(full, 20, 102);

  EngineOptions options;
  options.num_tables = 50;
  options.k = 7;
  options.seed = 103;
  auto engine = MakeEngine<L2Engine>(lsh::PStableFamily::L2(dim, 2 * radius),
                                     split.base, options,
                                     CostModel::FromRatio(6.0));  // paper: 6

  const auto truth = data::GroundTruthDense(split.base, split.queries, radius,
                                            data::Metric::kL2, 8);
  size_t nonempty = 0;
  for (const auto& t : truth) nonempty += !t.empty();
  ASSERT_GT(nonempty, 5u) << "radius too small for this regime";

  EXPECT_GT(HybridRecall(&engine, split.queries, radius, truth), 0.85);
}

TEST(IntegrationTest, CovtypeRegimeL1) {
  // CoverType: L1, w = 4r, k = 8 (paper §4.1).
  const size_t dim = 54;
  const double radius = 900.0;
  const data::DenseDataset full = data::MakeCovtypeLike(8000, dim, 111);
  const data::DenseSplit split = data::SplitQueries(full, 20, 112);

  EngineOptions options;
  options.num_tables = 50;
  options.k = 8;
  options.seed = 113;
  auto engine = MakeEngine<L1Engine>(lsh::PStableFamily::L1(dim, 4 * radius),
                                     split.base, options,
                                     CostModel::FromRatio(10.0));  // paper: 10

  const auto truth = data::GroundTruthDense(split.base, split.queries, radius,
                                            data::Metric::kL1, 8);
  size_t nonempty = 0;
  for (const auto& t : truth) nonempty += !t.empty();
  ASSERT_GT(nonempty, 5u);

  EXPECT_GT(HybridRecall(&engine, split.queries, radius, truth), 0.85);
}

TEST(IntegrationTest, WebspamRegimeCosine) {
  // Webspam: cosine via SimHash, auto k at delta = 0.1 (paper §4.1), with
  // the hard/easy query mix that motivates the hybrid.
  const size_t dim = 128;
  const double radius = 0.08;
  data::WebspamLikeConfig config;
  config.n = 8000;
  config.dim = dim;
  config.eps_min = 0.03;
  config.eps_max = 0.30;
  config.seed = 121;
  const data::DenseDataset full = data::MakeWebspamLike(config);
  const data::DenseSplit split = data::SplitQueries(full, 20, 122);

  EngineOptions options;
  options.num_tables = 50;
  options.delta = 0.1;
  options.radius = radius;
  options.seed = 123;
  auto engine = MakeEngine<CosineEngine>(lsh::SimHashFamily(dim), split.base,
                                         options,
                                         CostModel::FromRatio(10.0));  // paper

  const auto truth = data::GroundTruthDense(split.base, split.queries, radius,
                                            data::Metric::kCosine, 8);

  // Recall and strategy mix: at least one of each strategy should fire on
  // this density profile.
  double recall = 0;
  int linear_calls = 0;
  std::vector<uint32_t> out;
  engine::ShardedQueryStats stats;
  for (size_t q = 0; q < split.queries.size(); ++q) {
    out.clear();
    ASSERT_TRUE(
        engine.Query(split.queries.point(q), radius, &out, &stats).ok());
    recall += data::Recall(out, truth[q]);
    linear_calls += (stats.per_shard[0].strategy == Strategy::kLinear);
  }
  recall /= static_cast<double>(split.queries.size());
  EXPECT_GT(recall, 0.9);  // boosted by exact linear answers on hard queries
  EXPECT_GT(linear_calls, 0) << "no hard queries routed to linear";
  EXPECT_LT(linear_calls, 20) << "no easy queries routed to LSH";
}

TEST(IntegrationTest, MnistRegimeHammingFingerprints) {
  // MNIST: dense pixels -> 64-bit SimHash fingerprints -> bit-sampling LSH
  // under Hamming distance, radii 12..17 (paper §4, Figure 2a).
  const size_t dim = 196;
  const uint32_t radius = 14;
  const data::DenseDataset pixels = data::MakeMnistLike(8000, dim, 10, 131);
  const lsh::Fingerprinter fingerprinter(dim, 64, 132);
  auto codes = fingerprinter.Transform(pixels);
  ASSERT_TRUE(codes.ok());
  const data::BinarySplit split = data::SplitQueriesBinary(*codes, 20, 133);

  EngineOptions options;
  options.num_tables = 50;
  options.delta = 0.1;
  options.radius = radius;
  options.seed = 134;
  auto engine = MakeEngine<HammingEngine>(lsh::BitSamplingFamily(64),
                                          split.base, options,
                                          CostModel::FromRatio(1.0));  // paper

  const auto truth = data::GroundTruthBinary(split.base, split.queries, radius, 8);
  size_t nonempty = 0;
  for (const auto& t : truth) nonempty += !t.empty();
  ASSERT_GT(nonempty, 5u);

  EXPECT_GT(HybridRecall(&engine, split.queries, radius, truth), 0.85);
}

TEST(IntegrationTest, HybridNeverSlowerThanWorstPureStrategy) {
  // Sanity on the headline claim at small scale: hybrid total time is
  // bounded by ~max(pure LSH, pure linear) per query set (it pays only the
  // O(mL) estimate on top of whichever path it picks).
  const size_t dim = 64;
  const double radius = 0.08;
  data::WebspamLikeConfig config;
  config.n = 6000;
  config.dim = dim;
  config.eps_min = 0.02;
  config.eps_max = 0.25;
  config.seed = 141;
  const data::DenseDataset dataset = data::MakeWebspamLike(config);

  EngineOptions options;
  options.num_tables = 50;
  options.delta = 0.1;
  options.radius = radius;
  options.seed = 142;
  const lsh::SimHashFamily family(dim);
  const CostModel model = CostModel::FromRatio(10.0);
  auto hybrid = MakeEngine<CosineEngine>(family, dataset, options, model);
  auto lsh = MakeEngine<CosineEngine>(family, dataset, options, model,
                                      core::ForcedStrategy::kAlwaysLsh);
  auto linear = MakeEngine<CosineEngine>(family, dataset, options, model,
                                         core::ForcedStrategy::kAlwaysLinear);

  auto seconds = [&](CosineEngine* engine, const float* query) {
    std::vector<uint32_t> out;
    engine::ShardedQueryStats stats;
    HLSH_CHECK(engine->Query(query, radius, &out, &stats).ok());
    return stats.per_shard[0].total_seconds;
  };
  double hybrid_s = 0, lsh_s = 0, linear_s = 0;
  for (size_t q = 0; q < 40; ++q) {
    const float* query = dataset.point(q * 150);
    hybrid_s += seconds(&hybrid, query);
    lsh_s += seconds(&lsh, query);
    linear_s += seconds(&linear, query);
  }
  // Generous 2x margin: timing noise at micro scale, plus the estimate
  // overhead.
  EXPECT_LT(hybrid_s, 2.0 * std::max(lsh_s, linear_s));
}

}  // namespace
}  // namespace hybridlsh
