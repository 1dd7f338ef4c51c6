// Quickstart: build a hybrid LSH engine over an L2 point set and answer
// r-near-neighbor-reporting (rNNR) queries.
//
// The hybrid strategy (Pham, EDBT 2017) estimates, per query, whether
// classic LSH-based search or a plain linear scan will be cheaper — using
// HyperLogLog sketches embedded in every LSH bucket — and runs the winner.
//
//   $ ./build/examples/quickstart

#include <cstdio>
#include <vector>

#include "core/hybridlsh.h"

using namespace hybridlsh;

int main() {
  // 1. Data: 20,000 points in 32 dimensions with mixed cluster densities.
  //    In a real application you would load your own vectors (see data/io.h
  //    for fvecs / csv / libsvm readers).
  const size_t dim = 32;
  const double radius = 0.45;
  const data::DenseDataset full = data::MakeCorelLike(20000, dim, /*seed=*/1);

  // Hold out 5 points as queries (the paper's protocol).
  const data::DenseSplit split = data::SplitQueries(full, 5, /*seed=*/2);
  const data::DenseDataset& points = split.base;

  // 2. Engine: one shard is the paper's hybrid searcher over one index of
  //    50 tables of 2-stable (Gaussian) projections for L2 distance. The
  //    paper ties the quantization window to the radius (w = 2r) and k is
  //    derived from (radius, delta) by the E2LSH rule.
  lsh::PStableFamily family = lsh::PStableFamily::L2(dim, 2 * radius);
  engine::EngineOptions options;
  options.num_tables = 50;
  options.k = 0;  // auto: k = ceil(log(1 - delta^(1/L)) / log p1)
  options.delta = 0.1;
  options.radius = radius;
  options.num_threads = 8;  // the pool builds the 50 tables in parallel

  // 3. Decision: the cost model's beta/alpha ratio is the price of one
  //    distance computation in units of one dedup operation. Measure it
  //    (core::CostCalibrator) or pin it like the paper does (Corel: 6).
  options.searcher.cost_model = core::CostModel::FromRatio(6.0);
  auto engine = L2Engine::Build(family, points, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  const auto& index = engine->shard_index(0);
  std::printf("engine: n=%zu L=%d k=%d p1(r)=%.3f recall>=%.3f "
              "sketches=%.2f MiB\n",
              engine->size(), index.num_tables(), index.k(),
              index.functions().derived().p1_at_radius,
              index.functions().derived().recall_lower_bound,
              static_cast<double>(engine->stats().sketch_bytes) /
                  (1024.0 * 1024.0));

  // 4. Queries: every point within `radius` is reported with probability
  //    >= 1 - delta, by LSH or a linear scan chosen per query; the shard's
  //    stats show the decision and what settled it: the collisions alone
  //    (upper or lower bound), or the merged sketches' candSize estimate
  //    when the bounds left it open.
  std::vector<uint32_t> neighbors;
  engine::ShardedQueryStats stats;
  for (size_t q = 0; q < split.queries.size(); ++q) {
    neighbors.clear();
    const util::Status status =
        engine->Query(split.queries.point(q), radius, &neighbors, &stats);
    if (!status.ok()) {
      std::fprintf(stderr, "query failed: %s\n", status.ToString().c_str());
      return 1;
    }
    const core::QueryStats& decision = stats.per_shard[0];
    std::printf(
        "query %zu: strategy=%-6s  decided_by=%-11s  neighbors=%-5zu  "
        "collisions=%-6llu ",
        q, std::string(core::StrategyName(decision.strategy)).c_str(),
        std::string(core::SettlementName(decision.decided_by)).c_str(),
        neighbors.size(),
        static_cast<unsigned long long>(decision.collisions));
    if (decision.decided_by == core::Settlement::kSketch) {
      std::printf("candSize~%.0f ", decision.cand_estimate);
    }
    std::printf("(actual %zu)  cost lsh=%.0f linear=%.0f\n",
                decision.cand_actual, decision.lsh_cost, decision.linear_cost);
  }

  // 5. Recall check against exact ground truth (linear scan).
  double recall = 0;
  for (size_t q = 0; q < split.queries.size(); ++q) {
    const auto truth = data::RangeScanDense(points, split.queries.point(q),
                                            radius, data::Metric::kL2);
    neighbors.clear();
    if (!engine->Query(split.queries.point(q), radius, &neighbors).ok()) {
      return 1;
    }
    recall += data::Recall(neighbors, truth);
  }
  std::printf("average recall over %zu queries: %.3f (target >= %.2f)\n",
              split.queries.size(), recall / split.queries.size(),
              1.0 - options.delta);
  return 0;
}
