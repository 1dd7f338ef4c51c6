// Build once, serve forever: parameter planning, engine snapshots, and
// parallel batch serving.
//
//   1. Plan (k, L) with the cost-based planner instead of the paper's
//      fixed L = 50 rule;
//   2. build a 1-shard engine and SaveSnapshot() it;
//   3. OpenSnapshot() it back into a fresh dataset, as a restarted server
//      would — no hash function is re-evaluated;
//   4. answer a query batch in parallel with ShardedEngine::QueryBatch.
//
//   $ ./build/examples/persistent_index

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "core/hybridlsh.h"
#include "lsh/planner.h"

using namespace hybridlsh;

int main() {
  const size_t dim = 32;
  const double radius = 0.45;
  const data::DenseDataset full = data::MakeCorelLike(30000, dim, /*seed=*/1);
  const data::DenseSplit split = data::SplitQueries(full, 64, /*seed=*/2);

  // 1. Plan parameters from the family's collision probabilities and a
  //    rough output-density guess (here: sampled on 200 base points).
  lsh::PStableFamily family = lsh::PStableFamily::L2(dim, 2 * radius);
  lsh::PlannerInput planner_input;
  planner_input.p_near = family.CollisionProbability(radius);
  planner_input.p_far = family.CollisionProbability(3 * radius);
  planner_input.n = split.base.size();
  planner_input.beta_over_alpha = 6.0;
  {
    const auto sample = data::RangeScanDense(split.base, split.base.point(0),
                                             radius, data::Metric::kL2);
    planner_input.near_fraction =
        std::max(1e-4, static_cast<double>(sample.size()) /
                           static_cast<double>(split.base.size()));
  }
  const auto plan = lsh::PlanParameters(planner_input);
  if (!plan.ok()) {
    std::fprintf(stderr, "planning failed: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf("planned k=%d L=%d (model recall %.3f, cost %.0f alpha-units)\n",
              plan->k, plan->num_tables, plan->expected_recall,
              plan->expected_cost);

  // 2. Build with the planned parameters and persist.
  engine::EngineOptions options;
  options.k = plan->k;
  options.num_tables = plan->num_tables;
  options.num_threads = 8;
  options.searcher.cost_model = core::CostModel::FromRatio(6.0);
  auto engine = L2Engine::Build(family, split.base, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  const std::string dir =
      (std::filesystem::temp_directory_path() / "corel_like_snapshot")
          .string();
  if (auto status = engine->SaveSnapshot(dir); !status.ok()) {
    std::fprintf(stderr, "save failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("saved %zu points x %d tables to %s\n", engine->size(),
              engine->shard_index(0).num_tables(), dir.c_str());

  // 3. Reopen, as a fresh process would: the dataset, hash functions,
  //    tables, sketches and cost model all come back from the snapshot.
  data::DenseDataset restored_points;
  auto restored = L2Engine::OpenSnapshot(dir, &restored_points);
  if (!restored.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 restored.status().ToString().c_str());
    return 1;
  }

  // 4. Serve the 64-query batch on the restored engine's 8-thread pool.
  double wall_seconds = 0;
  const auto batch = restored->QueryBatch(
      split.queries, engine::QuerySpec::Radius(radius), &wall_seconds);
  if (!batch.ok()) {
    std::fprintf(stderr, "batch failed: %s\n",
                 batch.status().ToString().c_str());
    return 1;
  }
  size_t linear_calls = 0, total_output = 0;
  size_t min_output = SIZE_MAX, max_output = 0;
  for (const engine::ShardedBatchResult& result : *batch) {
    linear_calls += result.stats.linear_shards;
    total_output += result.neighbors.size();
    min_output = std::min(min_output, result.neighbors.size());
    max_output = std::max(max_output, result.neighbors.size());
  }
  const double num_queries = static_cast<double>(batch->size());
  std::printf(
      "batch: %zu queries in %.3fs wall (%.0f QPS), outputs avg %.1f "
      "[min %zu, max %zu], %.1f%% via linear scan\n",
      batch->size(), wall_seconds, num_queries / wall_seconds,
      static_cast<double>(total_output) / num_queries, min_output, max_output,
      100.0 * static_cast<double>(linear_calls) / num_queries);

  // Spot-check recall against exact ground truth.
  double recall = 0;
  for (size_t q = 0; q < split.queries.size(); ++q) {
    const auto truth = data::RangeScanDense(split.base, split.queries.point(q),
                                            radius, data::Metric::kL2);
    recall += data::Recall((*batch)[q].neighbors, truth);
  }
  std::printf("average recall %.3f (planned >= %.3f)\n",
              recall / split.queries.size(), plan->expected_recall);
  std::filesystem::remove_all(dir);
  return 0;
}
