// Near-duplicate document detection under cosine distance — the paper's
// motivating application (finding near-duplicate web pages, Henzinger
// SIGIR'06) and the regime where the hybrid strategy shines.
//
// A Webspam-like corpus contains a large block of near-duplicate documents
// (spam farms) plus a diffuse remainder. For a query inside the duplicate
// farm, classic LSH collides with thousands of duplicates in most of its
// 50 tables and spends its time deduplicating them — a linear scan is
// cheaper. For a query outside, LSH answers from a handful of points. The
// hybrid searcher detects the difference per query, before executing,
// from the HyperLogLog sketches in the probed buckets.
//
//   $ ./build/examples/near_duplicate_detection

#include <cstdio>
#include <vector>

#include "core/hybridlsh.h"

using namespace hybridlsh;

int main() {
  const size_t dim = 128;
  const double radius = 0.08;  // cosine distance threshold for "duplicate"

  // Corpus: 40,000 documents as unit-norm term vectors; 50% sit in a
  // near-duplicate farm with a density gradient, 50% are ordinary.
  data::WebspamLikeConfig config;
  config.n = 40000;
  config.dim = dim;
  config.cluster_fraction = 0.5;
  config.eps_min = 0.03;
  config.eps_max = 0.35;
  config.seed = 7;
  const data::DenseDataset corpus = data::MakeWebspamLike(config);

  // A 1-shard SimHash engine: 50 tables, k auto-tuned for the radius at
  // delta = 0.1. The paper pins beta/alpha = 10 for Webspam; calibrate
  // instead if your hardware differs (core::CostCalibrator).
  engine::EngineOptions options;
  options.num_tables = 50;
  options.delta = 0.1;
  options.radius = radius;
  options.num_threads = 8;
  options.searcher.cost_model = core::CostModel::FromRatio(10.0);
  auto engine = CosineEngine::Build(lsh::SimHashFamily(dim), corpus, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }

  // Probe 6 documents from the farm and 6 ordinary ones.
  std::printf("%-10s %-9s %-10s %-12s %-10s\n", "query", "kind", "duplicates",
              "collisions", "strategy");
  std::vector<uint32_t> duplicates;
  engine::ShardedQueryStats stats;
  int linear_calls = 0;
  for (int i = 0; i < 12; ++i) {
    const bool in_farm = i < 6;
    const size_t doc = in_farm ? static_cast<size_t>(i) * 3000
                               : 20000 + static_cast<size_t>(i - 6) * 3000;
    duplicates.clear();
    if (!engine->Query(corpus.point(doc), radius, &duplicates, &stats).ok()) {
      return 1;
    }
    const core::QueryStats& decision = stats.per_shard[0];
    linear_calls += decision.strategy == core::Strategy::kLinear;
    std::printf("doc %-6zu %-9s %-10zu %-12llu %-10s\n", doc,
                in_farm ? "farm" : "ordinary", duplicates.size(),
                static_cast<unsigned long long>(decision.collisions),
                std::string(core::StrategyName(decision.strategy)).c_str());
  }
  std::printf(
      "\n%d of 12 queries routed to linear search by the cost model\n"
      "(farm queries should dominate that count — they are the paper's\n"
      "\"hard\" q2 queries from Figure 1).\n",
      linear_calls);
  return 0;
}
