// k-diverse near neighbor search built on rNNR — the paper cites this
// application (Abbar et al., WWW'13: real-time recommendation of diverse
// related articles) as a building block for spherical range reporting.
//
// Pipeline: (1) report ALL articles within radius r of the query (that is
// exactly rNNR, served by the hybrid searcher); (2) greedily pick the k
// that maximize pairwise diversity (max-min distance). Step (2) needs the
// *complete* neighbor set — a k-NN index is not enough — which is why the
// application sits on rNNR.
//
//   $ ./build/examples/diverse_recommendation

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/hybridlsh.h"

using namespace hybridlsh;

namespace {

// Greedy max-min diversification: repeatedly add the candidate whose
// minimum distance to the already-picked set is largest.
std::vector<uint32_t> DiversifyGreedy(const data::DenseDataset& points,
                                      const float* query,
                                      const std::vector<uint32_t>& candidates,
                                      size_t k) {
  std::vector<uint32_t> picked;
  if (candidates.empty()) return picked;
  // Seed with the candidate closest to the query (most relevant).
  uint32_t best = candidates[0];
  float best_dist = 1e30f;
  for (uint32_t id : candidates) {
    const float d = data::CosineDistance(points.point(id), query, points.dim());
    if (d < best_dist) {
      best_dist = d;
      best = id;
    }
  }
  picked.push_back(best);
  while (picked.size() < k && picked.size() < candidates.size()) {
    uint32_t arg_max = candidates[0];
    float max_min = -1.0f;
    for (uint32_t id : candidates) {
      if (std::find(picked.begin(), picked.end(), id) != picked.end()) continue;
      float min_d = 1e30f;
      for (uint32_t p : picked) {
        min_d = std::min(min_d, data::CosineDistance(points.point(id),
                                                     points.point(p),
                                                     points.dim()));
      }
      if (min_d > max_min) {
        max_min = min_d;
        arg_max = id;
      }
    }
    picked.push_back(arg_max);
  }
  return picked;
}

}  // namespace

int main() {
  const size_t dim = 96;
  const double radius = 0.12;  // "related" = cosine distance <= 0.12
  const size_t k = 5;          // recommend 5 diverse articles

  // Article embeddings: clustered topics on the unit sphere.
  data::WebspamLikeConfig config;
  config.n = 30000;
  config.dim = dim;
  config.cluster_fraction = 0.4;
  config.eps_min = 0.05;
  config.eps_max = 0.40;
  config.seed = 11;
  const data::DenseDataset articles = data::MakeWebspamLike(config);

  engine::EngineOptions options;
  options.num_tables = 50;
  options.delta = 0.1;
  options.radius = radius;
  options.num_threads = 8;
  options.searcher.cost_model = core::CostModel::FromRatio(10.0);
  auto engine = CosineEngine::Build(lsh::SimHashFamily(dim), articles, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }

  for (size_t doc : {size_t{100}, size_t{25000}}) {
    std::vector<uint32_t> related;
    engine::ShardedQueryStats stats;
    if (!engine->Query(articles.point(doc), radius, &related, &stats).ok()) {
      return 1;
    }

    const auto picked = DiversifyGreedy(articles, articles.point(doc), related, k);
    std::printf("article %zu: %zu related (strategy=%s); %zu diverse picks:",
                doc, related.size(),
                std::string(core::StrategyName(stats.per_shard[0].strategy))
                    .c_str(),
                picked.size());
    for (uint32_t id : picked) std::printf(" %u", id);
    // Diversity achieved: min pairwise distance of the picked set.
    float min_pair = 2.0f;
    for (size_t i = 0; i < picked.size(); ++i) {
      for (size_t j = i + 1; j < picked.size(); ++j) {
        min_pair = std::min(min_pair,
                            data::CosineDistance(articles.point(picked[i]),
                                                 articles.point(picked[j]), dim));
      }
    }
    if (picked.size() >= 2) {
      std::printf("  (min pairwise distance %.3f)", min_pair);
    }
    std::printf("\n");
  }
  return 0;
}
