// Filtered search: category-scoped near-duplicate queries through the
// composable query pipeline.
//
// A media library holds vectors for 30,000 assets, each tagged with a
// category and a year. "Find near-duplicates of this asset *among 2021
// sports clips*" is one QuerySpec: a radius plus a pushdown predicate.
// The engine evaluates the predicate into a bitmap once, composes it with
// the tombstone map, and pushes it below the distance kernels — a point
// the predicate rejects never pays a distance. At tight selectivities the
// cost model flips the query to a linear scan over the filter's survivors,
// which is both exact and far cheaper than an unfiltered query (see
// BENCH_filter.json for the measured ratios).
//
// The second half fuses two clauses into one ranked list: geometric
// near-duplicates (LSH) and an attribute-only clause boosting everything
// in the same category, merged by deterministic reciprocal-rank fusion.
//
//   $ ./build/examples/filtered_search

#include <cstdio>
#include <vector>

#include "core/hybridlsh.h"
#include "data/attributes.h"
#include "engine/query_pipeline.h"
#include "engine/sharded_engine.h"

using namespace hybridlsh;

namespace {
const char* kCategoryNames[] = {"news", "sports", "music", "film"};
}

int main() {
  // 1. Assets: 30,000 vectors in 32 dimensions, plus one attribute row per
  //    asset. Row r describes global id r; rows are append-only and
  //    columns must be declared before the first row.
  const size_t dim = 32;
  const double radius = 0.4;
  const data::DenseDataset full = data::MakeCorelLike(30000, dim, /*seed=*/7);
  const data::DenseSplit split = data::SplitQueries(full, 3, /*seed=*/8);
  const data::DenseDataset& assets = split.base;

  data::AttributeStore attributes;
  const size_t kCategory = attributes.AddColumn("category");
  const size_t kYear = attributes.AddColumn("year");
  for (size_t id = 0; id < assets.size(); ++id) {
    const uint32_t row[2] = {
        static_cast<uint32_t>((id * 2654435761u) >> 16) % 4,  // category
        2018 + static_cast<uint32_t>((id * 97) % 8),          // year
    };
    attributes.AppendRow(row);
  }

  // 2. Engine: a 4-shard hybrid-LSH engine, with the attribute table
  //    attached so predicates can resolve column ids.
  engine::EngineOptions options;
  options.num_shards = 4;
  options.num_tables = 50;
  options.k = 7;
  options.seed = 9;
  options.searcher.cost_model = core::CostModel::FromRatio(6.0);
  auto built = engine::ShardedEngine<lsh::PStableFamily>::Build(
      lsh::PStableFamily::L2(dim, 2 * radius), assets, options);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  auto& engine = *built;
  engine.AttachAttributes(&attributes);

  // 3. Filtered query: near-duplicates of each held-out asset, scoped to
  //    2021 sports clips (~3% of the library).
  const data::Predicate sports_2021 =
      data::Predicate::Equals(kCategory, 1).And({kYear, 2021, 2021});
  engine::QuerySpec scoped = engine::QuerySpec::Radius(radius);
  scoped.predicate = &sports_2021;

  std::printf("— scoped near-duplicate search (category=sports, year=2021) —\n");
  std::vector<uint32_t> ids;
  for (size_t q = 0; q < split.queries.size(); ++q) {
    ids.clear();
    engine::ShardedQueryStats stats;
    if (auto s = engine.Query(split.queries.point(q), scoped, &ids, &stats);
        !s.ok()) {
      std::fprintf(stderr, "query failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("query %zu: %zu matches  (selectivity %.1f%%, survivors %zu, "
                "filter %.0f us)\n",
                q, ids.size(), 100.0 * stats.filter_selectivity,
                stats.filter_survivors, stats.filter_seconds * 1e6);
    for (size_t i = 0; i < ids.size() && i < 3; ++i) {
      const uint32_t id = ids[i];
      std::printf("    id %-6u %s %u\n", id,
                  kCategoryNames[attributes.value(kCategory, id)],
                  attributes.value(kYear, id));
    }
  }

  // 4. Fused query: rank geometric near-duplicates highest, but keep every
  //    same-category asset in the list as a weak signal. Two clauses, one
  //    snapshot, one ranked result.
  const data::Predicate same_category = data::Predicate::Equals(kCategory, 1);
  engine::QuerySpec fused;
  fused.predicate = &same_category;
  fused.subqueries.push_back({radius, /*weight=*/1.0, std::nullopt, false});
  fused.subqueries.push_back(
      {0.0, /*weight=*/0.05, std::nullopt, /*attribute_only=*/true});

  std::printf("— fused ranking (near-duplicate ∪ same-category, RRF) —\n");
  std::vector<core::FusedHit> hits;
  if (auto s = engine.QueryFused(split.queries.point(0), fused, &hits);
      !s.ok()) {
    std::fprintf(stderr, "fused query failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("query 0: %zu ranked hits, top 5:\n", hits.size());
  for (size_t i = 0; i < hits.size() && i < 5; ++i) {
    std::printf("    id %-6u score %.4f\n", hits[i].id, hits[i].score);
  }
  return 0;
}
