// Exact (zero-false-negative) Hamming rNNR with covering LSH + hybrid
// search — the combination the paper proposes as future work (§5).
//
// Classic LSH misses each neighbor with probability up to delta. Pagh's
// covering LSH (SODA'16) replaces the L independent tables with
// 2^(r+1) - 1 correlated masked tables that *guarantee* a collision for
// every point within Hamming distance r. On top, the hybrid cost model
// still applies: buckets carry HyperLogLog sketches, and dense queries
// fall back to the (equally exact) linear scan when cheaper.
//
//   $ ./build/examples/exact_hamming_search

#include <cstdio>
#include <vector>

#include "core/hybridlsh.h"

using namespace hybridlsh;

int main() {
  const size_t width = 64;
  const uint32_t radius = 5;  // tables: 2^6 - 1 = 63

  // 50,000 random 64-bit codes plus planted near-duplicates.
  data::BinaryDataset codes = data::MakeRandomCodes(50000, width, 21);
  util::Rng rng(22);
  data::BinaryDataset queries(0, width);
  for (int q = 0; q < 8; ++q) {
    const uint64_t query = codes.point(static_cast<size_t>(q) * 6000)[0];
    data::PlantNeighborsHamming(&codes, &query, radius, 4, &rng);
    queries.Append(&query);
  }

  const lsh::CoveringFamily family(width, radius, /*seed=*/1);
  engine::EngineOptions options;
  options.num_tables = family.num_tables();
  options.num_threads = 8;
  options.searcher.cost_model = core::CostModel::FromRatio(1.0);
  auto engine = CoveringEngine::Build(family, codes, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  std::printf("covering engine: %d masked tables for radius %u "
              "(index %.1f MiB)\n",
              engine->shard_index(0).num_tables(), family.radius(),
              static_cast<double>(engine->stats().memory_bytes) /
                  (1024 * 1024));

  std::vector<uint32_t> out;
  engine::ShardedQueryStats stats;
  size_t exact_matches = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    out.clear();
    if (!engine->Query(queries.point(q), radius, &out, &stats).ok()) return 1;
    const auto truth = data::RangeScanBinary(codes, queries.point(q), radius);
    const bool exact = data::Recall(out, truth) == 1.0 &&
                       out.size() == truth.size();
    exact_matches += exact;
    std::printf("query %zu: %zu neighbors, strategy=%s, exact=%s\n", q,
                out.size(),
                std::string(core::StrategyName(stats.per_shard[0].strategy))
                    .c_str(),
                exact ? "yes" : "NO");
  }
  std::printf("%zu/%zu queries answered exactly (expected: all — covering\n"
              "LSH has no false negatives and S3 removes false positives)\n",
              exact_matches, queries.size());
  return exact_matches == queries.size() ? 0 : 1;
}
