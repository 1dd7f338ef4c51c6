// Sharded serving: one runtime-polymorphic engine handle per corpus.
//
// A service rarely gets to name ShardedEngine<Family> in its types — the
// metric comes from a config file or a request header. This example builds
// two sharded engines (L2 over dense vectors, Hamming over packed codes)
// through the metric-keyed registry and serves both from a single
// std::vector<std::unique_ptr<engine::SearchEngine>>.
//
// Each shard runs the paper's full hybrid decision against its *own* size
// (LinearCost(shard_n)), so a small or dense shard can fall back to an
// exact scan of its range while the others stay on LSH — watch the
// lsh_shards / linear_shards split in the output.
//
//   $ ./build/examples/sharded_service

#include <cstdio>
#include <memory>
#include <vector>

#include "core/hybridlsh.h"
#include "engine/search_engine.h"

using namespace hybridlsh;

int main() {
  // 1. Two corpora with different representations and metrics.
  const data::DenseSplit dense =
      data::SplitQueries(data::MakeCorelLike(30000, 32, /*seed=*/1), 64, 2);
  const data::BinarySplit binary = data::SplitQueriesBinary(
      data::MakeRandomCodes(20000, 64, /*seed=*/3), 64, 4);

  // 2. Build both engines through the registry: 8 id-range shards each,
  //    built in parallel on the engine's persistent pool.
  engine::EngineOptions options;
  options.num_shards = 8;
  options.num_threads = 8;
  options.num_tables = 50;
  options.k = 7;
  options.seed = 5;
  options.radius = 0.45;  // k/w derivation input for the L2 family (w = 2r)
  options.searcher.cost_model = core::CostModel::FromRatio(6.0);

  const std::vector<std::pair<data::Metric, engine::AnyDataset>> corpora = {
      {data::Metric::kL2, &dense.base},
      {data::Metric::kHamming, &binary.base},
  };
  std::vector<std::unique_ptr<engine::SearchEngine>> engines;
  for (const auto& [metric, dataset] : corpora) {
    auto built = engine::BuildEngine(metric, dataset, options);
    if (!built.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    std::printf("engine[%s]: n=%zu shards=%zu built in %.2fs (%.1f MiB)\n",
                std::string(data::MetricName(metric)).c_str(),
                (*built)->size(), (*built)->num_shards(),
                (*built)->stats().build_seconds,
                static_cast<double>((*built)->stats().memory_bytes) /
                    (1024 * 1024));
    engines.push_back(std::move(*built));
  }

  // 3. Single query with per-shard observability, through the typed
  //    overload matching each engine's point representation.
  std::vector<uint32_t> neighbors;
  engine::ShardedQueryStats stats;
  HLSH_CHECK(engines[0]
                 ->Query(dense.queries.point(0), 0.45, &neighbors, &stats)
                 .ok());
  std::printf("L2 query: %zu neighbors, %zu/%zu shards chose LSH\n",
              neighbors.size(), stats.lsh_shards, stats.num_shards);
  neighbors.clear();
  HLSH_CHECK(engines[1]
                 ->Query(binary.queries.point(0), 12.0, &neighbors, &stats)
                 .ok());
  std::printf("Hamming query: %zu neighbors, %zu/%zu shards chose LSH\n",
              neighbors.size(), stats.lsh_shards, stats.num_shards);

  // 4. Batches: pooled execution with per-worker scratch reuse.
  double wall_seconds = 0;
  auto dense_batch = engines[0]->QueryBatch(dense.queries, 0.45, &wall_seconds);
  HLSH_CHECK(dense_batch.ok());
  std::printf("L2 batch: %zu queries in %.3fs wall (%.0f QPS)\n",
              dense_batch->size(), wall_seconds,
              static_cast<double>(dense_batch->size()) / wall_seconds);
  auto binary_batch =
      engines[1]->QueryBatch(binary.queries, 12.0, &wall_seconds);
  HLSH_CHECK(binary_batch.ok());
  std::printf("Hamming batch: %zu queries in %.3fs wall (%.0f QPS)\n",
              binary_batch->size(), wall_seconds,
              static_cast<double>(binary_batch->size()) / wall_seconds);

  // 5. A mismatched representation is rejected, not UB: the L2 engine
  //    refuses a packed-binary query at runtime.
  const util::Status mismatch =
      engines[0]->Query(binary.queries.point(0), 0.45, &neighbors);
  std::printf("mismatched query -> %s\n", mismatch.ToString().c_str());
  return 0;
}
