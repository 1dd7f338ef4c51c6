// Streaming ingest: a live index that absorbs inserts and deletes while
// serving.
//
// The paper's index is one-shot — Algorithm 1 builds its tables over a
// frozen dataset. This example walks the mutable lifecycle instead
// (engine/segmented_index.h, served through the type-erased facade):
//
//   1. BuildMutableEngine   — engine over the initial corpus, armed for
//                             updates;
//   2. Insert               — new points stream into per-shard ACTIVE
//                             segments (hash-map buckets, no sketches) and
//                             are immediately queryable; at the seal
//                             threshold a segment freezes into CSR tables
//                             with fresh HLL sketches;
//   3. Remove               — deletes tombstone ids; dead points stop
//                             being reported at once but stay in their
//                             buckets until compaction (HLL sketches merge
//                             but never subtract — deletion has to be
//                             architectural);
//   4. Compact              — merges every segment into one, dropping
//                             tombstones and rebuilding sketches.
//
//   $ ./build/examples/streaming_ingest

#include <cstdio>
#include <vector>

#include "core/hybridlsh.h"
#include "engine/search_engine.h"

using namespace hybridlsh;

namespace {

size_t CountHits(engine::SearchEngine& engine,
                 const data::DenseDataset& queries, double radius) {
  std::vector<uint32_t> out;
  size_t hits = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    out.clear();
    HLSH_CHECK(engine.Query(queries.point(q), radius, &out).ok());
    hits += out.size();
  }
  return hits;
}

}  // namespace

int main() {
  const double radius = 0.45;
  const size_t dim = 32;

  // The initial corpus plus a stream of future points.
  const data::DenseSplit split =
      data::SplitQueries(data::MakeCorelLike(24000, dim, /*seed=*/1), 48, 2);
  const data::DenseDataset incoming = data::MakeCorelLike(8000, dim, 3);

  // The dataset the engine grows. It must outlive the engine and stay
  // owned by the caller — the engine appends to it on Insert.
  data::DenseDataset dataset(0, dim);
  for (size_t i = 0; i < split.base.size(); ++i) {
    dataset.Append({split.base.point(i), dim});
  }

  engine::EngineOptions options;
  options.num_shards = 4;
  options.num_tables = 50;
  options.k = 7;
  options.seed = 5;
  options.radius = radius;  // w = 2r for the L2 family
  options.active_seal_threshold = 2048;
  options.max_sealed_segments = 4;  // auto-compact past this many
  options.searcher.cost_model = core::CostModel::FromRatio(6.0);

  auto built =
      engine::BuildMutableEngine(data::Metric::kL2, &dataset, options);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  engine::SearchEngine& engine = **built;
  std::printf("built: %zu live points, %zu shards\n", engine.size(),
              engine.num_shards());
  std::printf("baseline hits over %zu queries: %zu\n", split.queries.size(),
              CountHits(engine, split.queries, radius));

  // Stream inserts; every new point is queryable immediately.
  for (size_t i = 0; i < incoming.size(); ++i) {
    auto id = engine.Insert(incoming.point(i));
    HLSH_CHECK(id.ok());
  }
  std::printf("after %zu inserts: %zu live points, hits: %zu\n",
              incoming.size(), engine.size(),
              CountHits(engine, split.queries, radius));

  // Delete a slice of the original corpus; reported results drop at once.
  const uint32_t removed_n = 6000;
  for (uint32_t id = 0; id < removed_n; ++id) {
    HLSH_CHECK(engine.Remove(id).ok());
  }
  std::printf("after %u removes: %zu live points, hits: %zu\n", removed_n,
              engine.size(), CountHits(engine, split.queries, radius));

  // Compaction reclaims the tombstoned entries and rebuilds sketches. The
  // candidate sets are unchanged (same hash functions, same live points),
  // but hit counts can dip a little: with the dead ids gone the LSH cost
  // estimate drops, so shards that were falling back to the exact linear
  // scan may switch to (probabilistic) LSH-based search.
  util::WallTimer timer;
  HLSH_CHECK(engine.Compact().ok());
  std::printf("compacted in %.3fs: %zu live points, hits: %zu\n",
              timer.ElapsedSeconds(), engine.size(),
              CountHits(engine, split.queries, radius));
  return 0;
}
