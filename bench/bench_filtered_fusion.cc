// Filtered-query pushdown vs post-filtering, and fused-query throughput.
//
// The pipeline's claim: pushing a predicate below the distance kernels
// (filter stage -> selectivity-aware cost model -> filtered verify) beats
// running the unfiltered query and discarding non-matching ids afterwards,
// and the win grows as the predicate gets more selective — at 1% the cost
// model flips the engine to a linear scan over filter survivors, so the
// query never pays a distance for a point the predicate rejects.
//
// Sweep: selectivity in {0.1%, 1%, 10%, 50%} over a Corel-like L2 batch
// workload through ShardedEngine::QueryBatch (the filter is evaluated once
// per batch and shared read-only by the workers). Both sides answer the
// exact same result sets (property-tested in tests/test_filtered_fusion.cc);
// only where the predicate is applied differs.
//
// Rows are the repo's JSON-lines bench format. The committed baseline is
// BENCH_filter.json; `speedup_pushdown_vs_postfilter` is the CI-gated
// ratio (tools/check_bench_regression.py) — machine-independent, both
// sides run in this process. The fused row gates the same way on
// `wall_vs_two_sequential` (lower is better): the wall cost of a
// two-clause RRF fusion relative to the two single queries it replaces.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "data/attributes.h"
#include "engine/query_pipeline.h"
#include "engine/sharded_engine.h"

using namespace hybridlsh;

namespace {

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Per-mille bucket, decorrelated from id order (and therefore from shard
// and segment layout) by a Knuth multiplicative hash.
uint32_t BucketOf(size_t id) {
  return static_cast<uint32_t>((id * 2654435761u) >> 12) % 1000;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchScale scale = bench::GetScale(argc, argv);
  std::printf("# Filtered pushdown vs post-filter QPS across predicate "
              "selectivities; fused two-clause RRF cost\n");
  bench::PrintScaleNote(scale);

  const double radius = 0.45;
  const data::DenseDataset full =
      data::MakeCorelLike(scale.N(68040, 4), 32, /*seed=*/411);
  const data::DenseSplit split =
      data::SplitQueries(full, scale.num_queries, /*seed=*/412);
  const size_t batch_repeats = scale.full ? 10 : 4;
  data::DenseDataset batch(0, split.queries.dim());
  for (size_t r = 0; r < batch_repeats; ++r) {
    for (size_t q = 0; q < split.queries.size(); ++q) {
      batch.Append({split.queries.point(q), split.queries.dim()});
    }
  }

  data::AttributeStore attributes;
  attributes.AddColumn("bucket");
  for (size_t id = 0; id < split.base.size(); ++id) {
    const uint32_t row[1] = {BucketOf(id)};
    attributes.AppendRow(row);
  }

  using Engine = engine::ShardedEngine<lsh::PStableFamily>;
  engine::EngineOptions options;
  options.num_shards = 2;
  options.num_tables = 50;
  options.k = 7;
  options.seed = 413;
  options.searcher.cost_model = core::CostModel::FromRatio(6.0);
  auto built = Engine::Build(lsh::PStableFamily::L2(split.base.dim(), 2 * radius),
                             split.base, options);
  HLSH_CHECK(built.ok());
  Engine& engine = *built;
  engine.AttachAttributes(&attributes);

  std::printf("# n=%zu batch=%zu d=32 L=50 k=7 radius=%.2f beta/alpha=6 "
              "shards=2\n",
              split.base.size(), batch.size(), radius);

  // Warmup: builds per-worker scratch on both paths.
  HLSH_CHECK(engine.QueryBatch(batch, engine::QuerySpec::Radius(radius)).ok());

  // The sweep: per-mille thresholds 1, 10, 100, 500.
  for (const uint32_t per_mille : {1u, 10u, 100u, 500u}) {
    const data::Predicate pred = data::Predicate::Between(0, 0, per_mille - 1);
    engine::QuerySpec spec = engine::QuerySpec::Radius(radius);
    spec.predicate = &pred;

    std::vector<double> pushdown_walls, postfilter_walls;
    size_t pushdown_results = 0, postfilter_results = 0;
    for (int run = 0; run < 3; ++run) {
      double wall = 0;
      auto pushed = engine.QueryBatch(batch, spec, &wall);
      HLSH_CHECK(pushed.ok());
      pushdown_walls.push_back(wall);
      pushdown_results = 0;
      for (const auto& r : *pushed) pushdown_results += r.neighbors.size();

      // The alternative under measurement: unfiltered batch, then drop
      // non-matching ids. The predicate evaluation itself is part of the
      // cost (it is exactly what the pushdown pays in its filter stage).
      util::WallTimer timer;
      auto unfiltered =
          engine.QueryBatch(batch, engine::QuerySpec::Radius(radius));
      HLSH_CHECK(unfiltered.ok());
      postfilter_results = 0;
      for (const auto& r : *unfiltered) {
        for (const uint32_t id : r.neighbors) {
          postfilter_results += pred.Matches(attributes, id);
        }
      }
      postfilter_walls.push_back(timer.ElapsedSeconds());
    }
    // The pushdown never misses a result the post-filter keeps: when the
    // selectivity flips it to the exact linear scan it can only find MORE
    // than the LSH-answered unfiltered query (recall < 1). Strategy-for-
    // strategy bit-identity is property-tested, not asserted here.
    HLSH_CHECK(pushdown_results >= postfilter_results);

    const double qps_pushdown =
        static_cast<double>(batch.size()) / Median(pushdown_walls);
    const double qps_postfilter =
        static_cast<double>(batch.size()) / Median(postfilter_walls);
    std::printf(
        "{\"bench\":\"filtered_fusion\",\"mode\":\"pushdown_vs_postfilter\","
        "\"metric\":\"L2\",\"n\":%zu,\"dim\":32,\"batch\":%zu,"
        "\"radius\":%.2f,\"selectivity_pct\":%.1f,"
        "\"qps_pushdown\":%.1f,\"qps_postfilter\":%.1f,"
        "\"avg_results_per_query\":%.1f,"
        "\"speedup_pushdown_vs_postfilter\":%.2f}\n",
        split.base.size(), batch.size(), radius,
        static_cast<double>(per_mille) / 10.0, qps_pushdown, qps_postfilter,
        static_cast<double>(pushdown_results) /
            static_cast<double>(batch.size()),
        qps_pushdown / qps_postfilter);
  }

  // Fused row: two-clause RRF (radius, 1.5 * radius) versus the two
  // single-radius queries it replaces, sequential on one thread. A quick
  // pass is only a few dozen queries, so the gated ratio takes medians
  // over 11 alternating runs rather than 3.
  {
    engine::QuerySpec fused;
    fused.subqueries.push_back({radius, 1.0, std::nullopt, false});
    fused.subqueries.push_back({1.5 * radius, 0.5, std::nullopt, false});
    std::vector<core::FusedHit> hits;
    std::vector<uint32_t> out;
    std::vector<double> fused_walls, sequential_walls;
    for (int run = 0; run < 11; ++run) {
      {
        util::WallTimer timer;
        for (size_t q = 0; q < split.queries.size(); ++q) {
          hits.clear();
          HLSH_CHECK(engine.QueryFused(split.queries.point(q), fused, &hits).ok());
        }
        fused_walls.push_back(timer.ElapsedSeconds());
      }
      {
        util::WallTimer timer;
        for (size_t q = 0; q < split.queries.size(); ++q) {
          for (const auto& sub : fused.subqueries) {
            out.clear();
            engine.Query(split.queries.point(q), sub.radius, &out);
          }
        }
        sequential_walls.push_back(timer.ElapsedSeconds());
      }
    }
    const double fused_qps =
        static_cast<double>(split.queries.size()) / Median(fused_walls);
    std::printf(
        "{\"bench\":\"filtered_fusion\",\"mode\":\"fused_two_radii_rrf\","
        "\"metric\":\"L2\",\"n\":%zu,\"dim\":32,\"radius\":%.2f,"
        "\"qps\":%.1f,\"wall_vs_two_sequential\":%.2f}\n",
        split.base.size(), radius, fused_qps,
        Median(fused_walls) / Median(sequential_walls));
  }
  return 0;
}
