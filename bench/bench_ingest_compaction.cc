// Streaming-ingest benchmark for the segmented lifecycle
// (engine/segmented_index.h via the sharded engine).
//
// The workload a static Build never sees: an engine serving queries while
// points stream in and a fraction of the live set is deleted. Phases:
//
//   1. build    — initial sealed segments over the base set;
//   2. ingest   — stream inserts (with interleaved deletes), measuring
//                 ingest throughput and how query latency behaves while
//                 candidates sit in unsealed hash-map segments;
//   3. churn    — a query batch against the fragmented, tombstoned engine;
//   4. compact  — CompactAll wall time, memory before/after;
//   5. steady   — the same query batch on the compacted engine.
//
// Each row is one JSON object on its own line — the repo's machine-readable
// bench format:
//
//   {"bench":"ingest_compaction","shards":4,"ingest_qps":...,
//    "churn_query_qps":...,"compact_seconds":...,...}
//
// Comment lines (starting with '#') carry human-readable context.

#include <cstdio>

#include "bench_common.h"
#include "engine/sharded_engine.h"

using namespace hybridlsh;

int main(int argc, char** argv) {
  const bench::BenchScale scale = bench::GetScale(argc, argv);
  std::printf("# Segmented lifecycle: ingest + delete churn, query QPS "
              "before/after compaction (Corel-like L2, sharded engine)\n");
  bench::PrintScaleNote(scale);

  const double radius = 0.45;
  const size_t dim = 32;
  const size_t base_n = scale.N(68040, 8);
  const size_t ingest_n = base_n / 2;  // stream in another 50%
  const data::DenseDataset full =
      data::MakeCorelLike(base_n + ingest_n, dim, /*seed=*/411);
  const data::DenseSplit split =
      data::SplitQueries(full, scale.num_queries, /*seed=*/412);
  const size_t live_base = split.base.size() - ingest_n;

  std::printf("# base_n=%zu ingest_n=%zu d=%zu L=50 k=7 radius=%.2f "
              "delete 1 per 4 inserts\n",
              live_base, ingest_n, dim, radius);

  for (size_t num_shards : {1, 4, 8}) {
    // The engine indexes the first live_base points; the tail of the split
    // streams in afterwards through Insert (points are copied out first so
    // the growing dataset never aliases the source).
    data::DenseDataset dataset(0, dim);
    for (size_t i = 0; i < live_base; ++i) {
      dataset.Append({split.base.point(i), dim});
    }

    engine::EngineOptions options;
    options.num_shards = num_shards;
    options.num_tables = 50;
    options.k = 7;
    options.seed = 413;
    options.active_seal_threshold = 4096;
    options.max_sealed_segments = 0;  // manual CompactAll below
    options.searcher.cost_model = core::CostModel::FromRatio(6.0);

    auto built = engine::ShardedEngine<lsh::PStableFamily>::Build(
        lsh::PStableFamily::L2(dim, 2 * radius), &dataset, options);
    HLSH_CHECK(built.ok());
    auto engine = std::move(*built);

    // Phase 2: ingest with 1 delete per 4 inserts.
    util::Rng rng(415);
    util::WallTimer ingest_timer;
    for (size_t i = 0; i < ingest_n; ++i) {
      HLSH_CHECK(engine.Insert(split.base.point(live_base + i)).ok());
      if (i % 4 == 3) {
        const uint32_t victim = static_cast<uint32_t>(
            rng.UniformInt(0, static_cast<int64_t>(dataset.size() - 1)));
        HLSH_CHECK(engine.Remove(victim).ok());
      }
    }
    const double ingest_seconds = ingest_timer.ElapsedSeconds();
    const size_t memory_before = engine.stats().memory_bytes;

    // Phase 3: queries against the fragmented engine.
    double churn_seconds = 0;
    const auto churn_results = engine.QueryBatch(
        split.queries, engine::QuerySpec::Radius(radius), &churn_seconds);

    // Phase 4: compaction.
    util::WallTimer compact_timer;
    engine.CompactAll();
    const double compact_seconds = compact_timer.ElapsedSeconds();
    const size_t memory_after = engine.stats().memory_bytes;

    // Phase 5: queries against the compacted engine.
    double steady_seconds = 0;
    const auto steady_results = engine.QueryBatch(
        split.queries, engine::QuerySpec::Radius(radius), &steady_seconds);
    HLSH_CHECK(churn_results.ok() && steady_results.ok() &&
               churn_results->size() == steady_results->size());

    const double nq = static_cast<double>(split.queries.size());
    std::printf(
        "{\"bench\":\"ingest_compaction\",\"metric\":\"L2\","
        "\"base_n\":%zu,\"ingest_n\":%zu,\"dim\":%zu,\"radius\":%.2f,"
        "\"shards\":%zu,\"live_n\":%zu,"
        "\"ingest_qps\":%.1f,\"churn_query_qps\":%.1f,"
        "\"steady_query_qps\":%.1f,\"compact_seconds\":%.4f,"
        "\"memory_before_mb\":%.2f,\"memory_after_mb\":%.2f}\n",
        live_base, ingest_n, dim, radius, num_shards, engine.size(),
        ingest_seconds > 0 ? static_cast<double>(ingest_n) / ingest_seconds
                           : 0.0,
        churn_seconds > 0 ? nq / churn_seconds : 0.0,
        steady_seconds > 0 ? nq / steady_seconds : 0.0, compact_seconds,
        static_cast<double>(memory_before) / (1024.0 * 1024.0),
        static_cast<double>(memory_after) / (1024.0 * 1024.0));
  }
  return 0;
}
