// Shared support for the paper-reproduction benchmark binaries.
//
// Every bench binary runs with no arguments at a scaled-down (but
// shape-preserving) size so that `for b in build/bench/*; do $b; done`
// finishes quickly; pass --full (or set HYBRIDLSH_FULL=1) for the paper's
// dataset sizes (n up to 581,012, 100 queries, averaged over runs).
//
// Output format: one comment header describing the paper artifact, then
// whitespace-aligned columns, one row per sweep point — the same series
// the paper's tables/figures report, plus recall columns the paper omits
// for space.

#ifndef HYBRIDLSH_BENCH_BENCH_COMMON_H_
#define HYBRIDLSH_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/hybridlsh.h"
#include "util/stats.h"
#include "util/timer.h"

namespace hybridlsh {
namespace bench {

/// Scaling knobs resolved from argv / environment.
struct BenchScale {
  bool full = false;
  /// Number of held-out queries (paper: 100).
  size_t num_queries = 40;
  /// Repetitions of the query set, averaged (paper: 5).
  int runs = 1;

  /// Scales a paper-sized n down in quick mode. Small datasets use a
  /// gentler divisor so timings stay measurable.
  size_t N(size_t paper_n, size_t quick_divisor = 8) const {
    return full ? paper_n : paper_n / quick_divisor;
  }
};

inline BenchScale GetScale(int argc, char** argv) {
  BenchScale scale;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) scale.full = true;
  }
  const char* env = std::getenv("HYBRIDLSH_FULL");
  if (env != nullptr && env[0] == '1') scale.full = true;
  if (scale.full) {
    scale.num_queries = 100;
    scale.runs = 3;
  }
  return scale;
}

inline void PrintScaleNote(const BenchScale& scale) {
  std::printf("# mode: %s (queries=%zu, runs=%d)%s\n",
              scale.full ? "FULL (paper-sized)" : "QUICK (n/8)",
              scale.num_queries, scale.runs,
              scale.full ? "" : " — pass --full for paper-sized datasets");
}

/// Timing + quality of the three strategies over one query set.
struct StrategyResult {
  double hybrid_seconds = 0;  // total CPU seconds for the whole query set
  double lsh_seconds = 0;
  double linear_seconds = 0;
  double hybrid_recall = 0;  // averaged per query
  double lsh_recall = 0;
  double pct_linear_calls = 0;  // % of hybrid queries answered by scan
  // Table 1 ingredients (collected on the hybrid pass).
  double estimate_seconds = 0;     // decision-only time (all queries)
  double mean_cand_rel_error = 0;  // |candEst - candActual| / candActual
  double sd_cand_rel_error = 0;
  // Figure 3 (left) ingredients.
  double avg_output = 0;
  size_t min_output = 0;
  size_t max_output = 0;
  // Footprint of the hybrid engine's sealed tables (buckets, ids and
  // sketches): the one sealed segment of its static table set.
  // The engine's empty active log (a fixed num_tables x seal-threshold
  // allocation) and the segment's id list are not counted.
  size_t table_bytes = 0;
  size_t sketch_bytes = 0;
  size_t total_sketches = 0;
};

/// A static 1-shard engine over `base`: the paper's hybrid searcher. The L
/// tables build in parallel on its pool (options.num_threads threads); the
/// benches query its one shard on the calling thread. The strategy is
/// fixed by searcher.forced.
template <typename Family, typename Dataset>
engine::ShardedEngine<Family, Dataset> BuildEngine(
    const Family& family, const Dataset& base, engine::EngineOptions options,
    const core::SearcherOptions& searcher) {
  options.num_shards = 1;
  options.searcher = searcher;
  auto built =
      engine::ShardedEngine<Family, Dataset>::Build(family, base, options);
  HLSH_CHECK(built.ok());
  return std::move(*built);
}

/// One query on a static engine, on the calling thread; returns its one
/// shard's Algorithm 2 stats.
template <typename Engine, typename Point>
core::QueryStats QueryOnce(const Engine& engine, Point query, double radius,
                           std::vector<uint32_t>* out) {
  engine::ShardedQueryStats stats;
  out->clear();
  HLSH_CHECK(engine.Query(query, radius, out, &stats).ok());
  return stats.per_shard[0];
}

/// Runs hybrid, forced-LSH and forced-linear passes over the query set,
/// `runs` times, and aggregates. Each strategy is its own 1-shard engine
/// over `base` (BuildEngine; the forced modes are engine options, not
/// per-query overrides). Ground truth may be empty (skips recall).
template <typename Family, typename Dataset, typename QuerySet>
StrategyResult RunStrategies(
    const Family& family, const Dataset& base,
    const engine::EngineOptions& options, const QuerySet& queries,
    double radius, const core::CostModel& model,
    const std::vector<std::vector<uint32_t>>& truth, int runs,
    size_t probes_per_table = 1) {
  StrategyResult result;
  core::SearcherOptions searcher;
  searcher.cost_model = model;
  searcher.probes_per_table = probes_per_table;
  const auto hybrid = BuildEngine(family, base, options, searcher);
  searcher.forced = core::ForcedStrategy::kAlwaysLsh;
  const auto lsh = BuildEngine(family, base, options, searcher);
  searcher.forced = core::ForcedStrategy::kAlwaysLinear;
  const auto linear = BuildEngine(family, base, options, searcher);

  for (const auto& segment : hybrid.shard_index(0).Acquire().view().sealed) {
    for (const lsh::LshTable& table : segment->tables) {
      result.table_bytes += table.MemoryBytes();
      result.sketch_bytes += table.SketchBytes();
      result.total_sketches += table.num_sketches();
    }
  }

  const size_t num_queries = queries.size();
  std::vector<uint32_t> out;

  // Timed passes contain NOTHING but the queries. Wall-clock timing:
  // query execution is single-threaded, so wall time equals CPU time (the
  // paper's axis) — and the wall clock has nanosecond granularity where
  // this kernel's process-CPU clock only has 10 ms.
  for (int run = 0; run < runs; ++run) {
    {
      util::WallTimer timer;
      for (size_t q = 0; q < num_queries; ++q) {
        QueryOnce(hybrid, queries.point(q), radius, &out);
      }
      result.hybrid_seconds += timer.ElapsedSeconds();
    }
    {
      util::WallTimer timer;
      for (size_t q = 0; q < num_queries; ++q) {
        QueryOnce(lsh, queries.point(q), radius, &out);
      }
      result.lsh_seconds += timer.ElapsedSeconds();
    }
    {
      util::WallTimer timer;
      for (size_t q = 0; q < num_queries; ++q) {
        QueryOnce(linear, queries.point(q), radius, &out);
      }
      result.linear_seconds += timer.ElapsedSeconds();
    }
  }
  result.hybrid_seconds /= runs;
  result.lsh_seconds /= runs;
  result.linear_seconds /= runs;

  // Untimed instrumentation pass: recalls, strategy mix, estimate accuracy
  // and decision overhead, output-size spread. The engine merges sketches
  // only when the bounds leave its decision open, so each LSH-decided
  // query's estimate is computed here, from the merged sketches of the
  // query's plan (EstimateProbe), and compared with the candidates the
  // query collected.
  const auto& index = hybrid.shard_index(0);
  const auto snapshot = index.Acquire();
  hll::HyperLogLog merged = index.MakeScratchSketch();
  lsh::PlanScratch plan_scratch;
  lsh::ProbePlan plan;
  util::RunningStat cand_err;
  util::RunningStat output_sizes;
  size_t linear_calls = 0;
  for (size_t q = 0; q < num_queries; ++q) {
    const core::QueryStats stats =
        QueryOnce(hybrid, queries.point(q), radius, &out);
    result.estimate_seconds += stats.estimate_seconds;
    linear_calls += (stats.strategy == core::Strategy::kLinear);
    output_sizes.Add(static_cast<double>(out.size()));
    if (!truth.empty()) result.hybrid_recall += data::Recall(out, truth[q]);
    if (stats.strategy == core::Strategy::kLsh && stats.cand_actual > 0) {
      HLSH_CHECK(index
                     .ComputePlan(queries.point(q), probes_per_table,
                                  &plan_scratch, &plan)
                     .ok());
      const double estimate =
          snapshot.EstimateProbe(plan, &merged).cand_estimate;
      cand_err.Add(std::abs(estimate -
                            static_cast<double>(stats.cand_actual)) /
                   static_cast<double>(stats.cand_actual));
    }
    if (!truth.empty()) {
      QueryOnce(lsh, queries.point(q), radius, &out);
      result.lsh_recall += data::Recall(out, truth[q]);
    }
  }
  if (!truth.empty()) {
    result.hybrid_recall /= static_cast<double>(num_queries);
    result.lsh_recall /= static_cast<double>(num_queries);
  }
  result.pct_linear_calls = 100.0 * static_cast<double>(linear_calls) /
                            static_cast<double>(num_queries);
  result.mean_cand_rel_error = cand_err.count() > 0 ? cand_err.mean() : 0.0;
  result.sd_cand_rel_error = cand_err.count() > 1 ? cand_err.stddev() : 0.0;
  result.avg_output = output_sizes.mean();
  result.min_output = static_cast<size_t>(output_sizes.min());
  result.max_output = static_cast<size_t>(output_sizes.max());
  return result;
}

/// Calibrates the cost model the way the paper does (§4.2: "We use a
/// random set of 100 queries and 10,000 data points for choosing the ratio
/// beta/alpha"), on THIS implementation and machine. `distance_fn(i)` must
/// compute one representative distance against sample point i. The paper's
/// pinned ratios (10, 10, 6, 1) came from its Python implementation; the
/// benches print both.
inline core::CostModel CalibratedModel(
    const std::function<double(size_t)>& distance_fn, size_t sample_size,
    size_t dedup_capacity, double paper_ratio) {
  // The benches hand a sample_size already bounded by their dataset, so it
  // doubles as the callback's valid range n.
  auto calibrated = core::CostCalibrator::Calibrate(
      distance_fn, /*n=*/sample_size, sample_size, dedup_capacity,
      /*ops=*/200000, /*seed=*/1);
  HLSH_CHECK(calibrated.ok());
  const core::CostModel measured = *calibrated;
  std::printf("# cost model: measured beta/alpha = %.1f "
              "(paper's Python implementation used %.0f)\n",
              measured.Ratio(), paper_ratio);
  return measured;
}

/// Header + row printers for the Figure 2 CPU-time sweeps.
inline void PrintFig2Header() {
  std::printf("# %-9s %-12s %-12s %-12s %-9s %-9s %-8s\n", "radius",
              "hybrid_s", "lsh_s", "linear_s", "rec_hyb", "rec_lsh", "%LS");
}

inline void PrintFig2Row(double radius, const StrategyResult& r) {
  std::printf("  %-9.4g %-12.5f %-12.5f %-12.5f %-9.3f %-9.3f %-8.1f\n", radius,
              r.hybrid_seconds, r.lsh_seconds, r.linear_seconds,
              r.hybrid_recall, r.lsh_recall, r.pct_linear_calls);
}

/// One-line qualitative check for the figure shape: who wins at this row.
inline const char* Winner(const StrategyResult& r) {
  const double h = r.hybrid_seconds, l = r.lsh_seconds, n = r.linear_seconds;
  if (h <= l && h <= n) return "hybrid";
  return l <= n ? "lsh" : "linear";
}

}  // namespace bench
}  // namespace hybridlsh

#endif  // HYBRIDLSH_BENCH_BENCH_COMMON_H_
