// Ablation A3: multi-probe LSH under the hybrid strategy (paper §5's first
// "future work" integration).
//
// Multi-probe trades tables for probes: T probes in each of L tables give
// L*T probed buckets from L tables' memory. The per-bucket HLLs merge
// across probes exactly as across tables, so the hybrid cost estimate
// works unchanged. This sweep holds the probe budget L*T = 50 fixed and
// varies the split, reporting recall, query time, index memory, and the
// %LS mix — the paper's observation is that multi-probe schemes "require a
// large number of probes", making the candSize estimate more valuable.

#include "bench_common.h"

using namespace hybridlsh;

int main(int argc, char** argv) {
  const bench::BenchScale scale = bench::GetScale(argc, argv);
  std::printf("# Ablation A3: multi-probe (Corel-like L2, probe budget "
              "L*T = 50, r=0.45)\n");
  bench::PrintScaleNote(scale);

  const data::DenseDataset full =
      data::MakeCorelLike(scale.N(68040, 4), 32, 231);
  const data::DenseSplit split =
      data::SplitQueries(full, scale.num_queries, 232);
  const double radius = 0.45;

  const float* probe = split.queries.point(0);
  const core::CostModel model = bench::CalibratedModel(
      [&](size_t i) {
        return data::L2Distance(split.base.point(i), probe, 32);
      },
      std::min<size_t>(10000, split.base.size()), split.base.size(), 6.0);

  const auto truth = data::GroundTruthDense(split.base, split.queries, radius,
                                            data::Metric::kL2, 16);

  auto run_config = [&](int tables, size_t probes) {
    engine::EngineOptions options;
    options.num_tables = tables;
    options.k = 7;
    options.seed = 233;
    options.num_threads = 16;
    options.small_bucket_threshold = 16;
    const auto result = bench::RunStrategies(
        lsh::PStableFamily::L2(32, 2 * radius), split.base, options,
        split.queries, radius, model, truth, /*runs=*/1, probes);
    std::printf("  %-4d %-4zu %-12.5f %-10.3f %-12.2f %-8.1f\n", tables,
                probes, result.hybrid_seconds, result.hybrid_recall,
                static_cast<double>(result.table_bytes) / (1024.0 * 1024.0),
                result.pct_linear_calls);
  };

  std::printf("#\n# --- block 1: fixed probe budget L*T = 50 ---\n");
  std::printf("# %-4s %-4s %-12s %-10s %-12s %-8s\n", "L", "T", "hybrid_s",
              "rec_hyb", "memory_MiB", "%LS");
  {
    struct Config {
      int tables;
      size_t probes;
    };
    for (const Config& cfg : {Config{50, 1}, Config{25, 2}, Config{10, 5},
                              Config{5, 10}, Config{2, 25}}) {
      run_config(cfg.tables, cfg.probes);
    }
  }

  std::printf("#\n# --- block 2: fixed L = 10 (1/5 the memory), growing "
              "probes ---\n");
  std::printf("# %-4s %-4s %-12s %-10s %-12s %-8s\n", "L", "T", "hybrid_s",
              "rec_hyb", "memory_MiB", "%LS");
  for (size_t probes : {size_t{1}, size_t{2}, size_t{5}, size_t{15},
                        size_t{30}, size_t{60}}) {
    run_config(10, probes);
  }
  std::printf("#\n# Expectation: block 1 — memory shrinks ~linearly with L\n"
              "# while recall degrades gracefully; block 2 — at 1/5 the\n"
              "# memory, growing the probe count climbs recall back toward\n"
              "# the L = 50 level (the multi-probe trade the paper cites).\n");
  return 0;
}
