// Ablation A1: HLL precision m vs estimate quality and overhead.
//
// The paper fixes m = 128 ("relative error at most 10%") and notes that
// MNIST could drop to m = 32 to cut the estimation cost from 17.54% to
// ~4.4% of query time "without degrading the performance". This sweep
// quantifies that trade-off: per-bucket sketch precision against (a) the
// candSize estimate's relative error, (b) the estimation share of hybrid
// query time, and (c) sketch memory.

#include "bench_common.h"

using namespace hybridlsh;

int main(int argc, char** argv) {
  const bench::BenchScale scale = bench::GetScale(argc, argv);
  std::printf("# Ablation A1: HLL precision sweep (Corel-like L2 workload)\n");
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

  std::printf("# %-4s %-6s %-12s %-10s %-10s %-12s %-12s\n", "b", "m",
              "theory_se%", "err%", "err_sd%", "est_s/query", "sketch_MiB");
  for (int precision : {4, 5, 6, 7, 8, 10}) {
    engine::EngineOptions options;
    options.num_tables = 50;
    options.k = 7;
    options.seed = 233;
    options.num_threads = 16;
    options.hll_precision = precision;
    options.small_bucket_threshold = 16;

    const auto result = bench::RunStrategies(
        lsh::PStableFamily::L2(32, 2 * radius), split.base, options,
        split.queries, radius, model, truth, 1);
    const double m = static_cast<double>(size_t{1} << precision);
    std::printf("  %-4d %-6.0f %-12.2f %-10.2f %-10.2f %-12.3g %-12.3f\n",
                precision, m, 100.0 * 1.04 / std::sqrt(m),
                100.0 * result.mean_cand_rel_error,
                100.0 * result.sd_cand_rel_error,
                result.estimate_seconds /
                    static_cast<double>(split.queries.size()),
                static_cast<double>(result.sketch_bytes) /
                    (1024.0 * 1024.0));
  }
  std::printf("#\n# Expectation: err%% tracks ~1.04/sqrt(m); estimation time\n"
              "# and sketch memory grow with m — m = 32..128 is the paper's\n"
              "# sweet spot.\n");
  return 0;
}
