// Ablation A2: sensitivity of the hybrid decision to the beta/alpha ratio.
//
// The decision (Eq. 1 vs Eq. 2) depends only on the ratio beta/alpha. The
// paper calibrates it per dataset (§4.2). This sweep shows what happens
// when the ratio is wrong: hybrid time and the %LS mix across a spread of
// pinned ratios, against the measured ratio and an oracle that runs both
// pure strategies and keeps the faster (per query set, the lower
// envelope). A good ratio keeps hybrid within a few percent of the oracle.

#include "bench_common.h"

using namespace hybridlsh;

int main(int argc, char** argv) {
  const bench::BenchScale scale = bench::GetScale(argc, argv);
  std::printf("# Ablation A2: beta/alpha sensitivity (Webspam-like cosine "
              "workload, r=0.08)\n");
  bench::PrintScaleNote(scale);

  data::WebspamLikeConfig config;
  config.n = scale.N(350000);
  config.dim = 254;
  config.cluster_fraction = 0.55;
  config.eps_min = 0.02;
  config.eps_max = 0.40;
  config.seed = 211;
  const data::DenseDataset full = data::MakeWebspamLike(config);
  const data::DenseSplit split =
      data::SplitQueries(full, scale.num_queries, 212);
  const double radius = 0.08;

  engine::EngineOptions options;
  options.num_tables = 50;
  options.delta = 0.1;
  options.radius = radius;
  options.seed = 213;
  options.num_threads = 16;
  options.small_bucket_threshold = 16;
  const lsh::SimHashFamily family(full.dim());

  const float* probe = split.queries.point(0);
  const auto calibrated = core::CostCalibrator::Calibrate(
      [&](size_t i) {
        return data::CosineDistance(split.base.point(i), probe, 254);
      },
      split.base.size(), /*sample_size=*/10000, split.base.size());
  HLSH_CHECK(calibrated.ok());
  const core::CostModel measured = *calibrated;
  std::printf("# measured beta/alpha = %.1f\n", measured.Ratio());

  std::printf("# %-10s %-12s %-12s %-12s %-8s\n", "ratio", "hybrid_s",
              "oracle_s", "regret%", "%LS");
  auto run_ratio = [&](double ratio, const char* label) {
    const auto result = bench::RunStrategies(
        family, split.base, options, split.queries, radius,
        core::CostModel::FromRatio(ratio), {}, 1);
    const double oracle = std::min(result.lsh_seconds, result.linear_seconds);
    std::printf("  %-10s %-12.5f %-12.5f %-12.1f %-8.1f\n", label,
                result.hybrid_seconds, oracle,
                100.0 * (result.hybrid_seconds - oracle) / oracle,
                result.pct_linear_calls);
  };
  for (double ratio : {0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0}) {
    char label[32];
    std::snprintf(label, sizeof(label), "%.1f", ratio);
    run_ratio(ratio, label);
  }
  {
    char label[32];
    std::snprintf(label, sizeof(label), "%.1f*", measured.Ratio());
    run_ratio(measured.Ratio(), label);
  }
  std::printf("#\n# (* = measured). Expectation: tiny ratios overprice\n"
              "# distance computations and push easy queries to linear\n"
              "# (regret up); the measured ratio stays near the oracle.\n");
  return 0;
}
