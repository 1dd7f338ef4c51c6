// Ablation A4: the paper's small-bucket trick (§3.2) — "For small buckets
// (#points < m), we might not need HLL, since we can update the merged HLL
// on demand at the query time."
//
// The threshold trades space (m bytes per sketched bucket) against query
// time (one hash per id folded on demand from sketch-less buckets). This
// sweep measures both ends plus the middle on the Corel-like workload,
// where mid-sized buckets dominate and the fold is most visible.

#include "bench_common.h"

using namespace hybridlsh;

int main(int argc, char** argv) {
  const bench::BenchScale scale = bench::GetScale(argc, argv);
  std::printf("# Ablation A4: small-bucket sketch threshold "
              "(Corel-like L2, r=0.45, m=128)\n");
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

  struct Threshold {
    size_t value;
    const char* label;
  };
  const Threshold thresholds[] = {
      {0, "0 (always)"},   {16, "16"},        {32, "32 (m/4)"},
      {128, "128 (m)"},    {1024, "1024"},    {SIZE_MAX - 1, "never"},
  };

  std::printf("# %-12s %-10s %-12s %-14s %-12s\n", "threshold", "sketches",
              "sketch_MiB", "est_us/query", "hybrid_s");
  for (const Threshold& threshold : thresholds) {
    engine::EngineOptions options;
    options.num_tables = 50;
    options.k = 7;
    options.seed = 233;
    options.num_threads = 16;
    options.small_bucket_threshold = threshold.value;

    const auto result = bench::RunStrategies(
        lsh::PStableFamily::L2(32, 2 * radius), split.base, options,
        split.queries, radius, model, {}, 1);
    std::printf("  %-12s %-10zu %-12.3f %-14.2f %-12.5f\n", threshold.label,
                result.total_sketches,
                static_cast<double>(result.sketch_bytes) /
                    (1024.0 * 1024.0),
                1e6 * result.estimate_seconds /
                    static_cast<double>(split.queries.size()),
                result.hybrid_seconds);
  }
  std::printf(
      "#\n# Expectation: threshold 0 maximizes space and minimizes the\n"
      "# estimation time; 'never' stores nothing but folds every collision\n"
      "# at query time; the paper's m and our benches' 16 sit between.\n");
  return 0;
}
