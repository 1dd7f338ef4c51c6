// Figure 2(d): CPU time vs radius on Corel Images with L2 distance.
//
// Paper setup (§4): Corel (n = 68,040, d = 32), Gaussian (2-stable)
// projections with k = 7 and w = 2r, L = 50, radii 0.35..0.60,
// beta/alpha = 6. Paper shape: LSH ~ hybrid well below linear at 0.35;
// LSH crosses linear near the top of the range while hybrid converges to
// linear from below.
//
// Dataset substitution: MakeCorelLike — smooth Gaussian mixture on a
// [0,1]-scale feature box; see DESIGN.md §2.

#include "bench_common.h"

using namespace hybridlsh;

int main(int argc, char** argv) {
  const bench::BenchScale scale = bench::GetScale(argc, argv);
  std::printf("# Figure 2(d): Corel-like, L2 distance via 2-stable "
              "projections (k=7, w=2r)\n");
  bench::PrintScaleNote(scale);

  const data::DenseDataset full =
      data::MakeCorelLike(scale.N(68040, 4), 32, /*seed=*/231);
  const data::DenseSplit split =
      data::SplitQueries(full, scale.num_queries, /*seed=*/232);
  std::printf("# n=%zu queries=%zu d=32 L=50 k=7 beta/alpha=6\n",
              split.base.size(), split.queries.size());

  const float* probe_query = split.queries.point(0);
  const core::CostModel model = bench::CalibratedModel(
      [&](size_t i) {
        return data::L2Distance(split.base.point(i), probe_query,
                                split.base.dim());
      },
      std::min<size_t>(10000, split.base.size()), split.base.size(),
      /*paper_ratio=*/6.0);
  bench::PrintFig2Header();
  for (double radius : {0.35, 0.40, 0.45, 0.50, 0.55, 0.60}) {
    engine::EngineOptions options;
    options.num_tables = 50;
    options.k = 7;  // paper's pinned setting
    options.seed = 233;
    options.num_threads = 16;
    // Sketch buckets of >= 16 ids: bounds the query-time folding of
    // sketch-less buckets (see DESIGN.md ablation A4) at modest space cost.
    options.small_bucket_threshold = 16;

    const auto truth = data::GroundTruthDense(split.base, split.queries, radius,
                                              data::Metric::kL2, 16);
    const auto result = bench::RunStrategies(
        lsh::PStableFamily::L2(32, 2 * radius), split.base, options,
        split.queries, radius, model, truth, scale.runs);
    bench::PrintFig2Row(radius, result);
  }
  return 0;
}
