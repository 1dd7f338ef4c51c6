// Figure 2(c): CPU time vs radius on CoverType with L1 distance.
//
// Paper setup (§4): CoverType (n = 581,012, d = 54), Cauchy (1-stable)
// projections with k = 8 and w = 4r, L = 50, radii 3000..4000,
// beta/alpha = 10. Paper shape: LSH and hybrid beat linear at 3000; LSH
// deteriorates with r and the hybrid tracks the per-query winner.
//
// Dataset substitution: MakeCovtypeLike — heavy-tailed Gaussian mixture
// with integer-scale features; see DESIGN.md §2.

#include "bench_common.h"

using namespace hybridlsh;

int main(int argc, char** argv) {
  const bench::BenchScale scale = bench::GetScale(argc, argv);
  std::printf("# Figure 2(c): CoverType-like, L1 distance via 1-stable "
              "projections (k=8, w=4r)\n");
  bench::PrintScaleNote(scale);

  const data::DenseDataset full =
      data::MakeCovtypeLike(scale.N(581012), 54, /*seed=*/221);
  const data::DenseSplit split =
      data::SplitQueries(full, scale.num_queries, /*seed=*/222);
  std::printf("# n=%zu queries=%zu d=54 L=50 k=8 beta/alpha=10\n",
              split.base.size(), split.queries.size());

  const float* probe_query = split.queries.point(0);
  const core::CostModel model = bench::CalibratedModel(
      [&](size_t i) {
        return data::L1Distance(split.base.point(i), probe_query,
                                split.base.dim());
      },
      std::min<size_t>(10000, split.base.size()), split.base.size(),
      /*paper_ratio=*/10.0);
  bench::PrintFig2Header();
  for (double radius : {3000.0, 3200.0, 3400.0, 3600.0, 3800.0, 4000.0}) {
    engine::EngineOptions options;
    options.num_tables = 50;
    options.k = 8;  // paper's pinned setting
    options.seed = 223;
    options.num_threads = 16;
    // Sketch buckets of >= 16 ids: bounds the query-time folding of
    // sketch-less buckets (see DESIGN.md ablation A4) at modest space cost.
    options.small_bucket_threshold = 16;

    const auto truth = data::GroundTruthDense(split.base, split.queries, radius,
                                              data::Metric::kL1, 16);
    const auto result = bench::RunStrategies(
        lsh::PStableFamily::L1(54, 4 * radius), split.base, options,
        split.queries, radius, model, truth, scale.runs);
    bench::PrintFig2Row(radius, result);
  }
  return 0;
}
