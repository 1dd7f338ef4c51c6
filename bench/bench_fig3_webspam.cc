// Figure 3: Webspam output-size spread (left) and percentage of linear-
// search calls inside hybrid search (right).
//
// Paper observations (§4.2): even at tiny radii the per-query output size
// on Webspam varies wildly — the maximum exceeds n/2 while the minimum is
// near zero — and the fraction of hybrid queries answered by linear search
// rises from ~10% at r = 0.05 to ~50% at r = 0.10.

#include "bench_common.h"

using namespace hybridlsh;

int main(int argc, char** argv) {
  const bench::BenchScale scale = bench::GetScale(argc, argv);
  std::printf("# Figure 3: Webspam-like output-size spread and %%LS calls\n");
  bench::PrintScaleNote(scale);

  data::WebspamLikeConfig config;
  config.n = scale.N(350000);
  config.dim = 254;
  config.cluster_fraction = 0.55;
  config.eps_min = 0.02;
  config.eps_max = 0.40;
  config.seed = 211;  // same workload as Figure 2(b)
  const data::DenseDataset full = data::MakeWebspamLike(config);
  const data::DenseSplit split =
      data::SplitQueries(full, scale.num_queries, /*seed=*/212);
  const size_t n = split.base.size();
  std::printf("# n=%zu queries=%zu (n/2 = %zu)\n", n, split.queries.size(),
              n / 2);

  const float* probe_query = split.queries.point(0);
  const core::CostModel model = bench::CalibratedModel(
      [&](size_t i) {
        return data::CosineDistance(split.base.point(i), probe_query,
                                    split.base.dim());
      },
      std::min<size_t>(10000, split.base.size()), split.base.size(),
      /*paper_ratio=*/10.0);
  // %LS is reported under both the measured cost model and the paper's
  // pinned beta/alpha = 10 (its Python implementation's ratio, under which
  // the paper observes ~10% at r = 0.05 rising to ~50% at r = 0.10).
  std::printf("# %-9s %-10s %-10s %-10s %-10s %-10s %-12s\n", "radius",
              "avg_out", "max_out", "min_out", "n/2", "%LS_meas",
              "%LS_papermodel");
  for (double radius : {0.05, 0.06, 0.07, 0.08, 0.09, 0.10}) {
    engine::EngineOptions options;
    options.num_tables = 50;
    options.delta = 0.1;
    options.radius = radius;
    options.seed = 213;
    options.num_threads = 16;
    // Sketch buckets of >= 16 ids: bounds the query-time folding of
    // sketch-less buckets (see DESIGN.md ablation A4) at modest space cost.
    options.small_bucket_threshold = 16;
    const lsh::SimHashFamily family(full.dim());

    // Exact output sizes come from ground truth (the paper plots true
    // output sizes); %LS comes from the hybrid decision.
    const auto truth = data::GroundTruthDense(split.base, split.queries, radius,
                                              data::Metric::kCosine, 16);
    util::RunningStat output_sizes;
    for (const auto& t : truth) output_sizes.Add(static_cast<double>(t.size()));

    const auto result = bench::RunStrategies(family, split.base, options,
                                             split.queries, radius, model,
                                             truth, 1);
    // Decision mix under the paper's pinned ratio: one hybrid pass.
    core::SearcherOptions paper_options;
    paper_options.cost_model = core::CostModel::FromRatio(10.0);
    const auto paper_engine =
        bench::BuildEngine(family, split.base, options, paper_options);
    std::vector<uint32_t> out;
    size_t paper_linear_calls = 0;
    for (size_t q = 0; q < split.queries.size(); ++q) {
      paper_linear_calls +=
          bench::QueryOnce(paper_engine, split.queries.point(q), radius, &out)
              .strategy == core::Strategy::kLinear;
    }
    const double pct_paper = 100.0 * static_cast<double>(paper_linear_calls) /
                             static_cast<double>(split.queries.size());
    std::printf("  %-9.2f %-10.0f %-10.0f %-10.0f %-10zu %-10.1f %-12.1f\n",
                radius, output_sizes.mean(), output_sizes.max(),
                output_sizes.min(), n / 2, result.pct_linear_calls, pct_paper);
  }
  return 0;
}
