// Table 1: relative cost and error of the per-bucket HyperLogLogs.
//
// Paper setup (§4.1): m = 128 registers (relative error <= 10%), L = 50,
// k by the delta = 0.1 rule, measured "for a small range of radii where
// LSH-based search significantly outperforms linear search".
//
//   %Cost  = the decision's overhead as a share of total query time: the
//            HLL merge of decisions the bounds leave open, plus the bucket
//            walk of queries decided linear. The engine decides bounds
//            first (core::DecisionBounds), so a query the upper bound
//            settles merges no sketch and costs nothing here; the paper's
//            figure is the merge on every query;
//   %Error = relative error of the candSize estimate vs the exact distinct
//            candidate count, over the LSH-decided queries; the estimate
//            is merged for each of them whatever settled its decision.
//
// Paper values:  Webspam 1.31 / 5.99,  CoverType 0.12 / 5.86,
//                Corel 3.18 / 6.74,    MNIST 17.54 / 6.80   (%Cost/%Error).

#include "bench_common.h"

using namespace hybridlsh;

namespace {

struct Table1Row {
  const char* dataset;
  double paper_cost_pct;
  double paper_error_pct;
  double cost_pct;
  double error_pct;
  double error_sd_pct;
};

void PrintRow(const Table1Row& row) {
  std::printf("  %-10s %-12.2f %-10.2f %-12.2f %-10.2f %-10.2f\n", row.dataset,
              row.paper_cost_pct, row.cost_pct, row.paper_error_pct,
              row.error_pct, row.error_sd_pct);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchScale scale = bench::GetScale(argc, argv);
  std::printf("# Table 1: relative cost and error of HLLs (m=128, L=50)\n");
  bench::PrintScaleNote(scale);
  std::printf("# %-10s %-12s %-10s %-12s %-10s %-10s\n", "dataset",
              "paper_cost%", "our_cost%", "paper_err%", "our_err%", "err_sd%");

  // --- Webspam-like, cosine, r = 0.05 ---------------------------------------
  {
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
    const double radius = 0.05;
    engine::EngineOptions options;
    options.num_tables = 50;
    options.delta = 0.1;
    options.radius = radius;
    options.seed = 213;
    options.num_threads = 16;
    // Sketch buckets of >= 16 ids: bounds the query-time folding of
    // sketch-less buckets (see DESIGN.md ablation A4) at modest space cost.
    options.small_bucket_threshold = 16;
    const float* probe = split.queries.point(0);
    const core::CostModel model = bench::CalibratedModel(
        [&](size_t i) {
          return data::CosineDistance(split.base.point(i), probe, 254);
        },
        std::min<size_t>(10000, split.base.size()), split.base.size(), 10.0);
    const auto result =
        bench::RunStrategies(lsh::SimHashFamily(254), split.base, options,
                             split.queries, radius, model, {}, scale.runs);
    PrintRow({"Webspam", 1.31, 5.99,
              100.0 * result.estimate_seconds / result.hybrid_seconds,
              100.0 * result.mean_cand_rel_error,
              100.0 * result.sd_cand_rel_error});
  }

  // --- CoverType-like, L1, r = 3000 ------------------------------------------
  {
    const data::DenseDataset full =
        data::MakeCovtypeLike(scale.N(581012), 54, 221);
    const data::DenseSplit split =
        data::SplitQueries(full, scale.num_queries, 222);
    const double radius = 3000;
    engine::EngineOptions options;
    options.num_tables = 50;
    options.k = 8;
    options.seed = 223;
    options.num_threads = 16;
    // Sketch buckets of >= 16 ids: bounds the query-time folding of
    // sketch-less buckets (see DESIGN.md ablation A4) at modest space cost.
    options.small_bucket_threshold = 16;
    const float* probe = split.queries.point(0);
    const core::CostModel model = bench::CalibratedModel(
        [&](size_t i) {
          return data::L1Distance(split.base.point(i), probe, 54);
        },
        std::min<size_t>(10000, split.base.size()), split.base.size(), 10.0);
    const auto result =
        bench::RunStrategies(lsh::PStableFamily::L1(54, 4 * radius), split.base,
                             options, split.queries, radius, model, {},
                             scale.runs);
    PrintRow({"CoverType", 0.12, 5.86,
              100.0 * result.estimate_seconds / result.hybrid_seconds,
              100.0 * result.mean_cand_rel_error,
              100.0 * result.sd_cand_rel_error});
  }

  // --- Corel-like, L2, r = 0.35 ----------------------------------------------
  {
    const data::DenseDataset full =
        data::MakeCorelLike(scale.N(68040, 4), 32, 231);
    const data::DenseSplit split =
        data::SplitQueries(full, scale.num_queries, 232);
    const double radius = 0.35;
    engine::EngineOptions options;
    options.num_tables = 50;
    options.k = 7;
    options.seed = 233;
    options.num_threads = 16;
    // Sketch buckets of >= 16 ids: bounds the query-time folding of
    // sketch-less buckets (see DESIGN.md ablation A4) at modest space cost.
    options.small_bucket_threshold = 16;
    const float* probe = split.queries.point(0);
    const core::CostModel model = bench::CalibratedModel(
        [&](size_t i) {
          return data::L2Distance(split.base.point(i), probe, 32);
        },
        std::min<size_t>(10000, split.base.size()), split.base.size(), 6.0);
    const auto result =
        bench::RunStrategies(lsh::PStableFamily::L2(32, 2 * radius), split.base,
                             options, split.queries, radius, model, {},
                             scale.runs);
    PrintRow({"Corel", 3.18, 6.74,
              100.0 * result.estimate_seconds / result.hybrid_seconds,
              100.0 * result.mean_cand_rel_error,
              100.0 * result.sd_cand_rel_error});
  }

  // --- MNIST-like fingerprints, Hamming, r = 12 -------------------------------
  {
    const data::DenseDataset pixels =
        data::MakeMnistLike(scale.N(60000, 2), 780, 10, 201);
    const lsh::Fingerprinter fingerprinter(780, 64, 202);
    auto codes = fingerprinter.Transform(pixels);
    HLSH_CHECK(codes.ok());
    const data::BinarySplit split =
        data::SplitQueriesBinary(*codes, scale.num_queries, 203);
    const uint32_t radius = 12;
    engine::EngineOptions options;
    options.num_tables = 50;
    options.delta = 0.1;
    options.radius = radius;
    options.seed = 204;
    options.num_threads = 16;
    // Sketch buckets of >= 16 ids: bounds the query-time folding of
    // sketch-less buckets (see DESIGN.md ablation A4) at modest space cost.
    options.small_bucket_threshold = 16;
    const uint64_t* probe = split.queries.point(0);
    const core::CostModel model = bench::CalibratedModel(
        [&](size_t i) {
          return static_cast<double>(
              data::HammingDistance(split.base.point(i), probe, 1));
        },
        std::min<size_t>(10000, split.base.size()), split.base.size(), 1.0);
    const auto result =
        bench::RunStrategies(lsh::BitSamplingFamily(64), split.base, options,
                             split.queries, radius, model, {}, scale.runs);
    PrintRow({"MNIST", 17.54, 6.80,
              100.0 * result.estimate_seconds / result.hybrid_seconds,
              100.0 * result.mean_cand_rel_error,
              100.0 * result.sd_cand_rel_error});
  }

  std::printf(
      "#\n# Expectation (paper §4.1): %%cost small (< ~5%%) for real-valued\n"
      "# data, larger for MNIST's cheap popcount distances; %%error well\n"
      "# under the 10%% bound for m = 128 (paper sees ~6-7%%).\n");
  return 0;
}
