// Figure 2(a): CPU time vs radius on MNIST with Hamming distance.
//
// Paper setup (§4): MNIST (n = 60,000, d = 780) reduced to 64-bit SimHash
// fingerprints, bit-sampling LSH, L = 50, k auto at delta = 0.1, Hamming
// radii 12..17, beta/alpha = 1. Paper shape: LSH ~ hybrid < linear at
// small radii; LSH degrades as r grows while hybrid converges to linear.
//
// Dataset substitution: MakeMnistLike (clustered near-binary vectors) ->
// the same 64-bit fingerprint pipeline; see DESIGN.md §2.

#include "bench_common.h"

using namespace hybridlsh;

int main(int argc, char** argv) {
  const bench::BenchScale scale = bench::GetScale(argc, argv);
  std::printf("# Figure 2(a): MNIST-like, Hamming distance on 64-bit "
              "SimHash fingerprints\n");
  bench::PrintScaleNote(scale);

  const size_t pixel_dim = 780;
  const data::DenseDataset pixels =
      data::MakeMnistLike(scale.N(60000, 2), pixel_dim, 10, /*seed=*/201);
  const lsh::Fingerprinter fingerprinter(pixel_dim, 64, /*seed=*/202);
  auto codes = fingerprinter.Transform(pixels);
  HLSH_CHECK(codes.ok());
  const data::BinarySplit split =
      data::SplitQueriesBinary(*codes, scale.num_queries, /*seed=*/203);
  std::printf("# n=%zu queries=%zu width=64 L=50 delta=0.1 beta/alpha=1\n",
              split.base.size(), split.queries.size());

  const size_t words = split.base.words_per_code();
  const uint64_t* probe_query = split.queries.point(0);
  const core::CostModel model = bench::CalibratedModel(
      [&](size_t i) {
        return static_cast<double>(
            data::HammingDistance(split.base.point(i), probe_query, words));
      },
      std::min<size_t>(10000, split.base.size()), split.base.size(),
      /*paper_ratio=*/1.0);
  bench::PrintFig2Header();
  for (uint32_t radius = 12; radius <= 17; ++radius) {
    engine::EngineOptions options;
    options.num_tables = 50;
    options.delta = 0.1;
    options.radius = radius;
    options.seed = 204;
    options.num_threads = 16;
    // Sketch buckets of >= 16 ids: bounds the query-time folding of
    // sketch-less buckets (see DESIGN.md ablation A4) at modest space cost.
    options.small_bucket_threshold = 16;

    const auto truth =
        data::GroundTruthBinary(split.base, split.queries, radius, 16);
    const auto result =
        bench::RunStrategies(lsh::BitSamplingFamily(64), split.base, options,
                             split.queries, radius, model, truth, scale.runs);
    bench::PrintFig2Row(radius, result);
  }
  return 0;
}
