// Ablation A6: covering LSH + hybrid search (paper §5's second "future
// work" integration) against classic bit-sampling LSH at equal probe work.
//
// Covering LSH guarantees zero false negatives for Hamming distance <= r
// using 2^(r+1) - 1 correlated tables. With per-bucket HLLs it plugs into
// the same hybrid machinery, yielding an *exact* rNNR structure whose
// hard queries still fall back to (equally exact) linear scan. This bench
// compares, at matched table counts: recall (covering must be 1.0), query
// time, and memory.

#include "bench_common.h"

using namespace hybridlsh;

int main(int argc, char** argv) {
  const bench::BenchScale scale = bench::GetScale(argc, argv);
  std::printf("# Ablation A6: covering LSH vs classic LSH (64-bit codes)\n");
  bench::PrintScaleNote(scale);

  const data::DenseDataset pixels =
      data::MakeMnistLike(scale.N(60000, 2), 780, 10, 201);
  const lsh::Fingerprinter fingerprinter(780, 64, 202);
  auto codes = fingerprinter.Transform(pixels);
  HLSH_CHECK(codes.ok());
  const data::BinarySplit split =
      data::SplitQueriesBinary(*codes, scale.num_queries, 203);

  const uint64_t* probe = split.queries.point(0);
  const core::CostModel model = bench::CalibratedModel(
      [&](size_t i) {
        return static_cast<double>(
            data::HammingDistance(split.base.point(i), probe, 1));
      },
      std::min<size_t>(10000, split.base.size()), split.base.size(), 1.0);

  std::printf("# %-7s %-10s %-8s %-12s %-10s %-12s %-8s\n", "radius", "scheme",
              "tables", "time_s", "recall", "memory_MiB", "%LS");
  for (uint32_t radius : {4u, 5u, 6u}) {
    const auto truth =
        data::GroundTruthBinary(split.base, split.queries, radius, 16);

    auto print_row = [&](const char* scheme, int tables,
                         const bench::StrategyResult& result) {
      std::printf("  %-7u %-10s %-8d %-12.5f %-10.3f %-12.2f %-8.1f\n", radius,
                  scheme, tables, result.hybrid_seconds, result.hybrid_recall,
                  static_cast<double>(result.table_bytes) / (1024.0 * 1024.0),
                  result.pct_linear_calls);
    };

    // Covering LSH: 2^(r+1)-1 tables, deterministic guarantee.
    const lsh::CoveringFamily covering(64, radius, /*seed=*/204);
    engine::EngineOptions options;
    options.num_tables = covering.num_tables();
    options.seed = 204;
    options.num_threads = 16;
    options.small_bucket_threshold = 16;
    print_row("covering", options.num_tables,
              bench::RunStrategies(covering, split.base, options,
                                   split.queries, radius, model, truth,
                                   scale.runs));

    // Classic bit sampling with the same number of tables.
    engine::EngineOptions classic;
    classic.num_tables = covering.num_tables();
    classic.delta = 0.1;
    classic.radius = radius;
    classic.seed = 205;
    classic.num_threads = 16;
    classic.small_bucket_threshold = 16;
    print_row("classic", classic.num_tables,
              bench::RunStrategies(lsh::BitSamplingFamily(64), split.base,
                                   classic, split.queries, radius, model,
                                   truth, scale.runs));
  }
  std::printf("#\n# Expectation: covering recall = 1.000 exactly at every\n"
              "# radius (classic < 1); comparable table counts and times.\n");
  return 0;
}
