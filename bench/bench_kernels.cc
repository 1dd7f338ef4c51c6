// Kernel-subsystem microbench: ns/distance per metric per SIMD tier, HLL
// register-op latency, and block-batched verification and score-pass
// throughput against the old per-id scalar baselines.
//
// One JSON object per line (comment lines carry context), the repo's
// machine-readable bench format. Row kinds:
//
//   {"bench":"kernels","kind":"distance","kernel":"l2sq","tier":"avx2",
//    "dim":64,"ns_per_distance":3.1}
//   {"bench":"kernels","kind":"projection","form":"blocked","tier":"avx2",
//    "dim":64,"k":16,"ns_per_signature":120.0,
//    "speedup_vs_scalar_single":5.1}
//   {"bench":"kernels","kind":"hll","op":"merge","tier":"avx2",
//    "precision":7,"ns_per_op":9.8}
//   {"bench":"kernels","kind":"verify","metric":"L2","tier":"avx2",
//    "dim":64,"ids":20000,"mcand_per_sec":311.2,
//    "speedup_vs_per_id_scalar":4.7}
//   {"bench":"kernels","kind":"verify_quantized","metric":"L2","tier":"avx2",
//    "dim":64,"ids":20000,"mcand_per_sec":620.0,
//    "speedup_vs_float_block":2.1,"borderline_pct":0.4}
//   {"bench":"kernels","kind":"score","metric":"L2","tier":"avx2",
//    "dim":64,"ids":50000,"mcand_per_sec":40.0,
//    "speedup_vs_per_id_scalar":5.0}
//
// The verify baseline ("tier":"per_id_scalar") re-creates the pre-kernel
// hot path: one data/metric.h call per candidate, no blocking, no
// prefetch, sqrt per L2 candidate. The verify rows run at a radius where
// almost nothing reports, and again (rows with "shape":"dense_core") at an
// L2 radius where about 30% of the candidates report, the shape of a
// linear scan inside a near-duplicate core. The score rows time a fused
// query's score stage the same way: the per-hit data::L2Distance reference
// it ran before ("tier":"per_id_scalar") against the block score pass
// (ScoreBlock plus the key-to-distance map) on each tier. The committed
// BENCH_kernels.json tracks these rows, and CI's regression step gates
// them.

#include <algorithm>
#include <cmath>
#include <limits>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/kernels.h"
#include "data/metric.h"
#include "util/simd.h"

using namespace hybridlsh;

namespace {

constexpr size_t kDim = 64;

/// Tiers the bench machine supports, scalar first (util/simd.h).
std::vector<util::simd::Tier> SupportedTiers() {
  return util::simd::SupportedTiers();
}

/// Keeps results observable so the kernel calls cannot be optimized away.
volatile float g_sink_f = 0;
volatile double g_sink_d = 0;
volatile uint32_t g_sink_u = 0;

/// Times `fn` with one untimed warm-up call followed by `runs` timed calls
/// and returns the MEDIAN elapsed seconds. The warm-up pulls the touched
/// pages into cache and absorbs the first-run frequency ramp; the median
/// drops the stray slow run that a mean would fold in. Both matter: the
/// committed BENCH_kernels.json is a 30%-threshold CI regression gate, and
/// without them whichever path runs first pre-warms the next one's data
/// while paying the cold-miss bill itself.
template <typename Fn>
double MedianSeconds(int runs, Fn&& fn) {
  fn();  // warm-up, untimed
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(runs));
  for (int run = 0; run < runs; ++run) {
    util::WallTimer timer;
    fn();
    samples.push_back(timer.ElapsedSeconds());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Min-of-runs variant for the register-resident distance/HLL loops. Those
/// loops touch no new memory once warm, so every disturbance (scheduler,
/// frequency dip) only ADDS time — the minimum is the standard estimator
/// of the true cost and is far more stable than a median on a shared host.
/// The verify benches stay on the median: they are memory-bound, and a
/// lucky fully-cached run is not the number to commit.
template <typename Fn>
double MinSeconds(int runs, Fn&& fn) {
  fn();  // warm-up, untimed
  double best = std::numeric_limits<double>::infinity();
  for (int run = 0; run < runs; ++run) {
    util::WallTimer timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

void BenchDistanceKernels(const data::DenseDataset& rows, size_t reps) {
  const size_t n = rows.size();
  for (const util::simd::Tier tier : SupportedTiers()) {
    const core::kernels::KernelTable& table =
        core::kernels::KernelsForTier(tier);
    const struct {
      const char* name;
      float (*fn)(const float*, const float*, size_t);
    } kernels[] = {{"l1", table.l1},
                   {"l2sq", table.l2sq},
                   {"dot", table.dot},
                   {"cosine", table.cosine}};
    for (const auto& k : kernels) {
      const double seconds = MinSeconds(5, [&] {
        float sink = 0;
        for (size_t r = 0; r < reps; ++r) {
          sink += k.fn(rows.point(r % n), rows.point((r * 7 + 1) % n), kDim);
        }
        g_sink_f = g_sink_f + sink;
      });
      const double ns = seconds * 1e9 / static_cast<double>(reps);
      std::printf(
          "{\"bench\":\"kernels\",\"kind\":\"distance\",\"kernel\":\"%s\","
          "\"tier\":\"%s\",\"dim\":%zu,\"ns_per_distance\":%.2f}\n",
          k.name, std::string(util::simd::TierName(table.tier)).c_str(), kDim,
          ns);
    }
  }
}

void BenchHammingKernel(size_t reps) {
  const data::BinaryDataset codes = data::MakeRandomCodes(4096, 256, 101);
  const size_t n = codes.size();
  const size_t words = codes.words_per_code();
  for (const util::simd::Tier tier : SupportedTiers()) {
    const core::kernels::KernelTable& table =
        core::kernels::KernelsForTier(tier);
    const double seconds = MinSeconds(5, [&] {
      uint32_t sink = 0;
      for (size_t r = 0; r < reps; ++r) {
        sink += table.hamming(codes.point(r % n), codes.point((r * 7 + 1) % n),
                              words);
      }
      g_sink_u = g_sink_u + sink;
    });
    const double ns = seconds * 1e9 / static_cast<double>(reps);
    std::printf(
        "{\"bench\":\"kernels\",\"kind\":\"distance\",\"kernel\":\"hamming\","
        "\"tier\":\"%s\",\"dim\":%zu,\"ns_per_distance\":%.2f}\n",
        std::string(util::simd::TierName(table.tier)).c_str(), words * 64, ns);
  }
}

void BenchHllKernels(size_t reps) {
  util::Rng rng(102);
  for (const int precision : {7, 14}) {
    const size_t m = size_t{1} << precision;
    std::vector<uint8_t> dst(m), src(m);
    for (size_t i = 0; i < m; ++i) {
      dst[i] = static_cast<uint8_t>(rng.NextU64() % 30);
      src[i] = static_cast<uint8_t>(rng.NextU64() % 30);
    }
    for (const util::simd::Tier tier : SupportedTiers()) {
      const core::kernels::KernelTable& table =
          core::kernels::KernelsForTier(tier);
      {
        const double seconds = MinSeconds(5, [&] {
          for (size_t r = 0; r < reps; ++r) {
            table.hll_merge(dst.data(), src.data(), m);
          }
        });
        const double ns = seconds * 1e9 / static_cast<double>(reps);
        std::printf(
            "{\"bench\":\"kernels\",\"kind\":\"hll\",\"op\":\"merge\","
            "\"tier\":\"%s\",\"precision\":%d,\"ns_per_op\":%.2f}\n",
            std::string(util::simd::TierName(table.tier)).c_str(), precision,
            ns);
      }
      {
        const double seconds = MinSeconds(5, [&] {
          double sink = 0;
          size_t zeros = 0;
          for (size_t r = 0; r < reps; ++r) {
            sink += table.hll_sum(dst.data(), m, &zeros);
          }
          g_sink_d = g_sink_d + sink;
        });
        const double ns = seconds * 1e9 / static_cast<double>(reps);
        std::printf(
            "{\"bench\":\"kernels\",\"kind\":\"hll\",\"op\":\"fused_sum\","
            "\"tier\":\"%s\",\"precision\":%d,\"ns_per_op\":%.2f}\n",
            std::string(util::simd::TierName(table.tier)).c_str(), precision,
            ns);
      }
    }
  }
}

void BenchProjectionKernels(size_t reps) {
  // S1 cost per signature (k = 16 projections of one query), per tier and
  // per kernel form. "single" is the per-query matvec the plan path runs on
  // Query; "blocked" is the GEMM-shaped multi-query form QueryBatch pushes
  // whole batches through — same bits, each matrix row streamed once and
  // served to every query from registers. speedup_vs_scalar_single anchors
  // every row to the scalar per-query cost at the same dim.
  constexpr size_t kProjK = 16;
  constexpr size_t kBatch = 16;
  util::Rng rng(104);
  for (const size_t dim : {size_t{64}, size_t{256}, size_t{960}}) {
    std::vector<float> matrix(kProjK * dim);
    for (float& x : matrix) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
    std::vector<std::vector<float>> queries(kBatch);
    std::vector<const float*> query_ptrs(kBatch);
    for (size_t q = 0; q < kBatch; ++q) {
      queries[q].resize(dim);
      for (float& x : queries[q]) {
        x = static_cast<float>(rng.Uniform(-1.0, 1.0));
      }
      query_ptrs[q] = queries[q].data();
    }
    std::vector<float> out(kBatch * kProjK);
    const size_t rounds = std::max<size_t>(reps / (64 * kBatch), 1);

    double scalar_single_ns = 0.0;
    for (const util::simd::Tier tier : SupportedTiers()) {
      const core::kernels::ProjectionKernelTable& table =
          core::kernels::ProjectionKernelsForTier(tier);
      const double single_seconds = MinSeconds(5, [&] {
        float sink = 0;
        for (size_t r = 0; r < rounds; ++r) {
          for (size_t q = 0; q < kBatch; ++q) {
            table.matvec(matrix.data(), kProjK, dim, query_ptrs[q],
                         out.data() + q * kProjK);
          }
          sink += out[r % out.size()];
        }
        g_sink_f = g_sink_f + sink;
      });
      const double single_ns =
          single_seconds * 1e9 / static_cast<double>(rounds * kBatch);
      if (tier == util::simd::Tier::kScalar) scalar_single_ns = single_ns;
      std::printf(
          "{\"bench\":\"kernels\",\"kind\":\"projection\",\"form\":\"single\","
          "\"tier\":\"%s\",\"dim\":%zu,\"k\":%zu,\"ns_per_signature\":%.1f,"
          "\"speedup_vs_scalar_single\":%.2f}\n",
          std::string(util::simd::TierName(table.tier)).c_str(), dim, kProjK,
          single_ns, scalar_single_ns / single_ns);

      const double blocked_seconds = MinSeconds(5, [&] {
        float sink = 0;
        for (size_t r = 0; r < rounds; ++r) {
          table.matvec_block(matrix.data(), kProjK, dim, query_ptrs.data(),
                             kBatch, out.data());
          sink += out[r % out.size()];
        }
        g_sink_f = g_sink_f + sink;
      });
      const double blocked_ns =
          blocked_seconds * 1e9 / static_cast<double>(rounds * kBatch);
      std::printf(
          "{\"bench\":\"kernels\",\"kind\":\"projection\",\"form\":\"blocked\","
          "\"tier\":\"%s\",\"dim\":%zu,\"k\":%zu,\"ns_per_signature\":%.1f,"
          "\"speedup_vs_scalar_single\":%.2f}\n",
          std::string(util::simd::TierName(table.tier)).c_str(), dim, kProjK,
          blocked_ns, scalar_single_ns / blocked_ns);
    }
  }
}

/// The pre-kernel verification loop: one data/metric.h call per candidate.
size_t VerifyPerIdScalar(const data::DenseDataset& dataset, data::Metric metric,
                         const float* query, std::span<const uint32_t> ids,
                         double radius, std::vector<uint32_t>* out) {
  size_t reported = 0;
  for (const uint32_t id : ids) {
    double dist = 0;
    switch (metric) {
      case data::Metric::kL1:
        dist = data::L1Distance(dataset.point(id), query, kDim);
        break;
      case data::Metric::kL2:
        dist = data::L2Distance(dataset.point(id), query, kDim);
        break;
      default:
        dist = data::CosineDistance(dataset.point(id), query, kDim);
        break;
    }
    if (dist <= radius) {
      out->push_back(id);
      ++reported;
    }
  }
  return reported;
}

void BenchBlockVerify(const data::DenseDataset& dataset,
                      const data::QuantizedMirror* mirror, size_t num_ids,
                      int runs) {
  const util::simd::Tier entry_tier = util::simd::ResolvedTier();
  util::Rng rng(103);
  std::vector<uint32_t> ids(num_ids);
  for (uint32_t& id : ids) {
    id = static_cast<uint32_t>(rng.NextU64() % dataset.size());
  }
  const float* query = dataset.point(1);
  std::vector<uint32_t> out;
  out.reserve(num_ids);

  // The dense-core shape: a radius at which about 30% of the candidates
  // report, as in the linear scan of a query inside a near-duplicate core.
  // Taken from the candidates' own distance distribution; its rows carry
  // "shape":"dense_core".
  std::vector<double> distances(num_ids);
  for (size_t j = 0; j < num_ids; ++j) {
    distances[j] = data::L2Distance(query, dataset.point(ids[j]), kDim);
  }
  const size_t report_rank = num_ids * 3 / 10;
  std::nth_element(distances.begin(), distances.begin() + report_rank,
                   distances.end());
  const double dense_core_radius = distances[report_rank];
  std::printf("# dense_core: L2 radius %.4f, %.1f%% of candidates report\n",
              dense_core_radius,
              100.0 * static_cast<double>(core::kernels::VerifyBlock(
                          dataset, data::Metric::kL2, query, ids,
                          dense_core_radius, &out)) /
                  static_cast<double>(num_ids));

  const struct {
    data::Metric metric;
    double radius;
    const char* shape;  // printed as an identity field when set
  } cases[] = {{data::Metric::kL2, 0.45, nullptr},
               {data::Metric::kCosine, 0.10, nullptr},
               {data::Metric::kL2, dense_core_radius, "dense_core"}};

  for (const auto& c : cases) {
    const std::string shape =
        c.shape == nullptr ? "" : "\"shape\":\"" + std::string(c.shape) + "\",";
    // Baseline: the old per-candidate path, always scalar data/metric.h.
    const double baseline_seconds = MedianSeconds(runs, [&] {
      out.clear();
      g_sink_u = g_sink_u + static_cast<uint32_t>(VerifyPerIdScalar(
                                dataset, c.metric, query, ids, c.radius, &out));
    });
    const double baseline_mcand =
        static_cast<double>(num_ids) / baseline_seconds / 1e6;
    std::printf(
        "{\"bench\":\"kernels\",\"kind\":\"verify\",\"metric\":\"%s\","
        "\"tier\":\"per_id_scalar\",\"dim\":%zu,\"ids\":%zu,%s"
        "\"mcand_per_sec\":%.1f,\"speedup_vs_per_id_scalar\":1.00}\n",
        std::string(data::MetricName(c.metric)).c_str(), kDim, num_ids,
        shape.c_str(), baseline_mcand);

    for (const util::simd::Tier tier : SupportedTiers()) {
      util::simd::SetResolvedTierForTest(tier);
      const double seconds = MedianSeconds(runs, [&] {
        out.clear();
        g_sink_u =
            g_sink_u + static_cast<uint32_t>(core::kernels::VerifyBlock(
                           dataset, c.metric, query, ids, c.radius, &out));
      });
      const double mcand = static_cast<double>(num_ids) / seconds / 1e6;
      std::printf(
          "{\"bench\":\"kernels\",\"kind\":\"verify\",\"metric\":\"%s\","
          "\"tier\":\"%s\",\"dim\":%zu,\"ids\":%zu,%s"
          "\"mcand_per_sec\":%.1f,\"speedup_vs_per_id_scalar\":%.2f}\n",
          std::string(data::MetricName(c.metric)).c_str(),
          std::string(util::simd::TierName(tier)).c_str(), kDim, num_ids,
          shape.c_str(), mcand, baseline_seconds / seconds);

      // The quantized tier: int8 screen + exact borderline rescore,
      // bit-identical output to the float VerifyBlock above. Speedup is
      // reported against the float block path at the SAME simd tier.
      core::kernels::QuantizedScreenStats stats;
      const double q_seconds = MedianSeconds(runs, [&] {
        out.clear();
        g_sink_u = g_sink_u +
                   static_cast<uint32_t>(core::kernels::VerifyBlockQuantized(
                       dataset, *mirror, c.metric, query, ids, c.radius, &out,
                       &stats));
      });
      const double q_mcand = static_cast<double>(num_ids) / q_seconds / 1e6;
      const double borderline_pct =
          stats.screened == 0
              ? 100.0
              : 100.0 * static_cast<double>(stats.borderline) /
                    static_cast<double>(stats.screened);
      std::printf(
          "{\"bench\":\"kernels\",\"kind\":\"verify_quantized\","
          "\"metric\":\"%s\",\"tier\":\"%s\",\"dim\":%zu,\"ids\":%zu,%s"
          "\"mcand_per_sec\":%.1f,\"speedup_vs_float_block\":%.2f,"
          "\"borderline_pct\":%.2f}\n",
          std::string(data::MetricName(c.metric)).c_str(),
          std::string(util::simd::TierName(tier)).c_str(), kDim, num_ids,
          shape.c_str(), q_mcand, seconds / q_seconds, borderline_pct);
    }
    util::simd::SetResolvedTierForTest(entry_tier);
  }
}

/// A fused query's score stage over hits gathered from a large dataset:
/// the per-hit scalar reference the engine scored with before (one
/// data::L2Distance call per hit, no blocking, no prefetch) against the
/// block score pass on each tier (ScoreBlock's squared-distance keys, then
/// KeyToDistance per key, as the engine maps them after its carve). Each
/// round times the reference and then every tier back to back, and a row's
/// speedup is the median of its per-round ratios: on a shared host a slow
/// phase then slows both sides of a ratio rather than one.
void BenchScorePass(const data::DenseDataset& dataset, size_t num_ids,
                    int runs) {
  const util::simd::Tier entry_tier = util::simd::ResolvedTier();
  util::Rng rng(105);
  std::vector<uint32_t> ids(num_ids);
  for (uint32_t& id : ids) {
    id = static_cast<uint32_t>(rng.NextU64() % dataset.size());
  }
  const float* query = dataset.point(1);
  std::vector<double> scores(num_ids);
  const auto reference = [&] {
    for (size_t k = 0; k < num_ids; ++k) {
      scores[k] = data::L2Distance(query, dataset.point(ids[k]), kDim);
    }
    g_sink_d = g_sink_d + scores[num_ids / 2];
  };
  const auto block_pass = [&] {
    core::kernels::ScoreBlock(dataset, data::Metric::kL2, query, ids,
                              scores.data());
    for (double& score : scores) {
      score = core::kernels::KeyToDistance(data::Metric::kL2, score);
    }
    g_sink_d = g_sink_d + scores[num_ids / 2];
  };
  const auto seconds_of = [](const auto& fn) {
    util::WallTimer timer;
    fn();
    return timer.ElapsedSeconds();
  };

  const std::vector<util::simd::Tier> tiers = SupportedTiers();
  std::vector<double> reference_seconds;
  std::vector<std::vector<double>> tier_seconds(tiers.size());
  std::vector<std::vector<double>> ratios(tiers.size());
  for (int run = -1; run < runs; ++run) {  // run -1 warms every path up
    const double base = seconds_of(reference);
    for (size_t t = 0; t < tiers.size(); ++t) {
      util::simd::SetResolvedTierForTest(tiers[t]);
      const double seconds = seconds_of(block_pass);
      if (run < 0) continue;
      tier_seconds[t].push_back(seconds);
      ratios[t].push_back(base / seconds);
    }
    if (run >= 0) reference_seconds.push_back(base);
  }
  util::simd::SetResolvedTierForTest(entry_tier);

  const double mcand = static_cast<double>(num_ids) / 1e6;
  std::printf(
      "{\"bench\":\"kernels\",\"kind\":\"score\",\"metric\":\"L2\","
      "\"tier\":\"per_id_scalar\",\"dim\":%zu,\"ids\":%zu,"
      "\"mcand_per_sec\":%.1f,\"speedup_vs_per_id_scalar\":1.00}\n",
      kDim, num_ids, mcand / util::Percentile(reference_seconds, 0.5));
  for (size_t t = 0; t < tiers.size(); ++t) {
    std::printf(
        "{\"bench\":\"kernels\",\"kind\":\"score\",\"metric\":\"L2\","
        "\"tier\":\"%s\",\"dim\":%zu,\"ids\":%zu,"
        "\"mcand_per_sec\":%.1f,\"speedup_vs_per_id_scalar\":%.2f}\n",
        std::string(util::simd::TierName(tiers[t])).c_str(), kDim, num_ids,
        mcand / util::Percentile(tier_seconds[t], 0.5),
        util::Percentile(ratios[t], 0.5));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchScale scale = bench::GetScale(argc, argv);
  std::printf("# Kernel subsystem: ns/distance per metric per tier, HLL "
              "register ops, block-verify throughput vs per-id scalar\n");
  bench::PrintScaleNote(scale);
  std::printf("# resolved tier: %s (max supported: %s, override: HLSH_SIMD)\n",
              std::string(util::simd::TierName(util::simd::ResolvedTier()))
                  .c_str(),
              std::string(util::simd::TierName(util::simd::MaxSupportedTier()))
                  .c_str());

  const size_t reps = scale.full ? 2000000 : 400000;
  // Small pair-kernel dataset: the distance rows measure register-level
  // kernel latency, so a cache-resident set is what we want there.
  data::DenseDataset kernel_rows =
      data::MakeCorelLike(scale.N(65536, 8), kDim, 100);

  BenchDistanceKernels(kernel_rows, reps);
  BenchHammingKernel(reps);
  BenchProjectionKernels(reps);
  BenchHllKernels(scale.full ? 400000 : 100000);

  // The verify rows deliberately dwarf the last-level cache (quick mode:
  // 512Ki x 64 floats = 128 MiB). Candidate verification in a serving
  // engine gathers rows from a dataset far bigger than L3, so the float
  // path is DRAM-bandwidth-bound — the regime the int8 mirror (4x fewer
  // bytes, and often L3-resident where the floats cannot be) is built for.
  // A cache-resident verify bench would hide exactly that difference.
  // Norms precomputed as a served read-only cosine dataset would be.
  data::DenseDataset verify_rows =
      data::MakeCorelLike(scale.N(1048576, 2), kDim, 100);
  verify_rows.PrecomputeNorms();
  const data::QuantizedMirror mirror = data::QuantizedMirror::Build(verify_rows);
  BenchBlockVerify(verify_rows, &mirror, scale.full ? 200000 : 50000,
                   scale.full ? 5 : 3);
  BenchScorePass(verify_rows, scale.full ? 200000 : 50000, 11);
  return 0;
}
