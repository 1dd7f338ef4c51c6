#include "core/cost_model.h"

#include <algorithm>
#include <span>

#include "util/bit_vector.h"
#include "util/random.h"
#include "util/timer.h"

namespace hybridlsh {
namespace core {

util::StatusOr<double> CostCalibrator::MeasureAlpha(size_t capacity,
                                                    size_t ops, uint64_t seed,
                                                    int repetitions) {
  if (capacity == 0) {
    return util::Status::InvalidArgument(
        "cannot calibrate alpha over an empty id space");
  }
  if (ops == 0 || repetitions <= 0) {
    return util::Status::InvalidArgument(
        "calibration needs ops > 0 and repetitions > 0");
  }
  // Pre-generate the id stream so the timed loop measures only the insert.
  util::Rng rng(seed);
  std::vector<uint32_t> ids(ops);
  for (auto& id : ids) {
    id = static_cast<uint32_t>(rng.UniformInt(0, static_cast<int64_t>(capacity) - 1));
  }
  // Price the span-batched dedup the collect path actually runs: the
  // plan-based walk (lsh::CollectResolvedIds) hands VisitedSet whole
  // buckets via InsertSpan, not one Insert call per collision. Feed the
  // stream in small-bucket-sized chunks so alpha reflects the amortized
  // per-id cost.
  constexpr size_t kSpan = 8;
  util::VisitedSet visited(capacity);
  const std::span<const uint32_t> stream(ids);
  double best = 1e300;
  for (int rep = 0; rep < repetitions; ++rep) {
    visited.Reset();
    util::WallTimer timer;
    size_t i = 0;
    for (; i + kSpan <= ops; i += kSpan) {
      visited.InsertSpan(stream.subspan(i, kSpan));
    }
    if (i < ops) visited.InsertSpan(stream.subspan(i));
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best / static_cast<double>(ops);
}

util::StatusOr<double> CostCalibrator::MeasureBeta(
    const std::function<double(size_t)>& distance_fn, size_t n,
    size_t sample_size, size_t ops, int repetitions) {
  // A sample larger than the dataset would index distance_fn out of range;
  // an empty one would take i % 0. Clamp, then reject emptiness.
  sample_size = std::min(sample_size, n);
  if (sample_size == 0) {
    return util::Status::InvalidArgument(
        "cannot calibrate beta on an empty sample");
  }
  if (ops == 0 || repetitions <= 0) {
    return util::Status::InvalidArgument(
        "calibration needs ops > 0 and repetitions > 0");
  }
  double sink = 0.0;
  double best = 1e300;
  for (int rep = 0; rep < repetitions; ++rep) {
    util::WallTimer timer;
    for (size_t i = 0; i < ops; ++i) {
      sink += distance_fn(i % sample_size);
    }
    best = std::min(best, timer.ElapsedSeconds());
  }
  // Keep the accumulated distances alive past optimization.
  asm volatile("" : "+r"(sink));
  return best / static_cast<double>(ops);
}

util::StatusOr<CostModel> CostCalibrator::Calibrate(
    const std::function<double(size_t)>& distance_fn, size_t n,
    size_t sample_size, size_t dedup_capacity, size_t ops, uint64_t seed) {
  CostModel model;
  auto alpha = MeasureAlpha(dedup_capacity, ops, seed);
  if (!alpha.ok()) return alpha.status();
  model.alpha = *alpha;
  // Distance computations are slower; fewer reps suffice for stable means.
  auto beta = MeasureBeta(distance_fn, n, sample_size,
                          std::max<size_t>(ops / 10, 1));
  if (!beta.ok()) return beta.status();
  model.beta = *beta;
  return model;
}

}  // namespace core
}  // namespace hybridlsh
