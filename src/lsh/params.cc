#include "lsh/params.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace hybridlsh {
namespace lsh {
namespace {

// Standard normal CDF at x.
double NormalCdf(double x) { return 0.5 * std::erfc(-x / std::numbers::sqrt2); }

}  // namespace

double GaussianCollisionProbability(double dist, double w) {
  HLSH_CHECK(w > 0);
  if (dist <= 0) return 1.0;
  const double t = w / dist;
  const double p = 1.0 - 2.0 * NormalCdf(-t) -
                   2.0 / (std::sqrt(2.0 * std::numbers::pi) * t) *
                       (1.0 - std::exp(-t * t / 2.0));
  return std::clamp(p, 0.0, 1.0);
}

double CauchyCollisionProbability(double dist, double w) {
  HLSH_CHECK(w > 0);
  if (dist <= 0) return 1.0;
  const double t = w / dist;
  const double p = 2.0 * std::atan(t) / std::numbers::pi -
                   std::log(1.0 + t * t) / (std::numbers::pi * t);
  return std::clamp(p, 0.0, 1.0);
}

double SimHashCollisionProbability(double cosine_dist) {
  const double cos_sim = std::clamp(1.0 - cosine_dist, -1.0, 1.0);
  return 1.0 - std::acos(cos_sim) / std::numbers::pi;
}

double BitSamplingCollisionProbability(double hamming_dist, double width_bits) {
  HLSH_CHECK(width_bits > 0);
  return std::clamp(1.0 - hamming_dist / width_bits, 0.0, 1.0);
}

double MinHashCollisionProbability(double jaccard_dist) {
  return std::clamp(1.0 - jaccard_dist, 0.0, 1.0);
}

util::StatusOr<int> AutoK(double p1, int num_tables, double delta) {
  if (num_tables < 1) {
    return util::Status::InvalidArgument("num_tables must be >= 1");
  }
  // Written so that NaN fails each check.
  if (!(delta > 0.0 && delta < 1.0)) {
    return util::Status::InvalidArgument("delta must be in (0, 1)");
  }
  if (!(p1 > 0.0)) {
    return util::Status::InvalidArgument(
        "collision probability at radius must be > 0");
  }
  if (p1 >= 1.0) return 1;  // colliding surely; one hash suffices
  // target: p1^k >= 1 - delta^(1/L)  <=>  k <= log(1 - delta^(1/L)) / log p1.
  const double target =
      1.0 - std::pow(delta, 1.0 / static_cast<double>(num_tables));
  const double k = std::log(target) / std::log(p1);
  // The paper (and E2LSH) rounds up; guard against k < 1.
  return std::max(1, static_cast<int>(std::ceil(k - 1e-9)));
}

double RecallLowerBound(int k, int num_tables, double p1) {
  p1 = std::clamp(p1, 0.0, 1.0);
  const double per_table = std::pow(p1, k);
  return 1.0 - std::pow(1.0 - per_table, num_tables);
}

}  // namespace lsh
}  // namespace hybridlsh
