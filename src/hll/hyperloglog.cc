#include "hll/hyperloglog.h"

#include <cmath>
#include <cstring>

#include "util/simd.h"

namespace hybridlsh {
namespace hll {

HyperLogLog::HyperLogLog(int precision)
    : precision_(precision),
      registers_(static_cast<size_t>(1) << precision, 0) {
  HLSH_CHECK(precision >= kMinPrecision && precision <= kMaxPrecision);
}

util::StatusOr<HyperLogLog> HyperLogLog::Create(int precision) {
  if (precision < kMinPrecision || precision > kMaxPrecision) {
    return util::Status::InvalidArgument(
        "HyperLogLog precision must be in [4, 18]");
  }
  return HyperLogLog(precision);
}

double HyperLogLog::Alpha(size_t m) {
  switch (m) {
    case 16:
      return 0.673;
    case 32:
      return 0.697;
    case 64:
      return 0.709;
    default:
      return 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  }
}

double HyperLogLog::Estimate() const {
  // Fused sum-of-2^-M + zero count in one dispatched pass (util/simd.h).
  // Every tier follows the same canonical accumulation order, so the
  // estimate — and through it the hybrid LSH-vs-linear decision — is
  // bit-identical whether the process runs scalar-forced or vectorized.
  const size_t m = registers_.size();
  size_t zeros = 0;
  const double sum =
      util::simd::HllRegisterSum(registers_.data(), m, &zeros);
  const double md = static_cast<double>(m);
  const double raw = Alpha(m) * md * md / sum;
  if (raw <= 2.5 * md && zeros > 0) {
    // Linear counting is more accurate in the small range.
    return md * std::log(md / static_cast<double>(zeros));
  }
  return raw;
}

util::Status HyperLogLog::Merge(const HyperLogLog& other) {
  if (precision_ != other.precision_) {
    return util::Status::FailedPrecondition(
        "cannot merge HyperLogLogs of different precision");
  }
  util::simd::HllMergeMax(registers_.data(), other.registers_.data(),
                          registers_.size());
  return util::Status::Ok();
}

void HyperLogLog::Clear() {
  std::fill(registers_.begin(), registers_.end(), 0);
}

double HyperLogLog::StandardError() const {
  return 1.04 / std::sqrt(static_cast<double>(registers_.size()));
}

std::vector<uint8_t> HyperLogLog::Serialize() const {
  std::vector<uint8_t> out;
  out.reserve(1 + registers_.size());
  out.push_back(static_cast<uint8_t>(precision_));
  out.insert(out.end(), registers_.begin(), registers_.end());
  return out;
}

util::StatusOr<HyperLogLog> HyperLogLog::Deserialize(
    std::span<const uint8_t> bytes) {
  if (bytes.empty()) {
    return util::Status::DataLoss("empty HyperLogLog buffer");
  }
  const int precision = bytes[0];
  if (precision < kMinPrecision || precision > kMaxPrecision) {
    return util::Status::DataLoss("HyperLogLog buffer has invalid precision");
  }
  const size_t m = static_cast<size_t>(1) << precision;
  if (bytes.size() != 1 + m) {
    return util::Status::DataLoss("HyperLogLog buffer has wrong length");
  }
  // Max attainable rank: 64 - precision + 1 (sentinel caps the zero run).
  const uint8_t max_rank = static_cast<uint8_t>(64 - precision + 1);
  HyperLogLog sketch(precision);
  for (size_t i = 0; i < m; ++i) {
    const uint8_t reg = bytes[1 + i];
    if (reg > max_rank) {
      return util::Status::DataLoss("HyperLogLog register value out of range");
    }
    sketch.registers_[i] = reg;
  }
  return sketch;
}

}  // namespace hll
}  // namespace hybridlsh
