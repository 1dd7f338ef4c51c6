#include "data/quantized.h"

#include <cmath>
#include <cstdint>
#include <vector>

namespace hybridlsh {
namespace data {

namespace {

constexpr uint64_t kMirrorMagic = 0x31726f7272696d71ull;  // "qmirror1"

}  // namespace

QuantizedMirror QuantizedMirror::Build(const DenseDataset& dataset) {
  QuantizedMirror mirror;
  const size_t dim = dataset.dim();
  if (dim == 0 || dim > kMaxDim) return mirror;
  mirror.dim_ = dim;

  // Calibrate: the scale comes from the data's own maximum, so no
  // calibrated element is ever clamped and |x - scale*q| <= scale/2 holds
  // for every element the error bound covers.
  double max_abs = 0.0;
  const size_t n = dataset.size();
  for (size_t i = 0; i < n; ++i) {
    const float* point = dataset.point(i);
    for (size_t d = 0; d < dim; ++d) {
      const double a = std::fabs(static_cast<double>(point[d]));
      if (std::isfinite(a) && a > max_abs) max_abs = a;
    }
  }
  mirror.scale_ = max_abs / 127.0;

  mirror.codes_.Reserve(n * dim);
  mirror.exact_only_.Reserve(n);
  for (size_t i = 0; i < n; ++i) mirror.AppendRow(dataset.point(i));
  return mirror;
}

void QuantizedMirror::AppendRow(const float* point) {
  if (dim_ == 0) return;
  thread_local std::vector<int8_t> staged;
  staged.resize(dim_);
  uint8_t exact_only = scale_ > 0.0 ? 0 : 1;
  const double inv = scale_ > 0.0 ? 1.0 / scale_ : 0.0;
  for (size_t d = 0; d < dim_; ++d) {
    const double x = static_cast<double>(point[d]);
    if (!std::isfinite(x)) {
      staged[d] = 0;
      exact_only = 1;
      continue;
    }
    const double scaled = x * inv;
    if (std::fabs(scaled) >= 127.5) {
      // Rounds outside [-127, 127]: outside the calibrated range (a
      // post-calibration insert). Clamp and route this row to the exact
      // rescore unconditionally.
      staged[d] = static_cast<int8_t>(scaled > 0 ? 127 : -127);
      exact_only = 1;
    } else {
      staged[d] = static_cast<int8_t>(std::llround(scaled));
    }
  }
  // Codes first, counter, flag last: the acquire-loaded flag count is the
  // reader-visible row count, so observing row i implies its codes AND a
  // counter that already includes row i's flag.
  codes_.Append(staged.data(), dim_);
  if (exact_only != 0) {
    std::atomic_ref<size_t>(exact_count_)
        .fetch_add(1, std::memory_order_relaxed);
  }
  exact_only_.PushBack(exact_only);
}

void QuantizedMirror::Save(util::ByteWriter* writer) const {
  writer->WriteU64(kMirrorMagic);
  writer->WriteU64(static_cast<uint64_t>(dim_));
  writer->WriteF64(scale_);
  writer->WriteU64(static_cast<uint64_t>(size()));
  writer->WriteArray<int8_t>(codes_.span());
  writer->WriteArray<uint8_t>(exact_only_.span());
}

util::StatusOr<QuantizedMirror> QuantizedMirror::Load(
    util::ByteReader* reader, size_t expect_dim, size_t expect_rows_max) {
  uint64_t magic = 0, dim = 0, rows = 0;
  double scale = 0.0;
  HLSH_RETURN_IF_ERROR(reader->ReadU64(&magic));
  if (magic != kMirrorMagic) {
    return util::Status::DataLoss("quantized mirror: bad magic");
  }
  HLSH_RETURN_IF_ERROR(reader->ReadU64(&dim));
  HLSH_RETURN_IF_ERROR(reader->ReadF64(&scale));
  HLSH_RETURN_IF_ERROR(reader->ReadU64(&rows));
  if (dim == 0 || dim > kMaxDim || dim != expect_dim) {
    return util::Status::DataLoss("quantized mirror: dim mismatch");
  }
  if (rows > expect_rows_max || !std::isfinite(scale) || scale < 0.0) {
    return util::Status::DataLoss("quantized mirror: invalid header");
  }
  std::vector<int8_t> codes;
  std::vector<uint8_t> flags;
  HLSH_RETURN_IF_ERROR(
      reader->ReadArray<int8_t>(static_cast<size_t>(rows * dim), &codes));
  HLSH_RETURN_IF_ERROR(
      reader->ReadArray<uint8_t>(static_cast<size_t>(rows), &flags));
  QuantizedMirror mirror;
  mirror.dim_ = dim;
  mirror.scale_ = scale;
  for (const uint8_t flag : flags) {
    if (flag != 0) ++mirror.exact_count_;
  }
  mirror.codes_.Assign(codes);
  mirror.exact_only_.Assign(flags);
  return mirror;
}

}  // namespace data
}  // namespace hybridlsh
