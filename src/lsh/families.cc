#include "lsh/families.h"

#include <bit>
#include <cmath>
#include <limits>

#include "core/kernels.h"
#include "lsh/params.h"
#include "util/hash.h"

namespace hybridlsh {
namespace lsh {

namespace {

// The dense families' signature paths project through the dispatched
// matvec kernels (core/kernels.h). k is small (paper: 7-8), so the raw
// projections live on the stack unless a caller samples an unusually wide
// signature.
constexpr size_t kStackProjections = 64;

struct ProjBuffer {
  float stack[kStackProjections];
  std::vector<float> heap;

  float* Acquire(size_t k) {
    if (k <= kStackProjections) return stack;
    heap.resize(k);
    return heap.data();
  }
};

/// A p-stable slot from its floored window value. Casting a double outside
/// the int32 range is undefined, so every such value (the window of a huge
/// coordinate, or NaN, which fails both compares) maps to INT32_MIN
/// instead; in-range values cast unchanged.
int32_t SlotFromFloor(double floor_value) {
  if (floor_value >= -2147483648.0 && floor_value < 2147483648.0) {
    return static_cast<int32_t>(floor_value);
  }
  return std::numeric_limits<int32_t>::min();
}

}  // namespace

// --- SimHashFamily ----------------------------------------------------------

SimHashFamily::Functions SimHashFamily::Sample(size_t k, util::Rng* rng) const {
  Functions fns{util::FloatMatrix(k, dim_)};
  for (size_t i = 0; i < k; ++i) {
    float* row = fns.hyperplanes.MutableRow(i);
    for (size_t j = 0; j < dim_; ++j) {
      row[j] = static_cast<float>(rng->Gaussian());
    }
  }
  return fns;
}

void SimHashFamily::Signature(const Functions& fns, Point point,
                              std::span<int32_t> slots) const {
  const size_t k = slots.size();
  HLSH_DCHECK(fns.hyperplanes.rows() == k);
  if (k == 0) return;
  ProjBuffer buffer;
  float* proj = buffer.Acquire(k);
  core::kernels::ProjectionKernels().matvec(fns.hyperplanes.Row(0), k, dim_,
                                            point, proj);
  SignatureFromProjections(fns, {proj, k}, slots);
}

void SimHashFamily::SignatureWithProbeCosts(const Functions& fns, Point point,
                                            std::span<int32_t> slots,
                                            std::span<double> flip_costs) const {
  const size_t k = slots.size();
  HLSH_DCHECK(flip_costs.size() == k);
  if (k == 0) return;
  ProjBuffer buffer;
  float* proj = buffer.Acquire(k);
  core::kernels::ProjectionKernels().matvec(fns.hyperplanes.Row(0), k, dim_,
                                            point, proj);
  SignatureWithProbeCostsFromProjections(fns, {proj, k}, slots, flip_costs);
}

void SimHashFamily::ProjectBatch(const Functions& fns, const Point* points,
                                 size_t count, std::span<float> proj) const {
  const size_t k = fns.hyperplanes.rows();
  HLSH_DCHECK(proj.size() == k * count);
  if (k == 0 || count == 0) return;
  core::kernels::ProjectionKernels().matvec_block(fns.hyperplanes.Row(0), k,
                                                  dim_, points, count,
                                                  proj.data());
}

void SimHashFamily::SignatureFromProjections(const Functions& fns,
                                             std::span<const float> proj,
                                             std::span<int32_t> slots) const {
  (void)fns;
  const size_t k = slots.size();
  HLSH_DCHECK(proj.size() == k);
  for (size_t i = 0; i < k; ++i) slots[i] = proj[i] >= 0.0f;
}

void SimHashFamily::SignatureWithProbeCostsFromProjections(
    const Functions& fns, std::span<const float> proj,
    std::span<int32_t> slots, std::span<double> flip_costs) const {
  (void)fns;
  const size_t k = slots.size();
  HLSH_DCHECK(proj.size() == k && flip_costs.size() == k);
  for (size_t i = 0; i < k; ++i) {
    slots[i] = proj[i] >= 0.0f;
    flip_costs[i] = std::fabs(static_cast<double>(proj[i]));
  }
}

double SimHashFamily::CollisionProbability(double cosine_dist) const {
  return SimHashCollisionProbability(cosine_dist);
}

// --- PStableFamily ----------------------------------------------------------

PStableFamily::Functions PStableFamily::Sample(size_t k, util::Rng* rng) const {
  Functions fns{util::FloatMatrix(k, dim_), std::vector<float>(k)};
  for (size_t i = 0; i < k; ++i) {
    float* row = fns.projections.MutableRow(i);
    for (size_t j = 0; j < dim_; ++j) {
      row[j] = static_cast<float>(kind_ == StableKind::kGaussian
                                      ? rng->Gaussian()
                                      : rng->Cauchy());
    }
    fns.offsets[i] = static_cast<float>(rng->Uniform(0.0, w_));
  }
  return fns;
}

void PStableFamily::Signature(const Functions& fns, Point point,
                              std::span<int32_t> slots) const {
  const size_t k = slots.size();
  HLSH_DCHECK(fns.projections.rows() == k);
  if (k == 0) return;
  ProjBuffer buffer;
  float* proj = buffer.Acquire(k);
  core::kernels::ProjectionKernels().matvec(fns.projections.Row(0), k, dim_,
                                            point, proj);
  SignatureFromProjections(fns, {proj, k}, slots);
}

void PStableFamily::SignatureWithProbeCosts(const Functions& fns, Point point,
                                            std::span<int32_t> slots,
                                            std::span<double> down_costs,
                                            std::span<double> up_costs) const {
  const size_t k = slots.size();
  HLSH_DCHECK(down_costs.size() == k && up_costs.size() == k);
  if (k == 0) return;
  ProjBuffer buffer;
  float* proj = buffer.Acquire(k);
  core::kernels::ProjectionKernels().matvec(fns.projections.Row(0), k, dim_,
                                            point, proj);
  SignatureWithProbeCostsFromProjections(fns, {proj, k}, slots, down_costs,
                                         up_costs);
}

void PStableFamily::ProjectBatch(const Functions& fns, const Point* points,
                                 size_t count, std::span<float> proj) const {
  const size_t k = fns.projections.rows();
  HLSH_DCHECK(proj.size() == k * count);
  if (k == 0 || count == 0) return;
  core::kernels::ProjectionKernels().matvec_block(fns.projections.Row(0), k,
                                                  dim_, points, count,
                                                  proj.data());
}

void PStableFamily::SignatureFromProjections(const Functions& fns,
                                             std::span<const float> proj,
                                             std::span<int32_t> slots) const {
  const size_t k = slots.size();
  HLSH_DCHECK(proj.size() == k);
  for (size_t i = 0; i < k; ++i) {
    const double value =
        (static_cast<double>(proj[i]) + fns.offsets[i]) / w_;
    slots[i] = SlotFromFloor(std::floor(value));
  }
}

void PStableFamily::SignatureWithProbeCostsFromProjections(
    const Functions& fns, std::span<const float> proj,
    std::span<int32_t> slots, std::span<double> down_costs,
    std::span<double> up_costs) const {
  const size_t k = slots.size();
  HLSH_DCHECK(proj.size() == k);
  HLSH_DCHECK(down_costs.size() == k && up_costs.size() == k);
  for (size_t i = 0; i < k; ++i) {
    const double value =
        (static_cast<double>(proj[i]) + fns.offsets[i]) / w_;
    const double floor_value = std::floor(value);
    slots[i] = SlotFromFloor(floor_value);
    const double frac = value - floor_value;  // position inside the window
    down_costs[i] = frac;                     // distance to the lower boundary
    up_costs[i] = 1.0 - frac;                 // distance to the upper boundary
  }
}

double PStableFamily::CollisionProbability(double dist) const {
  return kind_ == StableKind::kGaussian
             ? GaussianCollisionProbability(dist, w_)
             : CauchyCollisionProbability(dist, w_);
}

// --- BitSamplingFamily ------------------------------------------------------

BitSamplingFamily::Functions BitSamplingFamily::Sample(size_t k,
                                                       util::Rng* rng) const {
  Functions fns;
  fns.positions.resize(k);
  for (size_t i = 0; i < k; ++i) {
    fns.positions[i] = static_cast<uint32_t>(
        rng->UniformInt(0, static_cast<int64_t>(width_bits_) - 1));
  }
  return fns;
}

void BitSamplingFamily::Signature(const Functions& fns, Point code,
                                  std::span<int32_t> slots) const {
  const size_t k = slots.size();
  HLSH_DCHECK(fns.positions.size() == k);
  for (size_t i = 0; i < k; ++i) {
    const uint32_t bit = fns.positions[i];
    slots[i] = static_cast<int32_t>((code[bit >> 6] >> (bit & 63)) & 1);
  }
}

void BitSamplingFamily::SignatureWithProbeCosts(
    const Functions& fns, Point code, std::span<int32_t> slots,
    std::span<double> flip_costs) const {
  Signature(fns, code, slots);
  for (size_t i = 0; i < flip_costs.size(); ++i) flip_costs[i] = 1.0;
}

double BitSamplingFamily::CollisionProbability(double hamming_dist) const {
  return BitSamplingCollisionProbability(hamming_dist,
                                         static_cast<double>(width_bits_));
}

// --- MinHashFamily ----------------------------------------------------------

MinHashFamily::Functions MinHashFamily::Sample(size_t k, util::Rng* rng) const {
  Functions fns;
  fns.seeds.resize(k);
  for (size_t i = 0; i < k; ++i) fns.seeds[i] = rng->NextU64();
  return fns;
}

void MinHashFamily::Signature(const Functions& fns, Point set,
                              std::span<int32_t> slots) const {
  const size_t k = slots.size();
  HLSH_DCHECK(fns.seeds.size() == k);
  for (size_t i = 0; i < k; ++i) {
    uint64_t min_hash = std::numeric_limits<uint64_t>::max();
    for (uint32_t element : set) {
      const uint64_t h = util::HashU64(element, fns.seeds[i]);
      if (h < min_hash) min_hash = h;
    }
    slots[i] = set.empty()
                   ? std::numeric_limits<int32_t>::max()
                   : static_cast<int32_t>(static_cast<uint32_t>(min_hash));
  }
}

double MinHashFamily::CollisionProbability(double jaccard_dist) const {
  return MinHashCollisionProbability(jaccard_dist);
}


// --- Serialization hooks ------------------------------------------------------

namespace {

// Shared helper: (de)serialize a FloatMatrix with its shape.
void SaveMatrix(const util::FloatMatrix& matrix, util::ByteWriter* writer) {
  writer->WriteU64(matrix.rows());
  writer->WriteU64(matrix.cols());
  writer->WriteArray<float>(matrix.data());
}

util::StatusOr<util::FloatMatrix> LoadMatrix(util::ByteReader* reader) {
  uint64_t rows = 0, cols = 0;
  HLSH_RETURN_IF_ERROR(reader->ReadU64(&rows));
  HLSH_RETURN_IF_ERROR(reader->ReadU64(&cols));
  if (rows != 0 && cols > (uint64_t{1} << 32) / rows) {
    return util::Status::DataLoss("matrix shape overflows");
  }
  std::vector<float> data;
  HLSH_RETURN_IF_ERROR(reader->ReadArray<float>(rows * cols, &data));
  return util::FloatMatrix(rows, cols, std::move(data));
}

}  // namespace

void SimHashFamily::SaveFamily(util::ByteWriter* writer) const {
  writer->WriteU64(dim_);
}

util::StatusOr<SimHashFamily> SimHashFamily::LoadFamily(
    util::ByteReader* reader) {
  uint64_t dim = 0;
  HLSH_RETURN_IF_ERROR(reader->ReadU64(&dim));
  if (dim == 0 || dim > (uint64_t{1} << 24)) {
    return util::Status::DataLoss("SimHash family has invalid dimension");
  }
  return SimHashFamily(dim);
}

void SimHashFamily::SaveFunctions(const Functions& fns,
                                  util::ByteWriter* writer) const {
  SaveMatrix(fns.hyperplanes, writer);
}

util::StatusOr<SimHashFamily::Functions> SimHashFamily::LoadFunctions(
    util::ByteReader* reader) const {
  auto matrix = LoadMatrix(reader);
  if (!matrix.ok()) return matrix.status();
  if (matrix->cols() != dim_) {
    return util::Status::DataLoss("hyperplane width mismatches family");
  }
  return Functions{std::move(*matrix)};
}

void PStableFamily::SaveFamily(util::ByteWriter* writer) const {
  writer->WriteU8(kind_ == StableKind::kGaussian ? 0 : 1);
  writer->WriteU64(dim_);
  writer->WriteF64(w_);
}

util::StatusOr<PStableFamily> PStableFamily::LoadFamily(
    util::ByteReader* reader) {
  uint8_t kind_byte = 0;
  uint64_t dim = 0;
  double w = 0;
  HLSH_RETURN_IF_ERROR(reader->ReadU8(&kind_byte));
  HLSH_RETURN_IF_ERROR(reader->ReadU64(&dim));
  HLSH_RETURN_IF_ERROR(reader->ReadF64(&w));
  if (kind_byte > 1) return util::Status::DataLoss("invalid stable kind");
  if (dim == 0 || dim > (uint64_t{1} << 24) || !(w > 0)) {
    return util::Status::DataLoss("p-stable family has invalid parameters");
  }
  return PStableFamily(kind_byte == 0 ? StableKind::kGaussian
                                      : StableKind::kCauchy,
                       dim, w);
}

void PStableFamily::SaveFunctions(const Functions& fns,
                                  util::ByteWriter* writer) const {
  SaveMatrix(fns.projections, writer);
  writer->WriteU64(fns.offsets.size());
  writer->WriteArray<float>(fns.offsets);
}

util::StatusOr<PStableFamily::Functions> PStableFamily::LoadFunctions(
    util::ByteReader* reader) const {
  auto matrix = LoadMatrix(reader);
  if (!matrix.ok()) return matrix.status();
  if (matrix->cols() != dim_) {
    return util::Status::DataLoss("projection width mismatches family");
  }
  uint64_t num_offsets = 0;
  HLSH_RETURN_IF_ERROR(reader->ReadU64(&num_offsets));
  if (num_offsets != matrix->rows()) {
    return util::Status::DataLoss("offset count mismatches projections");
  }
  std::vector<float> offsets;
  HLSH_RETURN_IF_ERROR(reader->ReadArray<float>(num_offsets, &offsets));
  return Functions{std::move(*matrix), std::move(offsets)};
}

void BitSamplingFamily::SaveFamily(util::ByteWriter* writer) const {
  writer->WriteU64(width_bits_);
}

util::StatusOr<BitSamplingFamily> BitSamplingFamily::LoadFamily(
    util::ByteReader* reader) {
  uint64_t width = 0;
  HLSH_RETURN_IF_ERROR(reader->ReadU64(&width));
  if (width == 0 || width > (uint64_t{1} << 24)) {
    return util::Status::DataLoss("bit-sampling family has invalid width");
  }
  return BitSamplingFamily(width);
}

void BitSamplingFamily::SaveFunctions(const Functions& fns,
                                      util::ByteWriter* writer) const {
  writer->WriteU64(fns.positions.size());
  writer->WriteArray<uint32_t>(fns.positions);
}

util::StatusOr<BitSamplingFamily::Functions> BitSamplingFamily::LoadFunctions(
    util::ByteReader* reader) const {
  uint64_t count = 0;
  HLSH_RETURN_IF_ERROR(reader->ReadU64(&count));
  Functions fns;
  HLSH_RETURN_IF_ERROR(reader->ReadArray<uint32_t>(count, &fns.positions));
  for (uint32_t position : fns.positions) {
    if (position >= width_bits_) {
      return util::Status::DataLoss("sampled bit position exceeds width");
    }
  }
  return fns;
}

void MinHashFamily::SaveFamily(util::ByteWriter* writer) const {
  writer->WriteU8(1);  // versioned placeholder; MinHash has no parameters
}

util::StatusOr<MinHashFamily> MinHashFamily::LoadFamily(
    util::ByteReader* reader) {
  uint8_t version = 0;
  HLSH_RETURN_IF_ERROR(reader->ReadU8(&version));
  if (version != 1) return util::Status::DataLoss("invalid MinHash block");
  return MinHashFamily();
}

void MinHashFamily::SaveFunctions(const Functions& fns,
                                  util::ByteWriter* writer) const {
  writer->WriteU64(fns.seeds.size());
  writer->WriteArray<uint64_t>(fns.seeds);
}

util::StatusOr<MinHashFamily::Functions> MinHashFamily::LoadFunctions(
    util::ByteReader* reader) const {
  uint64_t count = 0;
  HLSH_RETURN_IF_ERROR(reader->ReadU64(&count));
  Functions fns;
  HLSH_RETURN_IF_ERROR(reader->ReadArray<uint64_t>(count, &fns.seeds));
  return fns;
}

// --- CoveringFamily ----------------------------------------------------------

CoveringFamily::CoveringFamily(size_t width_bits, uint32_t radius,
                               uint64_t seed)
    : words_((width_bits + 63) / 64), radius_(radius) {
  HLSH_CHECK(width_bits > 0);
  if (radius < 1 || radius > kMaxRadius) return;
  // Every bit position gets a uniform vector in {0,1}^b, b = radius + 1.
  const uint64_t b_mask = (uint64_t{1} << (radius + 1)) - 1;
  util::Rng rng(seed);
  phi_.resize(width_bits);
  for (uint32_t& v : phi_) v = static_cast<uint32_t>(rng.NextU64() & b_mask);
}

CoveringFamily::Functions CoveringFamily::Sample(size_t table) const {
  // Keep bit i iff <phi(i), a> is odd, a = table + 1.
  const uint32_t a = static_cast<uint32_t>(table + 1);
  Functions fns;
  fns.mask.assign(words_, 0);
  for (size_t i = 0; i < phi_.size(); ++i) {
    if (std::popcount(phi_[i] & a) & 1) {
      fns.mask[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
  return fns;
}

util::Status CoveringFamily::CheckNumTables(int num_tables) const {
  if (phi_.empty()) {
    return util::Status::InvalidArgument(
        "covering LSH radius must be in [1, 12] (tables grow as 2^(r+1)-1)");
  }
  if (num_tables != this->num_tables()) {
    return util::Status::InvalidArgument(
        "covering LSH needs exactly 2^(radius+1) - 1 tables");
  }
  return util::Status::Ok();
}

void CoveringFamily::Signature(const Functions& fns, Point code,
                               std::span<int32_t> slots) const {
  for (size_t w = 0; w < words_; ++w) {
    const uint64_t masked = code[w] & fns.mask[w];
    slots[2 * w] = static_cast<int32_t>(static_cast<uint32_t>(masked));
    slots[2 * w + 1] =
        static_cast<int32_t>(static_cast<uint32_t>(masked >> 32));
  }
}

}  // namespace lsh
}  // namespace hybridlsh
