// Point-set containers: dense real vectors, packed binary codes, and sparse
// binary sets.
//
// Every container exposes the same minimal surface the index templates rely
// on — `size()`, `point(i)` returning the family's Point type, and a
// dimension accessor — so engine::SegmentedIndex and engine::ShardedEngine
// work over any of them:
//
//   DenseDataset   point(i) -> const float*          (L1 / L2 / cosine)
//   BinaryDataset  point(i) -> const uint64_t*       (Hamming on packed codes)
//   SparseDataset  point(i) -> span<const uint32_t>  (Jaccard on id sets)
//
// Storage is backed by util::PublishedArray: one writer may Append points
// while query threads concurrently read already-published points (the
// serving engine's ingest-under-query path). A point's bytes are immutable
// once the size covering it is release-published, and buffer growth retires
// the old allocation instead of freeing it under readers. All *other*
// mutation (mutable_point, mutable_matrix, SetBit, load-time adoption)
// remains build-time only — not safe under concurrent readers.

#ifndef HYBRIDLSH_DATA_DATASET_H_
#define HYBRIDLSH_DATA_DATASET_H_

#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/matrix.h"
#include "util/published_array.h"
#include "util/serialize.h"
#include "util/status.h"

namespace hybridlsh {
namespace data {

class DenseDataset;
class BinaryDataset;
class SparseDataset;

// --- Container serialization (engine snapshots). ---------------------------
// Each container round-trips through one Save/Load overload pair; the first
// field is the container's kind tag, so a snapshot loader can reject a
// dataset file of the wrong representation with InvalidArgument instead of
// misparsing it. SaveDataset(dense) persists the norm cache when present,
// so a restored engine keeps the cosine verification fast path without an
// O(n * dim) recompute.

constexpr uint32_t kDenseDatasetKind = 1;
constexpr uint32_t kBinaryDatasetKind = 2;
constexpr uint32_t kSparseDatasetKind = 3;

void SaveDataset(const DenseDataset& dataset, util::ByteWriter* writer);
void SaveDataset(const BinaryDataset& dataset, util::ByteWriter* writer);
void SaveDataset(const SparseDataset& dataset, util::ByteWriter* writer);

/// Parses a container written by the matching SaveDataset overload,
/// replacing *dataset. DataLoss on malformed input; InvalidArgument when
/// the payload holds a different container kind.
util::Status LoadDataset(util::ByteReader* reader, DenseDataset* dataset);
util::Status LoadDataset(util::ByteReader* reader, BinaryDataset* dataset);
util::Status LoadDataset(util::ByteReader* reader, SparseDataset* dataset);

/// The kind tag a SaveDataset overload writes for this container.
constexpr uint32_t DatasetKindOf(const DenseDataset&) {
  return kDenseDatasetKind;
}
constexpr uint32_t DatasetKindOf(const BinaryDataset&) {
  return kBinaryDatasetKind;
}
constexpr uint32_t DatasetKindOf(const SparseDataset&) {
  return kSparseDatasetKind;
}

/// True when every one of the `dim` coordinates is finite. The serving
/// engine rejects a dense query or insert that is not: a NaN or infinite
/// coordinate has no LSH bucket and no meaningful distance.
inline bool IsFinitePoint(const float* point, size_t dim) {
  for (size_t d = 0; d < dim; ++d) {
    if (!std::isfinite(point[d])) return false;
  }
  return true;
}

/// Dense real-valued point set, one point per row.
class DenseDataset {
 public:
  using Point = const float*;

  DenseDataset() = default;

  /// Adopts a row-major matrix of points.
  explicit DenseDataset(util::FloatMatrix points) : points_(std::move(points)) {}

  /// Creates an n x dim zero dataset.
  DenseDataset(size_t n, size_t dim) : points_(n, dim) {}

  size_t size() const { return points_.rows(); }
  size_t dim() const { return points_.cols(); }
  bool empty() const { return points_.empty(); }

  Point point(size_t i) const { return points_.Row(i); }
  float* mutable_point(size_t i) {
    InvalidateNorms();
    return points_.MutableRow(i);
  }

  const util::FloatMatrix& matrix() const { return points_; }
  util::FloatMatrix& mutable_matrix() {
    InvalidateNorms();
    return points_;
  }

  /// Heap bytes held by the point storage and norm cache (including
  /// retired grow buffers). Safe concurrently with the writer.
  size_t MemoryBytes() const {
    return points_.MemoryBytes() + norms_.MemoryBytes();
  }

  /// Appends one point (dimension must match; sets dim on first append).
  /// Single-writer: safe concurrently with readers of published points.
  /// When the norm cache is current, the new point's norm is computed and
  /// appended in step, keeping the cosine fast path warm under live
  /// ingest; otherwise the cache stays invalid.
  void Append(std::span<const float> point);

  /// Pre-allocates capacity for `n` points so appends up to that count
  /// never reallocate (and thus never retire a buffer).
  void Reserve(size_t n) {
    points_.Reserve(n);
    norms_.Reserve(n);
  }

  // --- Per-point Euclidean norms (the cosine verification fast path). ------
  // With norms cached, the block verifier (core/kernels.h) prices a cosine
  // candidate at one dot product instead of a fused three-sum pass. In-place
  // mutation — mutable_point, mutable_matrix — invalidates the cache; call
  // PrecomputeNorms again to rebuild it. Plain scalar math, so the cached
  // values are identical no matter which SIMD tier is resolved.

  /// Computes and caches |point(i)| for every point. O(n * dim).
  /// Build-time only (rewrites published slots).
  void PrecomputeNorms();

  /// Whether the norm cache is populated and current. Under a concurrent
  /// Append this may transiently report false; callers then take the fused
  /// (uncached) verification path, which agrees on every candidate.
  bool has_norms() const { return norms_.size() == points_.rows(); }

  /// The cached norms, one per point. Only valid while has_norms().
  std::span<const float> norms() const {
    HLSH_DCHECK(has_norms());
    return norms_.span();
  }
  float norm(size_t i) const {
    HLSH_DCHECK(has_norms());
    return norms_[i];
  }

 private:
  friend void SaveDataset(const DenseDataset&, util::ByteWriter*);
  friend util::Status LoadDataset(util::ByteReader*, DenseDataset*);

  void InvalidateNorms() { norms_.Assign({}); }

  util::FloatMatrix points_;
  util::PublishedArray<float> norms_;  // empty = not cached
};

/// Packed binary codes, `width_bits` bits per point in 64-bit words.
/// This is the container for the paper's MNIST pipeline: points are reduced
/// to 64-bit SimHash fingerprints and searched under Hamming distance.
class BinaryDataset {
 public:
  using Point = const uint64_t*;

  BinaryDataset() = default;

  /// Creates n all-zero codes of `width_bits` bits each (must be > 0 and a
  /// multiple is not required; the last word is partially used).
  BinaryDataset(size_t n, size_t width_bits)
      : width_bits_(width_bits), words_per_code_((width_bits + 63) / 64) {
    HLSH_CHECK(width_bits > 0);
    words_.GrowTo(n * words_per_code_, 0);
  }

  /// Code count, derived from the published word count (safe from any
  /// thread; monotone under one appending writer).
  size_t size() const {
    return words_per_code_ == 0 ? 0 : words_.size() / words_per_code_;
  }
  /// Bits per code (the Hamming-space dimension).
  size_t width_bits() const { return width_bits_; }
  /// 64-bit words per code.
  size_t words_per_code() const { return words_per_code_; }
  bool empty() const { return size() == 0; }

  Point point(size_t i) const {
    HLSH_DCHECK(i < size());
    return words_.data() + i * words_per_code_;
  }
  uint64_t* mutable_point(size_t i) {
    HLSH_DCHECK(i < size());
    return words_.mutable_data() + i * words_per_code_;
  }

  /// Returns bit `bit` of code i.
  bool GetBit(size_t i, size_t bit) const {
    HLSH_DCHECK(bit < width_bits_);
    return (point(i)[bit >> 6] >> (bit & 63)) & 1;
  }

  /// Sets bit `bit` of code i to `value`. Build-time only.
  void SetBit(size_t i, size_t bit, bool value) {
    HLSH_DCHECK(bit < width_bits_);
    uint64_t& word = mutable_point(i)[bit >> 6];
    const uint64_t mask = uint64_t{1} << (bit & 63);
    if (value) {
      word |= mask;
    } else {
      word &= ~mask;
    }
  }

  /// Appends one code (must point at words_per_code() words).
  /// Single-writer: safe concurrently with readers of published codes.
  void Append(const uint64_t* code) {
    HLSH_CHECK(width_bits_ > 0);
    words_.Append(code, words_per_code_);
  }

  /// Pre-allocates capacity for `n` codes.
  void Reserve(size_t n) { words_.Reserve(n * words_per_code_); }

  /// The packed storage (size() * words_per_code() words).
  std::span<const uint64_t> words() const { return words_.span(); }

  /// Heap bytes held by the packed code storage (including retired grow
  /// buffers). Safe concurrently with the writer.
  size_t MemoryBytes() const { return words_.MemoryBytes(); }

  /// Replaces the packed storage wholesale (bulk-load paths); the word
  /// count must be a multiple of words_per_code(). Build-time only.
  void AdoptWords(std::span<const uint64_t> words) {
    HLSH_CHECK(words_per_code_ != 0 && words.size() % words_per_code_ == 0);
    words_.Assign(words);
  }

 private:
  size_t width_bits_ = 0;
  size_t words_per_code_ = 0;
  util::PublishedArray<uint64_t> words_;
};

/// Sparse binary point set: each point is a strictly increasing sequence of
/// feature ids (CSR layout). The container for Jaccard / MinHash.
class SparseDataset {
 public:
  using Point = std::span<const uint32_t>;

  SparseDataset() { offsets_.PushBack(0); }

  /// Creates an empty dataset over feature ids [0, universe).
  explicit SparseDataset(uint32_t universe) : universe_(universe) {
    offsets_.PushBack(0);
  }

  /// Point count, derived from the published offset count (safe from any
  /// thread; monotone under one appending writer).
  size_t size() const { return offsets_.size() - 1; }
  /// Exclusive upper bound on feature ids (0 = unknown).
  uint32_t universe() const { return universe_; }
  bool empty() const { return size() == 0; }

  Point point(size_t i) const {
    HLSH_DCHECK(i + 1 < offsets_.size());
    const size_t* offsets = offsets_.data();
    return {indices_.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }

  /// Appends one point. Ids must be strictly increasing and below the
  /// universe bound when one was given. Single-writer: safe concurrently
  /// with readers of published points (the ids are filled and published
  /// before the covering offset).
  util::Status Append(std::span<const uint32_t> sorted_ids);

  /// Pre-allocates capacity for `n` more points of ~`avg_entries` ids each.
  void Reserve(size_t n, size_t avg_entries) {
    offsets_.Reserve(offsets_.size() + n);
    indices_.Reserve(indices_.size() + n * avg_entries);
  }

  /// Total number of stored ids across all points.
  size_t num_entries() const { return indices_.size(); }

  /// Heap bytes held by the CSR arrays (including retired grow buffers).
  /// Safe concurrently with the writer.
  size_t MemoryBytes() const {
    return indices_.MemoryBytes() + offsets_.MemoryBytes();
  }

 private:
  friend void SaveDataset(const SparseDataset&, util::ByteWriter*);
  friend util::Status LoadDataset(util::ByteReader*, SparseDataset*);

  uint32_t universe_ = 0;
  util::PublishedArray<uint32_t> indices_;
  util::PublishedArray<size_t> offsets_;
};

}  // namespace data
}  // namespace hybridlsh

#endif  // HYBRIDLSH_DATA_DATASET_H_
