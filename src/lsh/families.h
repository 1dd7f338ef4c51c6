// The LSH families the paper evaluates, plus MinHash as an extension.
//
// Every family models the same compile-time interface consumed by
// FunctionSet<Family> (see lsh/index.h):
//
//   using Point = ...;                  // the point handle it hashes
//   struct Functions { ... };          // k sampled atomic hash functions
//   Functions Sample(size_t k, util::Rng* rng) const;
//   void Signature(const Functions&, Point, std::span<int32_t> slots) const;
//   double CollisionProbability(double dist) const;   // p(dist), one function
//   double Distance(Point a, Point b) const;          // the paired metric
//   data::Metric metric() const;
//   ProbeKind probe_kind() / SignatureWithProbeCosts(...)  // multi-probe
//
// Paper §4 pairs: SimHash <-> cosine (Webspam), bit sampling <-> Hamming on
// 64-bit fingerprints (MNIST), Cauchy projections <-> L1 (CoverType),
// Gaussian projections <-> L2 (Corel), MinHash <-> Jaccard (extension).
// CoveringFamily (Hamming without false negatives, the paper's §5 future
// work) derives each table's function from the table index instead of
// sampling it (see its comment).

#ifndef HYBRIDLSH_LSH_FAMILIES_H_
#define HYBRIDLSH_LSH_FAMILIES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "data/metric.h"
#include "util/matrix.h"
#include "util/random.h"
#include "util/serialize.h"
#include "util/status.h"

namespace hybridlsh {
namespace lsh {

/// How a family supports multi-probe perturbations.
enum class ProbeKind {
  /// Integer slots from floored projections: each slot can move -1 or +1,
  /// with query-directed costs (Lv et al.).
  kTwoSided,
  /// Binary slots: a perturbation flips a slot; cost is the hash margin
  /// (SimHash) or uniform (bit sampling).
  kFlip,
  /// No meaningful perturbation (MinHash).
  kNone,
};

/// SimHash / random-hyperplane LSH for cosine distance (Charikar 2002).
/// h(x) = sign(<a, x>), a ~ N(0, I).
class SimHashFamily {
 public:
  using Point = const float*;

  explicit SimHashFamily(size_t dim) : dim_(dim) { HLSH_CHECK(dim > 0); }

  /// k random hyperplanes (k x dim Gaussian matrix).
  struct Functions {
    util::FloatMatrix hyperplanes;
  };

  Functions Sample(size_t k, util::Rng* rng) const;

  /// slots[i] = 1 if <a_i, x> >= 0 else 0. Runs on the dispatched
  /// projection kernels (core/kernels.h), canonical 8-lane accumulation.
  void Signature(const Functions& fns, Point point,
                 std::span<int32_t> slots) const;

  /// Like Signature, also reporting |<a_i, x>| as the flip cost: the closer
  /// the point is to hyperplane i, the cheaper probing the flipped bucket.
  void SignatureWithProbeCosts(const Functions& fns, Point point,
                               std::span<int32_t> slots,
                               std::span<double> flip_costs) const;

  // Raw-projection split, used by the hash-once batch plan path
  // (lsh/index.h FunctionSet::ComputePlans): ProjectBatch pushes many
  // queries through the blocked matvec kernel at once, then the
  // *FromProjections finishers derive each query's slots/costs. Signature
  // == Project + SignatureFromProjections bit-exactly.

  /// proj[q*k + i] = <a_i, points[q]> for `count` queries (blocked kernel).
  void ProjectBatch(const Functions& fns, const Point* points, size_t count,
                    std::span<float> proj) const;
  void SignatureFromProjections(const Functions& fns,
                                std::span<const float> proj,
                                std::span<int32_t> slots) const;
  void SignatureWithProbeCostsFromProjections(
      const Functions& fns, std::span<const float> proj,
      std::span<int32_t> slots, std::span<double> flip_costs) const;

  double CollisionProbability(double cosine_dist) const;
  double Distance(Point a, Point b) const {
    return data::CosineDistance(a, b, dim_);
  }
  data::Metric metric() const { return data::Metric::kCosine; }
  ProbeKind probe_kind() const { return ProbeKind::kFlip; }
  size_t dim() const { return dim_; }

  /// Index-file tag and (de)serialization hooks (see lsh/index.h Save).
  static constexpr uint32_t kFamilyTag = 0x53494d48;  // "SIMH"
  void SaveFamily(util::ByteWriter* writer) const;
  static util::StatusOr<SimHashFamily> LoadFamily(util::ByteReader* reader);
  void SaveFunctions(const Functions& fns, util::ByteWriter* writer) const;
  util::StatusOr<Functions> LoadFunctions(util::ByteReader* reader) const;

 private:
  size_t dim_;
};

/// Which p-stable distribution drives a projection family.
enum class StableKind {
  kGaussian,  // 2-stable, L2 distance
  kCauchy,    // 1-stable, L1 distance
};

/// p-stable random projection LSH (Datar, Immorlica, Indyk, Mirrokni 2004).
/// h(x) = floor((<a, x> + b) / w), a ~ stable dist, b ~ U[0, w).
class PStableFamily {
 public:
  using Point = const float*;

  /// `w` is the quantization window. The paper ties w to the radius:
  /// w = 4r with k = 8 for L1, w = 2r with k = 7 for L2 (§4.1).
  PStableFamily(StableKind kind, size_t dim, double w)
      : kind_(kind), dim_(dim), w_(w) {
    HLSH_CHECK(dim > 0);
    HLSH_CHECK(w > 0);
  }

  /// Convenience constructors matching the paper's two uses.
  static PStableFamily L2(size_t dim, double w) {
    return PStableFamily(StableKind::kGaussian, dim, w);
  }
  static PStableFamily L1(size_t dim, double w) {
    return PStableFamily(StableKind::kCauchy, dim, w);
  }

  /// k projections (k x dim stable matrix) plus k offsets in [0, w).
  struct Functions {
    util::FloatMatrix projections;
    std::vector<float> offsets;
  };

  Functions Sample(size_t k, util::Rng* rng) const;

  /// slots[i] = floor((<a_i, x> + b_i) / w). Runs on the dispatched
  /// projection kernels (core/kernels.h), canonical 8-lane accumulation.
  void Signature(const Functions& fns, Point point,
                 std::span<int32_t> slots) const;

  /// Like Signature, also reporting the fractional position in the window:
  /// cost of moving slot i down is frac, up is 1 - frac (in window units).
  void SignatureWithProbeCosts(const Functions& fns, Point point,
                               std::span<int32_t> slots,
                               std::span<double> down_costs,
                               std::span<double> up_costs) const;

  // Raw-projection split for the batch plan path (see SimHashFamily).

  /// proj[q*k + i] = <a_i, points[q]> for `count` queries (blocked kernel).
  void ProjectBatch(const Functions& fns, const Point* points, size_t count,
                    std::span<float> proj) const;
  void SignatureFromProjections(const Functions& fns,
                                std::span<const float> proj,
                                std::span<int32_t> slots) const;
  void SignatureWithProbeCostsFromProjections(const Functions& fns,
                                              std::span<const float> proj,
                                              std::span<int32_t> slots,
                                              std::span<double> down_costs,
                                              std::span<double> up_costs) const;

  double CollisionProbability(double dist) const;
  double Distance(Point a, Point b) const {
    return kind_ == StableKind::kGaussian ? data::L2Distance(a, b, dim_)
                                          : data::L1Distance(a, b, dim_);
  }
  data::Metric metric() const {
    return kind_ == StableKind::kGaussian ? data::Metric::kL2
                                          : data::Metric::kL1;
  }
  ProbeKind probe_kind() const { return ProbeKind::kTwoSided; }
  size_t dim() const { return dim_; }
  double w() const { return w_; }
  StableKind kind() const { return kind_; }

  /// Index-file tag and (de)serialization hooks (see lsh/index.h Save).
  static constexpr uint32_t kFamilyTag = 0x50535442;  // "PSTB"
  void SaveFamily(util::ByteWriter* writer) const;
  static util::StatusOr<PStableFamily> LoadFamily(util::ByteReader* reader);
  void SaveFunctions(const Functions& fns, util::ByteWriter* writer) const;
  util::StatusOr<Functions> LoadFunctions(util::ByteReader* reader) const;

 private:
  StableKind kind_;
  size_t dim_;
  double w_;
};

/// Bit-sampling LSH for Hamming distance (Indyk & Motwani 1998).
/// h(x) = x[position] for a uniformly random bit position.
class BitSamplingFamily {
 public:
  using Point = const uint64_t*;

  /// `width_bits` is the code width D (e.g., 64 for the paper's MNIST
  /// SimHash fingerprints).
  explicit BitSamplingFamily(size_t width_bits)
      : width_bits_(width_bits), words_((width_bits + 63) / 64) {
    HLSH_CHECK(width_bits > 0);
  }

  /// k sampled bit positions (with replacement, as in the classic scheme).
  struct Functions {
    std::vector<uint32_t> positions;
  };

  Functions Sample(size_t k, util::Rng* rng) const;

  /// slots[i] = bit positions[i] of the code.
  void Signature(const Functions& fns, Point code,
                 std::span<int32_t> slots) const;

  /// Flip costs are uniform (a sampled bit carries no soft information).
  void SignatureWithProbeCosts(const Functions& fns, Point code,
                               std::span<int32_t> slots,
                               std::span<double> flip_costs) const;

  double CollisionProbability(double hamming_dist) const;
  double Distance(Point a, Point b) const {
    return data::HammingDistance(a, b, words_);
  }
  data::Metric metric() const { return data::Metric::kHamming; }
  ProbeKind probe_kind() const { return ProbeKind::kFlip; }
  size_t width_bits() const { return width_bits_; }
  size_t words_per_code() const { return words_; }

  /// Index-file tag and (de)serialization hooks (see lsh/index.h Save).
  static constexpr uint32_t kFamilyTag = 0x42495453;  // "BITS"
  void SaveFamily(util::ByteWriter* writer) const;
  static util::StatusOr<BitSamplingFamily> LoadFamily(util::ByteReader* reader);
  void SaveFunctions(const Functions& fns, util::ByteWriter* writer) const;
  util::StatusOr<Functions> LoadFunctions(util::ByteReader* reader) const;

 private:
  size_t width_bits_;
  size_t words_;
};

/// MinHash LSH for Jaccard distance (Broder et al. 1998), implemented with
/// seeded 64-bit hash functions instead of explicit permutations.
/// h(A) = min_{e in A} hash_seed(e).
class MinHashFamily {
 public:
  using Point = data::SparseDataset::Point;

  MinHashFamily() = default;

  /// k independent hash seeds.
  struct Functions {
    std::vector<uint64_t> seeds;
  };

  Functions Sample(size_t k, util::Rng* rng) const;

  /// slots[i] = low 32 bits of min hash under seed i (INT32_MAX sentinel for
  /// the empty set, which therefore collides only with other empty sets).
  void Signature(const Functions& fns, Point set,
                 std::span<int32_t> slots) const;

  double CollisionProbability(double jaccard_dist) const;
  double Distance(Point a, Point b) const {
    return data::JaccardDistance(a, b);
  }
  data::Metric metric() const { return data::Metric::kJaccard; }
  ProbeKind probe_kind() const { return ProbeKind::kNone; }

  /// Index-file tag and (de)serialization hooks (see lsh/index.h Save).
  static constexpr uint32_t kFamilyTag = 0x4d494e48;  // "MINH"
  void SaveFamily(util::ByteWriter* writer) const;
  static util::StatusOr<MinHashFamily> LoadFamily(util::ByteReader* reader);
  void SaveFunctions(const Functions& fns, util::ByteWriter* writer) const;
  util::StatusOr<Functions> LoadFunctions(util::ByteReader* reader) const;
};

/// Covering LSH for Hamming distance (Pagh, SODA 2016): LSH *without false
/// negatives*, the second "future work" integration the paper names (§5).
///
/// Construction: b = radius + 1 and a random map phi from bit positions [D]
/// to {0,1}^b. Table t takes the nonzero vector a = t + 1 of {0,1}^b; its
/// function is the mask of the positions i with <phi(i), a> = 1 over GF(2),
/// and its signature the code words AND that mask. That yields exactly
/// 2^(r+1) - 1 correlated tables.
///
/// Guarantee: if Hamming(x, q) <= r, the differing positions span at most
/// r < b dimensions of GF(2)^b, so some nonzero a* is orthogonal to all of
/// their phi-vectors; table a* masks out every differing bit and x collides
/// with q there — deterministically, for every query.
///
/// Table functions are derived from the table index, not sampled
/// (lsh::TableIndexedFamily): FunctionSet::Sample hands each table its
/// index, rejects any table count but 2^(r+1) - 1, and fixes k to the
/// signature width. Buckets carry HLL sketches like every other family, so
/// the hybrid cost model runs on covering LSH unchanged — the combination
/// the paper proposes as future work (bench_covering_lsh).
class CoveringFamily {
 public:
  using Point = const uint64_t*;

  /// Largest supported radius: 2^(12+1) - 1 = 8191 tables.
  static constexpr uint32_t kMaxRadius = 12;

  /// Samples phi from `seed`. A radius outside [1, kMaxRadius] samples
  /// nothing; CheckNumTables (so any index build) then rejects it.
  CoveringFamily(size_t width_bits, uint32_t radius, uint64_t seed);

  /// Table t's mask over the code words (a = t + 1).
  struct Functions {
    std::vector<uint64_t> mask;
  };

  Functions Sample(size_t table) const;

  /// InvalidArgument unless the radius is in [1, kMaxRadius] and
  /// num_tables == 2^(radius+1) - 1.
  util::Status CheckNumTables(int num_tables) const;

  /// Two int32 slots per code word (low half first): the signature width k.
  size_t signature_slots() const { return 2 * words_; }

  /// slots = code AND mask, in one pass over the code words.
  void Signature(const Functions& fns, Point code,
                 std::span<int32_t> slots) const;

  double Distance(Point a, Point b) const {
    return data::HammingDistance(a, b, words_);
  }
  data::Metric metric() const { return data::Metric::kHamming; }
  ProbeKind probe_kind() const { return ProbeKind::kNone; }
  uint32_t radius() const { return radius_; }
  /// 2^(radius+1) - 1, the table count the guarantee needs (0 for a
  /// radius outside [1, kMaxRadius]).
  int num_tables() const {
    return phi_.empty() ? 0 : (1 << (radius_ + 1)) - 1;
  }

 private:
  size_t words_;
  uint32_t radius_;
  std::vector<uint32_t> phi_;  // phi(i) in {0,1}^(radius+1), per bit i
};

}  // namespace lsh
}  // namespace hybridlsh

#endif  // HYBRIDLSH_LSH_FAMILIES_H_
