// HyperLogLog cardinality sketch (Flajolet, Fusy, Gandouet, Meunier 2007).
//
// This is the auxiliary structure the paper integrates into every LSH
// bucket (§2, §3): merging the sketches of the L query buckets estimates
// candSize — the number of *distinct* points colliding with the query —
// which plugs into the LSHCost model (Eq. 1).
//
// Implementation notes:
//   * One sketch holds m = 2^precision byte registers. The paper uses
//     m = 32..128, i.e. precision 5..7.
//   * Elements are fed as 64-bit hashes. The top `precision` bits select a
//     register; the rank (leading-zero count + 1) of the remaining bits is
//     the candidate register value. This realizes the paper's description
//     "generate a random pair {m_i, v_i}, m_i ~ Uniform([m]),
//     v_i ~ Geometric(1/2); update M[m_i] = max(M[m_i], v_i)".
//   * Estimate = alpha_m * m^2 / sum_j 2^{-M[j]}, with the standard
//     linear-counting correction below 2.5m. With 64-bit hashes no
//     large-range correction is required.
//   * Merge is register-wise max, which is exactly union semantics; the
//     paper relies on this to treat the L query buckets as partitions of
//     one stream.
//   * Merge and Estimate run on the dispatched SIMD register kernels
//     (util/simd.h): byte-max merge and a fused sum-of-2^-M + zero count.
//     The query-time EstimateProbe path (lsh/index.h) is built on these,
//     and the canonical accumulation order keeps estimates bit-identical
//     across instruction-set tiers.
//   * Standard error is 1.04 / sqrt(m)  (~9.2% at m=128).

#ifndef HYBRIDLSH_HLL_HYPERLOGLOG_H_
#define HYBRIDLSH_HLL_HYPERLOGLOG_H_

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "util/hash.h"
#include "util/status.h"

namespace hybridlsh {
namespace hll {

/// Hashes a point id into the uniform 64-bit stream fed to bucket sketches.
/// Every component that inserts ids into an HLL (table build, on-demand
/// folding of small buckets, tests) must use this one function so that the
/// same id always contributes the same register update.
inline uint64_t PointHash(uint32_t id) { return util::HashU64(id); }

/// HyperLogLog sketch with byte registers.
class HyperLogLog {
 public:
  static constexpr int kMinPrecision = 4;
  static constexpr int kMaxPrecision = 18;

  /// Creates a sketch with m = 2^precision zero registers. `precision` must
  /// lie in [kMinPrecision, kMaxPrecision]; use Create() for validated
  /// construction from untrusted input.
  explicit HyperLogLog(int precision);

  /// Validated factory: rejects out-of-range precision instead of aborting.
  static util::StatusOr<HyperLogLog> Create(int precision);

  /// Feeds a pre-hashed element. All updates funnel through here.
  void AddHash(uint64_t hash) {
    const uint32_t index = static_cast<uint32_t>(hash >> (64 - precision_));
    // Rank of the remaining (64 - precision) bits: leading zeros + 1.
    const uint64_t rest = (hash << precision_) | (uint64_t{1} << (precision_ - 1));
    const uint8_t rank = static_cast<uint8_t>(CountLeadingZeros(rest) + 1);
    if (rank > registers_[index]) registers_[index] = rank;
  }

  /// Convenience: feeds a point id via PointHash.
  void AddPoint(uint32_t id) { AddHash(PointHash(id)); }

  /// Cardinality estimate with linear-counting small-range correction.
  double Estimate() const;

  /// Register-wise max-merge (union). Fails unless precisions match.
  util::Status Merge(const HyperLogLog& other);

  /// Resets every register to zero.
  void Clear();

  /// log2 of the register count.
  int precision() const { return precision_; }
  /// Number of registers m.
  size_t num_registers() const { return registers_.size(); }
  /// Theoretical standard error 1.04/sqrt(m).
  double StandardError() const;
  /// Raw register values (for tests and serialization).
  const std::vector<uint8_t>& registers() const { return registers_; }
  /// Heap bytes used by the registers.
  size_t MemoryBytes() const { return registers_.size(); }

  /// Serializes to [precision:1 byte][registers:m bytes].
  std::vector<uint8_t> Serialize() const;

  /// Parses a buffer produced by Serialize(). Rejects truncated input, bad
  /// precision, and register values that exceed the per-precision maximum
  /// rank (failure-injection tests rely on this).
  static util::StatusOr<HyperLogLog> Deserialize(
      std::span<const uint8_t> bytes);

  bool operator==(const HyperLogLog& other) const {
    return precision_ == other.precision_ && registers_ == other.registers_;
  }

 private:
  /// Defined here so every AddHash inlines it: the query-time fold of the
  /// active logs calls AddHash once per distinct entry.
  static int CountLeadingZeros(uint64_t x) {
    // x always has the sentinel bit set by AddHash, so x != 0.
    return std::countl_zero(x);
  }
  /// Bias-correction constant alpha_m.
  static double Alpha(size_t m);

  int precision_;
  std::vector<uint8_t> registers_;
};

}  // namespace hll
}  // namespace hybridlsh

#endif  // HYBRIDLSH_HLL_HYPERLOGLOG_H_
