// The vectorized kernel subsystem: runtime-dispatched distance kernels and
// block-batched candidate verification.
//
// The paper's cost model prices every query in units of beta = one distance
// computation (Eq. 1/2), so candidate verification is the hot path of both
// strategies. This layer replaces the per-candidate
// `index->Distance(dataset.point(id), query)` calls with:
//
//   * a KernelTable of distance kernels (L1 / L2 / squared-L2 / dot /
//     fused cosine over dense rows, popcount-unrolled Hamming over packed
//     codes, plus the HLL register ops from util/simd.h), one table per
//     instruction-set tier, dispatched once per process on
//     util::simd::ResolvedTier();
//   * VerifyBlock: block-batched verification that walks a flat
//     candidate-id buffer in cache-friendly blocks with software prefetch,
//     uses squared-L2 against radius^2 (no per-candidate sqrt), and takes
//     the precomputed-norm fast path for cosine when the DenseDataset has
//     them cached;
//   * VerifyCandidatesQuantized: the generic entry point
//     engine::ShardedEngine verifies both strategies through (the LSH
//     path's deduplicated candidates, the linear path's live ids), which
//     picks the typed block path per dataset container (dense with or
//     without the int8 screen, packed binary) and falls back to per-id
//     Family::Distance elsewhere (sparse Jaccard);
//   * ScoreBlock / ScoreCandidates: the verify's own per-candidate loop,
//     storing each candidate's key (the value the verify compares with
//     its threshold) instead of testing it — a fused query's score stage.
//
// Every tier of every float kernel follows the canonical 8-lane
// accumulation order documented in util/simd.h, so scalar-forced
// (HLSH_SIMD=scalar) and vectorized runs report bit-identical result sets
// — only candidate order may differ. kernels.cc is compiled with
// -ffp-contract=off so no tier silently picks up FMA contraction. The
// cosine norm cache is built with the same canonical dot (util/simd.h
// DotF32Scalar), so the cached-norm and fused paths also agree on every
// candidate. Note the contract is within-the-subsystem: kernel sums round
// differently in the last ulp than the sequential-order references in
// data/metric.h (and L2 compares squared distance against radius^2 rather
// than sqrt against radius), so comparisons against data::RangeScan* hold
// only for radii that no candidate's distance matches to the last ulp —
// true of the suite's fixed seeds, and of any test that derives its
// radius between two order statistics (tests/test_kernels.cc PickRadius).

#ifndef HYBRIDLSH_CORE_KERNELS_H_
#define HYBRIDLSH_CORE_KERNELS_H_

#include <cmath>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "data/dataset.h"
#include "data/metric.h"
#include "data/quantized.h"
#include "util/bit_vector.h"
#include "util/simd.h"

namespace hybridlsh {
namespace core {
namespace kernels {

/// One tier's kernels. All shards and segments of an engine share the one
/// table Kernels() resolves; per-tier tables exist for tests and benches.
struct KernelTable {
  util::simd::Tier tier;

  /// L1 (Manhattan) distance over d floats.
  float (*l1)(const float* a, const float* b, size_t d);
  /// Squared L2 distance (callers compare against radius^2).
  float (*l2sq)(const float* a, const float* b, size_t d);
  /// Dot product <a, b>.
  float (*dot)(const float* a, const float* b, size_t d);
  /// Fused cosine distance 1 - cos(a, b): dot and both norms in one pass
  /// (the no-precomputed-norms path). Zero vectors give distance 1.
  float (*cosine)(const float* a, const float* b, size_t d);
  /// Hamming distance over packed 64-bit words (popcount, 4x unrolled).
  uint32_t (*hamming)(const uint64_t* a, const uint64_t* b, size_t words);
  /// HLL register-wise max merge (util/simd.h).
  void (*hll_merge)(uint8_t* dst, const uint8_t* src, size_t m);
  /// HLL fused sum-of-2^-M + zero count (util/simd.h).
  double (*hll_sum)(const uint8_t* regs, size_t m, size_t* zeros);
};

/// The kernel table for util::ResolvedSimdTier(). Follows
/// SetResolvedTierForTest, so tier-equivalence tests can swap mid-process.
const KernelTable& Kernels();

/// The kernel table for one specific tier (clamped to CPU support).
const KernelTable& KernelsForTier(util::simd::Tier tier);

// --- Int8 screen kernels (quantized verification). --------------------------
// Distance sums over int8 codes from a data::QuantizedMirror. All integer:
// exact in any accumulation order, so every tier returns the same int32 by
// construction (no canonical-lane contract needed). The caller maps sums
// back to real distances with the mirror's scale (L1 = scale * l1,
// L2^2 = scale^2 * l2sq, <a,b> = scale^2 * dot). Sums stay inside int32
// for dim <= data::QuantizedMirror::kMaxDim.

struct Int8KernelTable {
  util::simd::Tier tier;
  /// Sum of |a[i] - b[i]| (AVX2/SSE2: bias-to-unsigned + PSADBW).
  int32_t (*l1)(const int8_t* a, const int8_t* b, size_t d);
  /// Sum of (a[i] - b[i])^2 (AVX2/SSE2: sign-extend + VPMADDWD).
  int32_t (*l2sq)(const int8_t* a, const int8_t* b, size_t d);
  /// Sum of a[i] * b[i] — the cosine screen composes this with the
  /// dataset's cached float norms.
  int32_t (*dot)(const int8_t* a, const int8_t* b, size_t d);

  /// Block forms: sums[k] = the corresponding pair sum between `query`
  /// and row ids[k] of `codes` (row-major, `dim` int8 per row). One call
  /// per candidate batch is what the quantized screen runs: it removes
  /// the per-candidate indirect call, prefetches upcoming rows, and (AVX2)
  /// interleaves two candidates against shared query registers to hide
  /// accumulator latency. Sums are bit-identical to the pair kernels.
  void (*l1_block)(const int8_t* codes, size_t dim, const uint32_t* ids,
                   size_t count, const int8_t* query, int32_t* sums);
  void (*l2sq_block)(const int8_t* codes, size_t dim, const uint32_t* ids,
                     size_t count, const int8_t* query, int32_t* sums);
  void (*dot_block)(const int8_t* codes, size_t dim, const uint32_t* ids,
                    size_t count, const int8_t* query, int32_t* sums);
};

/// The int8 table for util::ResolvedSimdTier() (same dispatch and test
/// override as Kernels()).
const Int8KernelTable& Int8Kernels();

/// The int8 table for one specific tier (clamped to CPU support).
const Int8KernelTable& Int8KernelsForTier(util::simd::Tier tier);

// --- Projection kernels (query hashing, LSH step S1). -----------------------
// The k x dim projection matrices of the dense LSH families (SimHash
// hyperplanes, Gaussian/Cauchy p-stable projections; util::FloatMatrix, so
// row-major contiguous) applied to queries. Row i is one sampled hash
// function; out[i] is the raw projection <row_i, query> from which the
// family derives slot i and its probe cost. Every (row, query) pair
// accumulates in the canonical 8-lane order (util/simd.h DotF32Scalar is
// the reference), so all tiers and both forms below produce bit-identical
// floats: signatures, probe costs, and therefore LSH-vs-linear decisions
// cannot depend on the dispatched tier or on whether a query was hashed
// alone or inside a batch.

struct ProjectionKernelTable {
  util::simd::Tier tier;

  /// Single query: out[i] = <matrix row i, query> for i in [0, k).
  void (*matvec)(const float* matrix, size_t k, size_t dim, const float* query,
                 float* out);

  /// Multi-query blocked (GEMM-shaped) form: out[q*k + i] = <row i,
  /// queries[q]>. Rows traverse the outer loop so each matrix row is
  /// streamed from memory once and served to every query from cache; the
  /// AVX2 tier additionally interleaves two queries against shared row
  /// registers. Bit-identical to k x count matvec calls.
  void (*matvec_block)(const float* matrix, size_t k, size_t dim,
                       const float* const* queries, size_t count, float* out);
};

/// The projection table for util::ResolvedSimdTier() (same dispatch and
/// test override as Kernels()).
const ProjectionKernelTable& ProjectionKernels();

/// The projection table for one specific tier (clamped to CPU support).
const ProjectionKernelTable& ProjectionKernelsForTier(util::simd::Tier tier);

/// Outcome counters for one quantized verification call (optional; tests
/// and benches use them to show the screen actually classifies).
struct QuantizedScreenStats {
  size_t screened = 0;      ///< candidates the int8 screen classified
  size_t definite_in = 0;   ///< reported without touching float rows
  size_t definite_out = 0;  ///< rejected without touching float rows
  size_t borderline = 0;    ///< rescored with the exact float kernels
};

// --- Block-batched verification. -------------------------------------------
// Each call appends every id whose distance to `query` is <= radius to
// *out and returns the number appended. Candidates are processed in
// blocks with software prefetch of upcoming rows.
//
// Every entry point takes an optional pushed-down `filter`: when non-null,
// an id is verified (and can be reported) only if its filter bit is set;
// ids at or past filter->size() are rejected (the filter was built over
// the id bound visible at query start, so a concurrently inserted id has
// no evaluated predicate and must not leak through). The bit test runs
// BEFORE the distance computation — that is the pushdown: at low
// selectivity almost every candidate costs one word probe instead of a
// row load plus a kernel call. The filter is query-private scratch
// (already composed with the tombstone bitmap via
// util::BitVector::AndWithNot), so plain relaxed reads suffice.

/// Dense rows under metric (kL1, kL2, or kCosine). For kCosine the
/// dataset's cached norms (data::DenseDataset::PrecomputeNorms) are used
/// when present; otherwise the fused cosine kernel runs per candidate.
size_t VerifyBlock(const data::DenseDataset& dataset, data::Metric metric,
                   const float* query, std::span<const uint32_t> ids,
                   double radius, std::vector<uint32_t>* out,
                   const util::BitVector* filter = nullptr);

/// Two-phase quantized verification: an int8 screen over the mirror's
/// codes classifies each candidate as definitely-in / definitely-out /
/// borderline under a conservative error bound, and only borderline
/// candidates are rescored with the exact float32 kernels. The appended
/// output is bit-identical to VerifyBlock's — same ids in the same
/// (candidate) order — so callers relying on ascending emission from the
/// linear path see no difference.
///
/// The bound: with global scale s, every calibrated element obeys
/// |x - s*qx| <= s/2 and the query's quantization error is computed
/// exactly per call, so (e.g. L1) the true distance lies within
/// dim*s/2 + sum|y - s*qy| of s * screen_sum; the threshold test inflates
/// that band by a float-rounding slack so the verdict can never disagree
/// with what the float32 kernel would report. Candidates the bound cannot
/// cover — rows flagged exact_only, ids at or beyond the mirror's
/// published size (a racing reader), non-finite queries — fall into the
/// borderline set; the first two through a forced-borderline mask, since
/// the kernel still sums them (an exact_only row's clamped codes, or a
/// stand-in row for an id past the mirror). Verdicts are kept as an
/// in-mask and a borderline-mask per block of 64 candidates, and each
/// block is emitted from its masks in ascending position. Falls back to
/// VerifyBlock entirely when the mirror is disabled or has no published
/// rows, the metric is cosine without cached norms, or radius >= 2 under
/// cosine (where clamping breaks the out-test).
size_t VerifyBlockQuantized(const data::DenseDataset& dataset,
                            const data::QuantizedMirror& mirror,
                            data::Metric metric, const float* query,
                            std::span<const uint32_t> ids, double radius,
                            std::vector<uint32_t>* out,
                            QuantizedScreenStats* stats = nullptr,
                            const util::BitVector* filter = nullptr);

/// Packed binary codes under Hamming distance.
size_t VerifyBlock(const data::BinaryDataset& dataset, const uint64_t* query,
                   std::span<const uint32_t> ids, double radius,
                   std::vector<uint32_t>* out,
                   const util::BitVector* filter = nullptr);

// --- Score pass (a fused query's score stage). ------------------------------
// A candidate's verify key is the value the verify compares against its
// threshold: the squared distance under L2, the distance under L1, cosine
// and Hamming, Family::Distance under Jaccard. The verify and the score
// pass compute it through one definition (kernels.cc), so a key passes
// `key <= VerifyThreshold(metric, radius)` exactly when the verify at that
// radius reports its id, and every tier computes the same key bits.

/// The threshold a verify key is compared against: radius^2 under L2, the
/// radius otherwise.
inline double VerifyThreshold(data::Metric metric, double radius) {
  return metric == data::Metric::kL2 ? radius * radius : radius;
}

/// The distance a verify key stands for: the double sqrt of the squared
/// distance under L2, the key itself otherwise. Strictly increasing over
/// the keys the kernels produce (a float squared distance has no
/// neighbouring float whose double sqrt rounds to the same value), so a
/// list ranked by key is ranked by distance.
inline double KeyToDistance(data::Metric metric, double key) {
  return metric == data::Metric::kL2 ? std::sqrt(key) : key;
}

/// keys[k] = the verify key of dense row ids[k] under `metric` (kL1, kL2
/// or kCosine; cosine with the cached norms when present), in one pass that
/// prefetches rows ahead like VerifyBlock's.
void ScoreBlock(const data::DenseDataset& dataset, data::Metric metric,
                const float* query, std::span<const uint32_t> ids,
                double* keys);

/// keys[k] = the Hamming distance of packed code ids[k].
void ScoreBlock(const data::BinaryDataset& dataset, const uint64_t* query,
                std::span<const uint32_t> ids, double* keys);

// --- Generic entry points for the engine. -----------------------------------

/// Scores a flat id buffer per container, like VerifyCandidatesQuantized
/// verifies it: dense rows under `metric` (the index's own or an override),
/// packed codes under Hamming, anything else (sparse Jaccard) per id
/// through Index::Distance. `metric` is read for dense datasets only.
template <typename Index, typename Dataset>
void ScoreCandidates(const Index& index, const Dataset& dataset,
                     data::Metric metric, typename Index::Point query,
                     std::span<const uint32_t> ids, double* keys) {
  if constexpr (std::is_same_v<Dataset, data::DenseDataset>) {
    ScoreBlock(dataset, metric, query, ids, keys);
  } else if constexpr (std::is_same_v<Dataset, data::BinaryDataset>) {
    ScoreBlock(dataset, query, ids, keys);
  } else {
    for (size_t k = 0; k < ids.size(); ++k) {
      keys[k] = index.Distance(dataset.point(ids[k]), query);
    }
  }
}

/// Verifies a flat candidate-id buffer — the LSH path's deduplicated
/// candidates (VisitedSet::touched()) or the linear path's live ids —
/// against `query`, appending reported ids to *out. Dense datasets screen
/// through VerifyBlockQuantized when the engine's int8 mirror is live and
/// take VerifyBlock otherwise; packed-binary datasets take the
/// block-batched Hamming kernel; anything else (sparse Jaccard) verifies
/// per id through Index::Distance. `filter` as in the kernels above.
template <typename Index, typename Dataset>
size_t VerifyCandidatesQuantized(const Index& index, const Dataset& dataset,
                                 const data::QuantizedMirror* mirror,
                                 typename Index::Point query,
                                 std::span<const uint32_t> ids, double radius,
                                 std::vector<uint32_t>* out,
                                 const util::BitVector* filter = nullptr) {
  if constexpr (std::is_same_v<Dataset, data::DenseDataset>) {
    const data::Metric metric = index.family().metric();
    if (mirror != nullptr && mirror->enabled()) {
      return VerifyBlockQuantized(dataset, *mirror, metric, query, ids, radius,
                                  out, nullptr, filter);
    }
    return VerifyBlock(dataset, metric, query, ids, radius, out, filter);
  } else if constexpr (std::is_same_v<Dataset, data::BinaryDataset>) {
    return VerifyBlock(dataset, query, ids, radius, out, filter);
  } else {
    size_t reported = 0;
    for (const uint32_t id : ids) {
      if (filter != nullptr && (id >= filter->size() || !filter->Get(id))) {
        continue;
      }
      if (index.Distance(dataset.point(id), query) <= radius) {
        out->push_back(id);
        ++reported;
      }
    }
    return reported;
  }
}

}  // namespace kernels
}  // namespace core
}  // namespace hybridlsh

#endif  // HYBRIDLSH_CORE_KERNELS_H_
