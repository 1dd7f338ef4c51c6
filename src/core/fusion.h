// Deterministic multi-subquery result fusion (the merge stage of the
// composable query pipeline).
//
// A fused query runs N subqueries — different radii, different metrics, or
// an attribute-only scan — against one snapshot and combines their result
// lists into a single scored ranking, following the RRF / LINEAR scoring
// shapes of RediSearch's FT.HYBRID:
//
//   RRF:    fused(id) = sum_i  weight_i / (rrf_k + rank_i(id))
//   LINEAR: fused(id) = sum_i  weight_i * sim_i(id),  sim = 1 / (1 + dist)
//
// where rank_i is the 1-based rank of id in subquery i ordered by
// (distance ascending, id ascending), and a subquery that did not report
// id contributes nothing. The final ranking orders by (fused score
// descending, id ascending). Every tie-break is total, and each id's
// contributions are added in subquery order starting from 0.0, so the
// merge is bit-deterministic across runs, thread counts and the order
// entries arrive in within a list. It is across SIMD tiers too: the engine
// takes the per-id distances it consumes from the verify kernels' score
// pass (core/kernels.h), whose every tier computes the same bits.
//
// Cost is linear in the entries for lists that arrive ranked. A list
// already in rank order (the engine emits every list that way) is detected
// in one pass and consumed as is; any other list is ranked with the
// flat-key radix sort the engine uses (RankScoredList). Contributions
// accumulate through an open-addressing table keyed by id, sized by the
// number of entries — never by the largest id — with no sort. The final
// ranking is a natural merge sort, which costs one pass over the hits when
// ranked inputs leave them in order.

#ifndef HYBRIDLSH_CORE_FUSION_H_
#define HYBRIDLSH_CORE_FUSION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/status.h"

namespace hybridlsh {
namespace core {

enum class FusionMode : uint8_t {
  kRrf,     // reciprocal-rank fusion (rank-based, scale-free)
  kLinear,  // weighted sum of 1/(1+distance) similarities
};

inline const char* FusionModeName(FusionMode mode) {
  return mode == FusionMode::kRrf ? "rrf" : "linear";
}

struct FusionOptions {
  FusionMode mode = FusionMode::kRrf;
  /// RRF rank constant: larger values flatten the rank curve. 60 is the
  /// conventional default from the TREC fusion literature. The engine
  /// requires it finite and >= 0.
  double rrf_k = 60.0;
};

/// One fused result: a point id and its combined score (higher = better).
struct FusedHit {
  uint32_t id = 0;
  double score = 0.0;
};

/// One subquery's results: parallel id/distance arrays plus the
/// subquery's fusion weight. Distances must be >= 0 (radius-search
/// distances are); an attribute-only subquery reports distance 0 for
/// every id, making its ranks degenerate to ascending-id order and its
/// LINEAR similarity 1.
struct ScoredList {
  double weight = 1.0;
  std::vector<uint32_t> ids;
  std::vector<double> distances;
};

/// Reusable allocation scratch for RankScoredList and FuseScoredLists (the
/// engine keeps one in each query context it lends, so steady-state fusion
/// does not allocate).
struct FusionScratch {
  /// Rank sort: order-preserving distance bits and the radix ping-pong
  /// halves.
  std::vector<uint64_t> keys, keys_tmp;
  std::vector<uint32_t> ids_tmp;
  /// A rank-ordered copy of an input list that did not arrive ranked.
  ScoredList ranked;
  /// The accumulator: an open-addressing table of (hit index + 1, 0 =
  /// empty) slots keyed by id, and per hit the last subquery that
  /// contributed — a second contribution from the same subquery is an
  /// in-list duplicate.
  std::vector<uint32_t> slots;
  std::vector<uint32_t> last_list;
  /// Final ranking: run boundaries and the merge buffer.
  std::vector<size_t> run_bounds;
  std::vector<FusedHit> merged;
};

/// Sorts `list` in place into rank order with an LSD radix sort over flat
/// keys (the distance's order-preserving IEEE bits, then the id) — no
/// comparator, O(n) per non-constant key byte. A -0.0 distance is stored
/// back as +0.0, which it compares equal to. `scratch` may be null.
void RankScoredList(ScoredList* list, FusionScratch* scratch);

/// Merges `lists` into *out (cleared first) under `options`; see the file
/// comment for the exact semantics. Lists are read, never reordered.
/// Duplicate ids within one list are invalid (the radius-search paths
/// never produce them) and flagged with InvalidArgument. `scratch` may be
/// null (a local is used).
util::Status FuseScoredLists(std::span<const ScoredList> lists,
                             const FusionOptions& options,
                             FusionScratch* scratch,
                             std::vector<FusedHit>* out);

}  // namespace core
}  // namespace hybridlsh

#endif  // HYBRIDLSH_CORE_FUSION_H_
