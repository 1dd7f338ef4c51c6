// The composable query pipeline: QuerySpec and the shared stage helpers.
//
// Every query the engine answers — the legacy single-radius call, a
// predicate-filtered search, or an N-subquery fusion — is one QuerySpec
// flowing through the same stage chain:
//
//   plan    hash the query once per (query, family): lsh::ComputePlan /
//           ComputePlanBatch, shared across shards and subqueries;
//   probe   once per shard: one bounded walk over the epoch snapshot's
//           buckets (SegmentSnapshot::BoundedWalk) bounds candSize for
//           the cost model, and EstimateProbe merges sketches only when
//           the bounds leave the decision open (a fused query's
//           same-metric radius clauses share one walk at the widest
//           radius);
//   gather  S2 bucket merge into the VisitedSet (tombstone-filtered),
//           done by that same walk while LSH can still win, or the
//           filtered linear path's survivor enumeration;
//   filter  evaluate the predicate into a BitVector over [0, id_bound),
//           compose word-wise with the tombstone bitmap
//           (BitVector::AndWithNot), and derive one selectivity for the
//           cost model (BuildFilterContext below, once per query);
//   verify  the kernels of core/kernels.h with the filter pushed down —
//           a candidate pays a bit test before it pays a distance;
//   score   one prefetched pass of the dispatched kernels gives every
//           fused hit the key its verify compared (d^2 under L2, the
//           distance otherwise; core::kernels::ScoreCandidates, the same
//           bits on every tier), and one flat-key sort ranks the shared
//           walk on it; each narrower clause is the ranked prefix whose
//           keys pass the verify's test at its radius, and keys become
//           distances only after that carve;
//   merge   deterministic RRF / LINEAR fusion (core/fusion.h) with stable
//           tie-breaks.
//
// The radius entry points (Query, and the facade's QueryBatch) are thin
// wrappers that build a trivial QuerySpec, so there is exactly one
// execution path to maintain; a trivial spec takes the null-filter,
// no-fusion fast branches and compiles to the pre-pipeline flow.

#ifndef HYBRIDLSH_ENGINE_QUERY_PIPELINE_H_
#define HYBRIDLSH_ENGINE_QUERY_PIPELINE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/fusion.h"
#include "data/attributes.h"
#include "data/metric.h"
#include "util/bit_vector.h"
#include "util/status.h"

namespace hybridlsh {
namespace engine {

/// One fusion clause of a fused query. All subqueries run against the same
/// query point and the same per-shard snapshot acquisition; they differ in
/// radius, metric, or by being an attribute-only scan.
struct SubquerySpec {
  /// Search radius (ignored for attribute_only clauses). Like the weight,
  /// it must be finite and >= 0.
  double radius = 0.0;

  /// This clause's weight in the fused score.
  double weight = 1.0;

  /// Optional metric override (dense engines only). A subquery with a
  /// metric different from the engine's LSH family cannot use the index's
  /// buckets, so it executes as a (filtered) linear scan under that
  /// metric; subqueries without an override share one hybrid
  /// LSH-vs-linear walk at the widest of their radii.
  std::optional<data::Metric> metric;

  /// Attribute-only clause: geometry is ignored; every id passing the
  /// spec's predicate is reported with distance 0. Requires a predicate.
  bool attribute_only = false;
};

/// The one query description every engine entry point executes. A
/// default-constructed spec with just `radius` set reproduces the legacy
/// single-radius query exactly.
struct QuerySpec {
  /// Radius of the single (non-fused) query; must be finite and >= 0.
  /// Ignored when subqueries are present.
  double radius = 0.0;

  /// Optional pushdown predicate over the engine's attached
  /// AttributeStore; null means unfiltered. The pointee must outlive the
  /// call.
  const data::Predicate* predicate = nullptr;

  /// Fusion clauses. Empty = plain single query; otherwise the clauses
  /// share one plan, filter and per-shard snapshot — the same-metric
  /// radius clauses as one walk at the widest radius — and their lists
  /// merge under `fusion`.
  std::vector<SubquerySpec> subqueries;

  /// Scoring semantics for the merge stage.
  core::FusionOptions fusion;

  bool fused() const { return !subqueries.empty(); }

  static QuerySpec Radius(double radius) {
    QuerySpec spec;
    spec.radius = radius;
    return spec;
  }
};

/// The filter stage's product: one per query, shared by every shard and
/// subquery. `filter` is null for unfiltered specs; otherwise it points at
/// query-scratch storage holding predicate ∧ ¬tombstone bits over
/// [0, id_bound) — set bits are exactly the live ids that pass.
struct FilterContext {
  const util::BitVector* filter = nullptr;
  /// Survivors / live — the fraction of live points passing the filter,
  /// i.e. the selectivity term of CostModel::EffectiveLiveFraction.
  double selectivity = 1.0;
  /// popcount of the composed bitmap.
  size_t survivors = 0;
};

/// Runs the filter stage: evaluates `predicate` over [0, id_bound) into
/// *storage, composes with `tombstones` (which may be null for containers
/// without deletes, and may be concurrently written — AndWithNot loads it
/// word-atomically), counts survivors, and derives the selectivity against
/// `live_total` (the engine's live point count; survivors can exceed it
/// only transiently, hence the clamp downstream). Null predicate returns
/// the pass-through context without touching *storage.
inline FilterContext BuildFilterContext(const data::AttributeStore* attributes,
                                        const data::Predicate* predicate,
                                        const util::BitVector* tombstones,
                                        size_t id_bound, size_t live_total,
                                        util::BitVector* storage) {
  FilterContext ctx;
  if (predicate == nullptr) return ctx;
  HLSH_CHECK(attributes != nullptr &&
             "filtered query without an attached AttributeStore");
  data::EvaluateFilter(*attributes, *predicate, id_bound, storage);
  if (tombstones != nullptr) storage->AndWithNot(*tombstones);
  ctx.filter = storage;
  ctx.survivors = storage->Count();
  ctx.selectivity =
      live_total == 0 ? 0.0
                      : static_cast<double>(ctx.survivors) /
                            static_cast<double>(live_total);
  if (ctx.selectivity > 1.0) ctx.selectivity = 1.0;
  return ctx;
}

}  // namespace engine
}  // namespace hybridlsh

#endif  // HYBRIDLSH_ENGINE_QUERY_PIPELINE_H_
