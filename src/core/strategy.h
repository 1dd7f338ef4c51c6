// The vocabulary of the hybrid strategy (paper Algorithm 2): which path
// answered a query, what settled the decision, the statistics it ran on,
// and its options. engine::ShardedEngine::QueryShard is the one place that
// decides.

#ifndef HYBRIDLSH_CORE_STRATEGY_H_
#define HYBRIDLSH_CORE_STRATEGY_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "core/cost_model.h"

namespace hybridlsh {
namespace core {

/// Which execution path answered a query.
enum class Strategy {
  kLsh,
  kLinear,
};

/// Stable display name ("lsh" / "linear").
inline std::string_view StrategyName(Strategy strategy) {
  return strategy == Strategy::kLsh ? "lsh" : "linear";
}

/// What settled a shard's decision (core::DecisionBounds).
enum class Settlement {
  kUpperBound,  // CorrectedLshCost(c, c) < LinearCost: LSH, no sketch read
  kLowerBound,  // CorrectedLshCost(c, lower) >= LinearCost: linear, walk cut
  kSketch,      // the gap: the merged HLL estimate decided
  kForced,      // ForcedStrategy bypassed the decision
};

/// Stable display name ("upper_bound" / "lower_bound" / "sketch" /
/// "forced").
inline std::string_view SettlementName(Settlement settlement) {
  switch (settlement) {
    case Settlement::kUpperBound:
      return "upper_bound";
    case Settlement::kLowerBound:
      return "lower_bound";
    case Settlement::kSketch:
      return "sketch";
    case Settlement::kForced:
      return "forced";
  }
  return "forced";
}

/// Per-query (per shard walk) observability: everything Table 1 and
/// Figures 2-3 report.
struct QueryStats {
  Strategy strategy = Strategy::kLsh;
  /// What settled the decision; kForced when a ForcedStrategy bypassed it.
  Settlement decided_by = Settlement::kForced;
  /// Collisions in the probed buckets: exact on a shard whose walk ran to
  /// the end, and the count at which the walk stopped on a shard the lower
  /// bound settled (kLowerBound). 0 on forced-linear, which never walks.
  uint64_t collisions = 0;
  /// candSize estimate from the merged HLLs, clamped into [lower,
  /// collisions]; 0 unless a sketch was merged (kSketch).
  double cand_estimate = 0.0;
  /// Exact distinct candidate count (LSH path only; 0 on the linear path).
  size_t cand_actual = 0;
  /// Number of reported near neighbors.
  size_t output_size = 0;
  /// Model costs behind the decision. lsh_cost is the cost that settled it:
  /// CorrectedLshCost(collisions, collisions) for kUpperBound and for
  /// forced-LSH, CorrectedLshCost(collisions, lower) for kLowerBound and
  /// CorrectedLshCost(collisions, cand_estimate) for kSketch (0 on
  /// forced-linear).
  double lsh_cost = 0.0;
  double linear_cost = 0.0;
  /// Wall seconds of work done only to decide (Table 1 %Cost): the gap's
  /// sketch merge, plus the bucket walk of a shard decided linear. 0 on a
  /// shard the upper bound settled, whose walk is its candidate collection.
  double estimate_seconds = 0.0;
  /// Wall seconds for the whole shard walk (decision + execution).
  double total_seconds = 0.0;
  /// 1 when this shard walk consumed the query's ProbePlan (0 on
  /// forced-linear, which never plans).
  size_t plan_reuse = 0;
};

/// Mutually exclusive execution modes, fixed per engine.
enum class ForcedStrategy {
  kAuto,        // the hybrid decision (default)
  kAlwaysLsh,   // classic LSH-based search
  kAlwaysLinear  // exact scan
};

/// How an engine decides and probes.
struct SearcherOptions {
  /// The calibrated or pinned (alpha, beta) constants.
  CostModel cost_model;
  /// Probes per table; > 1 enables multi-probe on families that support it.
  size_t probes_per_table = 1;
  /// Bypass the decision (used by the figure benches' LSH/Linear series).
  ForcedStrategy forced = ForcedStrategy::kAuto;
};

}  // namespace core
}  // namespace hybridlsh

#endif  // HYBRIDLSH_CORE_STRATEGY_H_
