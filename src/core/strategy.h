// The vocabulary of the hybrid strategy (paper Algorithm 2): which path
// answered a query, the statistics the decision ran on, and its options.
// engine::ShardedEngine::QueryShard is the one place that decides.

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

/// Per-query (per shard walk) observability: everything Table 1 and
/// Figures 2-3 report.
struct QueryStats {
  Strategy strategy = Strategy::kLsh;
  /// Exact number of collisions in the probed buckets.
  uint64_t collisions = 0;
  /// candSize estimate from the merged HLLs.
  double cand_estimate = 0.0;
  /// Exact distinct candidate count (LSH path only; 0 on the linear path).
  size_t cand_actual = 0;
  /// Number of reported near neighbors.
  size_t output_size = 0;
  /// Model costs behind the decision.
  double lsh_cost = 0.0;
  double linear_cost = 0.0;
  /// Wall seconds spent merging HLLs + estimating candSize (Table 1 %Cost).
  double estimate_seconds = 0.0;
  /// Wall seconds for the whole shard walk (estimate + execution).
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
