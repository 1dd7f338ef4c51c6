// Reference answers for engine tests that share no code with the engine's
// query path: forced-LSH is the in-radius part of the reference walk of a
// static table set's probe plan (a one-segment engine::SegmentedIndex:
// ComputePlan, WalkReference, scalar family distance); tests take
// forced-linear from data::RangeScan* directly. The scalar distances match
// the engine's kernels for the suites' fixed seeds (see the core/kernels.h
// comment on last-ulp radii).
//
// WalkReference replays a probe plan one (table, key) at a time, in plan
// order, with none of the walks' windowing or prefetching: a sealed table
// through LshTable::Lookup, a log by scanning its entries newest first,
// which is the order its bucket chains list them in. A plan walk must match
// it in collisions, each table's probed total (their maximum is the bounded
// walk's `lower`), merged HLL registers and VisitedSet::touched() order.
//
// ExpectSameShardWalks compares two runs of one query instead: the tests
// use it to hold a lone caller's shard walks in order (1-worker pool) to
// the same walks fanned out on a 4-worker pool.

#ifndef HYBRIDLSH_TESTS_ENGINE_ORACLE_H_
#define HYBRIDLSH_TESTS_ENGINE_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cost_model.h"
#include "core/strategy.h"
#include "engine/options.h"
#include "engine/segmented_index.h"
#include "engine/sharded_engine.h"
#include "hll/hyperloglog.h"
#include "lsh/index.h"
#include "lsh/table.h"
#include "util/bit_vector.h"
#include "util/status.h"

namespace hybridlsh {
namespace test_oracle {

/// S1 for one query: the index's probe plan.
template <typename Index, typename Point>
lsh::ProbePlan PlanOf(const Index& index, Point query,
                      size_t probes_per_table = 1) {
  lsh::PlanScratch scratch;
  lsh::ProbePlan plan;
  HLSH_CHECK(index.ComputePlan(query, probes_per_table, &scratch, &plan).ok());
  return plan;
}

/// A static table set over all of `dataset`: the one-segment index the
/// oracle walks.
template <typename Family, typename Dataset>
util::StatusOr<engine::SegmentedIndex<Family, Dataset>> BuildStatic(
    Family family, const Dataset& dataset,
    const engine::EngineOptions& options) {
  return engine::SegmentedIndex<Family, Dataset>::Build(
      std::move(family), &dataset, 0, dataset.size(), options);
}

/// The reference plan walk (see file comment): accumulates what the
/// estimate (collisions, merged registers), the bounds (per-table probed
/// totals) and S2 (dedup order of the ids not set in `tombstones`) of the
/// same probes produce.
class WalkReference {
 public:
  WalkReference(int hll_precision, size_t id_bound,
                const util::BitVector* tombstones = nullptr)
      : merged_(hll_precision), visited_(id_bound), tombstones_(tombstones) {}

  /// Every probe of `plan` against one sealed table range.
  void Sealed(std::span<const lsh::LshTable> tables,
              const lsh::ProbePlan& plan) {
    table_totals_.resize(plan.num_tables());
    for (size_t t = 0; t < plan.num_tables(); ++t) {
      for (const uint64_t key : plan.TableKeys(t)) {
        const lsh::LshTable::BucketView bucket = tables[t].Lookup(key);
        collisions_ += bucket.size();
        table_totals_[t] += bucket.size();
        if (bucket.sketch != nullptr) {
          HLSH_CHECK(merged_.Merge(*bucket.sketch).ok());
        } else {
          for (const uint32_t id : bucket.ids) merged_.AddPoint(id);
        }
        for (const uint32_t id : bucket.ids) Collect(id);
      }
    }
  }

  /// Every probe of `plan` against a log's entries [0, limit) (an
  /// engine::ActiveLshLog, through its per-entry accessors).
  template <typename Log>
  void LogEntries(const Log& log, const lsh::ProbePlan& plan, size_t limit) {
    table_totals_.resize(plan.num_tables());
    for (size_t t = 0; t < plan.num_tables(); ++t) {
      for (const uint64_t key : plan.TableKeys(t)) {
        for (size_t i = limit; i-- > 0;) {
          if (log.key(t, i) != key) continue;
          ++collisions_;
          ++table_totals_[t];
          merged_.AddPoint(log.id(i));
          Collect(log.id(i));
        }
      }
    }
  }

  /// Every probe of `plan` against an engine::SegmentedIndex snapshot, in
  /// the snapshot's segment order: sealed segments, frozen logs, then the
  /// active log up to the snapshot's count.
  template <typename Snapshot>
  void Segments(const Snapshot& snapshot, const lsh::ProbePlan& plan) {
    for (const auto& segment : snapshot.view().sealed) {
      Sealed(segment->tables, plan);
    }
    for (const auto& log : snapshot.view().frozen) {
      LogEntries(*log, plan, log->size_acquire());
    }
    LogEntries(*snapshot.view().active, plan, snapshot.active_count());
  }

  uint64_t collisions() const { return collisions_; }
  /// The largest per-table probed total: the bounded walk's lower bound on
  /// the distinct candidates.
  uint64_t lower() const {
    uint64_t lower = 0;
    for (const uint64_t total : table_totals_) lower = std::max(lower, total);
    return lower;
  }
  /// The merged sketches' candSize estimate (0 over no collisions), as
  /// SegmentSnapshot::EstimateProbe reports it.
  double estimate() const {
    return collisions_ == 0 ? 0.0 : merged_.Estimate();
  }
  const hll::HyperLogLog& merged() const { return merged_; }
  const std::vector<uint32_t>& touched() const { return visited_.touched(); }

 private:
  void Collect(uint32_t id) {
    if (tombstones_ == nullptr || !tombstones_->TestAcquire(id)) {
      visited_.Insert(id);
    }
  }

  uint64_t collisions_ = 0;
  std::vector<uint64_t> table_totals_;
  hll::HyperLogLog merged_;
  util::VisitedSet visited_;
  const util::BitVector* tombstones_;
};

/// Sorted in-radius ids of the reference walk of `index`'s plan for
/// `query`. `index` is a static table set over `dataset` (BuildStatic), so
/// its ids index `dataset` directly.
template <typename Family, typename Dataset>
std::vector<uint32_t> LshOracle(
    const engine::SegmentedIndex<Family, Dataset>& index,
    const Dataset& dataset, typename Family::Point query, double radius,
    size_t probes_per_table = 1) {
  const auto snapshot = index.Acquire();
  WalkReference reference(index.options().hll_precision,
                          snapshot.id_bound());
  reference.Segments(snapshot, PlanOf(index, query, probes_per_table));
  std::vector<uint32_t> ids;
  for (const uint32_t id : reference.touched()) {
    if (index.family().Distance(dataset.point(id), query) <= radius) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Whether `prefix` is a prefix of `ids`.
inline bool IsPrefix(const std::vector<uint32_t>& prefix,
                     const std::vector<uint32_t>& ids) {
  return prefix.size() <= ids.size() &&
         std::equal(prefix.begin(), prefix.end(), ids.begin());
}

/// Whether a snapshot's EstimateProbe, BoundedWalk and CollectWalked walks
/// of `plan` match the reference walk of the same snapshot:
///
///   - the estimate in collisions and merged registers;
///   - an unbounded walk (forced-LSH bounds) in collisions, `lower` and
///     dedup order;
///   - when lower < collisions, a walk whose collision budget runs out
///     midway in collisions and `lower`, having collected a prefix of the
///     dedup order, and CollectWalked from that walk's resolved buckets
///     (the gap's LSH collect) in dedup order;
///   - when lower > 0, a walk the lower bound stops, having counted no
///     more than the collisions and reached exactly `lower`.
///
/// The last two price Eq. 1 at alpha = 0 and beta = 1 against `live` live
/// points, so the upper bound holds while c < live and the lower bound
/// settles once lower >= live: live = lower + 1 makes the budget run out
/// and never stops, live = lower stops. `tombstones` is the bitmap the
/// snapshot's index filters with. Safe while a writer appends to the
/// snapshot's index (the concurrency suite's reader check).
template <typename Snapshot>
bool SnapshotWalksMatchReference(const Snapshot& snapshot,
                                 const lsh::ProbePlan& plan,
                                 int hll_precision,
                                 const util::BitVector* tombstones) {
  WalkReference reference(hll_precision, snapshot.id_bound(), tombstones);
  reference.Segments(snapshot, plan);
  hll::HyperLogLog merged(hll_precision);
  const lsh::ProbeEstimate estimate = snapshot.EstimateProbe(plan, &merged);
  bool match = estimate.collisions == reference.collisions() &&
               merged == reference.merged();

  util::VisitedSet visited(snapshot.id_bound());
  engine::BoundedWalkScratch scratch;
  const auto walk = [&](const core::DecisionBounds& bounds,
                        engine::BoundedWalkResult* result) {
    visited.Reset();
    *result = snapshot.BoundedWalk(plan, bounds, &scratch, &visited);
    return IsPrefix(visited.touched(), reference.touched());
  };
  engine::BoundedWalkResult result;
  const core::CostModel model;
  match = match &&
          walk(core::DecisionBounds::AlwaysLsh(model, core::LiveStats{1, 1}),
               &result) &&
          result.collected && !result.stopped &&
          result.collisions == reference.collisions() &&
          result.lower == reference.lower() &&
          visited.touched() == reference.touched();

  const core::CostModel distinct_only{0.0, 1.0};
  const uint64_t lower = reference.lower();
  if (lower < reference.collisions()) {
    const core::LiveStats live{lower + 1, lower + 1};
    match = match && walk(core::DecisionBounds(distinct_only, live), &result) &&
            !result.collected && !result.stopped &&
            result.collisions == reference.collisions() &&
            result.lower == lower;
    visited.Reset();
    snapshot.CollectWalked(plan, &scratch, &visited);
    match = match && visited.touched() == reference.touched();
  }
  if (lower > 0) {
    const core::LiveStats live{lower, lower};
    match = match && walk(core::DecisionBounds(distinct_only, live), &result) &&
            !result.collected && result.stopped &&
            result.collisions <= reference.collisions() &&
            result.lower == lower;
  }
  return match;
}

/// Expects two runs of one query to have walked every shard alike: the
/// same decision, Algorithm 2 counts and output per shard, and the same
/// plan and filter totals. Timings are not compared.
inline void ExpectSameShardWalks(const engine::ShardedQueryStats& got,
                                 const engine::ShardedQueryStats& want) {
  ASSERT_EQ(got.per_shard.size(), want.per_shard.size());
  for (size_t s = 0; s < got.per_shard.size(); ++s) {
    const core::QueryStats& a = got.per_shard[s];
    const core::QueryStats& b = want.per_shard[s];
    EXPECT_EQ(a.strategy, b.strategy) << "shard " << s;
    EXPECT_EQ(a.collisions, b.collisions) << "shard " << s;
    EXPECT_EQ(a.cand_estimate, b.cand_estimate) << "shard " << s;
    EXPECT_EQ(a.cand_actual, b.cand_actual) << "shard " << s;
    EXPECT_EQ(a.output_size, b.output_size) << "shard " << s;
    EXPECT_EQ(a.plan_reuse, b.plan_reuse) << "shard " << s;
  }
  EXPECT_EQ(got.hash_evals, want.hash_evals);
  EXPECT_EQ(got.output_size, want.output_size);
  EXPECT_EQ(got.filter_survivors, want.filter_survivors);
}

}  // namespace test_oracle
}  // namespace hybridlsh

#endif  // HYBRIDLSH_TESTS_ENGINE_ORACLE_H_
