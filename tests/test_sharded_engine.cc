// Tests for engine/sharded_engine.h: the shard fan-out must be candidate-
// equivalent to a monolithic table set (a one-segment SegmentedIndex over
// the whole dataset) built with the same (seed, k, L) — forced-LSH results
// equal the reference walk of that index's plan and forced-linear results
// equal a brute-force scan for any shard count, a 1-shard engine makes the
// paper's Algorithm 2 decision bounds first from the reference walk's
// collisions, per-table totals and estimate, the cost model can force each
// way a decision settles, and the auto decision is bracketed between the
// forced strategies. The reference side (tests/engine_oracle.h,
// data::RangeScan*) shares no code with the engine's query path.

#include "engine/sharded_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/hybridlsh.h"
#include "engine_oracle.h"

namespace hybridlsh {
namespace engine {
namespace {

using test_oracle::BuildStatic;
using test_oracle::LshOracle;

std::vector<uint32_t> Sorted(std::vector<uint32_t> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool IsSubset(const std::vector<uint32_t>& sub,
              const std::vector<uint32_t>& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

class ShardedEngineTest : public ::testing::Test {
 protected:
  using StaticIndex = SegmentedIndex<lsh::PStableFamily>;

  static constexpr size_t kDim = 16;
  static constexpr double kRadius = 0.4;

  void SetUp() override {
    // 4001 points before the split so shard counts like 3 and 7 never
    // divide the base size evenly.
    const data::DenseDataset full = data::MakeCorelLike(4001, kDim, 41);
    const data::DenseSplit split = data::SplitQueries(full, 25, 42);
    dataset_ = split.base;
    queries_ = split.queries;

    options_.num_tables = 25;
    options_.k = 7;
    options_.seed = 43;
    options_.searcher.cost_model = core::CostModel::FromRatio(6.0);

    EngineOptions mono_options = options_;
    mono_options.num_threads = 4;
    auto index = BuildStatic(Family(), dataset_, mono_options);
    HLSH_CHECK(index.ok());
    index_ = std::make_unique<StaticIndex>(std::move(*index));
  }

  static lsh::PStableFamily Family() {
    return lsh::PStableFamily::L2(kDim, 2 * kRadius);
  }

  /// A 4-worker pool builds 1- and 2-shard engines' tables pooled; one
  /// worker makes a lone caller walk its shards in order.
  L2Engine MakeEngine(
      size_t num_shards,
      core::ForcedStrategy forced = core::ForcedStrategy::kAuto,
      size_t num_threads = 4) {
    EngineOptions options = options_;
    options.num_shards = num_shards;
    options.num_threads = num_threads;
    options.searcher.forced = forced;
    auto engine = L2Engine::Build(Family(), dataset_, options);
    HLSH_CHECK(engine.ok());
    return std::move(*engine);
  }

  /// The monolithic reference-walk oracle for query q.
  std::vector<uint32_t> Oracle(size_t q, size_t probes_per_table = 1) const {
    return LshOracle(*index_, dataset_, queries_.point(q), kRadius,
                     probes_per_table);
  }

  std::vector<uint32_t> Truth(size_t q) const {
    return data::RangeScanDense(dataset_, queries_.point(q), kRadius,
                                data::Metric::kL2);
  }

  data::DenseDataset dataset_;
  data::DenseDataset queries_;
  EngineOptions options_;
  std::unique_ptr<StaticIndex> index_;
};

TEST_F(ShardedEngineTest, ForcedLshMatchesOracleAnyShardCount) {
  for (size_t num_shards : {1, 2, 3, 7, 8}) {
    auto engine = MakeEngine(num_shards, core::ForcedStrategy::kAlwaysLsh);
    EXPECT_EQ(engine.num_shards(), num_shards);
    std::vector<uint32_t> out;
    for (size_t q = 0; q < queries_.size(); ++q) {
      out.clear();
      ASSERT_TRUE(engine.Query(queries_.point(q), kRadius, &out).ok());
      EXPECT_EQ(Sorted(out), Oracle(q))
          << "shards=" << num_shards << " query=" << q;
    }
  }
}

TEST_F(ShardedEngineTest, ForcedLinearMatchesGroundTruth) {
  for (size_t num_shards : {1, 2, 8}) {
    auto engine = MakeEngine(num_shards, core::ForcedStrategy::kAlwaysLinear);
    std::vector<uint32_t> out;
    for (size_t q = 0; q < queries_.size(); ++q) {
      out.clear();
      ShardedQueryStats stats;
      ASSERT_TRUE(engine.Query(queries_.point(q), kRadius, &out, &stats).ok());
      // Per-shard linear scans emit increasing ids; shard order preserves
      // the global order, so `out` is already sorted.
      EXPECT_EQ(out, Truth(q)) << "shards=" << num_shards << " query=" << q;
      EXPECT_EQ(stats.linear_shards, engine.num_shards());
      EXPECT_EQ(stats.lsh_shards, 0u);
    }
  }
}

TEST_F(ShardedEngineTest, SingleShardFollowsAlgorithm2) {
  // A 1-shard engine is the paper's hybrid searcher, deciding bounds first
  // from the monolithic index's buckets and sketches. The reference walk
  // gives the collisions c, `lower` (the largest per-table probed total)
  // and the merged sketches' estimate. Eq. 1 at candSize = c below Eq. 2
  // settles LSH (upper bound); Eq. 1 at candSize = lower reaching it
  // settles linear (lower bound); otherwise Eq. 1 at the estimate clamped
  // into [lower, c] decides (sketch). A shard that walks to the end
  // reports c exactly, the lower bound may cut the walk short, and the
  // answer is the chosen strategy's oracle.
  auto engine = MakeEngine(1);
  const core::CostModel& model = options_.searcher.cost_model;
  const double linear_cost = model.LinearCost(dataset_.size());
  const auto snapshot = index_->Acquire();
  std::vector<uint32_t> out;
  size_t lsh_queries = 0;
  for (size_t q = 0; q < queries_.size(); ++q) {
    test_oracle::WalkReference reference(options_.hll_precision,
                                         snapshot.id_bound());
    reference.Segments(snapshot,
                       test_oracle::PlanOf(*index_, queries_.point(q)));
    const uint64_t collisions = reference.collisions();
    const uint64_t lower = reference.lower();
    core::Settlement expect_by = core::Settlement::kSketch;
    double cand_estimate = 0.0;
    bool expect_lsh = true;
    if (model.LshCost(collisions, static_cast<double>(collisions)) <
        linear_cost) {
      expect_by = core::Settlement::kUpperBound;
    } else if (model.LshCost(collisions, static_cast<double>(lower)) >=
               linear_cost) {
      expect_by = core::Settlement::kLowerBound;
      expect_lsh = false;
    } else {
      cand_estimate = std::clamp(reference.estimate(),
                                 static_cast<double>(lower),
                                 static_cast<double>(collisions));
      expect_lsh = model.LshCost(collisions, cand_estimate) < linear_cost;
    }

    out.clear();
    ShardedQueryStats stats;
    ASSERT_TRUE(engine.Query(queries_.point(q), kRadius, &out, &stats).ok());
    const core::QueryStats& shard = stats.per_shard[0];
    EXPECT_EQ(shard.decided_by, expect_by) << "query " << q;
    EXPECT_EQ(shard.strategy,
              expect_lsh ? core::Strategy::kLsh : core::Strategy::kLinear)
        << "query " << q;
    if (expect_by == core::Settlement::kLowerBound) {
      EXPECT_LE(shard.collisions, collisions) << "query " << q;
    } else {
      EXPECT_EQ(shard.collisions, collisions) << "query " << q;
    }
    EXPECT_EQ(shard.cand_estimate, cand_estimate) << "query " << q;
    EXPECT_EQ(Sorted(out), expect_lsh ? Oracle(q) : Truth(q)) << "query " << q;
    lsh_queries += expect_lsh;
  }
  EXPECT_GT(lsh_queries, 0u);
}

TEST_F(ShardedEngineTest, CostModelForcesEachSettlement) {
  // One query on a churned 1-shard engine (sealed segments, an active log
  // and tombstones in both). beta/alpha is set from the reference walk's c
  // and lower (live fraction f, L live points; Eq. 1 is c + beta*f*x and
  // Eq. 2 beta*L) so that each auto engine settles one way: far above
  // c / (L - f*c) the upper bound holds, far below c / (L - f*lower) the
  // lower bound does, and between the two the sketch decides. A
  // forced-LSH engine settles kForced. Each answer matches its strategy's
  // oracle, a lower-bound-settled walk stops before counting every
  // collision, and the counts reach the query stats and stats().
  EngineOptions options = options_;
  options.num_shards = 1;
  options.num_threads = 1;
  options.active_seal_threshold = 256;
  options.max_sealed_segments = 8;
  const data::DenseDataset incoming = data::MakeCorelLike(700, kDim, 44);
  struct Churned {
    std::unique_ptr<data::DenseDataset> points;
    std::unique_ptr<L2Engine> engine;
  };
  const auto make_churned = [&](double ratio, core::ForcedStrategy forced) {
    Churned churned;
    churned.points = std::make_unique<data::DenseDataset>(dataset_);
    EngineOptions engine_options = options;
    engine_options.searcher.cost_model = core::CostModel::FromRatio(ratio);
    engine_options.searcher.forced = forced;
    auto built =
        L2Engine::Build(Family(), churned.points.get(), engine_options);
    HLSH_CHECK(built.ok());
    churned.engine = std::make_unique<L2Engine>(std::move(*built));
    for (size_t i = 0; i < incoming.size(); ++i) {
      HLSH_CHECK(churned.engine->Insert(incoming.point(i)).ok());
    }
    // Seal before removing, so that every engine drops the same ids.
    churned.engine->DrainMaintenance();
    for (uint32_t id = 2; id < churned.points->size(); id += 9) {
      HLSH_CHECK(churned.engine->Remove(id).ok());
    }
    return churned;
  };
  util::BitVector dead(dataset_.size() + incoming.size());
  for (uint32_t id = 2; id < dead.size(); id += 9) dead.Set(id);

  // Reference bounds of every query on one churned engine. The models are
  // set for the query with the widest gap between lower and c among those
  // whose c leaves room for the upper bound (f*c well below L).
  const Churned probe = make_churned(6.0, core::ForcedStrategy::kAuto);
  const L2Engine::ShardIndex& index = probe.engine->shard_index(0);
  const auto snapshot = index.Acquire();
  ASSERT_GE(snapshot.view().sealed.size(), 2u);
  ASSERT_GT(snapshot.active_count(), 0u);
  const core::LiveStats live = index.live_stats();
  const double n = static_cast<double>(live.live);
  const double f = live.fraction();
  size_t q = 0;
  uint64_t best_gap = 0;
  for (size_t i = 0; i < queries_.size(); ++i) {
    test_oracle::WalkReference reference(options.hll_precision,
                                         snapshot.id_bound());
    reference.Segments(snapshot, test_oracle::PlanOf(index,
                                                     queries_.point(i)));
    const uint64_t gap = reference.collisions() - reference.lower();
    if (f * static_cast<double>(reference.collisions()) < n / 2 &&
        gap > best_gap) {
      best_gap = gap;
      q = i;
    }
  }
  ASSERT_GT(best_gap, 0u);
  const float* query = queries_.point(q);
  test_oracle::WalkReference reference(options.hll_precision,
                                       snapshot.id_bound(), &dead);
  reference.Segments(snapshot, test_oracle::PlanOf(index, query));
  const double c = static_cast<double>(reference.collisions());
  const double lower = static_cast<double>(reference.lower());
  const double upper_ratio = c / (n - f * c);  // upper bound holds above
  const double lower_ratio = c / (n - f * lower);  // lower bound holds below
  ASSERT_LT(lower_ratio, upper_ratio);

  // The oracles: in-radius live candidates of the reference walk, and a
  // brute-force scan of the live points.
  std::vector<uint32_t> lsh_oracle;
  for (const uint32_t id : reference.touched()) {
    if (index.Distance(probe.points->point(id), query) <= kRadius) {
      lsh_oracle.push_back(id);
    }
  }
  std::sort(lsh_oracle.begin(), lsh_oracle.end());
  std::vector<uint32_t> truth;
  for (const uint32_t id : data::RangeScanDense(*probe.points, query, kRadius,
                                                data::Metric::kL2)) {
    if (index.is_live(id)) truth.push_back(id);
  }

  const struct {
    double ratio;
    core::ForcedStrategy forced;
    core::Settlement settlement;
  } cases[] = {
      {4.0 * upper_ratio, core::ForcedStrategy::kAuto,
       core::Settlement::kUpperBound},
      {0.1 * lower_ratio, core::ForcedStrategy::kAuto,
       core::Settlement::kLowerBound},
      {std::sqrt(lower_ratio * upper_ratio), core::ForcedStrategy::kAuto,
       core::Settlement::kSketch},
      {6.0, core::ForcedStrategy::kAlwaysLsh, core::Settlement::kForced},
  };
  for (const auto& test_case : cases) {
    const core::Settlement settlement = test_case.settlement;
    SCOPED_TRACE(core::SettlementName(settlement));
    const Churned churned = make_churned(test_case.ratio, test_case.forced);
    std::vector<uint32_t> out;
    ShardedQueryStats stats;
    ASSERT_TRUE(churned.engine->Query(query, kRadius, &out, &stats).ok());
    const core::QueryStats& shard = stats.per_shard[0];
    EXPECT_EQ(shard.decided_by, settlement);

    bool expect_lsh = settlement != core::Settlement::kLowerBound;
    double cand_estimate = 0.0;
    if (settlement == core::Settlement::kSketch) {
      // Eq. 1 vs Eq. 2 at the clamped estimate, with the tombstone
      // correction (CostModel::CorrectedLshCost).
      const core::CostModel model = core::CostModel::FromRatio(test_case.ratio);
      cand_estimate = std::clamp(reference.estimate(), lower, c);
      expect_lsh = model.CorrectedLshCost(reference.collisions(),
                                          cand_estimate, live) <
                   model.LinearCost(live.live);
    }
    EXPECT_EQ(shard.strategy,
              expect_lsh ? core::Strategy::kLsh : core::Strategy::kLinear);
    EXPECT_EQ(shard.cand_estimate, cand_estimate);
    if (settlement == core::Settlement::kLowerBound) {
      EXPECT_LT(shard.collisions, reference.collisions());
    } else {
      EXPECT_EQ(shard.collisions, reference.collisions());
    }
    EXPECT_EQ(Sorted(out), expect_lsh ? lsh_oracle : truth);

    EXPECT_EQ(stats.upper_bound_shards,
              settlement == core::Settlement::kUpperBound ? 1u : 0u);
    EXPECT_EQ(stats.lower_bound_shards,
              settlement == core::Settlement::kLowerBound ? 1u : 0u);
    EXPECT_EQ(stats.sketch_shards,
              settlement == core::Settlement::kSketch ? 1u : 0u);
    EXPECT_EQ(stats.forced_shards,
              settlement == core::Settlement::kForced ? 1u : 0u);
    const EngineStats lifetime = churned.engine->stats();
    EXPECT_EQ(lifetime.upper_bound_decisions, stats.upper_bound_shards);
    EXPECT_EQ(lifetime.lower_bound_decisions, stats.lower_bound_shards);
    EXPECT_EQ(lifetime.sketch_decisions, stats.sketch_shards);
    EXPECT_EQ(lifetime.forced_decisions, stats.forced_shards);
  }
}

TEST_F(ShardedEngineTest, AutoIsBracketedByForcedStrategies) {
  // A shard that falls back to linear reports *more* of its range than the
  // LSH path would, never less; so auto is a superset of forced-LSH and a
  // subset of the exact answer.
  auto engine = MakeEngine(4);
  std::vector<uint32_t> out;
  for (size_t q = 0; q < queries_.size(); ++q) {
    out.clear();
    ASSERT_TRUE(engine.Query(queries_.point(q), kRadius, &out).ok());
    const auto sorted = Sorted(out);
    EXPECT_TRUE(IsSubset(Oracle(q), sorted)) << "query " << q;
    EXPECT_TRUE(IsSubset(sorted, Truth(q))) << "query " << q;
  }
}

TEST_F(ShardedEngineTest, ShardRangesPartitionTheDataset) {
  auto engine = MakeEngine(7);
  size_t expected_base = 0;
  for (size_t s = 0; s < engine.num_shards(); ++s) {
    const auto [lo, hi] = engine.shard_range(s);
    EXPECT_EQ(lo, expected_base);
    EXPECT_GT(hi, lo);
    EXPECT_EQ(engine.shard_index(s).size(), hi - lo);
    EXPECT_EQ(engine.shard_index(s).id_base(), lo);
    expected_base = hi;
  }
  EXPECT_EQ(expected_base, dataset_.size());
  // Balanced: sizes differ by at most one.
  const size_t first = engine.shard_index(0).size();
  for (size_t s = 1; s < engine.num_shards(); ++s) {
    const size_t size = engine.shard_index(s).size();
    EXPECT_TRUE(size == first || size + 1 == first);
  }
}

TEST_F(ShardedEngineTest, ShardCountClampedToDatasetSize) {
  data::DenseDataset tiny(5, kDim);
  EngineOptions options = options_;
  options.num_shards = 8;
  auto engine = L2Engine::Build(Family(), tiny, options);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine->num_shards(), 5u);
  EXPECT_EQ(engine->options().num_shards, 5u);
  EXPECT_EQ(engine->size(), 5u);
}

TEST_F(ShardedEngineTest, ShardBuildsShareThePool) {
  // Build writes the resolved pool size into the options every shard
  // holds, and each shard builds its tables on its share of the pool:
  // max(1, num_threads / num_shards) threads.
  struct Case { size_t shards, threads, pool, expected; };
  for (const Case c :
       {Case{1, 4, 4, 4}, {4, 1, 1, 1}, {4, 8, 8, 2}, {3, 0, 3, 1}}) {
    EngineOptions options = options_;
    options.num_shards = c.shards;
    options.num_threads = c.threads;
    auto engine = L2Engine::Build(Family(), dataset_, options);
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ(engine->num_threads(), c.pool);
    EXPECT_EQ(engine->options().num_threads, c.pool);
    for (size_t s = 0; s < engine->num_shards(); ++s) {
      EXPECT_EQ(engine->shard_index(s).options().num_threads, c.pool);
      EXPECT_EQ(engine->shard_index(s).build_threads(), c.expected)
          << "shards=" << c.shards << " threads=" << c.threads;
    }
  }
}

TEST(EngineOptionsTest, ValidateRejectsEachBadField) {
  EXPECT_TRUE(ValidateOptions(EngineOptions{}).ok());
  struct Case {
    const char* name;
    void (*apply)(EngineOptions*);
  };
  const Case bad[] = {
      {"no shards", [](EngineOptions* o) { o->num_shards = 0; }},
      {"2^20+1 shards",
       [](EngineOptions* o) { o->num_shards = kMaxOptionCount + 1; }},
      {"2^20+1 threads",
       [](EngineOptions* o) { o->num_threads = kMaxOptionCount + 1; }},
      {"no tables", [](EngineOptions* o) { o->num_tables = 0; }},
      {"2^20+1 tables",
       [](EngineOptions* o) { o->num_tables = (1 << 20) + 1; }},
      {"negative k", [](EngineOptions* o) { o->k = -1; }},
      {"k 2^20+1", [](EngineOptions* o) { o->k = (1 << 20) + 1; }},
      {"hll below range", [](EngineOptions* o) { o->hll_precision = 3; }},
      {"hll above range", [](EngineOptions* o) { o->hll_precision = 19; }},
      {"seal threshold 2^20+1",
       [](EngineOptions* o) {
         o->active_seal_threshold = kMaxOptionCount + 1;
       }},
      {"no probes", [](EngineOptions* o) { o->searcher.probes_per_table = 0; }},
      {"forced out of range",
       [](EngineOptions* o) {
         o->searcher.forced = static_cast<core::ForcedStrategy>(3);
       }},
      {"negative beta_screen",
       [](EngineOptions* o) { o->searcher.cost_model.beta_screen = -1.0; }},
      {"NaN rescore_fraction",
       [](EngineOptions* o) {
         o->searcher.cost_model.rescore_fraction = std::nan("");
       }},
  };
  for (const Case& c : bad) {
    EngineOptions options;
    c.apply(&options);
    EXPECT_EQ(ValidateOptions(options).code(),
              util::StatusCode::kInvalidArgument)
        << c.name;
  }
  // The bounds themselves are accepted.
  EngineOptions edge;
  edge.num_shards = kMaxOptionCount;
  edge.num_threads = kMaxOptionCount;
  edge.active_seal_threshold = kMaxOptionCount;
  edge.num_tables = 1 << 20;
  edge.k = 1 << 20;
  EXPECT_TRUE(ValidateOptions(edge).ok());
}

TEST_F(ShardedEngineTest, StatsAggregateAcrossShards) {
  auto engine = MakeEngine(4);
  std::vector<uint32_t> out;
  ShardedQueryStats stats;
  ASSERT_TRUE(engine.Query(queries_.point(0), kRadius, &out, &stats).ok());
  EXPECT_EQ(stats.num_shards, 4u);
  ASSERT_EQ(stats.per_shard.size(), 4u);
  EXPECT_EQ(stats.lsh_shards + stats.linear_shards, 4u);
  EXPECT_EQ(stats.output_size, out.size());
  size_t per_shard_output = 0;
  for (const core::QueryStats& shard : stats.per_shard) {
    per_shard_output += shard.output_size;
  }
  EXPECT_EQ(per_shard_output, out.size());
  EXPECT_GT(stats.total_seconds, 0.0);

  EXPECT_EQ(engine.stats().num_points, dataset_.size());
  EXPECT_EQ(engine.stats().num_shards, 4u);
  EXPECT_GT(engine.stats().memory_bytes, 0u);
}

TEST_F(ShardedEngineTest, HashOncePlanEvaluatesLSignaturesPerQuery) {
  // The tentpole guarantee: S1 runs once per query, not once per shard.
  // With 4 shards and L = 25 tables, exactly 25 signature evaluations are
  // observed per query — the plan is computed on shard 0's functions and
  // walked by all 4 shards.
  auto engine = MakeEngine(4);
  const uint64_t L = options_.num_tables;
  std::vector<uint32_t> out;
  ShardedQueryStats stats;

  lsh::SetHashEvalCounting(true);
  const uint64_t before = lsh::HashEvalCountForTest();
  ASSERT_TRUE(engine.Query(queries_.point(0), kRadius, &out, &stats).ok());
  const uint64_t after = lsh::HashEvalCountForTest();
  lsh::SetHashEvalCounting(false);

  EXPECT_EQ(after - before, L);
  EXPECT_EQ(stats.hash_evals, L);
  EXPECT_EQ(stats.plan_reuse, 4u);  // every shard walk consumed the plan
  EXPECT_GE(stats.hash_seconds, 0.0);
  // Per-shard stats reflect hash-once: every shard walked the one plan.
  for (const core::QueryStats& shard : stats.per_shard) {
    EXPECT_EQ(shard.plan_reuse, 1u);
  }
  // Engine-lifetime counters accumulate the same accounting.
  EXPECT_EQ(engine.stats().hash_evals, L);
  EXPECT_EQ(engine.stats().plan_reuse, 4u);
}

TEST_F(ShardedEngineTest, ForcedLinearSkipsHashingEntirely) {
  auto engine = MakeEngine(3, core::ForcedStrategy::kAlwaysLinear);
  std::vector<uint32_t> out;
  ShardedQueryStats stats;

  lsh::SetHashEvalCounting(true);
  const uint64_t before = lsh::HashEvalCountForTest();
  ASSERT_TRUE(engine.Query(queries_.point(0), kRadius, &out, &stats).ok());
  const uint64_t after = lsh::HashEvalCountForTest();
  lsh::SetHashEvalCounting(false);

  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(stats.hash_evals, 0u);
  EXPECT_EQ(stats.plan_reuse, 0u);
  EXPECT_EQ(stats.hash_seconds, 0.0);
  EXPECT_EQ(engine.stats().hash_evals, 0u);
}

TEST_F(ShardedEngineTest, BatchHashesOncePerQueryThroughBlockedKernels) {
  // The batch path pushes all queries through ComputePlanBatch (blocked
  // projection form): still exactly L evaluations per query (results are
  // compared with single queries in BatchMatchesSingleQueries).
  auto engine = MakeEngine(4);
  const uint64_t L = options_.num_tables;

  lsh::SetHashEvalCounting(true);
  const uint64_t before = lsh::HashEvalCountForTest();
  const auto batch = engine.QueryBatch(queries_, QuerySpec::Radius(kRadius));
  const uint64_t after = lsh::HashEvalCountForTest();
  lsh::SetHashEvalCounting(false);
  ASSERT_TRUE(batch.ok());

  EXPECT_EQ(after - before, L * queries_.size());
  for (const ShardedBatchResult& result : *batch) {
    EXPECT_EQ(result.stats.hash_evals, L);
    EXPECT_EQ(result.stats.plan_reuse, 4u);
  }
}

TEST_F(ShardedEngineTest, BatchMatchesSingleQueries) {
  // Pool sizes, idle workers, empty sets and scratch reuse across batches
  // are covered in tests/test_batch_query.cc.
  auto engine = MakeEngine(3);
  double wall_seconds = 0;
  const auto batch =
      engine.QueryBatch(queries_, QuerySpec::Radius(kRadius), &wall_seconds);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), queries_.size());
  EXPECT_GT(wall_seconds, 0.0);
  std::vector<uint32_t> out;
  for (size_t q = 0; q < queries_.size(); ++q) {
    out.clear();
    ASSERT_TRUE(engine.Query(queries_.point(q), kRadius, &out).ok());
    EXPECT_EQ((*batch)[q].neighbors, out) << "query " << q;
    EXPECT_EQ((*batch)[q].stats.lsh_shards + (*batch)[q].stats.linear_shards,
              3u);
  }
}

TEST_F(ShardedEngineTest, RadiusEntryPointsRejectBadRadius) {
  // A negative or non-finite radius is an InvalidArgument on every entry
  // point, never an abort, and nothing is reported — whether the lone
  // caller would walk the shards in order (1 worker) or fan them out.
  for (const size_t num_threads : {1u, 4u}) {
    SCOPED_TRACE(num_threads);
    const auto engine =
        MakeEngine(2, core::ForcedStrategy::kAuto, num_threads);
    for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
      std::vector<uint32_t> out;
      EXPECT_EQ(engine.Query(queries_.point(0), bad, &out).code(),
                util::StatusCode::kInvalidArgument)
          << bad;
      EXPECT_TRUE(out.empty());
      EXPECT_EQ(
          engine.QueryBatch(queries_, QuerySpec::Radius(bad)).status().code(),
          util::StatusCode::kInvalidArgument)
          << bad;
    }
    // The engine keeps serving afterwards.
    std::vector<uint32_t> out;
    EXPECT_TRUE(engine.Query(queries_.point(0), kRadius, &out).ok());
  }
}

TEST_F(ShardedEngineTest, PointEntryPointsRejectNonFiniteCoordinates) {
  // A NaN or infinite coordinate in a dense query or insert is an
  // InvalidArgument on every entry point: nothing is reported and nothing
  // is stored. (It used to reach the p-stable slot cast, which is
  // undefined for a non-finite value.) Checked on a 4-worker pool, whose
  // lone caller fans its shard walks out, and on a 1-worker twin that walks
  // them in order.
  data::DenseDataset dataset = dataset_;
  data::DenseDataset in_order_dataset = dataset_;
  EngineOptions options = options_;
  options.num_shards = 2;
  options.num_threads = 4;
  options.searcher.probes_per_table = 3;  // the huge case below probes too
  auto engine = L2Engine::Build(Family(), &dataset, options);
  ASSERT_TRUE(engine.ok());
  EngineOptions in_order_options = options;
  in_order_options.num_threads = 1;
  auto in_order =
      L2Engine::Build(Family(), &in_order_dataset, in_order_options);
  ASSERT_TRUE(in_order.ok());
  QuerySpec fused;
  fused.subqueries.push_back({kRadius, 1.0, std::nullopt, false});
  const size_t size_before = dataset.size();
  for (L2Engine* target : {&*engine, &*in_order}) {
    SCOPED_TRACE(target->num_threads());
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()}) {
      SCOPED_TRACE(bad);
      std::vector<float> point(queries_.point(0), queries_.point(0) + kDim);
      point[kDim / 2] = bad;
      std::vector<uint32_t> out;
      std::vector<core::FusedHit> hits;
      const util::StatusCode invalid = util::StatusCode::kInvalidArgument;
      EXPECT_EQ(target->Query(point.data(), kRadius, &out).code(), invalid);
      EXPECT_EQ(
          target->Query(point.data(), QuerySpec::Radius(kRadius), &out).code(),
          invalid);
      EXPECT_EQ(target->QueryFused(point.data(), fused, &hits).code(),
                invalid);
      data::DenseDataset batch = queries_;
      batch.Append(point);
      EXPECT_EQ(target->QueryBatch(batch, QuerySpec::Radius(kRadius))
                    .status()
                    .code(),
                invalid);
      EXPECT_TRUE(out.empty());
      EXPECT_TRUE(hits.empty());
      EXPECT_EQ(target->Insert(point.data()).status().code(), invalid);
    }
  }
  EXPECT_EQ(in_order_dataset.size(), size_before);
  EXPECT_EQ(in_order->size(), size_before);
  EXPECT_EQ(dataset.size(), size_before);
  EXPECT_EQ(engine->size(), size_before);

  // A huge finite coordinate is served: a slot past the int32 range maps
  // to its minimum instead of overflowing the cast, and a multi-probe step
  // down from that minimum wraps instead of overflowing, so the stored
  // point hashes like its own query and answers it (every other point is
  // out of reach).
  std::vector<float> huge(queries_.point(0), queries_.point(0) + kDim);
  huge[0] = 1e30f;
  const auto id = engine->Insert(huge.data());
  ASSERT_TRUE(id.ok());
  for (const size_t probes : {size_t{1}, size_t{3}}) {
    for (const auto forced : {core::ForcedStrategy::kAlwaysLsh,
                              core::ForcedStrategy::kAlwaysLinear}) {
      SCOPED_TRACE(probes);
      data::DenseDataset copy = dataset;
      options.searcher.probes_per_table = probes;
      options.searcher.forced = forced;
      auto check = L2Engine::Build(Family(), copy, options);
      ASSERT_TRUE(check.ok());
      std::vector<uint32_t> out;
      ASSERT_TRUE(check->Query(huge.data(), kRadius, &out).ok());
      EXPECT_EQ(out, std::vector<uint32_t>{*id});
    }
  }
  std::vector<uint32_t> out;
  ASSERT_TRUE(engine->Query(huge.data(), kRadius, &out).ok());
  EXPECT_EQ(out, std::vector<uint32_t>{*id});
}

TEST_F(ShardedEngineTest, MultiProbeFanOutMatchesOracle) {
  EngineOptions options = options_;
  options.num_shards = 5;
  options.searcher.probes_per_table = 4;
  options.searcher.forced = core::ForcedStrategy::kAlwaysLsh;
  auto engine = L2Engine::Build(Family(), dataset_, options);
  ASSERT_TRUE(engine.ok());

  std::vector<uint32_t> out;
  for (size_t q = 0; q < queries_.size(); ++q) {
    out.clear();
    ASSERT_TRUE(engine->Query(queries_.point(q), kRadius, &out).ok());
    EXPECT_EQ(Sorted(out), Oracle(q, 4)) << "query " << q;
  }
}

TEST_F(ShardedEngineTest, BuildValidatesProbeWidthPerFamily) {
  // Width 0 is InvalidArgument on every family; above 1 is Unimplemented
  // on a family without multi-probe (MinHash, covering), which used to
  // build and then abort on the first query.
  EngineOptions l2 = options_;
  l2.searcher.probes_per_table = 0;
  EXPECT_EQ(L2Engine::Build(Family(), dataset_, l2).status().code(),
            util::StatusCode::kInvalidArgument);

  const data::SparseDataset sets = data::MakeRandomSparse(300, 400, 20, 74);
  const data::BinaryDataset codes = data::MakeRandomCodes(300, 64, 75);
  const lsh::CoveringFamily covering(64, 2, 11);
  for (const size_t probes : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE(probes);
    const util::StatusCode want = probes == 0
                                      ? util::StatusCode::kInvalidArgument
                                      : util::StatusCode::kUnimplemented;
    EngineOptions jaccard;
    jaccard.num_shards = 2;
    jaccard.num_tables = 10;
    jaccard.k = 2;
    jaccard.searcher.probes_per_table = probes;
    EXPECT_EQ(ShardedEngine<lsh::MinHashFamily>::Build(lsh::MinHashFamily(),
                                                       sets, jaccard)
                  .status()
                  .code(),
              want);
    EngineOptions cover;
    cover.num_shards = 2;
    cover.num_tables = static_cast<int>(covering.num_tables());
    cover.searcher.probes_per_table = probes;
    EXPECT_EQ(
        ShardedEngine<lsh::CoveringFamily>::Build(covering, codes, cover)
            .status()
            .code(),
        want);
  }
}

TEST_F(ShardedEngineTest, RejectsEmptyDataset) {
  data::DenseDataset empty(0, kDim);
  EngineOptions options = options_;
  auto engine = L2Engine::Build(Family(), empty, options);
  EXPECT_FALSE(engine.ok());
}

// A second family + container: Hamming over packed binary codes.
TEST(ShardedEngineHammingTest, ForcedLshMatchesOracle) {
  const data::BinaryDataset full = data::MakeRandomCodes(2007, 64, 51);
  const data::BinarySplit split = data::SplitQueriesBinary(full, 20, 52);
  const uint32_t radius = 12;

  EngineOptions options;
  options.num_tables = 20;
  options.k = 10;
  options.seed = 53;
  lsh::BitSamplingFamily family(64);
  auto index = BuildStatic(family, split.base, options);
  ASSERT_TRUE(index.ok());

  for (size_t num_shards : {1, 4, 6}) {
    EngineOptions engine_options = options;
    engine_options.num_shards = num_shards;
    engine_options.searcher.cost_model = core::CostModel::FromRatio(10.0);
    engine_options.searcher.forced = core::ForcedStrategy::kAlwaysLsh;
    auto engine = HammingEngine::Build(family, split.base, engine_options);
    ASSERT_TRUE(engine.ok());

    std::vector<uint32_t> out;
    for (size_t q = 0; q < split.queries.size(); ++q) {
      out.clear();
      ASSERT_TRUE(engine->Query(split.queries.point(q), radius, &out).ok());
      EXPECT_EQ(Sorted(out), LshOracle(*index, split.base,
                                       split.queries.point(q), radius))
          << "shards=" << num_shards << " query=" << q;
    }
  }
}

// --- Mutable lifecycle through the sharded engine. -------------------------

TEST_F(ShardedEngineTest, ChurnMatchesStaticRebuildAcrossShardCounts) {
  const data::DenseDataset incoming = data::MakeCorelLike(1000, kDim, 77);

  for (size_t num_shards : {3, 7}) {
    for (const auto forced : {core::ForcedStrategy::kAlwaysLsh,
                              core::ForcedStrategy::kAlwaysLinear,
                              core::ForcedStrategy::kAuto}) {
      // Each (shard count, strategy) run replays the same churn: Insert
      // routing is round-robin and the remove sequence is seeded, so the
      // final live set is identical across runs.
      data::DenseDataset dataset = dataset_;  // grows with inserts
      EngineOptions options = options_;
      options.num_shards = num_shards;
      options.active_seal_threshold = 128;
      options.max_sealed_segments = 2;
        options.searcher.probes_per_table = 3;  // multi-probe on
      options.searcher.forced = forced;
      auto built = L2Engine::Build(Family(), &dataset, options);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      auto engine = std::move(*built);
      EXPECT_TRUE(engine.updates_enabled());

      util::Rng rng(91 + num_shards);
      const size_t initial_n = dataset.size();
      for (size_t i = 0; i < 600; ++i) {
        auto id = engine.Insert(incoming.point(i));
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        EXPECT_EQ(*id, initial_n + i);
        if (i % 3 == 0) {
          const uint32_t victim = static_cast<uint32_t>(
              rng.UniformInt(0, static_cast<int64_t>(dataset.size() - 1)));
          ASSERT_TRUE(engine.Remove(victim).ok());
        }
      }
      engine.CompactAll();
      for (size_t i = 600; i < incoming.size(); ++i) {
        ASSERT_TRUE(engine.Insert(incoming.point(i)).ok());
      }

      // Static rebuild over the live set: the LSH oracle walks it, the
      // linear oracle scans it; ids map back through the live-id list, and
      // auto sits between the two.
      std::vector<uint32_t> live_ids;
      for (size_t s = 0; s < engine.num_shards(); ++s) {
        engine.shard_index(s).Acquire().GatherLiveIds(nullptr, &live_ids);
      }
      std::sort(live_ids.begin(), live_ids.end());
      ASSERT_EQ(live_ids.size(), engine.size());
      data::DenseDataset live(0, kDim);
      for (const uint32_t id : live_ids) {
        live.Append(std::span<const float>(dataset.point(id), kDim));
      }
      auto rebuilt = BuildStatic(Family(), live, options_);
      ASSERT_TRUE(rebuilt.ok());

      std::vector<uint32_t> out;
      for (size_t q = 0; q < queries_.size(); ++q) {
        auto global = [&](std::vector<uint32_t> ids) {
          for (uint32_t& id : ids) id = live_ids[id];
          return Sorted(std::move(ids));
        };
        const auto lsh =
            global(LshOracle(*rebuilt, live, queries_.point(q), kRadius, 3));
        const auto linear = global(data::RangeScanDense(
            live, queries_.point(q), kRadius, data::Metric::kL2));
        out.clear();
        ASSERT_TRUE(engine.Query(queries_.point(q), kRadius, &out).ok());
        const auto got = Sorted(out);
        if (forced == core::ForcedStrategy::kAuto) {  // bracketed
          EXPECT_TRUE(IsSubset(lsh, got) && IsSubset(got, linear));
        } else {
          EXPECT_EQ(got, forced == core::ForcedStrategy::kAlwaysLsh ? lsh
                                                                     : linear)
              << "shards=" << num_shards << " query=" << q
              << " forced=" << static_cast<int>(forced);
        }
      }
    }
  }
}

TEST_F(ShardedEngineTest, UpdateRoutingAndGuards) {
  data::DenseDataset dataset = dataset_;
  EngineOptions options = options_;
  options.num_shards = 4;

  // Read-only build: Insert rejected until EnableUpdates; Remove works.
  auto engine = L2Engine::Build(
      Family(), static_cast<const data::DenseDataset&>(dataset), options);
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine->updates_enabled());
  EXPECT_FALSE(engine->Insert(dataset.point(0)).ok());
  EXPECT_TRUE(engine->Remove(5).ok());
  EXPECT_EQ(engine->size(), dataset.size() - 1);

  // A foreign dataset is rejected; the indexed one is accepted.
  data::DenseDataset other(3, kDim);
  EXPECT_FALSE(engine->EnableUpdates(&other).ok());
  ASSERT_TRUE(engine->EnableUpdates(&dataset).ok());

  // Inserts spread round-robin and land on the owning shard for Remove.
  const data::DenseDataset incoming = data::MakeCorelLike(8, kDim, 93);
  std::vector<uint32_t> inserted;
  for (size_t i = 0; i < 8; ++i) {
    auto id = engine->Insert(incoming.point(i));
    ASSERT_TRUE(id.ok());
    inserted.push_back(*id);
  }
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(engine->shard_index(s).lifecycle().active_points, 2u);
  }
  for (const uint32_t id : inserted) EXPECT_TRUE(engine->Remove(id).ok());

  // Ids that were never handed out are rejected.
  EXPECT_FALSE(
      engine->Remove(static_cast<uint32_t>(dataset.size()) + 10).ok());

  // Compaction drops all tombstones and keeps the engine serving.
  engine->CompactAll();
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(engine->shard_index(s).lifecycle().tombstones, 0u);
  }
  std::vector<uint32_t> out;
  ASSERT_TRUE(engine->Query(queries_.point(0), kRadius, &out).ok());
  const auto truth = data::RangeScanDense(dataset_, queries_.point(0),
                                          kRadius, data::Metric::kL2);
  for (uint32_t id : out) {
    EXPECT_TRUE(std::binary_search(truth.begin(), truth.end(), id));
  }
}

// --- The linear scan's contiguous-run walk. --------------------------------
// A static engine's sealed segment holds one contiguous id run; the linear
// scan appends it whole (no tombstone bit in range) or walks the filter's
// words (predicate pushed down). Its output must equal data::RangeScan* in
// id order, and after a Remove inside the run the segment falls back to
// the per-id tombstone test, so the removed id never comes back.

/// Builds a 1-shard forced-linear engine over `dataset` and checks it,
/// unfiltered and under "id % 3 == 1", against truth(q) (ascending ids)
/// before and after removing one of query 0's neighbors.
template <typename Engine, typename Family, typename Dataset,
          typename Queries, typename Truth>
void ExpectLinearWalkMatches(const Family& family, const Dataset& dataset,
                             const Queries& queries, double radius,
                             Truth truth) {
  EngineOptions options;
  options.num_tables = 4;
  options.k = 4;
  options.searcher.forced = core::ForcedStrategy::kAlwaysLinear;
  auto engine = Engine::Build(family, dataset, options);
  ASSERT_TRUE(engine.ok());
  data::AttributeStore attributes;
  attributes.AddColumn("category");
  for (size_t id = 0; id < dataset.size(); ++id) {
    const uint32_t row[1] = {static_cast<uint32_t>(id % 3)};
    attributes.AppendRow(row);
  }
  engine->AttachAttributes(&attributes);
  const data::Predicate pred = data::Predicate::Equals(0, 1);
  QuerySpec filtered = QuerySpec::Radius(radius);
  filtered.predicate = &pred;

  const std::vector<uint32_t> hits = truth(0);
  ASSERT_FALSE(hits.empty());
  const uint32_t victim = hits[hits.size() / 2];
  for (const bool removed : {false, true}) {
    if (removed) {
      ASSERT_TRUE(engine->Remove(victim).ok());
    }
    for (size_t q = 0; q < queries.size(); ++q) {
      std::vector<uint32_t> expected = truth(q), kept, out;
      if (removed) std::erase(expected, victim);
      std::copy_if(expected.begin(), expected.end(), std::back_inserter(kept),
                   [](uint32_t id) { return id % 3 == 1; });
      ASSERT_TRUE(engine->Query(queries.point(q), radius, &out).ok());
      EXPECT_EQ(out, expected) << "query " << q << " removed " << removed;
      out.clear();
      ASSERT_TRUE(engine->Query(queries.point(q), filtered, &out).ok());
      EXPECT_EQ(out, kept) << "filtered query " << q << " removed " << removed;
    }
  }
}

TEST_F(ShardedEngineTest, DrainMaintenanceLeavesNoFrozenLog) {
  // A burst of inserts freezes logs faster than the one background pass
  // per shard seals them. A log frozen after a pass's last look must still
  // be sealed once the burst ends: the pass re-checks for pending work
  // after clearing its in-flight flag. (It used to stay frozen until the
  // shard's next insert, and DrainMaintenance returned with it pending.)
  const data::DenseDataset incoming = data::MakeCorelLike(500, kDim, 95);
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE(round);
    data::DenseDataset dataset = dataset_;
    EngineOptions options = options_;
    options.num_shards = 3;
    options.active_seal_threshold = 4;
    options.max_sealed_segments = 2;
    auto engine = L2Engine::Build(Family(), &dataset, options);
    ASSERT_TRUE(engine.ok());
    for (size_t i = 0; i < incoming.size(); ++i) {
      ASSERT_TRUE(engine->Insert(incoming.point(i)).ok());
    }
    engine->DrainMaintenance();
    for (size_t s = 0; s < engine->num_shards(); ++s) {
      const auto lifecycle = engine->shard_index(s).lifecycle();
      EXPECT_EQ(lifecycle.pending_seal_logs, 0u) << "shard " << s;
      EXPECT_LE(lifecycle.sealed_segments, 2u) << "shard " << s;
    }
  }
}

TEST_F(ShardedEngineTest, LinearWalkMatchesRangeScanDense) {
  ExpectLinearWalkMatches<L2Engine>(Family(), dataset_, queries_, kRadius,
                                    [&](size_t q) { return Truth(q); });
}

TEST(ShardedEngineLinearWalkTest, MatchesRangeScanBinary) {
  const data::BinaryDataset full = data::MakeRandomCodes(1501, 64, 71);
  const data::BinarySplit split = data::SplitQueriesBinary(full, 12, 72);
  const uint32_t radius = 24;
  ExpectLinearWalkMatches<HammingEngine>(
      lsh::BitSamplingFamily(64), split.base, split.queries, radius,
      [&](size_t q) {
        return data::RangeScanBinary(split.base, split.queries.point(q),
                                     radius);
      });
}

TEST(ShardedEngineLinearWalkTest, MatchesRangeScanSparse) {
  const data::SparseDataset sets = data::MakeRandomSparse(900, 400, 25, 73);
  struct Queries {  // every 37th set
    const data::SparseDataset* sets;
    size_t size() const { return 10; }
    data::SparseDataset::Point point(size_t q) const {
      return sets->point(q * 37);
    }
  } queries{&sets};
  ExpectLinearWalkMatches<JaccardEngine>(
      lsh::MinHashFamily(), sets, queries, 0.9, [&](size_t q) {
        return data::RangeScanSparse(sets, queries.point(q), 0.9);
      });
}

}  // namespace
}  // namespace engine
}  // namespace hybridlsh
