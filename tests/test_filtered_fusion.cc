// Property suite for the composable query pipeline: pushed-down predicate
// filters and multi-subquery fusion.
//
// The load-bearing property: a filtered query is BIT-IDENTICAL to running
// the same query unfiltered and post-filtering its results — same ids, same
// order — across 1-shard and sharded engines, through churn (inserts +
// removes + compaction) and under concurrent readers. Bit-identity is asserted under the forced strategies
// (kAlwaysLsh / kAlwaysLinear), where both runs walk identical candidate
// sets; auto mode is bracketed between them, exactly like the engine's
// existing equivalence tests. Fusion tests pin the deterministic RRF /
// LINEAR merge: the engine's fused output (one shared walk for all
// same-metric radius clauses) must equal, score for score, what a caller
// gets by composing single-subquery results and FuseScoredLists by hand,
// and FuseScoredLists itself must equal a comparator-and-map reference.

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <cmath>
#include <limits>
#include <map>
#include <random>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/fusion.h"
#include "core/hybridlsh.h"
#include "core/kernels.h"
#include "data/attributes.h"
#include "engine/query_pipeline.h"
#include "engine/search_engine.h"
#include "engine/sharded_engine.h"
#include "engine_oracle.h"
#include "util/simd.h"

namespace hybridlsh {
namespace engine {
namespace {

constexpr size_t kDim = 16;
constexpr double kRadius = 0.4;
constexpr size_t kCategories = 8;

uint32_t CategoryOf(size_t id) {
  return static_cast<uint32_t>((id * 2654435761u) >> 16) % kCategories;
}
uint32_t ScoreOf(size_t id) { return static_cast<uint32_t>((id * 97) % 1000); }

/// Fills *store (fresh, not movable: it holds an atomic row count) with a
/// "category" and a "score" column, rows for ids [0, n).
void FillAttributes(data::AttributeStore* store, size_t n) {
  store->AddColumn("category");
  store->AddColumn("score");
  for (size_t id = 0; id < n; ++id) {
    const uint32_t row[2] = {CategoryOf(id), ScoreOf(id)};
    store->AppendRow(row);
  }
}

void AppendRowFor(data::AttributeStore* store, size_t id) {
  const uint32_t row[2] = {CategoryOf(id), ScoreOf(id)};
  store->AppendRow(row);
}

/// The reference semantics: keep ids whose predicate bit is set.
std::vector<uint32_t> PostFilter(const std::vector<uint32_t>& ids,
                                 const util::BitVector& filter) {
  std::vector<uint32_t> kept;
  for (const uint32_t id : ids) {
    if (id < filter.size() && filter.Get(id)) kept.push_back(id);
  }
  return kept;
}

std::vector<uint32_t> Sorted(std::vector<uint32_t> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// A fusion clause over the engine's own metric.
SubquerySpec Clause(double radius, double weight) {
  SubquerySpec sub;
  sub.radius = radius;
  sub.weight = weight;
  return sub;
}

/// One row of the shared-walk table: a fused spec shape and the engine it
/// runs on.
struct FusedCase {
  const char* name;
  core::FusionMode mode;
  std::vector<SubquerySpec> clauses;
  bool filtered;
  core::ForcedStrategy forced;
  bool churn;  // inserts, removes and CompactAll before querying
};

std::vector<FusedCase> FusedCases() {
  using core::ForcedStrategy;
  using core::FusionMode;
  const double r = kRadius;
  return {
      {"rrf", FusionMode::kRrf, {Clause(r, 1.0), Clause(1.5 * r, 0.5)},
       true, ForcedStrategy::kAuto, false},
      {"linear", FusionMode::kLinear, {Clause(r, 1.0), Clause(1.5 * r, 0.5)},
       false, ForcedStrategy::kAuto, false},
      {"radii_out_of_order", FusionMode::kRrf,
       {Clause(1.5 * r, 0.5), Clause(r, 1.0)}, false,
       ForcedStrategy::kAlwaysLsh, false},
      {"duplicate_radii", FusionMode::kLinear,
       {Clause(r, 1.0), Clause(r, 0.25)}, true,
       ForcedStrategy::kAlwaysLinear, false},
      {"three_clauses", FusionMode::kRrf,
       {Clause(r, 1.0), Clause(1.5 * r, 0.5), Clause(0.5 * r, 2.0)}, false,
       ForcedStrategy::kAlwaysLinear, false},
      {"three_clauses_duplicate_widest", FusionMode::kLinear,
       {Clause(1.5 * r, 0.5), Clause(0.75 * r, 1.0), Clause(1.5 * r, 0.75)},
       true, ForcedStrategy::kAlwaysLsh, false},
      {"after_churn", FusionMode::kRrf, {Clause(r, 1.0), Clause(1.5 * r, 0.5)},
       true, ForcedStrategy::kAuto, true},
      {"after_churn_linear", FusionMode::kLinear,
       {Clause(1.5 * r, 1.0), Clause(r, 0.5)}, false,
       ForcedStrategy::kAlwaysLsh, true},
  };
}

/// A rank-ordered copy of `list`, sorted with a plain comparator: the
/// oracle for RankScoredList.
core::ScoredList ComparatorRanked(const core::ScoredList& list) {
  std::vector<size_t> order(list.ids.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (list.distances[a] != list.distances[b]) {
      return list.distances[a] < list.distances[b];
    }
    return list.ids[a] < list.ids[b];
  });
  core::ScoredList ranked;
  ranked.weight = list.weight;
  for (const size_t i : order) {
    ranked.ids.push_back(list.ids[i]);
    ranked.distances.push_back(list.distances[i]);
  }
  return ranked;
}

/// The fusion semantics of core/fusion.h written the obvious way: ranks
/// from a comparator sort, an ordered map accumulating each id's
/// contributions in list order, a comparator sort of the result. The
/// oracle FuseScoredLists must match bit for bit.
std::vector<core::FusedHit> ReferenceFuse(
    const std::vector<core::ScoredList>& lists,
    const core::FusionOptions& options) {
  std::map<uint32_t, double> scores;
  for (const core::ScoredList& list : lists) {
    const core::ScoredList ranked = ComparatorRanked(list);
    for (size_t r = 0; r < ranked.ids.size(); ++r) {
      scores[ranked.ids[r]] +=
          options.mode == core::FusionMode::kRrf
              ? ranked.weight / (options.rrf_k + static_cast<double>(r + 1))
              : ranked.weight / (1.0 + ranked.distances[r]);
    }
  }
  std::vector<core::FusedHit> hits;
  for (const auto& [id, score] : scores) hits.push_back({id, score});
  std::sort(hits.begin(), hits.end(),
            [](const core::FusedHit& a, const core::FusedHit& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.id < b.id;
            });
  return hits;
}

/// Exact (not approximate) equality of two fused rankings.
void ExpectSameHits(const std::vector<core::FusedHit>& got,
                    const std::vector<core::FusedHit>& expected) {
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, expected[i].id) << "pos=" << i;
    EXPECT_EQ(got[i].score, expected[i].score) << "pos=" << i;
  }
}

/// What a fused query must reproduce exactly: one single-clause Query per
/// clause, scalar distances (`distance(id)`), FuseScoredLists. `engine`
/// runs on a pool of several workers, so its lone caller fans the shared
/// walk out; `in_order` holds the same index on a 1-worker pool, where the
/// walk runs shard by shard. Both must give the same hits and per-shard
/// walks, and the same spec twice must be bit-identical.
template <typename Engine, typename Distance>
void ExpectFusedMatchesHandComposition(const Engine& engine,
                                       const Engine& in_order,
                                       typename Engine::Point query,
                                       const QuerySpec& fused,
                                       Distance distance) {
  std::vector<core::ScoredList> lists(fused.subqueries.size());
  for (size_t j = 0; j < lists.size(); ++j) {
    QuerySpec single = QuerySpec::Radius(fused.subqueries[j].radius);
    single.predicate = fused.predicate;
    lists[j].weight = fused.subqueries[j].weight;
    ASSERT_TRUE(engine.Query(query, single, &lists[j].ids).ok());
    for (const uint32_t id : lists[j].ids) {
      lists[j].distances.push_back(distance(id));
    }
  }
  std::vector<core::FusedHit> expected;
  ASSERT_TRUE(
      core::FuseScoredLists(lists, fused.fusion, nullptr, &expected).ok());

  std::vector<core::FusedHit> got, again, walked_in_order;
  ShardedQueryStats stats, in_order_stats;
  ASSERT_TRUE(engine.QueryFused(query, fused, &got, &stats).ok());
  ASSERT_TRUE(engine.QueryFused(query, fused, &again).ok());
  ASSERT_TRUE(
      in_order.QueryFused(query, fused, &walked_in_order, &in_order_stats)
          .ok());
  ExpectSameHits(got, expected);
  ExpectSameHits(again, got);
  ExpectSameHits(walked_in_order, got);
  test_oracle::ExpectSameShardWalks(stats, in_order_stats);
  EXPECT_EQ(stats.fusion_subqueries, fused.subqueries.size());
  EXPECT_EQ(stats.output_size, got.size());
}

class FilteredFusionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const data::DenseDataset full = data::MakeCorelLike(3001, kDim, 51);
    const data::DenseSplit split = data::SplitQueries(full, 15, 52);
    dataset_ = split.base;
    queries_ = split.queries;
    FillAttributes(&attributes_, dataset_.size());

    options_.num_tables = 25;
    options_.k = 7;
    options_.seed = 53;
    options_.searcher.cost_model = core::CostModel::FromRatio(6.0);
  }

  static lsh::PStableFamily Family() {
    return lsh::PStableFamily::L2(kDim, 2 * kRadius);
  }

  using Engine = ShardedEngine<lsh::PStableFamily>;

  /// num_threads 0 gives one pool worker per shard.
  EngineOptions MakeOptions(
      size_t num_shards,
      core::ForcedStrategy forced = core::ForcedStrategy::kAuto,
      size_t num_threads = 0) const {
    EngineOptions options = options_;
    options.num_shards = num_shards;
    options.num_threads = num_threads;
    options.searcher.forced = forced;
    return options;
  }

  Engine MakeEngine(size_t num_shards,
                    core::ForcedStrategy forced = core::ForcedStrategy::kAuto,
                    size_t num_threads = 0) {
    auto engine = Engine::Build(Family(), dataset_,
                                MakeOptions(num_shards, forced, num_threads));
    HLSH_CHECK(engine.ok());
    engine->AttachAttributes(&attributes_);
    return std::move(*engine);
  }

  /// Churns a mutable engine built over a copy of dataset_: appends 400
  /// points (attribute rows in lockstep), removes every 7th original id
  /// and every 5th inserted one, then quiesces and compacts.
  void Churn(Engine* engine, data::AttributeStore* attributes) const {
    const data::DenseDataset extra = data::MakeCorelLike(400, kDim, 99);
    for (size_t i = 0; i < extra.size(); ++i) {
      auto id = engine->Insert(extra.point(i));
      ASSERT_TRUE(id.ok());
      AppendRowFor(attributes, *id);
    }
    for (size_t id = 0; id < dataset_.size(); id += 7) {
      ASSERT_TRUE(engine->Remove(static_cast<uint32_t>(id)).ok());
    }
    for (size_t i = 0; i < extra.size(); i += 5) {
      ASSERT_TRUE(
          engine->Remove(static_cast<uint32_t>(dataset_.size() + i)).ok());
    }
    engine->DrainMaintenance();
    engine->CompactAll();
  }

  /// Predicate bits only (the post-filter reference never composes
  /// tombstones: query results are live by construction).
  util::BitVector PredicateBits(const data::Predicate& pred,
                                size_t id_limit) const {
    util::BitVector bits;
    data::EvaluateFilter(attributes_, pred, id_limit, &bits);
    return bits;
  }

  /// The distance the engine's score stage gives row `id` of `dataset`
  /// under `metric`: the kernels' verify key (core::kernels::ScoreBlock,
  /// the pass the engine runs) mapped to a distance.
  static double KernelDistance(const data::DenseDataset& dataset,
                               data::Metric metric, const float* query,
                               uint32_t id) {
    double key = 0.0;
    core::kernels::ScoreBlock(dataset, metric, query,
                              std::span<const uint32_t>(&id, 1), &key);
    return core::kernels::KeyToDistance(metric, key);
  }

  /// An engine for one row of the shared-walk table over *working (a copy
  /// of dataset_) and *attributes (filled here), on `num_threads` pool
  /// workers, churned when the row asks.
  Engine MakeCaseEngine(const FusedCase& c, size_t num_threads,
                        data::DenseDataset* working,
                        data::AttributeStore* attributes) const {
    FillAttributes(attributes, working->size());
    auto built =
        Engine::Build(Family(), working, MakeOptions(3, c.forced, num_threads));
    HLSH_CHECK(built.ok());
    built->AttachAttributes(attributes);
    if (c.churn) Churn(&*built, attributes);
    return std::move(*built);
  }

  data::DenseDataset dataset_;
  data::DenseDataset queries_;
  data::AttributeStore attributes_;
  EngineOptions options_;
};

// --- Filter evaluation. -----------------------------------------------------

TEST_F(FilteredFusionTest, EvaluateFilterMatchesRowwiseReference) {
  data::Predicate pred = data::Predicate::Equals(0, 3);
  pred.And({1, 100, 700});
  // id_limit past the store's rows: the overhang must stay clear.
  const size_t id_limit = dataset_.size() + 77;
  util::BitVector bits;
  data::EvaluateFilter(attributes_, pred, id_limit, &bits);
  ASSERT_EQ(bits.size(), id_limit);
  for (size_t id = 0; id < id_limit; ++id) {
    EXPECT_EQ(bits.Get(id), pred.Matches(attributes_, id)) << "id " << id;
  }
  // Empty conjunction: every visible row passes, overhang fails.
  util::BitVector all;
  data::EvaluateFilter(attributes_, data::Predicate{}, id_limit, &all);
  EXPECT_EQ(all.Count(), attributes_.size());
}

// --- Pushdown: the 1-shard engine's decision. -------------------------------

TEST_F(FilteredFusionTest, OneShardAutoBracketsForcedStrategies) {
  const data::Predicate pred = data::Predicate::Equals(0, 5);
  QuerySpec spec = QuerySpec::Radius(kRadius);
  spec.predicate = &pred;
  auto lsh_engine = MakeEngine(1, core::ForcedStrategy::kAlwaysLsh);
  auto linear_engine = MakeEngine(1, core::ForcedStrategy::kAlwaysLinear);
  auto auto_engine = MakeEngine(1);
  auto run = [&](Engine* engine, size_t q) {
    std::vector<uint32_t> out;
    HLSH_CHECK(engine->Query(queries_.point(q), spec, &out).ok());
    return Sorted(std::move(out));
  };
  for (size_t q = 0; q < queries_.size(); ++q) {
    const auto lsh = run(&lsh_engine, q);
    const auto linear = run(&linear_engine, q);
    const auto aut = run(&auto_engine, q);
    // Linear is exact; LSH may miss. Auto picks one of the two.
    EXPECT_TRUE(aut == lsh || aut == linear) << "query=" << q;
    EXPECT_TRUE(std::includes(linear.begin(), linear.end(), lsh.begin(),
                              lsh.end()))
        << "query=" << q;
  }
}

// --- Pushdown bit-identity: sharded engine. ---------------------------------

TEST_F(FilteredFusionTest, ShardedEnginePushdownBitIdentical) {
  // Each engine comes as a 4-worker pool, whose lone caller fans its shard
  // walks out, and a 1-worker twin that walks them in order: both push
  // down bit-identically, with the same per-shard walks.
  const data::Predicate pred = data::Predicate::Equals(0, 1);
  for (size_t num_shards : {1u, 3u, 8u}) {
    for (const auto forced : {core::ForcedStrategy::kAlwaysLsh,
                              core::ForcedStrategy::kAlwaysLinear}) {
      SCOPED_TRACE(testing::Message() << "shards=" << num_shards << " forced="
                                      << static_cast<int>(forced));
      const auto fanned = MakeEngine(num_shards, forced, 4);
      const auto in_order = MakeEngine(num_shards, forced, 1);
      const util::BitVector filter = PredicateBits(pred, dataset_.size());
      QuerySpec spec = QuerySpec::Radius(kRadius);
      spec.predicate = &pred;
      std::vector<uint32_t> unfiltered, pushed, pushed_in_order;
      for (size_t q = 0; q < queries_.size(); ++q) {
        SCOPED_TRACE(q);
        unfiltered.clear();
        pushed.clear();
        pushed_in_order.clear();
        fanned.Query(queries_.point(q), kRadius, &unfiltered);
        ShardedQueryStats stats, in_order_stats;
        ASSERT_TRUE(
            fanned.Query(queries_.point(q), spec, &pushed, &stats).ok());
        ASSERT_TRUE(in_order
                        .Query(queries_.point(q), spec, &pushed_in_order,
                               &in_order_stats)
                        .ok());
        EXPECT_EQ(pushed, PostFilter(unfiltered, filter));
        EXPECT_EQ(pushed_in_order, pushed);
        test_oracle::ExpectSameShardWalks(stats, in_order_stats);
        EXPECT_TRUE(stats.filtered);
        EXPECT_EQ(stats.filter_survivors,
                  filter.Count());  // no tombstones yet: composition is a no-op
      }
    }
  }
}

// The two ways a query walks its shards: a lone caller on a 1-worker pool
// walks them in order, on a 4-worker pool it fans them out. Both run
// QueryShard on the same snapshot, plan and filter, so the plain, filtered
// and fused answers must agree id for id, in order, with the same
// per-shard decisions and counts.
TEST_F(FilteredFusionTest, InOrderAndFannedOutWalksAgree) {
  const data::Predicate pred = data::Predicate::Between(1, 0, 499);
  QuerySpec plain = QuerySpec::Radius(kRadius);
  QuerySpec filtered = plain;
  filtered.predicate = &pred;
  QuerySpec fused;
  fused.predicate = &pred;
  fused.subqueries = {Clause(kRadius, 1.0), Clause(1.5 * kRadius, 0.5)};
  for (const size_t num_shards : {1u, 3u, 8u}) {
    SCOPED_TRACE(testing::Message() << "shards=" << num_shards);
    const auto in_order = MakeEngine(num_shards, core::ForcedStrategy::kAuto,
                                     1);
    const auto fanned = MakeEngine(num_shards, core::ForcedStrategy::kAuto,
                                   4);
    for (size_t q = 0; q < queries_.size(); ++q) {
      SCOPED_TRACE(q);
      const float* query = queries_.point(q);
      for (const QuerySpec* spec : {&plain, &filtered}) {
        std::vector<uint32_t> a, b;
        ShardedQueryStats a_stats, b_stats;
        ASSERT_TRUE(in_order.Query(query, *spec, &a, &a_stats).ok());
        ASSERT_TRUE(fanned.Query(query, *spec, &b, &b_stats).ok());
        EXPECT_EQ(b, a);
        test_oracle::ExpectSameShardWalks(b_stats, a_stats);
      }
      std::vector<core::FusedHit> a, b;
      ShardedQueryStats a_stats, b_stats;
      ASSERT_TRUE(in_order.QueryFused(query, fused, &a, &a_stats).ok());
      ASSERT_TRUE(fanned.QueryFused(query, fused, &b, &b_stats).ok());
      ExpectSameHits(b, a);
      test_oracle::ExpectSameShardWalks(b_stats, a_stats);
    }
  }
}

TEST_F(FilteredFusionTest, ShardedEngineChurnPushdownStaysExact) {
  for (const auto forced : {core::ForcedStrategy::kAlwaysLsh,
                            core::ForcedStrategy::kAlwaysLinear}) {
    data::DenseDataset working = dataset_;
    data::AttributeStore attributes;
    FillAttributes(&attributes, working.size());
    auto built = Engine::Build(Family(), &working, MakeOptions(3, forced));
    ASSERT_TRUE(built.ok());
    Engine engine = std::move(*built);
    engine.AttachAttributes(&attributes);
    Churn(&engine, &attributes);

    const data::Predicate pred = data::Predicate::Between(1, 0, 499);
    util::BitVector filter;
    data::EvaluateFilter(attributes, pred, working.size(), &filter);
    QuerySpec spec = QuerySpec::Radius(kRadius);
    spec.predicate = &pred;
    std::vector<uint32_t> unfiltered, pushed;
    for (size_t q = 0; q < queries_.size(); ++q) {
      unfiltered.clear();
      pushed.clear();
      engine.Query(queries_.point(q), kRadius, &unfiltered);
      ASSERT_TRUE(engine.Query(queries_.point(q), spec, &pushed).ok());
      EXPECT_EQ(pushed, PostFilter(unfiltered, filter))
          << "forced=" << static_cast<int>(forced) << " query=" << q;
    }
  }
}

TEST_F(FilteredFusionTest, ConcurrentFilteredQueriesStaySound) {
  data::DenseDataset working = dataset_;
  data::AttributeStore attributes;
  FillAttributes(&attributes, working.size());
  auto built = Engine::Build(Family(), &working, MakeOptions(4));
  ASSERT_TRUE(built.ok());
  Engine engine = std::move(*built);
  engine.AttachAttributes(&attributes);

  const data::DenseDataset extra = data::MakeCorelLike(2000, kDim, 100);
  const data::Predicate pred = data::Predicate::Equals(0, 4);
  std::atomic<bool> stop{false};

  // Writer: inserts (attribute rows in lockstep, same writer thread) and
  // removes, racing the readers below.
  std::thread writer([&] {
    size_t next = 0;
    while (!stop.load(std::memory_order_relaxed) && next < extra.size()) {
      auto id = engine.Insert(extra.point(next));
      ASSERT_TRUE(id.ok());
      AppendRowFor(&attributes, *id);
      if (next % 3 == 0) {
        ASSERT_TRUE(engine.Remove(static_cast<uint32_t>(next)).ok());
      }
      ++next;
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      QuerySpec spec = QuerySpec::Radius(kRadius);
      spec.predicate = &pred;
      std::vector<uint32_t> out;
      std::vector<core::FusedHit> fused_out;
      for (int iter = 0; iter < 60; ++iter) {
        const size_t q = (static_cast<size_t>(r) + iter) % queries_.size();
        out.clear();
        ASSERT_TRUE(engine.Query(queries_.point(q), spec, &out).ok());
        for (const uint32_t id : out) {
          // Soundness under churn: every reported id was visible, passes
          // the predicate, and is a true rNNR hit (rows are immutable
          // once appended, so these checks cannot race the writer).
          ASSERT_LT(id, working.size());
          EXPECT_EQ(CategoryOf(id), 4u);
          EXPECT_LE(data::L2Distance(queries_.point(q), working.point(id),
                                     kDim),
                    kRadius + 1e-6);
        }
        if (iter % 16 == 0) {
          QuerySpec fused = spec;
          fused.subqueries.push_back({kRadius, 1.0, std::nullopt, false});
          fused.subqueries.push_back({kRadius * 1.5, 0.5, std::nullopt, false});
          fused_out.clear();
          ASSERT_TRUE(
              engine.QueryFused(queries_.point(q), fused, &fused_out).ok());
          for (const core::FusedHit& hit : fused_out) {
            ASSERT_LT(hit.id, working.size());
            EXPECT_EQ(CategoryOf(hit.id), 4u);
            EXPECT_GT(hit.score, 0.0);
          }
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  writer.join();
}

// --- Selectivity edge cases. ------------------------------------------------

TEST_F(FilteredFusionTest, EmptySelectivityReturnsNothing) {
  auto engine = MakeEngine(3);
  data::Predicate pred = data::Predicate::Equals(0, 2);
  pred.And({0, 3, 3});  // category 2 AND 3: contradiction
  QuerySpec spec = QuerySpec::Radius(kRadius);
  spec.predicate = &pred;
  std::vector<uint32_t> out;
  ShardedQueryStats stats;
  ASSERT_TRUE(engine.Query(queries_.point(0), spec, &out, &stats).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(stats.filtered);
  EXPECT_EQ(stats.filter_survivors, 0u);
  EXPECT_EQ(stats.filter_selectivity, 0.0);
  // Zero survivors price the linear side at 0: every shard should scan.
  EXPECT_EQ(stats.linear_shards, engine.num_shards());
}

TEST_F(FilteredFusionTest, TotalSelectivityMatchesUnfiltered) {
  const data::Predicate pred = data::Predicate::Between(1, 0, 999);  // all
  for (const auto forced : {core::ForcedStrategy::kAlwaysLsh,
                            core::ForcedStrategy::kAlwaysLinear}) {
    auto engine = MakeEngine(3, forced);
    QuerySpec spec = QuerySpec::Radius(kRadius);
    spec.predicate = &pred;
    std::vector<uint32_t> unfiltered, pushed;
    for (size_t q = 0; q < queries_.size(); ++q) {
      unfiltered.clear();
      pushed.clear();
      engine.Query(queries_.point(q), kRadius, &unfiltered);
      ShardedQueryStats stats;
      ASSERT_TRUE(engine.Query(queries_.point(q), spec, &pushed, &stats).ok());
      EXPECT_EQ(pushed, unfiltered);
      EXPECT_DOUBLE_EQ(stats.filter_selectivity, 1.0);
    }
  }
}

// --- Deterministic fusion: core merge. --------------------------------------

TEST_F(FilteredFusionTest, RrfMergeHandComputedAndStable) {
  std::vector<core::ScoredList> lists(2);
  lists[0].weight = 1.0;
  lists[0].ids = {10, 20, 30};
  lists[0].distances = {0.1, 0.2, 0.3};
  lists[1].weight = 2.0;
  lists[1].ids = {20, 40};
  lists[1].distances = {0.05, 0.05};  // tie: rank by id, 20 before 40
  core::FusionOptions options;  // RRF, k = 60
  std::vector<core::FusedHit> out;
  ASSERT_TRUE(core::FuseScoredLists(lists, options, nullptr, &out).ok());
  ASSERT_EQ(out.size(), 4u);
  const double k = options.rrf_k;
  // id 20: rank 2 in list 0, rank 1 in list 1 (tie broken by id).
  EXPECT_EQ(out[0].id, 20u);
  EXPECT_DOUBLE_EQ(out[0].score, 1.0 / (k + 2) + 2.0 / (k + 1));
  EXPECT_EQ(out[1].id, 40u);
  EXPECT_DOUBLE_EQ(out[1].score, 2.0 / (k + 2));
  EXPECT_EQ(out[2].id, 10u);
  EXPECT_DOUBLE_EQ(out[2].score, 1.0 / (k + 1));
  EXPECT_EQ(out[3].id, 30u);
  EXPECT_DOUBLE_EQ(out[3].score, 1.0 / (k + 3));

  // Duplicate id within one list: rejected, not silently double-counted.
  lists[1].ids = {40, 40};
  EXPECT_EQ(core::FuseScoredLists(lists, options, nullptr, &out).code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(FilteredFusionTest, LinearMergeHandComputedWithStableTieBreak) {
  std::vector<core::ScoredList> lists(2);
  lists[0].weight = 1.0;
  lists[0].ids = {7, 3};
  lists[0].distances = {1.0, 3.0};
  lists[1].weight = 1.0;
  lists[1].ids = {3};
  lists[1].distances = {3.0};
  core::FusionOptions options;
  options.mode = core::FusionMode::kLinear;
  std::vector<core::FusedHit> out;
  ASSERT_TRUE(core::FuseScoredLists(lists, options, nullptr, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  // id 3: 1/(1+3) + 1/(1+3) = 0.5 == id 7's 1/(1+1) = 0.5 -> tie broken
  // ascending by id.
  EXPECT_DOUBLE_EQ(out[0].score, out[1].score);
  EXPECT_EQ(out[0].id, 3u);
  EXPECT_EQ(out[1].id, 7u);
}

/// Three overlapping lists over a small id space with many distance ties
/// (distances on a 1/8 grid), in arbitrary order.
std::vector<core::ScoredList> RandomLists(uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<core::ScoredList> lists(3);
  const double weights[3] = {1.0, 0.5, 2.0};
  for (size_t j = 0; j < lists.size(); ++j) {
    lists[j].weight = weights[j];
    std::vector<uint32_t> ids(300);
    for (uint32_t i = 0; i < ids.size(); ++i) ids[i] = i * 7;
    std::shuffle(ids.begin(), ids.end(), rng);
    ids.resize(100 + 50 * j);
    for (const uint32_t id : ids) {
      lists[j].ids.push_back(id);
      lists[j].distances.push_back(static_cast<double>(rng() % 16) / 8.0);
    }
  }
  return lists;
}

TEST_F(FilteredFusionTest, RankScoredListMatchesComparatorSort) {
  for (uint32_t seed = 1; seed <= 5; ++seed) {
    for (core::ScoredList list : RandomLists(seed)) {
      // Large ids (every id byte varies) and a signed zero among the ties.
      for (uint32_t& id : list.ids) id = id * 14316557u + 3u;
      list.distances[0] = -0.0;
      const core::ScoredList expected = ComparatorRanked(list);
      core::RankScoredList(&list, nullptr);
      EXPECT_EQ(list.ids, expected.ids);
      EXPECT_EQ(list.distances, expected.distances);
    }
  }
}

TEST_F(FilteredFusionTest, FuseRankedOrShuffledListsBitIdentical) {
  for (const auto mode : {core::FusionMode::kRrf, core::FusionMode::kLinear}) {
    core::FusionOptions options;
    options.mode = mode;
    for (uint32_t seed = 1; seed <= 5; ++seed) {
      SCOPED_TRACE(seed);
      const std::vector<core::ScoredList> shuffled = RandomLists(seed);
      std::vector<core::ScoredList> ranked;
      for (const core::ScoredList& list : shuffled) {
        ranked.push_back(ComparatorRanked(list));
      }
      std::vector<core::FusedHit> from_ranked, from_shuffled;
      core::FusionScratch scratch;  // reused across calls, like the engine
      ASSERT_TRUE(
          core::FuseScoredLists(ranked, options, &scratch, &from_ranked).ok());
      ASSERT_TRUE(core::FuseScoredLists(shuffled, options, &scratch,
                                        &from_shuffled)
                      .ok());
      ExpectSameHits(from_shuffled, from_ranked);
      ExpectSameHits(from_ranked, ReferenceFuse(shuffled, options));
    }
  }
}

TEST_F(FilteredFusionTest, FuseRejectsInListDuplicatesAnywhere) {
  for (const auto mode : {core::FusionMode::kRrf, core::FusionMode::kLinear}) {
    core::FusionOptions options;
    options.mode = mode;
    const std::vector<core::ScoredList> clean = RandomLists(9);
    for (size_t j = 0; j < clean.size(); ++j) {
      const size_t n = clean[j].ids.size();
      // (copy from, copy to): adjacent, far apart, at either end.
      const std::pair<size_t, size_t> placements[] = {
          {0, 1}, {1, 0}, {0, n - 1}, {n - 1, 0}, {n / 2, n / 2 + 1},
          {n - 2, n - 1}};
      for (const auto& [from, to] : placements) {
        for (const bool ranked : {false, true}) {
          std::vector<core::ScoredList> lists = clean;
          lists[j].ids[to] = lists[j].ids[from];
          if (ranked) lists[j] = ComparatorRanked(lists[j]);
          std::vector<core::FusedHit> out;
          EXPECT_EQ(core::FuseScoredLists(lists, options, nullptr, &out).code(),
                    util::StatusCode::kInvalidArgument)
              << "list=" << j << " from=" << from << " to=" << to
              << " ranked=" << ranked;
        }
      }
    }
  }
}

TEST_F(FilteredFusionTest, FuseIdsNearUint32Max) {
  constexpr uint32_t kMax = std::numeric_limits<uint32_t>::max();
  std::vector<core::ScoredList> lists(2);
  lists[0].ids = {kMax, 0, kMax - 1, kMax - 2};
  lists[0].distances = {0.5, 0.5, 0.25, 1.0};
  lists[1].weight = 0.5;
  lists[1].ids = {kMax - 2, kMax, 1u << 31};
  lists[1].distances = {0.0, 0.75, 0.75};
  for (const auto mode : {core::FusionMode::kRrf, core::FusionMode::kLinear}) {
    core::FusionOptions options;
    options.mode = mode;
    std::vector<core::FusedHit> out;
    ASSERT_TRUE(core::FuseScoredLists(lists, options, nullptr, &out).ok());
    ExpectSameHits(out, ReferenceFuse(lists, options));
    ASSERT_EQ(out.size(), 5u);
  }
  // RRF by hand. List 0 ranks: kMax-1, 0, kMax, kMax-2 (tie at 0.5 broken
  // by id); list 1 ranks: kMax-2, 2^31, kMax (tie at 0.75 likewise).
  core::FusionOptions rrf;
  std::vector<core::FusedHit> out;
  ASSERT_TRUE(core::FuseScoredLists(lists, rrf, nullptr, &out).ok());
  const double k = rrf.rrf_k;
  std::map<uint32_t, double> want = {
      {kMax - 1, 1.0 / (k + 1)},
      {0u, 1.0 / (k + 2)},
      {kMax, 1.0 / (k + 3) + 0.5 / (k + 3)},
      {kMax - 2, 1.0 / (k + 4) + 0.5 / (k + 1)},
      {1u << 31, 0.5 / (k + 2)}};
  for (const core::FusedHit& hit : out) EXPECT_EQ(hit.score, want[hit.id]);
}

// --- Deterministic fusion: engine path == hand-composed. --------------------

// The shared-walk table (FusedCases) runs on a 4-worker pool (the
// fanned-out walk) and on a 1-worker twin (the in-order walk).
TEST_F(FilteredFusionTest, EngineFusedTwoRadiiEqualsHandComposition) {
  const data::Predicate pred = data::Predicate::Between(1, 0, 599);
  for (const FusedCase& c : FusedCases()) {
    SCOPED_TRACE(c.name);
    // The same build and churn on both pools: one engine per walk branch,
    // each with its own dataset copy and attribute rows.
    data::DenseDataset working[2] = {dataset_, dataset_};
    data::AttributeStore attributes[2];
    const Engine fanned = MakeCaseEngine(c, 4, &working[0], &attributes[0]);
    const Engine in_order = MakeCaseEngine(c, 1, &working[1], &attributes[1]);

    QuerySpec fused;
    fused.fusion.mode = c.mode;
    fused.subqueries = c.clauses;
    if (c.filtered) fused.predicate = &pred;
    for (size_t q = 0; q < queries_.size(); ++q) {
      SCOPED_TRACE(q);
      const float* query = queries_.point(q);
      ExpectFusedMatchesHandComposition(
          fanned, in_order, query, fused, [&](uint32_t id) {
            return KernelDistance(working[0], data::Metric::kL2, query, id);
          });
    }
  }
}

TEST_F(FilteredFusionTest, EngineFusedHammingAndJaccardEqualHandComposition) {
  {
    // Random 64-bit codes plus planted neighbors of query 0 at 1..12 flips,
    // so the fused lists are not empty.
    data::BinaryDataset codes = data::MakeRandomCodes(1200, 64, 61);
    const data::BinaryDataset queries = data::MakeRandomCodes(4, 64, 62);
    util::Rng rng(63);
    data::PlantNeighborsHamming(&codes, queries.point(0), 12, 60, &rng);
    using HammingEngine = ShardedEngine<lsh::BitSamplingFamily>;
    EngineOptions options;
    options.num_shards = 3;
    options.num_threads = 4;
    options.num_tables = 20;
    options.k = 10;
    options.seed = 64;
    options.searcher = options_.searcher;
    auto engine =
        HammingEngine::Build(lsh::BitSamplingFamily(64), codes, options);
    ASSERT_TRUE(engine.ok());
    options.num_threads = 1;
    auto in_order =
        HammingEngine::Build(lsh::BitSamplingFamily(64), codes, options);
    ASSERT_TRUE(in_order.ok());
    QuerySpec fused;
    fused.subqueries = {Clause(12, 1.0), Clause(8, 0.5), Clause(22, 0.25)};
    for (const auto mode :
         {core::FusionMode::kRrf, core::FusionMode::kLinear}) {
      fused.fusion.mode = mode;
      for (size_t q = 0; q < queries.size(); ++q) {
        SCOPED_TRACE(q);
        const uint64_t* query = queries.point(q);
        ExpectFusedMatchesHandComposition(*engine, *in_order, query, fused,
                                          [&](uint32_t id) {
          return static_cast<double>(data::HammingDistance(
              query, codes.point(id), codes.words_per_code()));
        });
      }
    }
  }
  {
    const data::SparseDataset sets = data::MakeRandomSparse(800, 300, 30, 65);
    using JaccardEngine = ShardedEngine<lsh::MinHashFamily>;
    EngineOptions options;
    options.num_shards = 2;
    options.num_threads = 4;
    options.num_tables = 20;
    options.k = 3;
    options.seed = 66;
    options.searcher = options_.searcher;
    auto engine = JaccardEngine::Build(lsh::MinHashFamily(), sets, options);
    ASSERT_TRUE(engine.ok());
    options.num_threads = 1;
    auto in_order = JaccardEngine::Build(lsh::MinHashFamily(), sets, options);
    ASSERT_TRUE(in_order.ok());
    QuerySpec fused;
    fused.subqueries = {Clause(0.9, 1.0), Clause(0.8, 2.0)};
    for (const auto mode :
         {core::FusionMode::kRrf, core::FusionMode::kLinear}) {
      fused.fusion.mode = mode;
      for (size_t q = 0; q < 6; ++q) {
        SCOPED_TRACE(q);
        const auto query = sets.point(q);
        ExpectFusedMatchesHandComposition(*engine, *in_order, query, fused,
                                          [&](uint32_t id) {
          return static_cast<double>(
              data::JaccardDistance(query, sets.point(id)));
        });
      }
    }
  }
}

TEST_F(FilteredFusionTest, EngineFusedWalksEachShardOnce) {
  // Two radius clauses run as ONE walk at the wider radius: every shard's
  // Algorithm 2 counters equal a plain Query's at that radius, and each
  // shard consumes the shared plan exactly once — fanned out on the pool
  // and walked in order on a 1-worker twin alike.
  const auto engine = MakeEngine(3, core::ForcedStrategy::kAuto, 4);
  const auto in_order = MakeEngine(3, core::ForcedStrategy::kAuto, 1);
  QuerySpec fused;
  fused.subqueries = {Clause(kRadius, 1.0), Clause(1.5 * kRadius, 0.5)};
  for (size_t q = 0; q < queries_.size(); ++q) {
    SCOPED_TRACE(q);
    std::vector<uint32_t> ids;
    ShardedQueryStats widest;
    ASSERT_TRUE(engine
                    .Query(queries_.point(q), QuerySpec::Radius(1.5 * kRadius),
                           &ids, &widest)
                    .ok());
    std::vector<core::FusedHit> hits;
    ShardedQueryStats fan_out, sequential;
    ASSERT_TRUE(engine.QueryFused(queries_.point(q), fused, &hits, &fan_out)
                    .ok());
    ASSERT_TRUE(
        in_order.QueryFused(queries_.point(q), fused, &hits, &sequential)
            .ok());
    for (const ShardedQueryStats* stats : {&fan_out, &sequential}) {
      EXPECT_EQ(stats->plan_reuse, engine.num_shards());
      EXPECT_EQ(stats->hash_evals, widest.hash_evals);
      ASSERT_EQ(stats->per_shard.size(), engine.num_shards());
      for (size_t s = 0; s < engine.num_shards(); ++s) {
        const core::QueryStats& got = stats->per_shard[s];
        const core::QueryStats& want = widest.per_shard[s];
        EXPECT_EQ(got.collisions, want.collisions) << "shard=" << s;
        EXPECT_EQ(got.cand_estimate, want.cand_estimate) << "shard=" << s;
        EXPECT_EQ(got.cand_actual, want.cand_actual) << "shard=" << s;
        EXPECT_EQ(got.strategy, want.strategy) << "shard=" << s;
      }
    }
  }
}

TEST_F(FilteredFusionTest, EngineFusedMetricOverrideScansExactly) {
  auto engine = MakeEngine(2);
  const double cosine_radius = 0.15;
  QuerySpec fused;
  fused.subqueries.push_back({kRadius, 1.0, std::nullopt, false});
  fused.subqueries.push_back(
      {cosine_radius, 1.0, data::Metric::kCosine, false});

  const float* query = queries_.point(0);
  std::vector<core::FusedHit> got;
  ASSERT_TRUE(engine.QueryFused(query, fused, &got).ok());

  // Hand composition: clause 0 is the engine's own L2 result; clause 1 is
  // an exact cosine scan of every id (the cosine key is the distance, so
  // the verify's test is d <= radius).
  std::vector<core::ScoredList> lists(2);
  lists[0].weight = 1.0;
  engine.Query(query, kRadius, &lists[0].ids);
  for (const uint32_t id : lists[0].ids) {
    lists[0].distances.push_back(
        KernelDistance(dataset_, data::Metric::kL2, query, id));
  }
  lists[1].weight = 1.0;
  for (uint32_t id = 0; id < dataset_.size(); ++id) {
    const double d = KernelDistance(dataset_, data::Metric::kCosine, query, id);
    if (d <= cosine_radius) {
      lists[1].ids.push_back(id);
      lists[1].distances.push_back(d);
    }
  }
  ASSERT_FALSE(lists[1].ids.empty());
  std::vector<core::FusedHit> expected;
  ASSERT_TRUE(
      core::FuseScoredLists(lists, fused.fusion, nullptr, &expected).ok());
  ExpectSameHits(got, expected);
}

TEST_F(FilteredFusionTest, EngineFusedAttributeOnlyClause) {
  auto engine = MakeEngine(3);
  const data::Predicate pred = data::Predicate::Equals(0, 6);
  QuerySpec fused;
  fused.predicate = &pred;
  fused.subqueries.push_back({kRadius, 1.0, std::nullopt, false});
  fused.subqueries.push_back({0.0, 0.25, std::nullopt, true});

  const float* query = queries_.point(1);
  std::vector<core::FusedHit> got;
  ASSERT_TRUE(engine.QueryFused(query, fused, &got).ok());
  ASSERT_FALSE(got.empty());

  const util::BitVector filter = PredicateBits(pred, dataset_.size());
  std::vector<core::ScoredList> lists(2);
  lists[0].weight = 1.0;
  QuerySpec single = QuerySpec::Radius(kRadius);
  single.predicate = &pred;
  ASSERT_TRUE(engine.Query(query, single, &lists[0].ids).ok());
  for (const uint32_t id : lists[0].ids) {
    lists[0].distances.push_back(
        KernelDistance(dataset_, data::Metric::kL2, query, id));
  }
  lists[1].weight = 0.25;
  filter.ForEachSetBitInRange(0, filter.size(), [&](size_t id) {
    lists[1].ids.push_back(static_cast<uint32_t>(id));
    lists[1].distances.push_back(0.0);
  });
  std::vector<core::FusedHit> expected;
  ASSERT_TRUE(
      core::FuseScoredLists(lists, fused.fusion, nullptr, &expected).ok());
  ExpectSameHits(got, expected);
}

// The score stage runs the dispatched kernels, whose every tier follows
// one canonical 8-lane order (util/simd.h): a fused spec with narrower
// clauses and metric overrides, run under each tier this machine supports,
// gives bit-identical hits and scores in both fusion modes.
TEST_F(FilteredFusionTest, EngineFusedIdenticalOnEveryTier) {
  const util::simd::Tier entry_tier = util::simd::ResolvedTier();
  struct TierGuard {
    util::simd::Tier saved;
    ~TierGuard() { util::simd::SetResolvedTierForTest(saved); }
  } guard{entry_tier};
  const auto engine = MakeEngine(3);
  const data::Predicate pred = data::Predicate::Between(1, 0, 599);
  QuerySpec fused;
  fused.predicate = &pred;
  fused.subqueries = {Clause(kRadius, 1.0), Clause(1.5 * kRadius, 0.5),
                      Clause(0.5 * kRadius, 2.0)};
  fused.subqueries.push_back({0.15, 1.0, data::Metric::kCosine, false});
  fused.subqueries.push_back({1.5, 0.5, data::Metric::kL1, false});
  for (const auto mode : {core::FusionMode::kRrf, core::FusionMode::kLinear}) {
    fused.fusion.mode = mode;
    for (size_t q = 0; q < queries_.size(); ++q) {
      SCOPED_TRACE(q);
      std::vector<core::FusedHit> reference;
      for (const util::simd::Tier tier : util::simd::SupportedTiers()) {
        SCOPED_TRACE(util::simd::TierName(tier));
        util::simd::SetResolvedTierForTest(tier);
        std::vector<core::FusedHit> hits;
        ASSERT_TRUE(engine.QueryFused(queries_.point(q), fused, &hits).ok());
        if (tier == util::simd::Tier::kScalar) {
          reference = std::move(hits);
        } else {
          ExpectSameHits(hits, reference);
        }
      }
      EXPECT_FALSE(reference.empty());
    }
  }
}

/// The engine's ranking of clause j of `fused` alone, through the fused
/// path (the shared walk and its carve): with every other clause weighted
/// 0, a hit's RRF score is 1 / (rrf_k + its rank in clause j), or 0 when
/// clause j did not report it.
template <typename Engine>
std::vector<uint32_t> EngineClauseRanking(const Engine& engine,
                                          const float* query, QuerySpec fused,
                                          size_t j) {
  fused.fusion.mode = core::FusionMode::kRrf;
  for (size_t i = 0; i < fused.subqueries.size(); ++i) {
    fused.subqueries[i].weight = i == j ? 1.0 : 0.0;
  }
  std::vector<core::FusedHit> hits;
  HLSH_CHECK(engine.QueryFused(query, fused, &hits).ok());
  std::vector<uint32_t> ranked;
  for (const core::FusedHit& hit : hits) {
    if (hit.score > 0.0) ranked.push_back(hit.id);
  }
  return ranked;
}

// Against the scalar reference the score stage ran before it used the
// kernels (data::L2Distance per hit, ranked by distance then id): every
// clause of every row of the shared-walk table reports the same ids, and
// two hits change order only at a near tie. The kernel's 8-lane float sum
// and the reference's sequential one each lie within about
// dim * FLT_EPSILON / 2 of the exact squared distance, relative, so two
// hits can swap only when their reference distances differ by less than
// 2 * dim * FLT_EPSILON of the larger (with margin for the square roots).
// The swaps seen on this data are reference ties: data::L2Distance rounds
// its square root to float, which maps some pairs of distinct squared
// distances to one distance, so the reference ranks the pair by id while
// the kernel keys keep them apart (ids 21 and 1709 on query 8 of
// three_clauses). The test records how many ranks moved.
TEST_F(FilteredFusionTest, EngineFusedClausesMatchScalarReferenceUpToNearTies) {
  const data::Predicate pred = data::Predicate::Between(1, 0, 599);
  size_t moved = 0;
  for (const FusedCase& c : FusedCases()) {
    SCOPED_TRACE(c.name);
    data::DenseDataset working = dataset_;
    data::AttributeStore attributes;
    const Engine engine = MakeCaseEngine(c, 4, &working, &attributes);
    QuerySpec fused;
    fused.subqueries = c.clauses;
    if (c.filtered) fused.predicate = &pred;
    for (size_t q = 0; q < queries_.size(); ++q) {
      const float* query = queries_.point(q);
      for (size_t j = 0; j < c.clauses.size(); ++j) {
        SCOPED_TRACE(testing::Message() << "query=" << q << " clause=" << j);
        QuerySpec single = QuerySpec::Radius(c.clauses[j].radius);
        single.predicate = fused.predicate;
        core::ScoredList reference;
        ASSERT_TRUE(engine.Query(query, single, &reference.ids).ok());
        for (const uint32_t id : reference.ids) {
          reference.distances.push_back(
              data::L2Distance(query, working.point(id), kDim));
        }
        core::RankScoredList(&reference, nullptr);
        const std::vector<uint32_t> ranked =
            EngineClauseRanking(engine, query, fused, j);
        ASSERT_EQ(Sorted(ranked), Sorted(reference.ids));

        // Every hit the engine ranks after one of larger reference distance
        // is in a swapped pair; the farthest earlier hit is its worst one.
        std::unordered_map<uint32_t, double> reference_distance;
        for (size_t k = 0; k < reference.ids.size(); ++k) {
          reference_distance[reference.ids[k]] = reference.distances[k];
          if (ranked[k] != reference.ids[k]) ++moved;
        }
        double farthest = 0.0;
        uint32_t farthest_id = 0;
        for (const uint32_t id : ranked) {
          const double d = reference_distance[id];
          EXPECT_LE(farthest - d, 2.0 * kDim * FLT_EPSILON * farthest)
              << "ids " << farthest_id << " and " << id;
          if (d > farthest) {
            farthest = d;
            farthest_id = id;
          }
        }
      }
    }
  }
  RecordProperty("moved_ranks", static_cast<int>(moved));
}

// The fused stage timers: 0 on plain queries (a plain query after a fused
// one on the same stats resets them), and on fused queries the score and
// merge stages are disjoint parts of the query's wall time.
TEST_F(FilteredFusionTest, FusedStageTimersCoverScoreAndMerge) {
  const auto engine = MakeEngine(3);
  QuerySpec fused;
  fused.subqueries = {Clause(kRadius, 1.0), Clause(1.5 * kRadius, 0.5)};
  double score = 0.0, merge = 0.0;
  for (size_t q = 0; q < queries_.size(); ++q) {
    SCOPED_TRACE(q);
    const float* query = queries_.point(q);
    std::vector<core::FusedHit> hits;
    ShardedQueryStats stats;
    ASSERT_TRUE(engine.QueryFused(query, fused, &hits, &stats).ok());
    EXPECT_GE(stats.score_seconds, 0.0);
    EXPECT_GE(stats.merge_seconds, 0.0);
    EXPECT_LE(stats.score_seconds + stats.merge_seconds, stats.total_seconds);
    score += stats.score_seconds;
    merge += stats.merge_seconds;

    std::vector<uint32_t> ids;
    ASSERT_TRUE(engine.Query(query, QuerySpec::Radius(kRadius), &ids, &stats)
                    .ok());
    EXPECT_EQ(stats.score_seconds, 0.0);
    EXPECT_EQ(stats.merge_seconds, 0.0);
  }
  EXPECT_GT(score, 0.0);
  EXPECT_GT(merge, 0.0);
  auto batch = engine.QueryBatch(queries_, QuerySpec::Radius(kRadius));
  ASSERT_TRUE(batch.ok());
  for (const ShardedBatchResult& result : *batch) {
    EXPECT_EQ(result.stats.score_seconds, 0.0);
    EXPECT_EQ(result.stats.merge_seconds, 0.0);
  }
}

// --- Spec validation. -------------------------------------------------------

TEST_F(FilteredFusionTest, SpecValidationRejectsBadSpecs) {
  auto engine = MakeEngine(2);
  const data::Predicate pred = data::Predicate::Equals(0, 1);
  std::vector<uint32_t> out;
  std::vector<core::FusedHit> fused_out;

  // Fused spec through the id-list entry point.
  QuerySpec fused = QuerySpec::Radius(kRadius);
  fused.subqueries.push_back({kRadius, 1.0, std::nullopt, false});
  EXPECT_EQ(engine.Query(queries_.point(0), fused, &out).code(),
            util::StatusCode::kInvalidArgument);
  // Non-fused spec through QueryFused.
  EXPECT_EQ(
      engine.QueryFused(queries_.point(0), QuerySpec::Radius(kRadius),
                        &fused_out)
          .code(),
      util::StatusCode::kInvalidArgument);
  // attribute_only without a predicate.
  QuerySpec attr_only;
  attr_only.subqueries.push_back({0.0, 1.0, std::nullopt, true});
  attr_only.subqueries.push_back({kRadius, 1.0, std::nullopt, false});
  EXPECT_EQ(engine.QueryFused(queries_.point(0), attr_only, &fused_out).code(),
            util::StatusCode::kInvalidArgument);
  // Radii, weights and the RRF constant must be finite and >= 0. A
  // negative radius is rejected rather than answered as its absolute value
  // (the dense kernels compare squared distances against radius^2).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {-1.0, -1e-12, nan, inf, -inf}) {
    SCOPED_TRACE(bad);
    out.clear();
    EXPECT_EQ(engine.Query(queries_.point(0), QuerySpec::Radius(bad), &out)
                  .code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(
        engine.QueryBatch(queries_, QuerySpec::Radius(bad)).status().code(),
        util::StatusCode::kInvalidArgument);
    QuerySpec bad_radius;
    bad_radius.subqueries = {Clause(kRadius, 1.0), Clause(bad, 1.0)};
    QuerySpec bad_weight;
    bad_weight.subqueries = {Clause(kRadius, bad), Clause(kRadius, 1.0)};
    QuerySpec bad_rrf_k;
    bad_rrf_k.subqueries = {Clause(kRadius, 1.0)};
    bad_rrf_k.fusion.rrf_k = bad;
    for (const QuerySpec* spec : {&bad_radius, &bad_weight, &bad_rrf_k}) {
      EXPECT_EQ(engine.QueryFused(queries_.point(0), *spec, &fused_out).code(),
                util::StatusCode::kInvalidArgument);
    }
  }
  // Zero stays valid everywhere: radius 0 reports exact duplicates only,
  // weight 0 adds nothing, and rrf_k 0 is a plain 1/rank.
  EXPECT_TRUE(
      engine.Query(queries_.point(0), QuerySpec::Radius(0.0), &out).ok());
  QuerySpec zeros;
  zeros.subqueries = {Clause(0.0, 0.0), Clause(kRadius, 1.0)};
  zeros.fusion.rrf_k = 0.0;
  EXPECT_TRUE(engine.QueryFused(queries_.point(0), zeros, &fused_out).ok());

  // Predicate without an attached store.
  engine.AttachAttributes(nullptr);
  QuerySpec filtered = QuerySpec::Radius(kRadius);
  filtered.predicate = &pred;
  EXPECT_EQ(engine.Query(queries_.point(0), filtered, &out).code(),
            util::StatusCode::kFailedPrecondition);
}

// A predicate naming a column the attached store lacks is rejected before
// the filter stage, which reads the named columns unchecked.
TEST_F(FilteredFusionTest, SpecValidationRejectsUnknownPredicateColumn) {
  auto engine = MakeEngine(2);
  const size_t num_columns = attributes_.num_columns();
  const data::Predicate past_end = data::Predicate::Equals(num_columns, 0);
  const data::Predicate one_bad_term =
      data::Predicate::Equals(0, 1).And({1000000, 0, 5});
  EngineOptions facade_options = options_;
  facade_options.num_shards = 2;
  facade_options.radius = kRadius;
  auto facade =
      BuildEngine(data::Metric::kL2, AnyDataset{&dataset_}, facade_options);
  ASSERT_TRUE(facade.ok());
  ASSERT_TRUE((*facade)->AttachAttributes(&attributes_).ok());

  const float* query = queries_.point(0);
  std::vector<uint32_t> out;
  std::vector<core::FusedHit> hits;
  for (const data::Predicate* pred : {&past_end, &one_bad_term}) {
    QuerySpec spec = QuerySpec::Radius(kRadius);
    spec.predicate = pred;
    QuerySpec fused = spec;
    fused.subqueries = {Clause(kRadius, 1.0), Clause(0.5 * kRadius, 0.5)};
    constexpr util::StatusCode kInvalid = util::StatusCode::kInvalidArgument;
    EXPECT_EQ(engine.Query(query, spec, &out).code(), kInvalid);
    EXPECT_EQ(engine.QueryBatch(queries_, spec).status().code(), kInvalid);
    EXPECT_EQ(engine.QueryFused(query, fused, &hits).code(), kInvalid);
    EXPECT_EQ((*facade)->Query(query, spec, &out).code(), kInvalid);
    EXPECT_EQ((*facade)->QueryFused(query, fused, &hits).code(), kInvalid);
    EXPECT_TRUE(out.empty());
    EXPECT_TRUE(hits.empty());
  }
  // The store's last column is still a valid predicate column.
  const data::Predicate last = data::Predicate::Equals(num_columns - 1, 0);
  QuerySpec spec = QuerySpec::Radius(kRadius);
  spec.predicate = &last;
  EXPECT_TRUE(engine.Query(query, spec, &out).ok());
  EXPECT_TRUE((*facade)->Query(query, spec, &out).ok());
}

// --- Batch paths. -----------------------------------------------------------

TEST_F(FilteredFusionTest, EngineBatchSharesOneFilter) {
  auto engine = MakeEngine(3);
  const data::Predicate pred = data::Predicate::Equals(0, 3);
  QuerySpec spec = QuerySpec::Radius(kRadius);
  spec.predicate = &pred;
  auto batch = engine.QueryBatch(queries_, spec);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), queries_.size());
  std::vector<uint32_t> single;
  for (size_t q = 0; q < queries_.size(); ++q) {
    single.clear();
    ASSERT_TRUE(engine.Query(queries_.point(q), spec, &single).ok());
    EXPECT_EQ((*batch)[q].neighbors, single) << "query=" << q;
    EXPECT_TRUE((*batch)[q].stats.filtered);
    EXPECT_EQ((*batch)[q].stats.filter_seconds, 0.0);  // prebuilt + shared
  }
}

// --- Facade. ----------------------------------------------------------------

TEST_F(FilteredFusionTest, FacadeSpecQueriesRouteAndValidate) {
  EngineOptions facade_options = options_;
  facade_options.num_shards = 2;
  facade_options.radius = kRadius;
  // Pin one strategy: bit-identity is only defined strategy-for-strategy
  // (auto mode may legitimately flip to the filtered linear scan).
  facade_options.searcher.forced = core::ForcedStrategy::kAlwaysLinear;
  auto built =
      BuildEngine(data::Metric::kL2, AnyDataset{&dataset_}, facade_options);
  ASSERT_TRUE(built.ok());
  SearchEngine& facade = **built;
  ASSERT_TRUE(facade.AttachAttributes(&attributes_).ok());

  const data::Predicate pred = data::Predicate::Equals(0, 2);
  const util::BitVector filter = PredicateBits(pred, dataset_.size());
  QuerySpec spec = QuerySpec::Radius(kRadius);
  spec.predicate = &pred;
  std::vector<uint32_t> unfiltered, pushed;
  ASSERT_TRUE(
      facade.Query(queries_.point(0), kRadius, &unfiltered).ok());
  ASSERT_TRUE(facade.Query(queries_.point(0), spec, &pushed).ok());
  EXPECT_EQ(pushed, PostFilter(unfiltered, filter));

  QuerySpec fused = spec;
  fused.subqueries.push_back({kRadius, 1.0, std::nullopt, false});
  fused.subqueries.push_back({0.0, 0.5, std::nullopt, true});
  std::vector<core::FusedHit> hits;
  ASSERT_TRUE(facade.QueryFused(queries_.point(0), fused, &hits).ok());
  EXPECT_FALSE(hits.empty());

  // Wrong point representation is rejected, same as the radius overloads.
  const uint64_t code[1] = {0};
  EXPECT_EQ(facade.Query(code, spec, &pushed).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(facade.QueryFused(code, fused, &hits).code(),
            util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace engine
}  // namespace hybridlsh
