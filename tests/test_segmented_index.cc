// Tests for engine/segmented_index.h: the mutable lifecycle must be
// indistinguishable from a static rebuild.
//
// The core property: after ANY interleaving of inserts, deletes, seals and
// compactions, a snapshot of the segmented index yields the same answers
// as a fresh one-segment index built over the current live point set with
// the same seed (ids mapped through the live-id list, sorted). The
// segmented side walks one snapshot the way the engine does — the plan's
// candidates (forced-LSH) or GatherLiveIds (forced-linear) — and keeps
// in-radius ids; the reference side is the test-local oracle
// (tests/engine_oracle.h, and data::RangeScan* over the live set). Checked
// for two LSH families (p-stable L2 and bit-sampling Hamming) with
// multi-probe enabled. Lifecycle accounting (seal thresholds, tombstone
// counts, auto-compaction) is verified alongside, and the plan walks are
// checked against a one-probe-at-a-time reference walk.

#include "engine/segmented_index.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/hybridlsh.h"
#include "engine_oracle.h"

namespace hybridlsh {
namespace engine {
namespace {

std::vector<uint32_t> Sorted(std::vector<uint32_t> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

data::DenseDataset MakeEmptyLike(const data::DenseDataset& dataset) {
  return data::DenseDataset(0, dataset.dim());
}
data::BinaryDataset MakeEmptyLike(const data::BinaryDataset& dataset) {
  return data::BinaryDataset(0, dataset.width_bits());
}

std::vector<uint32_t> RangeScan(const data::DenseDataset& dataset,
                                const float* query, double radius) {
  return data::RangeScanDense(dataset, query, radius, data::Metric::kL2);
}
std::vector<uint32_t> RangeScan(const data::BinaryDataset& dataset,
                                const uint64_t* query, double radius) {
  return data::RangeScanBinary(dataset, query, static_cast<uint32_t>(radius));
}

/// The segmented side: one snapshot of `index`, per query the plan's
/// candidates (lsh) or the live ids (linear), kept in radius; sorted.
template <typename Family, typename Dataset, typename Queries>
std::vector<std::vector<uint32_t>> SnapshotResults(
    const SegmentedIndex<Family, Dataset>& index, const Dataset& dataset,
    const Queries& queries, double radius, size_t probes_per_table,
    bool lsh) {
  const auto snapshot = index.Acquire();
  util::VisitedSet visited(snapshot.id_bound());
  lsh::PlanScratch scratch;
  lsh::ProbePlan plan;
  std::vector<uint32_t> ids;
  std::vector<std::vector<uint32_t>> results(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    ids.clear();
    if (lsh) {
      HLSH_CHECK(index
                     .ComputePlan(queries.point(q), probes_per_table,
                                  &scratch, &plan)
                     .ok());
      visited.Reset();
      snapshot.CollectCandidates(plan, &visited);
      ids.assign(visited.touched().begin(), visited.touched().end());
    } else {
      snapshot.GatherLiveIds(nullptr, &ids);
    }
    for (const uint32_t id : ids) {
      if (index.Distance(dataset.point(id), queries.point(q)) <= radius) {
        results[q].push_back(id);
      }
    }
    results[q] = Sorted(std::move(results[q]));
  }
  return results;
}

/// The reference side: a static (one-segment) index rebuilt with the
/// index's options over the live points of (index, dataset), queried
/// through the test-local oracle (lsh) or a range scan (linear). The
/// static index numbers points 0..live-1; results are mapped back through
/// the live-id list.
template <typename Family, typename Dataset, typename Queries>
std::vector<std::vector<uint32_t>> StaticRebuildResults(
    const SegmentedIndex<Family, Dataset>& index, const Dataset& dataset,
    const Queries& queries, double radius, size_t probes_per_table,
    bool lsh) {
  std::vector<uint32_t> live_ids;
  index.Acquire().GatherLiveIds(nullptr, &live_ids);
  std::sort(live_ids.begin(), live_ids.end());

  Dataset live = MakeEmptyLike(dataset);
  for (const uint32_t id : live_ids) {
    HLSH_CHECK(AppendDatasetPoint(&live, dataset.point(id)).ok());
  }
  auto rebuilt =
      test_oracle::BuildStatic(index.family(), live, index.options());
  HLSH_CHECK(rebuilt.ok());

  std::vector<std::vector<uint32_t>> results(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<uint32_t> local =
        lsh ? test_oracle::LshOracle(*rebuilt, live, queries.point(q),
                                     radius, probes_per_table)
            : RangeScan(live, queries.point(q), radius);
    for (uint32_t& id : local) id = live_ids[id];
    results[q] = Sorted(std::move(local));
  }
  return results;
}

/// Asserts that both walks of the segmented index match a static rebuild.
template <typename Family, typename Dataset, typename Queries>
void ExpectEquivalent(const SegmentedIndex<Family, Dataset>& index,
                      const Dataset& dataset, const Queries& queries,
                      double radius, size_t probes_per_table) {
  for (const bool lsh : {true, false}) {
    const auto segmented = SnapshotResults(index, dataset, queries, radius,
                                           probes_per_table, lsh);
    const auto rebuilt = StaticRebuildResults(index, dataset, queries, radius,
                                              probes_per_table, lsh);
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(segmented[q], rebuilt[q])
          << "query " << q << (lsh ? " lsh" : " linear");
    }
  }
}

// ---------------------------------------------------------------------------
// Dense / L2, with multi-probe enabled (acceptance: multi-probe path).

class SegmentedL2Test : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 16;
  static constexpr double kRadius = 0.4;
  static constexpr size_t kProbes = 3;  // multi-probe on

  void SetUp() override {
    const data::DenseDataset full = data::MakeCorelLike(2403, kDim, 17);
    const data::DenseSplit split = data::SplitQueries(full, 20, 18);
    dataset_ = split.base;
    queries_ = split.queries;
    // Fresh points to stream in, disjoint from the base set.
    incoming_ = data::MakeCorelLike(1200, kDim, 19);

    options_.num_threads = 2;
    options_.num_tables = 20;
    options_.k = 7;
    options_.seed = 23;
    options_.active_seal_threshold = 256;
    options_.max_sealed_segments = 3;
  }

  lsh::PStableFamily Family() const {
    return lsh::PStableFamily::L2(kDim, 2 * kRadius);
  }

  void ExpectEquivalent(const SegmentedIndex<lsh::PStableFamily>& index,
                        const data::DenseDataset& dataset) {
    engine::ExpectEquivalent(index, dataset, queries_, kRadius, kProbes);
  }

  data::DenseDataset dataset_;
  data::DenseDataset queries_;
  data::DenseDataset incoming_;
  EngineOptions options_;
};

TEST_F(SegmentedL2Test, ChurnMatchesStaticRebuildAtEveryPhase) {
  auto built = SegmentedIndex<lsh::PStableFamily>::Build(
      Family(), &dataset_, 0, dataset_.size(), options_);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto index = std::move(*built);
  ASSERT_TRUE(index.EnableUpdates(&dataset_).ok());

  util::Rng rng(29);
  size_t next_incoming = 0;
  const size_t initial_n = dataset_.size();

  // Phase 1: inserts only (several seals happen at threshold 256).
  for (size_t i = 0; i < 600; ++i) {
    auto id = index.Insert(incoming_.point(next_incoming++));
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, initial_n + i);
  }
  EXPECT_GT(index.lifecycle().sealed_segments, 1u);
  ExpectEquivalent(index, dataset_);

  // Phase 2: deletes across both the initial range and the inserted tail.
  size_t removed = 0;
  for (size_t i = 0; i < 300; ++i) {
    const uint32_t id = static_cast<uint32_t>(
        rng.UniformInt(0, static_cast<int64_t>(dataset_.size() - 1)));
    if (index.is_live(id)) ++removed;
    ASSERT_TRUE(index.Remove(id).ok());
  }
  EXPECT_EQ(index.live_size(), initial_n + 600 - removed);
  EXPECT_LT(index.live_stats().fraction(), 1.0);
  ExpectEquivalent(index, dataset_);

  // Phase 3: explicit compaction drops every tombstone.
  index.Compact();
  EXPECT_EQ(index.lifecycle().tombstones, 0u);
  EXPECT_EQ(index.lifecycle().sealed_segments, 1u);
  EXPECT_DOUBLE_EQ(index.live_stats().fraction(), 1.0);
  EXPECT_EQ(index.live_size(), initial_n + 600 - removed);
  ExpectEquivalent(index, dataset_);

  // Phase 4: mixed churn afterwards, relying on auto-seal + auto-compact.
  for (size_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(index.Insert(incoming_.point(next_incoming++)).ok());
    if (i % 3 == 0) {
      const uint32_t id = static_cast<uint32_t>(
          rng.UniformInt(0, static_cast<int64_t>(dataset_.size() - 1)));
      ASSERT_TRUE(index.Remove(id).ok());
    }
  }
  ExpectEquivalent(index, dataset_);
}

TEST_F(SegmentedL2Test, StreamingFromZeroMatchesStaticRebuild) {
  data::DenseDataset empty(0, kDim);
  auto built = SegmentedIndex<lsh::PStableFamily>::Build(Family(), &empty, 0,
                                                         0, options_);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto index = std::move(*built);
  ASSERT_TRUE(index.EnableUpdates(&empty).ok());
  EXPECT_EQ(index.live_size(), 0u);

  for (size_t i = 0; i < 700; ++i) {
    ASSERT_TRUE(index.Insert(incoming_.point(i)).ok());
  }
  EXPECT_EQ(index.live_size(), 700u);

  // Query against the dataset the index actually grew (the index holds a
  // pointer to `empty`, so dataset_ cannot stand in for it).
  ExpectEquivalent(index, empty);
}

TEST_F(SegmentedL2Test, LifecycleAccountingAndGuards) {
  auto built = SegmentedIndex<lsh::PStableFamily>::Build(
      Family(), &dataset_, 0, dataset_.size(), options_);
  ASSERT_TRUE(built.ok());
  auto index = std::move(*built);

  // Read-only until EnableUpdates; Remove works regardless.
  EXPECT_FALSE(index.Insert(incoming_.point(0)).ok());
  EXPECT_TRUE(index.Remove(0).ok());
  EXPECT_TRUE(index.Remove(0).ok());  // idempotent
  EXPECT_EQ(index.lifecycle().tombstones, 1u);
  EXPECT_EQ(index.live_size(), dataset_.size() - 1);

  // A foreign dataset is rejected; the indexed one is accepted.
  data::DenseDataset other(5, kDim);
  EXPECT_FALSE(index.EnableUpdates(&other).ok());
  ASSERT_TRUE(index.EnableUpdates(&dataset_).ok());

  // Active points count until the seal threshold freezes them.
  const size_t threshold = options_.active_seal_threshold;
  for (size_t i = 0; i < threshold - 1; ++i) {
    ASSERT_TRUE(index.Insert(incoming_.point(i)).ok());
  }
  EXPECT_EQ(index.lifecycle().active_points, threshold - 1);
  EXPECT_EQ(index.lifecycle().sealed_segments, 1u);
  ASSERT_TRUE(index.Insert(incoming_.point(threshold - 1)).ok());
  EXPECT_EQ(index.lifecycle().active_points, 0u);
  EXPECT_EQ(index.lifecycle().sealed_segments, 2u);
  EXPECT_GT(index.SketchBytes(), 0u);

  // Out-of-range removes are rejected.
  EXPECT_FALSE(index.Remove(static_cast<uint32_t>(dataset_.size())).ok());

  // Compacting everything away leaves a queryable empty index.
  const size_t n = dataset_.size();
  for (uint32_t id = 0; id < n; ++id) ASSERT_TRUE(index.Remove(id).ok());
  EXPECT_EQ(index.live_size(), 0u);
  index.Compact();
  EXPECT_EQ(index.lifecycle().sealed_segments, 0u);
  for (const bool lsh : {true, false}) {
    const auto results =
        SnapshotResults(index, dataset_, queries_, kRadius, kProbes, lsh);
    EXPECT_TRUE(results[0].empty());
  }
}

// ---------------------------------------------------------------------------
// Plan-walk equivalence: the logs' windowed chain walk (behind
// ActiveLshLog::AccumulateProbe / BoundedProbe) and a snapshot's sum over
// every segment kind must consume the entries of the one-probe-at-a-time
// reference (tests/engine_oracle.h) in the same order.

TEST_F(SegmentedL2Test, LogWalksMatchOneProbeAtATimeReference) {
  // 13 tables: windows of 8 probes straddle a table boundary at one probe
  // per table and at four.
  constexpr size_t kTables = 13;
  constexpr size_t kEntries = 700;
  constexpr int kPrecision = 7;
  auto functions = lsh::FunctionSet<lsh::PStableFamily>::Sample(
      Family(), static_cast<int>(kTables), /*k=*/4, 0.1, 0.0, 43);
  ASSERT_TRUE(functions.ok());
  ActiveLshLog log(kTables, kEntries);
  std::vector<int32_t> slots;
  std::vector<uint64_t> keys(kTables);
  for (size_t i = 0; i < kEntries; ++i) {
    for (size_t t = 0; t < kTables; ++t) {
      keys[t] = functions->SignatureKey(dataset_.point(i), t, &slots);
    }
    log.Append(keys, static_cast<uint32_t>(2 * i + 1));
  }
  const size_t id_bound = 2 * kEntries + 1;
  util::BitVector tombstones(id_bound);
  for (size_t id = 1; id < id_bound; id += 10) tombstones.Set(id);
  // Far from every point, so every probe of its plan misses.
  const std::vector<float> far(kDim, 1000.0f);

  lsh::PlanScratch plan_scratch;
  lsh::ProbePlan plan;
  const util::BitVector* const tombstone_cases[] = {nullptr, &tombstones};
  const core::DecisionBounds unbounded =
      core::DecisionBounds::AlwaysLsh(core::CostModel{}, core::LiveStats{});
  std::vector<uint64_t> table_totals;
  uint64_t total_collisions = 0;
  for (const size_t probes : {size_t{1}, size_t{4}}) {
    for (size_t q = 0; q <= queries_.size(); ++q) {
      const bool far_query = q == queries_.size();
      ASSERT_TRUE(functions
                      ->ComputePlan(far_query ? far.data() : queries_.point(q),
                                    probes, &plan_scratch, &plan)
                      .ok());
      // The whole log, and a reader bounded below the log's count.
      for (const size_t limit : {kEntries, kEntries / 3}) {
        for (const util::BitVector* dead : tombstone_cases) {
          SCOPED_TRACE(::testing::Message()
                       << "probes " << probes << " query " << q << " limit "
                       << limit << (dead != nullptr ? " tombstones" : ""));
          test_oracle::WalkReference reference(kPrecision, id_bound, dead);
          reference.LogEntries(log, plan, limit);
          if (far_query) {
            EXPECT_EQ(reference.collisions(), 0u);
          }
          total_collisions += reference.collisions();

          hll::HyperLogLog merged(kPrecision);
          uint64_t collisions = 0;
          log.AccumulateProbe(plan, limit, &merged, &collisions);
          EXPECT_EQ(collisions, reference.collisions());
          EXPECT_EQ(merged, reference.merged());

          BoundedWalkState walk(unbounded, kTables, &table_totals);
          util::VisitedSet visited(id_bound);
          EXPECT_FALSE(log.BoundedProbe(plan, limit, &walk, &visited, dead));
          EXPECT_EQ(walk.collisions(), reference.collisions());
          EXPECT_EQ(walk.lower(), reference.lower());
          EXPECT_EQ(visited.touched(), reference.touched());
        }
      }
    }
  }
  EXPECT_GT(total_collisions, 0u);
}

TEST_F(SegmentedL2Test, SnapshotWalksMatchReferenceAcrossSegmentKinds) {
  util::BitVector tombstones;
  auto built = SegmentedIndex<lsh::PStableFamily>::Build(
      Family(), &dataset_, 0, dataset_.size(), options_, &tombstones);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto index = std::move(*built);
  ASSERT_TRUE(index.EnableUpdates(&dataset_).ok());
  // One log sealed inline, then deferred maintenance leaves filled logs
  // frozen, so one snapshot holds two sealed segments, two frozen logs and
  // a partly filled active log, with ids removed from each.
  const size_t threshold = options_.active_seal_threshold;
  for (size_t i = 0; i < threshold; ++i) {
    ASSERT_TRUE(index.Insert(incoming_.point(i)).ok());
  }
  index.SetDeferredMaintenance(true);
  for (size_t i = threshold; i < 3 * threshold + threshold / 2; ++i) {
    ASSERT_TRUE(index.Insert(incoming_.point(i)).ok());
  }
  for (uint32_t id = 3; id < dataset_.size(); id += 11) {
    ASSERT_TRUE(index.Remove(id).ok());
  }
  const auto snapshot = index.Acquire();
  ASSERT_EQ(snapshot.view().sealed.size(), 2u);
  ASSERT_EQ(snapshot.view().frozen.size(), 2u);
  ASSERT_EQ(snapshot.active_count(), threshold / 2);

  lsh::PlanScratch plan_scratch;
  lsh::ProbePlan plan;
  size_t gaps = 0;
  for (const size_t probes : {size_t{1}, size_t{2}, kProbes}) {
    for (size_t q = 0; q < queries_.size(); ++q) {
      SCOPED_TRACE(::testing::Message() << "probes " << probes << " query "
                                        << q);
      ASSERT_TRUE(
          index.ComputePlan(queries_.point(q), probes, &plan_scratch, &plan)
              .ok());
      EXPECT_TRUE(test_oracle::SnapshotWalksMatchReference(
          snapshot, plan, options_.hll_precision, &tombstones));
      // The bounds-first decision (core::DecisionBounds) rests on lower <=
      // distinct <= collisions, tombstoned ids counted on every side: here
      // `distinct` is an unfiltered reference walk's dedup count, and the
      // check above holds the bounded walk's lower and collisions to the
      // reference's.
      test_oracle::WalkReference all_ids(options_.hll_precision,
                                         snapshot.id_bound());
      all_ids.Segments(snapshot, plan);
      const uint64_t distinct = all_ids.touched().size();
      EXPECT_LE(all_ids.lower(), distinct);
      EXPECT_LE(distinct, all_ids.collisions());
      gaps += all_ids.lower() < all_ids.collisions();
    }
  }
  EXPECT_GT(gaps, 0u);
}

// ---------------------------------------------------------------------------
// Binary / Hamming: the second family of the acceptance matrix.

TEST(SegmentedHammingTest, ChurnMatchesStaticRebuild) {
  constexpr size_t kBits = 64;
  constexpr double kRadius = 12;

  const data::BinaryDataset codes = data::MakeRandomCodes(1603, kBits, 31);
  const data::BinarySplit split = data::SplitQueriesBinary(codes, 15, 32);
  data::BinaryDataset dataset = split.base;
  const data::BinaryDataset queries = split.queries;
  const data::BinaryDataset incoming = data::MakeRandomCodes(900, kBits, 33);

  EngineOptions options;
  options.num_tables = 20;
  options.k = 9;
  options.seed = 37;
  options.active_seal_threshold = 200;
  options.max_sealed_segments = 2;

  auto built = SegmentedIndex<lsh::BitSamplingFamily>::Build(
      lsh::BitSamplingFamily(kBits), &dataset, 0, dataset.size(), options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto index = std::move(*built);
  ASSERT_TRUE(index.EnableUpdates(&dataset).ok());

  util::Rng rng(41);
  for (size_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(index.Insert(incoming.point(i)).ok());
    if (i % 4 == 0) {
      const uint32_t id = static_cast<uint32_t>(
          rng.UniformInt(0, static_cast<int64_t>(dataset.size() - 1)));
      ASSERT_TRUE(index.Remove(id).ok());
    }
  }
  index.Compact();
  for (size_t i = 500; i < 900; ++i) {
    ASSERT_TRUE(index.Insert(incoming.point(i)).ok());
  }

  // Multi-probe on (bit flips).
  ExpectEquivalent(index, dataset, queries, kRadius, /*probes_per_table=*/2);
}

}  // namespace
}  // namespace engine
}  // namespace hybridlsh
