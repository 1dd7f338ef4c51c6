// Stress tests for the concurrent serving core (engine/sharded_engine.h +
// engine/segmented_index.h): reader threads call Query on one engine (each
// on a query context the engine lends it) while a writer thread inserts,
// removes, and compacts, with background seal/compaction enabled. The suite
// checks the two guarantees the lock-free path makes:
//
//   1. Soundness — every reported id is within the radius and was live at
//      some point during the query. In particular a Remove whose completion
//      happened-before the query started (proved by a release/acquire
//      epoch handshake) is never reported: the remove's tombstone store is
//      release-ordered before the epoch publication the reader acquires.
//   2. Visibility — under kAlwaysLinear (the exact path), every
//      never-removed id whose Insert happened-before the query start is
//      reported when in radius: the insert's count store is release-ordered
//      before the epoch publication, so the reader's snapshot covers it.
//
// A third test covers the LSH side of completeness: a point collides with
// itself in every table, so an always-LSH query at its own coordinates
// finds it in whichever segment holds it — the build's tables, tables
// rebuilt by a background seal or compaction, the active log, or tables
// reloaded from a snapshot. A fourth checks the plan walks themselves:
// snapshot readers racing an appending writer must match a reference walk.
//
// The tests are also the TSan workload for the engine (.github/workflows):
// they exercise epoch publication, tombstone bits, the packed live/dead
// counter, concurrent stats() polling, and the background maintenance
// rate limit all at once.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/hybridlsh.h"
#include "data/attributes.h"
#include "engine/segmented_index.h"
#include "engine/sharded_engine.h"
#include "engine/snapshot.h"
#include "engine_oracle.h"

namespace hybridlsh {
namespace engine {
namespace {

using Engine = ShardedEngine<lsh::PStableFamily>;

class ConcurrentEngineTest : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 16;
  static constexpr double kRadius = 0.4;

  void SetUp() override {
    const data::DenseDataset full = data::MakeCorelLike(1201, kDim, 61);
    const data::DenseSplit split = data::SplitQueries(full, 16, 62);
    base_ = split.base;
    queries_ = split.queries;
    incoming_ = data::MakeCorelLike(1500, kDim, 63);

    options_.num_tables = 15;
    options_.k = 7;
    options_.seed = 64;
    options_.searcher.cost_model = core::CostModel::FromRatio(6.0);
  }

  Engine MakeEngine(data::DenseDataset* dataset, size_t num_shards,
                    core::ForcedStrategy forced) {
    EngineOptions options = options_;
    options.num_shards = num_shards;
    // Small thresholds so the churn below drives many background seals and
    // watermark compactions while queries are in flight.
    options.active_seal_threshold = 64;
    options.max_sealed_segments = 2;
    options.searcher.forced = forced;
    auto engine = Engine::Build(Family(), dataset, options);
    HLSH_CHECK(engine.ok());
    return std::move(*engine);
  }

  static lsh::PStableFamily Family() {
    return lsh::PStableFamily::L2(kDim, 2 * kRadius);
  }

  data::DenseDataset base_;
  data::DenseDataset queries_;
  data::DenseDataset incoming_;
  EngineOptions options_;
};

// The epoch handshake: the writer publishes a monotone counter AFTER each
// completed mutation (release); a reader loads it BEFORE starting a query
// (acquire). Any mutation whose epoch the reader observed happened-before
// the query, so its effect must be visible to the query's snapshot.
struct MutationClock {
  explicit MutationClock(size_t max_ids)
      : removed_at(max_ids), inserted_at(max_ids) {
    for (auto& e : removed_at) e.store(0, std::memory_order_relaxed);
    for (auto& e : inserted_at) e.store(0, std::memory_order_relaxed);
  }

  std::atomic<uint64_t> epoch{0};
  // Epoch at which id's Remove/Insert completed; 0 = never.
  std::vector<std::atomic<uint64_t>> removed_at;
  std::vector<std::atomic<uint64_t>> inserted_at;

  void RecordRemove(uint32_t id) {
    const uint64_t e = epoch.load(std::memory_order_relaxed) + 1;
    removed_at[id].store(e, std::memory_order_release);
    epoch.store(e, std::memory_order_release);
  }
  void RecordInsert(uint32_t id) {
    const uint64_t e = epoch.load(std::memory_order_relaxed) + 1;
    inserted_at[id].store(e, std::memory_order_release);
    epoch.store(e, std::memory_order_release);
  }
};

TEST_F(ConcurrentEngineTest, ChurnStressSoundUnderConcurrentReaders) {
  data::DenseDataset dataset = base_;  // grows with inserts
  Engine engine = MakeEngine(&dataset, 2, core::ForcedStrategy::kAuto);

  const size_t kInserts = 1200;
  const size_t max_ids = base_.size() + kInserts;
  MutationClock clock(max_ids);
  for (size_t id = 0; id < base_.size(); ++id) {
    clock.inserted_at[id].store(1, std::memory_order_relaxed);
  }
  clock.epoch.store(1, std::memory_order_relaxed);

  std::atomic<bool> done{false};
  std::atomic<size_t> violations{0};
  std::atomic<size_t> reader_queries{0};

  const size_t kReaders = 3;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::vector<uint32_t> out;
      size_t q = r;
      do {  // do-while: every reader completes at least one query
        const auto query = queries_.point(q % queries_.size());
        ++q;
        const uint64_t start_epoch =
            clock.epoch.load(std::memory_order_acquire);
        out.clear();
        ShardedQueryStats stats;
        engine.Query(query, kRadius, &out, &stats);
        reader_queries.fetch_add(1, std::memory_order_relaxed);
        if (stats.output_size != out.size()) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        for (const uint32_t id : out) {
          // Sound id: in range, within radius (same float kernel family,
          // so allow a hair of rounding), and not removed before start.
          if (id >= max_ids) {
            violations.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          const double dist =
              engine.shard_index(0).Distance(dataset.point(id), query);
          if (dist > kRadius * (1.0 + 1e-4)) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
          const uint64_t removed =
              clock.removed_at[id].load(std::memory_order_acquire);
          if (removed != 0 && removed <= start_epoch) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      } while (!done.load(std::memory_order_acquire));
    });
  }

  // A stats poller: satellite guarantee that size()/stats() are safe to
  // read while writers and maintenance run.
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      // Live count first: num_points (the dataset size) only grows, so a
      // later stats() read can never be smaller than an earlier size().
      const size_t live = engine.size();
      const EngineStats stats = engine.stats();
      if (stats.memory_bytes == 0 || live > stats.num_points) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::yield();
    }
  });

  // Writer: interleaved inserts, removes, and periodic full compactions.
  util::Rng rng(65);
  size_t removed_count = 0;
  for (size_t i = 0; i < kInserts; ++i) {
    auto id = engine.Insert(incoming_.point(i % incoming_.size()));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    clock.RecordInsert(*id);
    if (i % 3 == 0) {
      const uint32_t victim = static_cast<uint32_t>(
          rng.UniformInt(0, static_cast<int64_t>(dataset.size() - 1)));
      if (clock.removed_at[victim].load(std::memory_order_relaxed) == 0) {
        ASSERT_TRUE(engine.Remove(victim).ok());
        clock.RecordRemove(victim);
        ++removed_count;
      }
    }
    if (i == kInserts / 2) engine.CompactAll();
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  poller.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(reader_queries.load(), 0u);

  // Quiesced accounting: the packed counters agree with the mutation log.
  engine.DrainMaintenance();
  EXPECT_EQ(engine.size(), base_.size() + kInserts - removed_count);

  // Quiesced equivalence of the two shard walks over the churned index:
  // restored on a 1-worker pool a lone caller walks the shards in order, on
  // a 4-worker pool it fans them out. Both answer as the churned engine
  // does, id for id, with identical per-shard decisions.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "hybridlsh_concurrent_churn";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(engine.SaveSnapshot(dir.string()).ok());
  data::DenseDataset in_order_dataset, fanned_dataset;
  snapshot::OpenOptions one_worker, four_workers;
  one_worker.num_threads = 1;
  four_workers.num_threads = 4;
  auto in_order = Engine::OpenSnapshot(dir.string(), &in_order_dataset,
                                       one_worker);
  auto fanned = Engine::OpenSnapshot(dir.string(), &fanned_dataset,
                                     four_workers);
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(in_order.ok()) << in_order.status().ToString();
  ASSERT_TRUE(fanned.ok()) << fanned.status().ToString();
  for (size_t q = 0; q < queries_.size(); ++q) {
    SCOPED_TRACE(q);
    std::vector<uint32_t> live_out, in_order_out, fanned_out;
    ShardedQueryStats in_order_stats, fanned_stats;
    engine.Query(queries_.point(q), kRadius, &live_out);
    in_order->Query(queries_.point(q), kRadius, &in_order_out,
                    &in_order_stats);
    fanned->Query(queries_.point(q), kRadius, &fanned_out, &fanned_stats);
    EXPECT_EQ(in_order_out, live_out);
    EXPECT_EQ(fanned_out, in_order_out);
    test_oracle::ExpectSameShardWalks(fanned_stats, in_order_stats);
  }
}

TEST_F(ConcurrentEngineTest, LinearPathSeesEveryInsertThatHappenedBefore) {
  data::DenseDataset dataset = base_;
  Engine engine =
      MakeEngine(&dataset, 2, core::ForcedStrategy::kAlwaysLinear);

  const size_t kInserts = 900;
  const size_t max_ids = base_.size() + kInserts;
  MutationClock clock(max_ids);
  for (size_t id = 0; id < base_.size(); ++id) {
    clock.inserted_at[id].store(1, std::memory_order_relaxed);
  }
  clock.epoch.store(1, std::memory_order_relaxed);

  std::atomic<bool> done{false};
  std::atomic<size_t> violations{0};

  const size_t kReaders = 2;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::vector<uint32_t> out;
      std::vector<char> reported;
      size_t q = r;
      while (!done.load(std::memory_order_acquire)) {
        const auto query = queries_.point(q % queries_.size());
        ++q;
        const uint64_t start_epoch =
            clock.epoch.load(std::memory_order_acquire);
        out.clear();
        engine.Query(query, kRadius, &out);
        reported.assign(max_ids, 0);
        for (const uint32_t id : out) {
          if (id >= max_ids) {
            violations.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          reported[id] = 1;
        }
        // Completeness: ids published before the query started (no removes
        // in this test) must be reported when strictly inside the radius —
        // the margin keeps float rounding between the scalar check here
        // and the batched verify kernel from flaking the test.
        for (uint32_t id = 0; id < max_ids; ++id) {
          if (reported[id]) continue;
          const uint64_t inserted =
              clock.inserted_at[id].load(std::memory_order_acquire);
          if (inserted == 0 || inserted > start_epoch) continue;
          const double dist =
              engine.shard_index(0).Distance(dataset.point(id), query);
          if (dist <= kRadius * (1.0 - 1e-4)) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  for (size_t i = 0; i < kInserts; ++i) {
    auto id = engine.Insert(incoming_.point(i % incoming_.size()));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    clock.RecordInsert(*id);
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(violations.load(), 0u);
  engine.DrainMaintenance();
  EXPECT_EQ(engine.size(), base_.size() + kInserts);
}

// LSH-side completeness under churn: every live id p comes back from an
// always-LSH query for point(p) at radius 0, and no removed id does —
// during interleaved inserts and removes with background seals and
// compactions, after the maintenance drains, and after a snapshot round
// trip (covering all three ways a sealed table's bucket directory is built:
// Build, BuildFromEntries, Deserialize). With one table, any bucket a
// directory loses drops points from the answer; with several, the plan
// walks span many tables per segment.
TEST_F(ConcurrentEngineTest, LshPathFindsEveryLivePointUnderChurn) {
  for (const int num_tables : {1, 15}) {
    SCOPED_TRACE("num_tables " + std::to_string(num_tables));
    options_.num_tables = num_tables;
    data::DenseDataset dataset = base_;  // grows with inserts
    Engine engine = MakeEngine(&dataset, 3, core::ForcedStrategy::kAlwaysLsh);

    std::vector<char> removed(dataset.size(), 0);  // by id
    size_t checks = 0;
    // 1 when the answer for id is wrong: a live id not reported, or a
    // removed id reported.
    std::vector<uint32_t> out;
    const auto check = [&](const Engine& target,
                           const data::DenseDataset& points, uint32_t id) {
      out.clear();
      target.Query(points.point(id), 0.0, &out);
      ++checks;
      const bool reported =
          std::find(out.begin(), out.end(), id) != out.end();
      return reported == static_cast<bool>(removed[id]) ? size_t{1}
                                                        : size_t{0};
    };

    util::Rng rng(66);
    size_t churn_errors = 0;
    const size_t kSteps = 1200;
    for (size_t i = 0; i < kSteps; ++i) {
      auto id = engine.Insert(incoming_.point(i));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      removed.resize(dataset.size(), 0);
      churn_errors += check(engine, dataset, *id);
      if (i % 2 == 0) {
        const uint32_t victim = static_cast<uint32_t>(
            rng.UniformInt(0, static_cast<int64_t>(dataset.size() - 1)));
        if (!removed[victim]) {
          ASSERT_TRUE(engine.Remove(victim).ok());
          removed[victim] = 1;
          churn_errors += check(engine, dataset, victim);
        }
      }
      const uint32_t probe = static_cast<uint32_t>(
          rng.UniformInt(0, static_cast<int64_t>(dataset.size() - 1)));
      churn_errors += check(engine, dataset, probe);
    }
    EXPECT_EQ(churn_errors, 0u) << "of " << checks << " checks during churn";

    engine.DrainMaintenance();
    size_t drained_errors = 0;
    for (uint32_t id = 0; id < dataset.size(); ++id) {
      drained_errors += check(engine, dataset, id);
    }
    EXPECT_EQ(drained_errors, 0u) << "after DrainMaintenance";

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        "hybridlsh_concurrent_lsh_completeness";
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(engine.SaveSnapshot(dir.string()).ok());
    data::DenseDataset restored_dataset;
    auto restored = Engine::OpenSnapshot(dir.string(), &restored_dataset);
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    size_t restored_errors = 0;
    for (uint32_t id = 0; id < restored_dataset.size(); ++id) {
      restored_errors += check(*restored, restored_dataset, id);
    }
    EXPECT_EQ(restored_errors, 0u) << "after a snapshot round trip";
  }
}

// The linear scan's contiguous-run walk under a racing Remove. A 1-shard
// static engine's initial segment is one id run: the scan appends it whole
// while an acquire scan finds no tombstone bit in it, or walks the
// filter's words when a predicate is pushed down. A Remove inside the run
// whose completion happened-before a query started must never be reported
// by that query — both the whole-run check and the filter stage load the
// tombstone words with acquire ordering.
TEST_F(ConcurrentEngineTest, LinearWalkNeverReportsARemoveThatHappenedBefore) {
  data::DenseDataset dataset = base_;
  const double radius = 2 * kRadius;  // every query has neighbors
  Engine engine = MakeEngine(&dataset, 1, core::ForcedStrategy::kAlwaysLinear);
  data::AttributeStore attributes;
  attributes.AddColumn("all");
  const uint32_t row[1] = {0};
  for (size_t id = 0; id < dataset.size(); ++id) attributes.AppendRow(row);
  engine.AttachAttributes(&attributes);
  const data::Predicate pred = data::Predicate::Equals(0, 0);
  QuerySpec filtered = QuerySpec::Radius(radius);
  filtered.predicate = &pred;

  // Victims: one in-radius id per query.
  std::vector<std::vector<uint32_t>> truth;
  std::vector<uint32_t> victims;
  for (size_t q = 0; q < queries_.size(); ++q) {
    truth.push_back(data::RangeScanDense(dataset, queries_.point(q), radius,
                                         data::Metric::kL2));
    if (!truth[q].empty()) victims.push_back(truth[q][q % truth[q].size()]);
  }
  ASSERT_GE(victims.size(), 4u);

  MutationClock clock(dataset.size());
  std::atomic<bool> done{false};
  std::atomic<size_t> violations{0}, queries_run{0};
  auto run = [&](size_t q, std::vector<uint32_t>* out) {  // odd q: filtered
    out->clear();
    const float* query = queries_.point(q / 2 % queries_.size());
    const util::Status status = q % 2 == 0
                                    ? engine.Query(query, radius, out)
                                    : engine.Query(query, filtered, out);
    if (!status.ok()) violations.fetch_add(1, std::memory_order_relaxed);
  };
  std::vector<std::thread> readers;
  for (size_t r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::vector<uint32_t> out;
      for (size_t q = r; !done.load(std::memory_order_acquire); ++q) {
        const uint64_t start = clock.epoch.load(std::memory_order_acquire);
        run(q, &out);
        for (const uint32_t id : out) {
          const uint64_t removed =
              clock.removed_at[id].load(std::memory_order_acquire);
          if (removed != 0 && removed <= start) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
        queries_run.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Let the readers run a few queries around every removal.
  auto wait_for_queries = [&](size_t count) {
    const size_t seen = queries_run.load(std::memory_order_relaxed);
    while (queries_run.load(std::memory_order_relaxed) < seen + count) {
      std::this_thread::yield();
    }
  };
  for (const uint32_t victim : victims) {
    wait_for_queries(8);
    ASSERT_TRUE(engine.Remove(victim).ok());
    clock.RecordRemove(victim);
  }
  wait_for_queries(64);
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(violations.load(), 0u);

  // Quiesced: both forms answer exactly, minus the victims.
  std::vector<uint32_t> out;
  for (size_t q = 0; q < 2 * queries_.size(); ++q) {
    std::vector<uint32_t> expected = truth[q / 2];
    for (const uint32_t victim : victims) std::erase(expected, victim);
    run(q, &out);
    EXPECT_EQ(out, expected) << "query " << q / 2 << " filtered " << q % 2;
  }
}

TEST_F(ConcurrentEngineTest, DrainedMaintenanceGivesDeterministicLifecycle) {
  data::DenseDataset dataset = base_;
  EngineOptions options = options_;
  options.num_shards = 2;
  options.active_seal_threshold = 8;
  options.max_sealed_segments = 4;
  auto built = Engine::Build(Family(), &dataset, options);
  ASSERT_TRUE(built.ok());
  Engine engine = std::move(*built);

  // 40 inserts round-robin over 2 shards = 20 each; at threshold 8 every
  // shard freezes two logs and keeps 20 % 8 = 4 active points. Once the
  // background maintenance drains, both logs are sealed, whatever the
  // scheduling was.
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(engine.Insert(incoming_.point(i)).ok());
  }
  engine.DrainMaintenance();
  for (size_t s = 0; s < engine.num_shards(); ++s) {
    const auto lifecycle = engine.shard_index(s).lifecycle();
    EXPECT_EQ(lifecycle.active_points, 4u) << "shard " << s;
    EXPECT_EQ(lifecycle.pending_seal_logs, 0u) << "shard " << s;
    EXPECT_EQ(lifecycle.sealed_segments, 3u) << "shard " << s;  // initial + 2
  }
}

// The plan walks under a concurrent writer. Readers walk snapshots of one
// index while its writer appends to the active log (sealing and compacting
// inline as logs fill). The walks acquire a window's chain heads before
// walking any of its chains, and those heads may already name entries past
// the snapshot's count; each reader's EstimateProbe, bounded walks
// (unbounded, budget-limited and stopped by the lower bound) and the gap's
// collect from a budget-limited walk (CollectWalked) must still equal the
// reference walk of its own snapshot, whose active log it bounds by that
// snapshot's count.
TEST_F(ConcurrentEngineTest, SnapshotWalksMatchReferenceWhileWriterAppends) {
  using Index = SegmentedIndex<lsh::PStableFamily>;
  constexpr size_t kReaders = 3;
  data::DenseDataset dataset = base_;  // grows with inserts
  util::BitVector tombstones;
  EngineOptions options = options_;
  options.active_seal_threshold = 64;
  options.max_sealed_segments = 2;
  auto built = Index::Build(Family(), &dataset, 0, dataset.size(), options,
                            &tombstones);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Index index = std::move(*built);
  ASSERT_TRUE(index.EnableUpdates(&dataset).ok());
  // Tombstones are set before the readers start and stay fixed, so every
  // snapshot's collect walk is deterministic.
  for (uint32_t id = 0; id < dataset.size(); id += 9) {
    ASSERT_TRUE(index.Remove(id).ok());
  }

  std::vector<lsh::ProbePlan> plans;
  lsh::PlanScratch plan_scratch;
  for (size_t q = 0; q < queries_.size(); ++q) {
    for (const size_t probes : {size_t{1}, size_t{2}}) {
      plans.emplace_back();
      ASSERT_TRUE(index
                      .ComputePlan(queries_.point(q), probes, &plan_scratch,
                                   &plans.back())
                      .ok());
    }
  }

  std::atomic<bool> done{false};
  std::atomic<size_t> ready{0}, checks{0}, mismatches{0};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      size_t i = r;
      do {
        const auto snapshot = index.Acquire();
        if (!test_oracle::SnapshotWalksMatchReference(
                snapshot, plans[i % plans.size()],
                options_.hll_precision, &tombstones)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        checks.fetch_add(1, std::memory_order_relaxed);
        if (i++ == r) ready.fetch_add(1, std::memory_order_release);
      } while (!done.load(std::memory_order_acquire));
    });
  }
  // Start writing once every reader is walking.
  while (ready.load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();
  }
  bool inserts_ok = true;
  for (size_t i = 0; i < incoming_.size() && inserts_ok; ++i) {
    inserts_ok = index.Insert(incoming_.point(i)).ok();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_TRUE(inserts_ok);
  EXPECT_GT(index.lifecycle().compactions, 0u);
  EXPECT_EQ(mismatches.load(), 0u) << "of " << checks.load() << " checks";
}

// Background maintenance must also drain cleanly when the engine is
// destroyed mid-churn (tasks capture shard pointers; the group waits
// before any shard dies).
TEST_F(ConcurrentEngineTest, DestructionDrainsPendingMaintenance) {
  data::DenseDataset dataset = base_;
  {
    Engine engine = MakeEngine(&dataset, 2, core::ForcedStrategy::kAuto);
    for (size_t i = 0; i < 400; ++i) {
      ASSERT_TRUE(engine.Insert(incoming_.point(i)).ok());
    }
    // Engine goes out of scope with seal tasks likely still queued.
  }
  SUCCEED();
}

}  // namespace
}  // namespace engine
}  // namespace hybridlsh
