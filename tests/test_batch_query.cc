// Tests for ShardedEngine::QueryBatch: a pooled batch must answer every
// query exactly as the engine's single-query path does, whatever the pool
// size. The batch's hash-once accounting is tested in
// tests/test_sharded_engine.cc.

#include "engine/sharded_engine.h"

#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/hybridlsh.h"

namespace hybridlsh {
namespace engine {
namespace {

class BatchQueryTest : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 16;
  static constexpr double kRadius = 0.4;
  static constexpr size_t kShards = 3;

  void SetUp() override {
    const data::DenseDataset full = data::MakeCorelLike(4000, kDim, 41);
    const data::DenseSplit split = data::SplitQueries(full, 30, 42);
    dataset_ = split.base;
    queries_ = split.queries;
  }

  std::unique_ptr<L2Engine> MakeEngine(size_t num_threads) const {
    EngineOptions options;
    options.num_shards = kShards;
    options.num_threads = num_threads;
    options.num_tables = 30;
    options.k = 7;
    options.seed = 43;
    options.searcher.cost_model = core::CostModel::FromRatio(6.0);
    auto engine = L2Engine::Build(lsh::PStableFamily::L2(kDim, 2 * kRadius),
                                  dataset_, options);
    HLSH_CHECK(engine.ok());
    return std::make_unique<L2Engine>(std::move(*engine));
  }

  static std::vector<ShardedBatchResult> Batch(
      L2Engine& engine, const data::DenseDataset& queries,
      double* wall_seconds = nullptr) {
    auto batch =
        engine.QueryBatch(queries, QuerySpec::Radius(kRadius), wall_seconds);
    HLSH_CHECK(batch.ok());
    return std::move(*batch);
  }

  data::DenseDataset dataset_;
  data::DenseDataset queries_;
};

TEST_F(BatchQueryTest, MatchesSequentialSingleThread) {
  auto engine = MakeEngine(1);
  const auto batch = Batch(*engine, queries_);
  ASSERT_EQ(batch.size(), queries_.size());

  std::vector<uint32_t> expected;
  for (size_t q = 0; q < queries_.size(); ++q) {
    expected.clear();
    ShardedQueryStats stats;
    ASSERT_TRUE(
        engine->Query(queries_.point(q), kRadius, &expected, &stats).ok());
    EXPECT_EQ(batch[q].neighbors, expected) << "query " << q;
    EXPECT_EQ(batch[q].stats.num_shards, kShards);
    EXPECT_EQ(batch[q].stats.lsh_shards, stats.lsh_shards) << "query " << q;
    EXPECT_EQ(batch[q].stats.linear_shards, stats.linear_shards)
        << "query " << q;
  }
}

TEST_F(BatchQueryTest, PoolSizeDoesNotChangeResults) {
  auto engine1 = MakeEngine(1);
  const auto batch1 = Batch(*engine1, queries_);
  for (const size_t threads : {4, 16}) {
    auto engine = MakeEngine(threads);
    const auto batch = Batch(*engine, queries_);
    ASSERT_EQ(batch.size(), batch1.size());
    for (size_t q = 0; q < batch.size(); ++q) {
      EXPECT_EQ(batch[q].neighbors, batch1[q].neighbors)
          << threads << " workers, query " << q;
      EXPECT_EQ(batch[q].stats.lsh_shards, batch1[q].stats.lsh_shards)
          << threads << " workers, query " << q;
    }
  }
}

TEST_F(BatchQueryTest, MoreWorkersThanQueries) {
  // 5 queries on 16 workers: most workers find no query and stay idle.
  data::DenseDataset few(0, kDim);
  for (size_t q = 0; q < 5; ++q) {
    few.Append(std::span<const float>(queries_.point(q), kDim));
  }
  auto engine = MakeEngine(16);
  const auto batch = Batch(*engine, few);
  ASSERT_EQ(batch.size(), few.size());
  std::vector<uint32_t> out;
  for (size_t q = 0; q < few.size(); ++q) {
    out.clear();
    ASSERT_TRUE(engine->Query(few.point(q), kRadius, &out).ok());
    EXPECT_EQ(batch[q].neighbors, out) << "query " << q;
  }
}

TEST_F(BatchQueryTest, EmptyQuerySet) {
  auto engine = MakeEngine(4);
  double wall_seconds = -1;
  const auto batch =
      Batch(*engine, data::DenseDataset(0, kDim), &wall_seconds);
  EXPECT_TRUE(batch.empty());
  EXPECT_GE(wall_seconds, 0.0);
}

TEST_F(BatchQueryTest, ReusesWorkerScratchAcrossBatches) {
  auto engine = MakeEngine(4);
  const auto expected = Batch(*MakeEngine(1), queries_);
  for (int round = 0; round < 3; ++round) {
    const auto batch = Batch(*engine, queries_);
    ASSERT_EQ(batch.size(), expected.size());
    for (size_t q = 0; q < batch.size(); ++q) {
      EXPECT_EQ(batch[q].neighbors, expected[q].neighbors)
          << "round " << round << " query " << q;
    }
  }
}

TEST_F(BatchQueryTest, WallSecondsIsReported) {
  auto engine = MakeEngine(4);
  double wall_seconds = 0;
  const auto batch = Batch(*engine, queries_, &wall_seconds);
  ASSERT_EQ(batch.size(), queries_.size());
  EXPECT_GT(wall_seconds, 0.0);
}

}  // namespace
}  // namespace engine
}  // namespace hybridlsh
