// Tests for the engine snapshot/restore subsystem (engine/snapshot.h,
// ShardedEngine::SaveSnapshot / OpenSnapshot, OpenSnapshotEngine), the
// library's one persistence format.
//
// The round-trip criterion is strict: a restored engine must answer every
// query with bit-identical result sets AND identical per-shard
// LSH-vs-linear decisions — it IS the saved engine, including tombstones,
// mid-ingest segments, the norm cache, and the calibrated cost model.
// Restores must evaluate zero hash functions, and no crash or corruption
// scenario may ever surface a wrong answer instead of a clean Status. The
// payload parsers (FunctionSet::Load, SegmentedIndex::LoadFrom) are also
// fed payloads cut at every byte.

#include "engine/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/hybridlsh.h"
#include "engine/search_engine.h"
#include "engine/segmented_index.h"
#include "engine/sharded_engine.h"
#include "util/serialize.h"

namespace hybridlsh {
namespace engine {
namespace {

namespace fs = std::filesystem;

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("hybridlsh_snap_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string Dir(const std::string& name) const {
    return (root_ / name).string();
  }

  /// Re-commits every file of the snapshot under `dir` under a manifest
  /// whose options `edit` changed: a config no build saves.
  template <typename Edit>
  void RecommitWithOptions(const std::string& dir, Edit edit) {
    auto reader = snapshot::SnapshotReader::Open(dir, false);
    ASSERT_TRUE(reader.ok());
    auto writer = snapshot::SnapshotWriter::Begin(dir);
    ASSERT_TRUE(writer.ok());
    for (const snapshot::FileEntry& file : reader->manifest().files) {
      auto blob = reader->ReadFile(file.name);
      ASSERT_TRUE(blob.ok());
      ASSERT_TRUE(writer->WriteFile(file.name, blob->payload()).ok());
    }
    snapshot::Manifest manifest = reader->manifest();
    edit(&manifest.config);
    ASSERT_TRUE(writer->Commit(std::move(manifest)).ok());
  }

  /// Strict equivalence over a query set: identical result sets (order
  /// included) and identical per-shard strategy decisions and estimates.
  template <typename EngineT, typename Queries>
  void ExpectIdenticalServing(EngineT& live, EngineT& restored,
                              const Queries& queries, double radius) {
    ASSERT_EQ(restored.num_shards(), live.num_shards());
    ASSERT_EQ(restored.size(), live.size());
    std::vector<uint32_t> out_a, out_b;
    ShardedQueryStats stats_a, stats_b;
    for (size_t q = 0; q < queries.size(); ++q) {
      out_a.clear();
      out_b.clear();
      live.Query(queries.point(q), radius, &out_a, &stats_a);
      restored.Query(queries.point(q), radius, &out_b, &stats_b);
      ASSERT_EQ(out_a, out_b) << "query " << q;
      ASSERT_EQ(stats_a.per_shard.size(), stats_b.per_shard.size());
      for (size_t s = 0; s < stats_a.per_shard.size(); ++s) {
        EXPECT_EQ(stats_a.per_shard[s].strategy, stats_b.per_shard[s].strategy)
            << "query " << q << " shard " << s;
        EXPECT_EQ(stats_a.per_shard[s].collisions,
                  stats_b.per_shard[s].collisions);
        EXPECT_DOUBLE_EQ(stats_a.per_shard[s].cand_estimate,
                         stats_b.per_shard[s].cand_estimate);
      }
      EXPECT_EQ(stats_a.lsh_shards, stats_b.lsh_shards) << "query " << q;
      EXPECT_EQ(stats_a.linear_shards, stats_b.linear_shards);
    }
  }

  size_t CountEpochDirs(const std::string& root) const {
    size_t count = 0;
    for (const auto& entry : fs::directory_iterator(root)) {
      if (entry.path().filename().string().rfind("snapshot-", 0) == 0) {
        ++count;
      }
    }
    return count;
  }

  fs::path root_;
};

// --- Dense / L2: the full churn round-trip ----------------------------------

using L2Engine = ShardedEngine<lsh::PStableFamily>;

constexpr size_t kDim = 16;
constexpr double kRadius = 0.4;

EngineOptions DenseOptions(size_t num_shards) {
  EngineOptions options;
  options.num_shards = num_shards;
  options.num_tables = 20;
  options.k = 7;
  options.seed = 43;
  options.active_seal_threshold = 64;  // small: force seals during churn
  options.searcher.cost_model = core::CostModel{1.25, 7.5};  // "calibrated"
  return options;
}

/// Builds a 3-shard L2 engine over `dataset` and churns it: extra points
/// inserted (spilling into active segments), every 7th id tombstoned.
L2Engine BuildChurnedDenseEngine(data::DenseDataset* dataset,
                                 const data::DenseDataset& extra) {
  auto engine =
      L2Engine::Build(lsh::PStableFamily::L2(kDim, 2 * kRadius), dataset,
                      DenseOptions(3));
  HLSH_CHECK(engine.ok());
  std::vector<float> staging(kDim);
  for (size_t i = 0; i < extra.size(); ++i) {
    staging.assign(extra.point(i), extra.point(i) + kDim);
    HLSH_CHECK(engine->Insert(staging.data()).ok());
  }
  for (uint32_t id = 0; id < dataset->size(); id += 7) {
    HLSH_CHECK(engine->Remove(id).ok());
  }
  return std::move(*engine);
}

TEST_F(SnapshotTest, DenseChurnRoundTripIsBitIdentical) {
  const data::DenseDataset full = data::MakeCorelLike(2501, kDim, 41);
  const data::DenseSplit split = data::SplitQueries(full, 25, 42);
  data::DenseDataset dataset = split.base;
  const data::DenseDataset extra = data::MakeCorelLike(300, kDim, 44);

  L2Engine live = BuildChurnedDenseEngine(&dataset, extra);
  const size_t live_size_before = live.size();
  ASSERT_TRUE(live.SaveSnapshot(Dir("snap")).ok());
  EXPECT_EQ(live.size(), live_size_before);  // sealing loses nothing

  data::DenseDataset restored_dataset;
  auto restored = L2Engine::OpenSnapshot(Dir("snap"), &restored_dataset);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectIdenticalServing(live, *restored, split.queries, kRadius);

  // The restored engine is mutable and routes inserts identically: feeding
  // both engines the same new point keeps them bit-identical.
  const data::DenseDataset more = data::MakeCorelLike(40, kDim, 45);
  std::vector<float> staging(kDim);
  for (size_t i = 0; i < more.size(); ++i) {
    staging.assign(more.point(i), more.point(i) + kDim);
    auto id_live = live.Insert(staging.data());
    auto id_restored = restored->Insert(staging.data());
    ASSERT_TRUE(id_live.ok());
    ASSERT_TRUE(id_restored.ok());
    EXPECT_EQ(*id_live, *id_restored);
  }
  ASSERT_TRUE(live.Remove(3).ok());
  ASSERT_TRUE(restored->Remove(3).ok());
  ExpectIdenticalServing(live, *restored, split.queries, kRadius);
}

TEST_F(SnapshotTest, RestoredOptionsCarryTheCostModelAndConfig) {
  const data::DenseDataset full = data::MakeCorelLike(600, kDim, 51);
  data::DenseDataset dataset = full;
  // Every persisted field away from its default (k is explicit, so delta
  // and radius only travel).
  EngineOptions options = DenseOptions(2);
  options.num_threads = 3;
  options.delta = 0.05;
  options.radius = 0.35;
  options.hll_precision = 6;
  options.small_bucket_threshold = 40;
  options.seed = 4321;
  options.max_sealed_segments = 3;
  options.quantized_verify = false;
  options.searcher.probes_per_table = 2;
  options.searcher.forced = core::ForcedStrategy::kAlwaysLsh;
  options.searcher.cost_model.beta_screen = 0.5;
  options.searcher.cost_model.rescore_fraction = 0.25;
  auto live = L2Engine::Build(lsh::PStableFamily::L2(kDim, 2 * kRadius),
                              &dataset, options);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live->SaveSnapshot(Dir("snap")).ok());

  data::DenseDataset restored_dataset;
  auto restored = L2Engine::OpenSnapshot(Dir("snap"), &restored_dataset);
  ASSERT_TRUE(restored.ok());
  const EngineOptions& got = restored->options();
  EXPECT_EQ(got.num_shards, 2u);
  EXPECT_EQ(got.num_threads, 3u);
  EXPECT_EQ(got.num_tables, 20);
  EXPECT_EQ(got.k, 7);
  EXPECT_EQ(got.delta, 0.05);
  EXPECT_EQ(got.radius, 0.35);
  EXPECT_EQ(got.hll_precision, 6);
  EXPECT_EQ(got.small_bucket_threshold, 40u);
  EXPECT_EQ(got.seed, 4321u);
  EXPECT_EQ(got.active_seal_threshold, 64u);
  EXPECT_EQ(got.max_sealed_segments, 3u);
  EXPECT_FALSE(got.quantized_verify);
  EXPECT_EQ(got.searcher.probes_per_table, 2u);
  EXPECT_EQ(got.searcher.forced, core::ForcedStrategy::kAlwaysLsh);
  EXPECT_EQ(got.searcher.cost_model.alpha, 1.25);
  EXPECT_EQ(got.searcher.cost_model.beta, 7.5);
  EXPECT_EQ(got.searcher.cost_model.beta_screen, 0.5);
  EXPECT_EQ(got.searcher.cost_model.rescore_fraction, 0.25);
  EXPECT_EQ(restored->num_shards(), 2u);
  EXPECT_EQ(restored->num_threads(), live->num_threads());
  EXPECT_FALSE(restored->stats().quantized_verify);
  ExpectIdenticalServing(*live, *restored, full, kRadius);

  // Thread override: a snapshot from a big machine restores on one thread.
  data::DenseDataset small_dataset;
  snapshot::OpenOptions open_options;
  open_options.num_threads = 1;
  auto small = L2Engine::OpenSnapshot(Dir("snap"), &small_dataset,
                                      open_options);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->num_threads(), 1u);
  EXPECT_EQ(small->options().num_threads, 1u);

  // An override past the pool bound fails the options check before the
  // pool starts.
  open_options.num_threads = kMaxOptionCount + 1;
  data::DenseDataset rejected_dataset;
  EXPECT_EQ(L2Engine::OpenSnapshot(Dir("snap"), &rejected_dataset,
                                   open_options)
                .status()
                .code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(SnapshotTest, RestoreEvaluatesZeroHashFunctions) {
  const data::DenseDataset full = data::MakeCorelLike(800, kDim, 46);
  data::DenseDataset dataset = full;
  const data::DenseDataset extra = data::MakeCorelLike(100, kDim, 47);
  L2Engine live = BuildChurnedDenseEngine(&dataset, extra);
  ASSERT_TRUE(live.SaveSnapshot(Dir("snap")).ok());

  lsh::SetHashEvalCounting(true);
  const uint64_t before = lsh::HashEvalCountForTest();
  data::DenseDataset restored_dataset;
  auto restored = L2Engine::OpenSnapshot(Dir("snap"), &restored_dataset);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(lsh::HashEvalCountForTest(), before)
      << "restore must not evaluate hash functions";

  // Sanity: the counter does count — one query hashes L tables per shard.
  std::vector<uint32_t> out;
  restored->Query(restored_dataset.point(0), kRadius, &out);
  EXPECT_GT(lsh::HashEvalCountForTest(), before);
  lsh::SetHashEvalCounting(false);
}

TEST_F(SnapshotTest, CosineSnapshotKeepsTheNormCache) {
  data::DenseDataset dataset = data::MakeWebspamLike({.n = 700, .dim = 24,
                                                      .seed = 48});
  dataset.PrecomputeNorms();
  using CosineEngine = ShardedEngine<lsh::SimHashFamily>;
  EngineOptions options;
  options.num_shards = 2;
  options.num_tables = 12;
  options.k = 10;
  options.seed = 5;
  options.searcher.cost_model = core::CostModel::FromRatio(6.0);
  auto live = CosineEngine::Build(lsh::SimHashFamily(24), &dataset, options);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live->SaveSnapshot(Dir("snap")).ok());

  data::DenseDataset restored_dataset;
  auto restored = CosineEngine::OpenSnapshot(Dir("snap"), &restored_dataset);
  ASSERT_TRUE(restored.ok());
  // The cache came back from disk — no PrecomputeNorms call happened here.
  ASSERT_TRUE(restored_dataset.has_norms());
  for (size_t i = 0; i < restored_dataset.size(); i += 97) {
    EXPECT_EQ(restored_dataset.norm(i), dataset.norm(i));
  }
  ExpectIdenticalServing(*live, *restored, dataset, 0.2);
}

TEST_F(SnapshotTest, L1RoundTripKeepsTheCauchyFamily) {
  // The p-stable family with Cauchy projections (L1) restores as itself:
  // the same kind and w, and bit-identical serving, multi-probe plans
  // included.
  constexpr size_t kL1Dim = 20;
  constexpr double kL1Radius = 100.0;
  const data::DenseDataset full = data::MakeCovtypeLike(1500, kL1Dim, 3);
  const data::DenseSplit split = data::SplitQueries(full, 20, 4);
  data::DenseDataset dataset = split.base;
  const lsh::PStableFamily family =
      lsh::PStableFamily::L1(kL1Dim, 4 * kL1Radius);
  EngineOptions options;
  options.num_shards = 2;
  options.num_tables = 10;
  options.k = 8;
  options.seed = 4;
  options.searcher.cost_model = core::CostModel::FromRatio(6.0);
  options.searcher.probes_per_table = 4;
  auto live = L1Engine::Build(family, &dataset, options);
  ASSERT_TRUE(live.ok());
  for (uint32_t id = 0; id < dataset.size(); id += 13) {
    ASSERT_TRUE(live->Remove(id).ok());
  }
  ASSERT_TRUE(live->SaveSnapshot(Dir("snap")).ok());

  data::DenseDataset restored_dataset;
  auto restored = L1Engine::OpenSnapshot(Dir("snap"), &restored_dataset);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->shard_index(0).family().kind(),
            lsh::StableKind::kCauchy);
  EXPECT_EQ(restored->shard_index(0).family().w(), family.w());
  ExpectIdenticalServing(*live, *restored, split.queries, kL1Radius);
}

// --- Binary / Hamming and sparse / Jaccard containers -----------------------

TEST_F(SnapshotTest, BinaryRoundTripWithTombstones) {
  using HammingEngine = ShardedEngine<lsh::BitSamplingFamily>;
  data::BinaryDataset dataset = data::MakeRandomCodes(900, 64, 61);
  EngineOptions options;
  options.num_shards = 3;
  options.num_tables = 15;
  options.k = 9;
  options.seed = 62;
  options.searcher.cost_model = core::CostModel::FromRatio(1.0);
  auto live = HammingEngine::Build(lsh::BitSamplingFamily(64), &dataset,
                                   options);
  ASSERT_TRUE(live.ok());
  for (uint32_t id = 0; id < 900; id += 11) {
    ASSERT_TRUE(live->Remove(id).ok());
  }
  ASSERT_TRUE(live->SaveSnapshot(Dir("snap")).ok());

  data::BinaryDataset restored_dataset;
  auto restored = HammingEngine::OpenSnapshot(Dir("snap"), &restored_dataset);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored_dataset.width_bits(), 64u);
  ExpectIdenticalServing(*live, *restored, dataset, 14.0);
}

TEST_F(SnapshotTest, SparseRoundTripWithChurn) {
  using JaccardEngine = ShardedEngine<lsh::MinHashFamily>;
  data::SparseDataset dataset = data::MakeRandomSparse(700, 5000, 30, 81);
  const data::SparseDataset extra = data::MakeRandomSparse(150, 5000, 30, 82);
  EngineOptions options;
  options.num_shards = 2;
  options.num_tables = 10;
  options.k = 4;
  options.seed = 83;
  options.active_seal_threshold = 32;
  options.searcher.cost_model = core::CostModel::FromRatio(10.0);
  auto live = JaccardEngine::Build(lsh::MinHashFamily(), &dataset, options);
  ASSERT_TRUE(live.ok());
  for (size_t i = 0; i < extra.size(); ++i) {
    ASSERT_TRUE(live->Insert(extra.point(i)).ok());
  }
  for (uint32_t id = 1; id < 700; id += 13) {
    ASSERT_TRUE(live->Remove(id).ok());
  }
  ASSERT_TRUE(live->SaveSnapshot(Dir("snap")).ok());

  data::SparseDataset restored_dataset;
  auto restored = JaccardEngine::OpenSnapshot(Dir("snap"), &restored_dataset);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectIdenticalServing(*live, *restored, dataset, 0.7);
}

// --- Crash safety and corruption --------------------------------------------

TEST_F(SnapshotTest, InterruptedNewerSnapshotNeverCorruptsThePrevious) {
  const data::DenseDataset full = data::MakeCorelLike(500, kDim, 71);
  data::DenseDataset dataset = full;
  auto live = L2Engine::Build(lsh::PStableFamily::L2(kDim, 2 * kRadius),
                              &dataset, DenseOptions(2));
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live->SaveSnapshot(Dir("snap")).ok());

  // A writer died mid-epoch: partial data files, truncated manifest, and a
  // stray CURRENT.tmp — everything short of the atomic CURRENT rename.
  const fs::path orphan = fs::path(Dir("snap")) / "snapshot-000099";
  fs::create_directories(orphan);
  std::ofstream(orphan / "functions.bin", std::ios::binary) << "partial";
  std::ofstream(orphan / "MANIFEST", std::ios::binary) << "trunc";
  std::ofstream(fs::path(Dir("snap")) / "CURRENT.tmp", std::ios::binary)
      << "snapshot-000099\n";

  data::DenseDataset restored_dataset;
  auto restored = L2Engine::OpenSnapshot(Dir("snap"), &restored_dataset);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectIdenticalServing(*live, *restored, dataset, kRadius);

  // The next successful snapshot garbage-collects the orphan.
  ASSERT_TRUE(live->SaveSnapshot(Dir("snap")).ok());
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_EQ(CountEpochDirs(Dir("snap")), 1u);
}

TEST_F(SnapshotTest, SecondSnapshotSupersedesAndCollectsTheFirst) {
  const data::DenseDataset full = data::MakeCorelLike(700, kDim, 72);
  data::DenseDataset dataset = full;
  const data::DenseDataset extra = data::MakeCorelLike(120, kDim, 73);
  L2Engine live = BuildChurnedDenseEngine(&dataset, extra);
  ASSERT_TRUE(live.SaveSnapshot(Dir("snap")).ok());

  // Mutate, snapshot again: CURRENT moves, old epoch is GC'd.
  for (uint32_t id = 1; id < 100; id += 9) {
    ASSERT_TRUE(live.Remove(id).ok());
  }
  ASSERT_TRUE(live.SaveSnapshot(Dir("snap")).ok());
  EXPECT_EQ(CountEpochDirs(Dir("snap")), 1u);

  data::DenseDataset restored_dataset;
  auto restored = L2Engine::OpenSnapshot(Dir("snap"), &restored_dataset);
  ASSERT_TRUE(restored.ok());
  const data::DenseSplit split = data::SplitQueries(full, 20, 74);
  ExpectIdenticalServing(live, *restored, split.queries, kRadius);
}

TEST_F(SnapshotTest, CorruptionInAnyFileIsRejectedCleanly) {
  const data::DenseDataset full = data::MakeCorelLike(400, kDim, 75);
  const std::vector<std::string> files = {
      snapshot::kManifestFile, snapshot::kFunctionsFile,
      snapshot::kDatasetFile, snapshot::kTombstonesFile,
      snapshot::ShardFileName(0), snapshot::ShardFileName(1)};
  for (const std::string& victim : files) {
    data::DenseDataset dataset = full;
    auto live = L2Engine::Build(lsh::PStableFamily::L2(kDim, 2 * kRadius),
                                &dataset, DenseOptions(2));
    ASSERT_TRUE(live.ok());
    const std::string root = Dir("snap_" + victim);
    ASSERT_TRUE(live->SaveSnapshot(root).ok());

    // Locate the single epoch dir and flip one byte mid-file.
    fs::path epoch;
    for (const auto& entry : fs::directory_iterator(root)) {
      if (entry.is_directory()) epoch = entry.path();
    }
    ASSERT_FALSE(epoch.empty());
    const fs::path target = epoch / victim;
    ASSERT_TRUE(fs::exists(target)) << victim;
    {
      std::fstream file(target, std::ios::binary | std::ios::in |
                                    std::ios::out);
      file.seekg(0, std::ios::end);
      const std::streamoff size = static_cast<std::streamoff>(file.tellg());
      ASSERT_GT(size, 16);
      char byte = 0;
      file.seekg(size / 2);
      file.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0x5a);
      file.seekp(size / 2);
      file.write(&byte, 1);
    }

    data::DenseDataset restored_dataset;
    auto restored = L2Engine::OpenSnapshot(root, &restored_dataset);
    ASSERT_FALSE(restored.ok()) << victim << " corruption parsed";
    EXPECT_EQ(restored.status().code(), util::StatusCode::kDataLoss)
        << victim << ": " << restored.status().ToString();
  }
}

TEST_F(SnapshotTest, TruncatedShardFileIsRejected) {
  const data::DenseDataset full = data::MakeCorelLike(400, kDim, 76);
  data::DenseDataset dataset = full;
  auto live = L2Engine::Build(lsh::PStableFamily::L2(kDim, 2 * kRadius),
                              &dataset, DenseOptions(2));
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live->SaveSnapshot(Dir("snap")).ok());
  fs::path epoch;
  for (const auto& entry : fs::directory_iterator(Dir("snap"))) {
    if (entry.is_directory()) epoch = entry.path();
  }
  const fs::path shard = epoch / snapshot::ShardFileName(1);
  fs::resize_file(shard, fs::file_size(shard) / 2);

  data::DenseDataset restored_dataset;
  auto restored = L2Engine::OpenSnapshot(Dir("snap"), &restored_dataset);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), util::StatusCode::kDataLoss);
}

TEST_F(SnapshotTest, MissingSnapshotIsNotFound) {
  data::DenseDataset restored_dataset;
  auto restored = L2Engine::OpenSnapshot(Dir("nothing"), &restored_dataset);
  EXPECT_EQ(restored.status().code(), util::StatusCode::kNotFound);
}

TEST_F(SnapshotTest, WrongFamilyIsInvalidArgument) {
  const data::DenseDataset full = data::MakeCorelLike(300, kDim, 77);
  data::DenseDataset dataset = full;
  auto live = L2Engine::Build(lsh::PStableFamily::L2(kDim, 2 * kRadius),
                              &dataset, DenseOptions(1));
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live->SaveSnapshot(Dir("snap")).ok());

  data::DenseDataset restored_dataset;
  auto wrong = ShardedEngine<lsh::SimHashFamily>::OpenSnapshot(
      Dir("snap"), &restored_dataset);
  EXPECT_EQ(wrong.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(SnapshotTest, MultiProbeOnAFamilyWithoutItIsRejectedAtOpen) {
  // No build can save such a config, but a manifest can still carry one:
  // opening it returns Build's status instead of an engine whose first
  // query aborts the process.
  using JaccardEngine = ShardedEngine<lsh::MinHashFamily>;
  data::SparseDataset dataset = data::MakeRandomSparse(300, 5000, 30, 84);
  EngineOptions options;
  options.num_shards = 2;
  options.num_tables = 10;
  options.k = 4;
  options.seed = 85;
  auto live = JaccardEngine::Build(lsh::MinHashFamily(), &dataset, options);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live->SaveSnapshot(Dir("snap")).ok());

  RecommitWithOptions(Dir("snap"), [](EngineOptions* config) {
    config->searcher.probes_per_table = 2;
  });

  data::SparseDataset restored_dataset;
  EXPECT_EQ(JaccardEngine::OpenSnapshot(Dir("snap"), &restored_dataset)
                .status()
                .code(),
            util::StatusCode::kUnimplemented);
  EXPECT_EQ(OpenSnapshotEngine(Dir("snap")).status().code(),
            util::StatusCode::kUnimplemented);
}

TEST_F(SnapshotTest, OversizedSealThresholdIsRejectedAtBuildAndOpen) {
  // The active log sizes three arrays by the threshold and stores entry
  // indexes as int32, so a huge one must fail before anything allocates.
  const data::DenseDataset full = data::MakeCorelLike(300, kDim, 86);
  data::DenseDataset dataset = full;
  EngineOptions options = DenseOptions(2);
  options.active_seal_threshold = size_t{1} << 40;
  EXPECT_EQ(L2Engine::Build(lsh::PStableFamily::L2(kDim, 2 * kRadius),
                            &dataset, options)
                .status()
                .code(),
            util::StatusCode::kInvalidArgument);
  options.radius = kRadius;
  EXPECT_EQ(BuildEngine(data::Metric::kL2, &dataset, options).status().code(),
            util::StatusCode::kInvalidArgument);

  // A manifest can still carry one: opening it is DataLoss.
  auto live = L2Engine::Build(lsh::PStableFamily::L2(kDim, 2 * kRadius),
                              &dataset, DenseOptions(2));
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live->SaveSnapshot(Dir("snap")).ok());
  RecommitWithOptions(Dir("snap"), [](EngineOptions* config) {
    config->active_seal_threshold = size_t{1} << 40;
  });
  data::DenseDataset restored_dataset;
  EXPECT_EQ(L2Engine::OpenSnapshot(Dir("snap"), &restored_dataset)
                .status()
                .code(),
            util::StatusCode::kDataLoss);
  EXPECT_EQ(OpenSnapshotEngine(Dir("snap")).status().code(),
            util::StatusCode::kDataLoss);
}

TEST_F(SnapshotTest, OversizedTableCountOrKIsDataLossAtOpen) {
  // ValidateOptions caps both at 2^20, the caps the function-set loader
  // applies, so a manifest past either is corrupt.
  const data::DenseDataset full = data::MakeCorelLike(300, kDim, 87);
  data::DenseDataset dataset = full;
  auto live = L2Engine::Build(lsh::PStableFamily::L2(kDim, 2 * kRadius),
                              &dataset, DenseOptions(2));
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(live->SaveSnapshot(Dir("tables")).ok());
  RecommitWithOptions(Dir("tables"), [](EngineOptions* config) {
    config->num_tables = (1 << 20) + 1;
  });
  ASSERT_TRUE(live->SaveSnapshot(Dir("k")).ok());
  RecommitWithOptions(Dir("k"), [](EngineOptions* config) {
    config->k = (1 << 20) + 1;
  });
  for (const char* name : {"tables", "k"}) {
    data::DenseDataset restored_dataset;
    EXPECT_EQ(
        L2Engine::OpenSnapshot(Dir(name), &restored_dataset).status().code(),
        util::StatusCode::kDataLoss)
        << name;
  }
}

TEST(ManifestTest, SerializedBytesArePinned) {
  // Every persisted field holds a distinct non-default value, and the
  // expected bytes are the v2 layout as written before the manifest held
  // EngineOptions. A field reordered on both the write and the read side
  // passes every round trip but fails here.
  snapshot::Manifest manifest;
  manifest.family_tag = 0x42545350;
  manifest.metric_tag = 2;
  manifest.dataset_kind = 1;
  manifest.num_points = 1234;
  manifest.initial_n = 1000;
  EngineOptions& config = manifest.config;
  config.num_shards = 3;
  config.num_threads = 6;
  config.num_tables = 17;
  config.k = 9;
  config.delta = 0.05;
  config.radius = 1.25;
  config.hll_precision = 5;
  config.small_bucket_threshold = 33;
  config.seed = 987654321;
  config.active_seal_threshold = 777;
  config.max_sealed_segments = 2;
  config.searcher.cost_model.alpha = 1.5;
  config.searcher.cost_model.beta = 12.5;
  config.searcher.probes_per_table = 4;
  config.searcher.forced = core::ForcedStrategy::kAlwaysLsh;
  config.quantized_verify = false;
  config.searcher.cost_model.beta_screen = 0.75;
  config.searcher.cost_model.rescore_fraction = 0.125;
  manifest.files.push_back(
      snapshot::FileEntry{"shard-000.bin", 4321, 0x0123456789abcdefULL});

  util::ByteWriter writer;
  manifest.Serialize(&writer);
  const std::string expected =
      "48534c48534e415002000000505354420200000001000000d204000000000000"
      "e803000000000000030000000000000006000000000000001100000009000000"
      "9a9999999999a93f000000000000f43f050000002100000000000000b168de3a"
      "0000000009030000000000000200000000000000000000000000f83f00000000"
      "0000294004000000000000000100000000000000000000000000e83f00000000"
      "0000c03f01000000000000000d0000000000000073686172642d3030302e6269"
      "6ee110000000000000efcdab8967452301";
  std::string got;
  for (const uint8_t byte : writer.bytes()) {
    constexpr char kHex[] = "0123456789abcdef";
    got += kHex[byte >> 4];
    got += kHex[byte & 15];
  }
  EXPECT_EQ(got, expected);

  util::ByteReader reader(writer.bytes());
  auto parsed = snapshot::Manifest::Parse(&reader);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->format_version, snapshot::kFormatVersion);
  EXPECT_EQ(parsed->family_tag, manifest.family_tag);
  EXPECT_EQ(parsed->metric_tag, manifest.metric_tag);
  EXPECT_EQ(parsed->dataset_kind, manifest.dataset_kind);
  EXPECT_EQ(parsed->num_points, manifest.num_points);
  EXPECT_EQ(parsed->initial_n, manifest.initial_n);
  const EngineOptions& back = parsed->config;
  EXPECT_EQ(back.num_shards, config.num_shards);
  EXPECT_EQ(back.num_threads, config.num_threads);
  EXPECT_EQ(back.num_tables, config.num_tables);
  EXPECT_EQ(back.k, config.k);
  EXPECT_EQ(back.delta, config.delta);
  EXPECT_EQ(back.radius, config.radius);
  EXPECT_EQ(back.hll_precision, config.hll_precision);
  EXPECT_EQ(back.small_bucket_threshold, config.small_bucket_threshold);
  EXPECT_EQ(back.seed, config.seed);
  EXPECT_EQ(back.active_seal_threshold, config.active_seal_threshold);
  EXPECT_EQ(back.max_sealed_segments, config.max_sealed_segments);
  EXPECT_EQ(back.quantized_verify, config.quantized_verify);
  EXPECT_EQ(back.searcher.cost_model.alpha, config.searcher.cost_model.alpha);
  EXPECT_EQ(back.searcher.cost_model.beta, config.searcher.cost_model.beta);
  EXPECT_EQ(back.searcher.cost_model.beta_screen,
            config.searcher.cost_model.beta_screen);
  EXPECT_EQ(back.searcher.cost_model.rescore_fraction,
            config.searcher.cost_model.rescore_fraction);
  EXPECT_EQ(back.searcher.probes_per_table, config.searcher.probes_per_table);
  EXPECT_EQ(back.searcher.forced, config.searcher.forced);
  ASSERT_EQ(parsed->files.size(), 1u);
  EXPECT_EQ(parsed->files[0].name, "shard-000.bin");
  EXPECT_EQ(parsed->files[0].size, 4321u);
  EXPECT_EQ(parsed->files[0].checksum, 0x0123456789abcdefULL);
}

TEST_F(SnapshotTest, MmapLoadServesIdentically) {
  const data::DenseDataset full = data::MakeCorelLike(900, kDim, 78);
  data::DenseDataset dataset = full;
  const data::DenseDataset extra = data::MakeCorelLike(90, kDim, 79);
  L2Engine live = BuildChurnedDenseEngine(&dataset, extra);
  ASSERT_TRUE(live.SaveSnapshot(Dir("snap")).ok());

  snapshot::OpenOptions open_options;
  open_options.use_mmap = true;
  data::DenseDataset restored_dataset;
  auto restored =
      L2Engine::OpenSnapshot(Dir("snap"), &restored_dataset, open_options);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const data::DenseSplit split = data::SplitQueries(full, 20, 80);
  ExpectIdenticalServing(live, *restored, split.queries, kRadius);
}

// --- The type-erased facade --------------------------------------------------

TEST_F(SnapshotTest, FacadeRoundTripRestoresTheRightTypedEngine) {
  data::DenseDataset dataset =
      data::MakeWebspamLike({.n = 900, .dim = 24, .seed = 91});
  dataset.PrecomputeNorms();
  EngineOptions options;
  options.num_shards = 2;
  options.num_tables = 12;
  options.k = 10;
  options.seed = 92;
  options.searcher.cost_model = core::CostModel::FromRatio(6.0);
  auto live = BuildMutableEngine(data::Metric::kCosine, &dataset, options);
  ASSERT_TRUE(live.ok());
  for (uint32_t id = 0; id < 200; id += 17) {
    ASSERT_TRUE((*live)->Remove(id).ok());
  }
  ASSERT_TRUE((*live)->SaveSnapshot(Dir("snap")).ok());

  auto restored = OpenSnapshotEngine(Dir("snap"));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->metric(), data::Metric::kCosine);
  EXPECT_EQ((*restored)->family_tag(), lsh::SimHashFamily::kFamilyTag);
  EXPECT_EQ((*restored)->size(), (*live)->size());
  EXPECT_EQ((*restored)->num_shards(), 2u);

  const double radius = 0.2;
  std::vector<uint32_t> out_a, out_b;
  for (size_t q = 0; q < 40; ++q) {
    out_a.clear();
    out_b.clear();
    ASSERT_TRUE((*live)->Query(dataset.point(q * 20), radius, &out_a).ok());
    ASSERT_TRUE(
        (*restored)->Query(dataset.point(q * 20), radius, &out_b).ok());
    EXPECT_EQ(out_a, out_b) << "query " << q;
  }

  // The restored facade owns its dataset and stays fully mutable.
  std::vector<float> point(24, 0.125f);
  auto id = (*restored)->Insert(point.data());
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, dataset.size());
  ASSERT_TRUE((*restored)->Remove(*id).ok());
  ASSERT_TRUE((*restored)->Compact().ok());

  // And it snapshots again through the facade.
  ASSERT_TRUE((*restored)->SaveSnapshot(Dir("snap2")).ok());
  auto again = OpenSnapshotEngine(Dir("snap2"));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->size(), (*restored)->size());
}

TEST_F(SnapshotTest, FacadeDispatchesEveryMetric) {
  // One engine per metric family; each snapshot must restore through the
  // facade to an engine of the right metric that answers a self-query.
  EngineOptions options;
  options.num_shards = 2;
  options.num_tables = 8;
  options.k = 6;
  options.seed = 7;

  {
    data::BinaryDataset codes = data::MakeRandomCodes(400, 64, 93);
    auto live = BuildMutableEngine(data::Metric::kHamming, &codes, options);
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE((*live)->SaveSnapshot(Dir("ham")).ok());
    auto restored = OpenSnapshotEngine(Dir("ham"));
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ((*restored)->metric(), data::Metric::kHamming);
    std::vector<uint32_t> out;
    ASSERT_TRUE((*restored)->Query(codes.point(5), 10.0, &out).ok());
    EXPECT_TRUE(std::find(out.begin(), out.end(), 5u) != out.end());
  }
  {
    data::SparseDataset sparse = data::MakeRandomSparse(400, 4000, 25, 94);
    options.k = 4;
    auto live = BuildMutableEngine(data::Metric::kJaccard, &sparse, options);
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE((*live)->SaveSnapshot(Dir("jac")).ok());
    auto restored = OpenSnapshotEngine(Dir("jac"));
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ((*restored)->metric(), data::Metric::kJaccard);
    std::vector<uint32_t> out;
    ASSERT_TRUE((*restored)->Query(sparse.point(7), 0.7, &out).ok());
    EXPECT_TRUE(std::find(out.begin(), out.end(), 7u) != out.end());
  }
  {
    const data::DenseDataset dense = data::MakeCorelLike(400, kDim, 95);
    EngineOptions l2_options = options;
    l2_options.k = 7;
    l2_options.radius = kRadius;  // w = 2r
    auto live = BuildEngine(data::Metric::kL2, &dense, l2_options);
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE((*live)->SaveSnapshot(Dir("l2")).ok());
    auto restored = OpenSnapshotEngine(Dir("l2"));
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ((*restored)->metric(), data::Metric::kL2);
    std::vector<uint32_t> out;
    ASSERT_TRUE((*restored)->Query(dense.point(3), kRadius, &out).ok());
    EXPECT_TRUE(std::find(out.begin(), out.end(), 3u) != out.end());
  }
  {
    const data::DenseDataset dense = data::MakeCovtypeLike(400, kDim, 96);
    EngineOptions l1_options = options;
    l1_options.k = 6;
    l1_options.radius = 50.0;  // w = 4r
    auto live = BuildEngine(data::Metric::kL1, &dense, l1_options);
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE((*live)->SaveSnapshot(Dir("l1")).ok());
    auto restored = OpenSnapshotEngine(Dir("l1"));
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ((*restored)->metric(), data::Metric::kL1);
    std::vector<uint32_t> out;
    ASSERT_TRUE((*restored)->Query(dense.point(4), 50.0, &out).ok());
    EXPECT_TRUE(std::find(out.begin(), out.end(), 4u) != out.end());
  }
  {
    data::DenseDataset dense =
        data::MakeWebspamLike({.n = 400, .dim = 24, .seed = 97});
    dense.PrecomputeNorms();
    EngineOptions cosine_options = options;
    cosine_options.k = 10;
    auto live = BuildEngine(data::Metric::kCosine, &dense, cosine_options);
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE((*live)->SaveSnapshot(Dir("cos")).ok());
    auto restored = OpenSnapshotEngine(Dir("cos"));
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ((*restored)->metric(), data::Metric::kCosine);
    std::vector<uint32_t> out;
    ASSERT_TRUE((*restored)->Query(dense.point(6), 0.2, &out).ok());
    EXPECT_TRUE(std::find(out.begin(), out.end(), 6u) != out.end());
  }
}

// --- Fuzz-lite: the payload parsers on cut payloads -------------------------
// Snapshot files are checksummed, so a cut file is rejected before its
// payload reaches a parser. These tests hand the FunctionSet and segment
// parsers (and, through them, LshTable::Deserialize) cut payloads
// directly.

/// `load` must accept `payload` and reject, with DataLoss or
/// InvalidArgument (never OK, never an abort), every proper prefix of it
/// and the payload with one trailing byte.
template <typename Load>
void ExpectEveryCutRejected(const std::vector<uint8_t>& payload, Load load) {
  ASSERT_TRUE(load(std::span<const uint8_t>(payload)).ok());
  for (size_t len = 0; len < payload.size(); ++len) {
    const util::Status status =
        load(std::span<const uint8_t>(payload.data(), len));
    ASSERT_FALSE(status.ok()) << "prefix of " << len << " bytes parsed";
    ASSERT_TRUE(status.code() == util::StatusCode::kDataLoss ||
                status.code() == util::StatusCode::kInvalidArgument)
        << "prefix " << len << ": " << status.ToString();
  }
  std::vector<uint8_t> padded = payload;
  padded.push_back(0);
  EXPECT_EQ(load(std::span<const uint8_t>(padded)).code(),
            util::StatusCode::kDataLoss);
}

/// Cuts the FunctionSet::Save and SegmentedIndex::SaveTo payloads of a
/// small one-segment index over `dataset` at every byte.
template <typename Family, typename Dataset>
void ExpectTruncationRejected(const Family& family, const Dataset& dataset) {
  using Index = SegmentedIndex<Family, Dataset>;
  EngineOptions options;
  options.num_tables = 3;
  options.k = 3;
  options.seed = 17;
  auto index = Index::Build(family, &dataset, 0, dataset.size(), options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  util::ByteWriter functions;
  index->functions().Save(&functions);
  ExpectEveryCutRejected(
      functions.bytes(), [](std::span<const uint8_t> bytes) {
        util::ByteReader reader(bytes);
        auto loaded = lsh::FunctionSet<Family>::Load(&reader);
        if (!loaded.ok()) return loaded.status();
        return reader.ExpectEnd();
      });

  util::ByteWriter segments;
  ASSERT_TRUE(index->SaveTo(&segments).ok());
  ExpectEveryCutRejected(
      segments.bytes(), [&](std::span<const uint8_t> bytes) {
        util::ByteReader reader(bytes);
        auto loaded =
            Index::LoadFrom(&reader, index->functions(), &dataset, options);
        if (!loaded.ok()) return loaded.status();
        return reader.ExpectEnd();
      });
}

TEST_F(SnapshotTest, TruncationAtEveryByteRejectsCleanly) {
  {
    SCOPED_TRACE("p-stable L2");
    ExpectTruncationRejected(lsh::PStableFamily::L2(4, 1.0),
                             data::MakeCorelLike(48, 4, 16));
  }
  {
    SCOPED_TRACE("p-stable L1");
    ExpectTruncationRejected(lsh::PStableFamily::L1(4, 200.0),
                             data::MakeCovtypeLike(48, 4, 16));
  }
  {
    SCOPED_TRACE("simhash");
    ExpectTruncationRejected(
        lsh::SimHashFamily(8),
        data::MakeWebspamLike({.n = 48, .dim = 8, .seed = 16}));
  }
  {
    SCOPED_TRACE("bit sampling");
    ExpectTruncationRejected(lsh::BitSamplingFamily(64),
                             data::MakeRandomCodes(48, 64, 16));
  }
  {
    SCOPED_TRACE("minhash");
    ExpectTruncationRejected(lsh::MinHashFamily(),
                             data::MakeRandomSparse(48, 500, 20, 16));
  }
}

}  // namespace
}  // namespace engine
}  // namespace hybridlsh
