// Tests for engine/search_engine.h: the type-erased facade must serve
// multiple LSH families through one runtime interface, reject mismatched
// point representations, and build through the metric-keyed registry.

#include "engine/search_engine.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/hybridlsh.h"
#include "data/attributes.h"

namespace hybridlsh {
namespace engine {
namespace {

std::vector<uint32_t> Sorted(std::vector<uint32_t> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool HasDuplicates(std::vector<uint32_t> ids) {
  ids = Sorted(std::move(ids));
  return std::adjacent_find(ids.begin(), ids.end()) != ids.end();
}

EngineOptions BaseOptions() {
  EngineOptions options;
  options.num_shards = 3;
  options.num_tables = 20;
  options.k = 7;
  options.seed = 61;
  options.searcher.cost_model = core::CostModel::FromRatio(6.0);
  return options;
}

class SearchEngineTest : public ::testing::Test {
 protected:
  static constexpr size_t kDim = 16;
  static constexpr double kDenseRadius = 0.4;
  static constexpr double kHammingRadius = 12;

  void SetUp() override {
    const data::DenseDataset full = data::MakeCorelLike(2003, kDim, 71);
    const data::DenseSplit split = data::SplitQueries(full, 15, 72);
    dense_ = split.base;
    dense_queries_ = split.queries;

    const data::BinaryDataset codes = data::MakeRandomCodes(1502, 64, 73);
    const data::BinarySplit binary_split = data::SplitQueriesBinary(codes, 15, 74);
    binary_ = binary_split.base;
    binary_queries_ = binary_split.queries;
  }

  data::DenseDataset dense_;
  data::DenseDataset dense_queries_;
  data::BinaryDataset binary_;
  data::BinaryDataset binary_queries_;
};

TEST_F(SearchEngineTest, ServesTwoFamiliesThroughOneInterface) {
  EngineOptions options = BaseOptions();
  options.radius = kDenseRadius;  // w = 2r
  auto l2 = BuildEngine(data::Metric::kL2, &dense_, options);
  ASSERT_TRUE(l2.ok()) << l2.status().ToString();
  auto hamming = BuildEngine(data::Metric::kHamming, &binary_, BaseOptions());
  ASSERT_TRUE(hamming.ok()) << hamming.status().ToString();

  // One runtime-polymorphic collection, two LSH families.
  std::vector<SearchEngine*> engines = {l2->get(), hamming->get()};
  EXPECT_EQ(engines[0]->metric(), data::Metric::kL2);
  EXPECT_EQ(engines[0]->family_tag(), lsh::PStableFamily::kFamilyTag);
  EXPECT_EQ(engines[1]->metric(), data::Metric::kHamming);
  EXPECT_EQ(engines[1]->family_tag(), lsh::BitSamplingFamily::kFamilyTag);
  for (SearchEngine* engine : engines) {
    EXPECT_EQ(engine->num_shards(), 3u);
    EXPECT_GT(engine->size(), 0u);
    EXPECT_GT(engine->stats().memory_bytes, 0u);
  }

  // Each engine answers through its typed overload with exact-scan ids.
  std::vector<uint32_t> out;
  for (size_t q = 0; q < dense_queries_.size(); ++q) {
    out.clear();
    ASSERT_TRUE(engines[0]
                    ->Query(dense_queries_.point(q), kDenseRadius, &out)
                    .ok());
    const auto truth = data::RangeScanDense(dense_, dense_queries_.point(q),
                                            kDenseRadius, data::Metric::kL2);
    for (uint32_t id : out) {
      EXPECT_TRUE(std::binary_search(truth.begin(), truth.end(), id));
    }
  }
  for (size_t q = 0; q < binary_queries_.size(); ++q) {
    out.clear();
    ASSERT_TRUE(engines[1]
                    ->Query(binary_queries_.point(q), kHammingRadius, &out)
                    .ok());
    const auto truth = data::RangeScanBinary(
        binary_, binary_queries_.point(q),
        static_cast<uint32_t>(kHammingRadius));
    for (uint32_t id : out) {
      EXPECT_TRUE(std::binary_search(truth.begin(), truth.end(), id));
    }
  }
}

TEST_F(SearchEngineTest, FacadeMatchesDirectShardedEngine) {
  EngineOptions options = BaseOptions();
  options.radius = kDenseRadius;  // w = 2r
  auto facade = BuildEngine(data::Metric::kL2, &dense_, options);
  ASSERT_TRUE(facade.ok());

  auto direct = ShardedEngine<lsh::PStableFamily>::Build(
      lsh::PStableFamily::L2(kDim, 2 * kDenseRadius), dense_, options);
  ASSERT_TRUE(direct.ok());

  std::vector<uint32_t> expected;
  std::vector<uint32_t> out;
  for (size_t q = 0; q < dense_queries_.size(); ++q) {
    expected.clear();
    out.clear();
    direct->Query(dense_queries_.point(q), kDenseRadius, &expected);
    ASSERT_TRUE(
        (*facade)->Query(dense_queries_.point(q), kDenseRadius, &out).ok());
    EXPECT_EQ(Sorted(out), Sorted(expected)) << "query " << q;
  }
}

TEST_F(SearchEngineTest, BatchMatchesSingleQueriesThroughFacade) {
  EngineOptions options = BaseOptions();
  options.radius = kDenseRadius;  // w = 2r
  auto engine = BuildEngine(data::Metric::kL2, &dense_, options);
  ASSERT_TRUE(engine.ok());

  double wall_seconds = 0;
  auto batch = (*engine)->QueryBatch(dense_queries_, kDenseRadius, &wall_seconds);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), dense_queries_.size());
  EXPECT_GT(wall_seconds, 0.0);
  std::vector<uint32_t> out;
  for (size_t q = 0; q < dense_queries_.size(); ++q) {
    out.clear();
    ASSERT_TRUE(
        (*engine)->Query(dense_queries_.point(q), kDenseRadius, &out).ok());
    EXPECT_EQ(Sorted((*batch)[q].neighbors), Sorted(out)) << "query " << q;
  }
}

TEST_F(SearchEngineTest, JaccardSparseEngineServesThirdFamily) {
  const data::SparseDataset sparse = data::MakeRandomSparse(800, 5000, 30, 81);
  EngineOptions options = BaseOptions();
  options.num_shards = 2;
  auto engine = BuildEngine(data::Metric::kJaccard, &sparse, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->family_tag(), lsh::MinHashFamily::kFamilyTag);

  std::vector<uint32_t> out;
  const double radius = 0.7;
  ASSERT_TRUE((*engine)->Query(sparse.point(0), radius, &out).ok());
  const auto truth = data::RangeScanSparse(sparse, sparse.point(0), radius);
  for (uint32_t id : out) {
    EXPECT_TRUE(std::binary_search(truth.begin(), truth.end(), id));
  }
  // Point 0 is in the dataset, distance 0 to itself.
  EXPECT_TRUE(std::find(out.begin(), out.end(), 0u) != out.end());
}

TEST_F(SearchEngineTest, RejectsMismatchedPointRepresentation) {
  EngineOptions options = BaseOptions();
  options.radius = kDenseRadius;  // w = 2r
  auto l2 = BuildEngine(data::Metric::kL2, &dense_, options);
  ASSERT_TRUE(l2.ok());

  std::vector<uint32_t> out;
  const util::Status binary_on_dense =
      (*l2)->Query(binary_queries_.point(0), kDenseRadius, &out);
  EXPECT_EQ(binary_on_dense.code(), util::StatusCode::kInvalidArgument);
  const util::Status sparse_on_dense = (*l2)->Query(
      std::span<const uint32_t>(), kDenseRadius, &out);
  EXPECT_EQ(sparse_on_dense.code(), util::StatusCode::kInvalidArgument);
  auto batch = (*l2)->QueryBatch(binary_queries_, kDenseRadius);
  EXPECT_EQ(batch.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(out.empty());
}

TEST_F(SearchEngineTest, RadiusOverloadsRejectBadRadiiWithStatus) {
  // The radius overloads are the spec forms with QuerySpec::Radius: a
  // negative or non-finite radius is an InvalidArgument, not an answer (an
  // L2 engine used to report radius -r as radius r) and not an abort.
  EngineOptions options = BaseOptions();
  options.radius = kDenseRadius;  // w = 2r
  auto l2 = BuildEngine(data::Metric::kL2, &dense_, options);
  ASSERT_TRUE(l2.ok());
  auto hamming = BuildEngine(data::Metric::kHamming, &binary_, BaseOptions());
  ASSERT_TRUE(hamming.ok());
  const data::SparseDataset sparse = data::MakeRandomSparse(200, 500, 20, 82);
  auto jaccard = BuildEngine(data::Metric::kJaccard, &sparse, BaseOptions());
  ASSERT_TRUE(jaccard.ok());

  std::vector<uint32_t> out;
  for (const double bad : {-1.0, -kDenseRadius,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ((*l2)->Query(dense_queries_.point(0), bad, &out).code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_EQ((*hamming)->Query(binary_queries_.point(0), bad, &out).code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_EQ((*jaccard)->Query(sparse.point(0), bad, &out).code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ((*l2)->QueryBatch(dense_queries_, bad).status().code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_EQ((*hamming)->QueryBatch(binary_queries_, bad).status().code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_EQ((*jaccard)->QueryBatch(sparse, bad).status().code(),
              util::StatusCode::kInvalidArgument);
  }
  // Radius 0 is valid: it reports exact duplicates (the query itself).
  ASSERT_TRUE((*jaccard)->Query(sparse.point(0), 0.0, &out).ok());
  EXPECT_TRUE(std::find(out.begin(), out.end(), 0u) != out.end());
  auto batch = (*l2)->QueryBatch(dense_queries_, 0.0);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->size(), dense_queries_.size());
}

TEST_F(SearchEngineTest, DenseEntryPointsRejectNonFinitePoints) {
  // Every dense Query / QueryFused / QueryBatch / Insert of the facade
  // returns InvalidArgument for a NaN or infinite coordinate.
  data::DenseDataset dataset = dense_;
  EngineOptions options = BaseOptions();
  options.radius = kDenseRadius;  // w = 2r
  auto engine = BuildMutableEngine(data::Metric::kL2, &dataset, options);
  ASSERT_TRUE(engine.ok());
  QuerySpec fused;
  fused.subqueries.push_back({kDenseRadius, 1.0, std::nullopt, false});
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    SCOPED_TRACE(bad);
    std::vector<float> point(dense_queries_.point(1),
                             dense_queries_.point(1) + kDim);
    point[0] = bad;
    std::vector<uint32_t> out;
    std::vector<core::FusedHit> hits;
    const util::StatusCode invalid = util::StatusCode::kInvalidArgument;
    EXPECT_EQ((*engine)->Query(point.data(), kDenseRadius, &out).code(),
              invalid);
    EXPECT_EQ((*engine)
                  ->Query(point.data(), QuerySpec::Radius(kDenseRadius), &out)
                  .code(),
              invalid);
    EXPECT_EQ((*engine)->QueryFused(point.data(), fused, &hits).code(),
              invalid);
    data::DenseDataset batch = dense_queries_;
    batch.Append(point);
    EXPECT_EQ((*engine)->QueryBatch(batch, kDenseRadius).status().code(),
              invalid);
    EXPECT_EQ((*engine)->Insert(point.data()).status().code(), invalid);
    EXPECT_TRUE(out.empty());
    EXPECT_TRUE(hits.empty());
  }
  EXPECT_EQ((*engine)->size(), dense_.size());
  // The engine keeps serving finite input.
  std::vector<uint32_t> out;
  EXPECT_TRUE(
      (*engine)->Query(dense_queries_.point(1), kDenseRadius, &out).ok());
  EXPECT_TRUE((*engine)->Insert(dense_queries_.point(1)).ok());
}

TEST_F(SearchEngineTest, BuildRejectsProbeWidthsTheFamilyCannotServe) {
  // A multi-probe width is checked when the engine is built. MinHash has no
  // multi-probe, so a width above 1 used to pass the build and abort the
  // process on the first query.
  const data::SparseDataset sparse = data::MakeRandomSparse(200, 500, 20, 83);
  EngineOptions options = BaseOptions();
  options.searcher.probes_per_table = 2;
  EXPECT_EQ(BuildEngine(data::Metric::kJaccard, &sparse, options)
                .status()
                .code(),
            util::StatusCode::kUnimplemented);
  options.searcher.probes_per_table = 0;
  EXPECT_EQ(BuildEngine(data::Metric::kJaccard, &sparse, options)
                .status()
                .code(),
            util::StatusCode::kInvalidArgument);

  options.radius = kDenseRadius;
  EXPECT_EQ(
      BuildEngine(data::Metric::kL2, &dense_, options).status().code(),
      util::StatusCode::kInvalidArgument);
  options.searcher.probes_per_table = 3;  // p-stable families multi-probe
  auto l2 = BuildEngine(data::Metric::kL2, &dense_, options);
  ASSERT_TRUE(l2.ok()) << l2.status().ToString();
  std::vector<uint32_t> out;
  EXPECT_TRUE((*l2)->Query(dense_queries_.point(0), kDenseRadius, &out).ok());
}

TEST_F(SearchEngineTest, RejectsMismatchedDatasetContainer) {
  auto engine = BuildEngine(data::Metric::kHamming, &dense_, BaseOptions());
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(SearchEngineTest, PStableRequiresRadius) {
  EngineOptions options = BaseOptions();  // radius == 0
  auto engine = BuildEngine(data::Metric::kL2, &dense_, options);
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), util::StatusCode::kInvalidArgument);

  // The radius gives w: the paper's 2r.
  options.radius = kDenseRadius;
  auto derived = BuildEngine(data::Metric::kL2, &dense_, options);
  EXPECT_TRUE(derived.ok()) << derived.status().ToString();
}

TEST_F(SearchEngineTest, AutoKRejectsNaNRadiusOrDelta) {
  // Cosine takes no window, so a NaN radius reaches the paper's k rule.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EngineOptions options = BaseOptions();
  options.k = 0;
  options.radius = nan;
  EXPECT_EQ(BuildEngine(data::Metric::kCosine, &dense_, options)
                .status()
                .code(),
            util::StatusCode::kInvalidArgument);
  options.radius = 0.2;
  options.delta = nan;
  EXPECT_EQ(BuildEngine(data::Metric::kCosine, &dense_, options)
                .status()
                .code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(SearchEngineTest, OversizedTableCountOrKIsRejectedBeforeBuilding) {
  // Build samples L tables of k function slots, so either field at 2^30
  // must be an InvalidArgument from ValidateOptions before anything is
  // sampled or allocated, not a bad_alloc that ends the process.
  EngineOptions tables = BaseOptions();
  tables.num_tables = 1 << 30;
  EngineOptions width = BaseOptions();
  width.k = 1 << 30;
  for (const EngineOptions* options : {&tables, &width}) {
    EXPECT_EQ(BuildEngine(data::Metric::kCosine, &dense_, *options)
                  .status()
                  .code(),
              util::StatusCode::kInvalidArgument);
  }
}

// The facade under concurrent callers: several threads query one engine
// (plain, filtered and fused), another runs batches, and a writer inserts
// and removes through the same facade while background maintenance seals
// and compacts. Every answer must be sound whichever way its shard walks
// ran; once quiesced, every thread's answer equals a lone caller's. No
// timing decides the outcome: each loop runs until the writer is done,
// and at least once.
TEST_F(SearchEngineTest, ConcurrentCallersShareOneFacade) {
  constexpr size_t kReaders = 3;
  constexpr uint32_t kBuckets = 5;
  data::DenseDataset dataset = dense_;  // grows with inserts
  data::AttributeStore attributes;
  attributes.AddColumn("bucket");
  auto append_row = [&](size_t id) {
    const uint32_t row[1] = {static_cast<uint32_t>(id % kBuckets)};
    attributes.AppendRow(row);
  };
  for (size_t id = 0; id < dataset.size(); ++id) append_row(id);

  EngineOptions options = BaseOptions();
  options.num_shards = 4;
  options.num_threads = 4;
  options.radius = kDenseRadius;
  options.active_seal_threshold = 64;  // many background seals
  options.max_sealed_segments = 2;     // and watermark compactions
  auto built = BuildMutableEngine(data::Metric::kL2, &dataset, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  SearchEngine& engine = **built;
  ASSERT_TRUE(engine.AttachAttributes(&attributes).ok());

  const data::Predicate pred = data::Predicate::Equals(0, 2);
  QuerySpec filtered = QuerySpec::Radius(kDenseRadius);
  filtered.predicate = &pred;
  const double wide = 1.5 * kDenseRadius;
  QuerySpec fused;
  fused.subqueries.push_back({kDenseRadius, 1.0, std::nullopt, false});
  fused.subqueries.push_back({wide, 0.5, std::nullopt, false});

  // Rows are immutable once published, so these reads cannot race the
  // writer's appends.
  auto in_radius = [&](const float* query, uint32_t id, double radius) {
    return id < dataset.size() &&
           data::L2Distance(query, dataset.point(id), kDim) <=
               radius * (1.0 + 1e-4);
  };
  std::atomic<bool> done{false};
  std::atomic<size_t> ready{0}, violations{0};
  auto violation = [&] { violations.fetch_add(1, std::memory_order_relaxed); };

  std::vector<std::thread> threads;
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      std::vector<uint32_t> out;
      std::vector<core::FusedHit> hits;
      size_t q = r;
      ready.fetch_add(1, std::memory_order_release);
      do {
        const float* query = dense_queries_.point(q++ % dense_queries_.size());
        out.clear();
        if (!engine.Query(query, kDenseRadius, &out).ok()) violation();
        for (const uint32_t id : out) {
          if (!in_radius(query, id, kDenseRadius)) violation();
        }
        if (HasDuplicates(out)) violation();

        out.clear();
        if (!engine.Query(query, filtered, &out).ok()) violation();
        for (const uint32_t id : out) {
          if (!in_radius(query, id, kDenseRadius) || id % kBuckets != 2) {
            violation();
          }
        }
        if (HasDuplicates(out)) violation();

        hits.clear();
        if (!engine.QueryFused(query, fused, &hits).ok()) violation();
        std::vector<uint32_t> hit_ids;
        for (size_t i = 0; i < hits.size(); ++i) {
          hit_ids.push_back(hits[i].id);
          if (!in_radius(query, hits[i].id, wide)) violation();
          if (i > 0 && (hits[i - 1].score < hits[i].score ||
                        (hits[i - 1].score == hits[i].score &&
                         hits[i - 1].id >= hits[i].id))) {
            violation();  // not ordered by (score desc, id asc)
          }
        }
        if (HasDuplicates(hit_ids)) violation();
      } while (!done.load(std::memory_order_acquire));
    });
  }
  threads.emplace_back([&] {
    ready.fetch_add(1, std::memory_order_release);
    do {
      auto batch = engine.QueryBatch(dense_queries_, kDenseRadius);
      if (!batch.ok() || batch->size() != dense_queries_.size()) {
        violation();
        continue;
      }
      for (size_t q = 0; q < batch->size(); ++q) {
        for (const uint32_t id : (*batch)[q].neighbors) {
          if (!in_radius(dense_queries_.point(q), id, kDenseRadius)) {
            violation();
          }
        }
        if (HasDuplicates((*batch)[q].neighbors)) violation();
      }
    } while (!done.load(std::memory_order_acquire));
  });

  // Writer: inserts (attribute rows in lockstep, on this thread) and a
  // removal of an initial point every third insert. A failed write is a
  // violation, so that the readers are always joined. It starts once every
  // other thread is querying.
  while (ready.load(std::memory_order_acquire) < kReaders + 1) {
    std::this_thread::yield();
  }
  const data::DenseDataset incoming = data::MakeCorelLike(600, kDim, 75);
  for (size_t i = 0; i < incoming.size(); ++i) {
    auto id = engine.Insert(incoming.point(i));
    if (!id.ok()) {
      violation();
      break;
    }
    append_row(*id);
    if (i % 3 == 0 &&
        !engine.Remove(static_cast<uint32_t>(7 * i % dense_.size())).ok()) {
      violation();
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(violations.load(), 0u);

  // Quiesced: every thread's answer to one query equals a lone call's.
  ASSERT_TRUE(engine.Compact().ok());
  const float* query = dense_queries_.point(0);
  std::vector<uint32_t> lone, lone_filtered;
  std::vector<core::FusedHit> lone_fused;
  ASSERT_TRUE(engine.Query(query, kDenseRadius, &lone).ok());
  ASSERT_TRUE(engine.Query(query, filtered, &lone_filtered).ok());
  ASSERT_TRUE(engine.QueryFused(query, fused, &lone_fused).ok());
  ASSERT_FALSE(lone.empty());
  std::atomic<size_t> mismatches{0};
  threads.clear();
  for (size_t r = 0; r < kReaders + 1; ++r) {
    threads.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        std::vector<uint32_t> out, out_filtered;
        std::vector<core::FusedHit> hits;
        const bool ok =
            engine.Query(query, kDenseRadius, &out).ok() &&
            engine.Query(query, filtered, &out_filtered).ok() &&
            engine.QueryFused(query, fused, &hits).ok();
        bool same = ok && out == lone && out_filtered == lone_filtered &&
                    hits.size() == lone_fused.size();
        for (size_t i = 0; same && i < hits.size(); ++i) {
          same = hits[i].id == lone_fused[i].id &&
                 hits[i].score == lone_fused[i].score;
        }
        if (!same) mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST_F(SearchEngineTest, MutableLifecycleThroughTheFacade) {
  data::BinaryDataset dataset = binary_;  // grows with inserts
  auto built =
      BuildMutableEngine(data::Metric::kHamming, &dataset, BaseOptions());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  SearchEngine* engine = built->get();

  // Only the matching point representation inserts.
  EXPECT_FALSE(engine->Insert(dense_queries_.point(0)).ok());

  const data::BinaryDataset incoming = data::MakeRandomCodes(300, 64, 91);
  const size_t initial_n = dataset.size();
  for (size_t i = 0; i < incoming.size(); ++i) {
    auto id = engine->Insert(incoming.point(i));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(*id, initial_n + i);
  }
  for (uint32_t id = 0; id < 100; ++id) {
    ASSERT_TRUE(engine->Remove(id).ok());
  }
  ASSERT_TRUE(engine->Compact().ok());
  EXPECT_EQ(engine->size(), initial_n + incoming.size() - 100);

  // Post-churn queries: correct ids only, removed ids never reported.
  std::vector<uint32_t> out;
  for (size_t q = 0; q < binary_queries_.size(); ++q) {
    out.clear();
    ASSERT_TRUE(
        engine->Query(binary_queries_.point(q), kHammingRadius, &out).ok());
    const auto truth = data::RangeScanBinary(
        dataset, binary_queries_.point(q),
        static_cast<uint32_t>(kHammingRadius));
    for (uint32_t id : out) {
      EXPECT_GE(id, 100u);
      EXPECT_TRUE(std::binary_search(truth.begin(), truth.end(), id));
    }
  }
}

TEST_F(SearchEngineTest, ConstBuildIsReadOnlyUntilEnableUpdates) {
  data::BinaryDataset dataset = binary_;
  auto engine = BuildEngine(data::Metric::kHamming, &dataset, BaseOptions());
  ASSERT_TRUE(engine.ok());

  // Insert needs a mutable dataset; Remove and Compact never do.
  EXPECT_EQ((*engine)->Insert(dataset.point(0)).status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_TRUE((*engine)->Remove(0).ok());
  ASSERT_TRUE((*engine)->Compact().ok());
  EXPECT_EQ((*engine)->size(), dataset.size() - 1);

  // The wrong container type cannot arm updates; the right one can.
  data::DenseDataset wrong(4, 8);
  EXPECT_FALSE((*engine)->EnableUpdates(&wrong).ok());
  ASSERT_TRUE((*engine)->EnableUpdates(&dataset).ok());
  EXPECT_TRUE((*engine)->Insert(dataset.point(1)).ok());
}

// Keep last in this file: replaces the kCosine builtin for the remainder of
// the test process.
TEST_F(SearchEngineTest, ZRegistryAcceptsExternalFactories) {
  RegisterEngineFactory(
      data::Metric::kCosine,
      +[](AnyDataset, const EngineOptions&)
          -> util::StatusOr<std::unique_ptr<SearchEngine>> {
        return util::Status::Unimplemented("custom cosine factory");
      });
  auto engine = BuildEngine(data::Metric::kCosine, &dense_, BaseOptions());
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), util::StatusCode::kUnimplemented);
  EXPECT_EQ(engine.status().message(), "custom cosine factory");
}

}  // namespace
}  // namespace engine
}  // namespace hybridlsh
