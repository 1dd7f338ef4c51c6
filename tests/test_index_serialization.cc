// Save/Load round-trip tests for LshIndex across every family, plus
// failure injection on the index file format.
//
// The round-trip criterion is strict: the loaded index must produce
// byte-identical probe plans and cost estimates for every query — i.e., it
// IS the same index, not a statistically equivalent one.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/hybridlsh.h"
#include "engine_oracle.h"
#include "util/serialize.h"

namespace hybridlsh {
namespace {

using test_oracle::LshOracle;
using test_oracle::PlanOf;

class IndexSerializationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hybridlsh_idx_test_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const { return (dir_ / name).string(); }

  // Verifies Save+Load produces identical probe plans and estimates.
  template <typename Index, typename Queries>
  void ExpectIdenticalBehaviour(const Index& original, const Index& loaded,
                                const Queries& queries) {
    EXPECT_EQ(loaded.k(), original.k());
    EXPECT_EQ(loaded.num_tables(), original.num_tables());
    EXPECT_EQ(loaded.size(), original.size());
    EXPECT_EQ(loaded.stats().total_buckets, original.stats().total_buckets);
    EXPECT_EQ(loaded.stats().total_sketches, original.stats().total_sketches);

    auto scratch_a = original.MakeScratchSketch();
    auto scratch_b = loaded.MakeScratchSketch();
    for (size_t q = 0; q < queries.size(); ++q) {
      const lsh::ProbePlan plan_a = PlanOf(original, queries.point(q));
      const lsh::ProbePlan plan_b = PlanOf(loaded, queries.point(q));
      ASSERT_EQ(plan_a.keys, plan_b.keys) << "query " << q;
      const auto est_a = original.EstimateProbe(plan_a, &scratch_a);
      const auto est_b = loaded.EstimateProbe(plan_b, &scratch_b);
      EXPECT_EQ(est_a.collisions, est_b.collisions);
      EXPECT_DOUBLE_EQ(est_a.cand_estimate, est_b.cand_estimate);
    }
  }

  std::filesystem::path dir_;
};

TEST_F(IndexSerializationTest, L2RoundTrip) {
  const data::DenseDataset dataset = data::MakeCorelLike(2000, 16, 1);
  L2Index::Options options;
  options.num_tables = 20;
  options.k = 6;
  options.seed = 2;
  auto index =
      L2Index::Build(lsh::PStableFamily::L2(16, 1.0), dataset, options);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->Save(Path("l2.idx")).ok());
  auto loaded = L2Index::Load(Path("l2.idx"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->family().kind(), lsh::StableKind::kGaussian);
  EXPECT_DOUBLE_EQ(loaded->family().w(), 1.0);
  ExpectIdenticalBehaviour(*index, *loaded, dataset);
}

TEST_F(IndexSerializationTest, L1RoundTrip) {
  const data::DenseDataset dataset = data::MakeCovtypeLike(2000, 20, 3);
  L1Index::Options options;
  options.num_tables = 10;
  options.k = 8;
  options.seed = 4;
  auto index =
      L1Index::Build(lsh::PStableFamily::L1(20, 400.0), dataset, options);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->Save(Path("l1.idx")).ok());
  auto loaded = L1Index::Load(Path("l1.idx"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->family().kind(), lsh::StableKind::kCauchy);
  ExpectIdenticalBehaviour(*index, *loaded, dataset);
}

TEST_F(IndexSerializationTest, CosineRoundTrip) {
  const data::DenseDataset dataset =
      data::MakeWebspamLike({.n = 2000, .dim = 32, .seed = 5});
  CosineIndex::Options options;
  options.num_tables = 15;
  options.k = 12;
  options.seed = 6;
  auto index = CosineIndex::Build(lsh::SimHashFamily(32), dataset, options);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->Save(Path("cos.idx")).ok());
  auto loaded = CosineIndex::Load(Path("cos.idx"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->family().dim(), 32u);
  ExpectIdenticalBehaviour(*index, *loaded, dataset);
}

TEST_F(IndexSerializationTest, HammingRoundTrip) {
  const data::BinaryDataset dataset = data::MakeRandomCodes(3000, 64, 7);
  HammingIndex::Options options;
  options.num_tables = 25;
  options.k = 10;
  options.seed = 8;
  auto index =
      HammingIndex::Build(lsh::BitSamplingFamily(64), dataset, options);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->Save(Path("ham.idx")).ok());
  auto loaded = HammingIndex::Load(Path("ham.idx"));
  ASSERT_TRUE(loaded.ok());
  ExpectIdenticalBehaviour(*index, *loaded, dataset);
}

TEST_F(IndexSerializationTest, MinHashRoundTrip) {
  const data::SparseDataset dataset = data::MakeRandomSparse(1000, 500, 20, 9);
  JaccardIndex::Options options;
  options.num_tables = 10;
  options.k = 4;
  options.seed = 10;
  auto index = JaccardIndex::Build(lsh::MinHashFamily(), dataset, options);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->Save(Path("jac.idx")).ok());
  auto loaded = JaccardIndex::Load(Path("jac.idx"));
  ASSERT_TRUE(loaded.ok());
  ExpectIdenticalBehaviour(*index, *loaded, dataset);
}

TEST_F(IndexSerializationTest, LoadedIndexAnswersLikeTheOriginal) {
  // End-to-end: the loaded index's plan walk reports the same in-radius
  // candidates as the original's, with and without multi-probe.
  const size_t dim = 16;
  const double radius = 0.4;
  const data::DenseDataset dataset = data::MakeCorelLike(3000, dim, 11);
  L2Index::Options options;
  options.num_tables = 30;
  options.k = 7;
  options.seed = 12;
  auto index = L2Index::Build(lsh::PStableFamily::L2(dim, 2 * radius), dataset,
                              options);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->Save(Path("hybrid.idx")).ok());
  auto loaded = L2Index::Load(Path("hybrid.idx"));
  ASSERT_TRUE(loaded.ok());

  for (const size_t probes : {1, 4}) {
    for (size_t q = 0; q < 20; ++q) {
      const float* query = dataset.point(q * 100);
      const auto expected = LshOracle(*index, dataset, query, radius, probes);
      EXPECT_FALSE(expected.empty());  // the query point itself
      EXPECT_EQ(LshOracle(*loaded, dataset, query, radius, probes), expected)
          << "query " << q << " probes " << probes;
    }
  }
}

TEST_F(IndexSerializationTest, IdBaseRoundTrip) {
  // A shard-offset index (Options::id_base) must reload with the offset
  // intact: both the accessor and the global ids stored in the buckets.
  constexpr size_t kDim = 8;
  constexpr uint32_t kBase = 1000;
  const data::DenseDataset dataset = data::MakeCorelLike(500, kDim, 7);
  L2Index::Options options;
  options.num_tables = 8;
  options.k = 5;
  options.seed = 11;
  options.id_base = kBase;
  auto index =
      L2Index::Build(lsh::PStableFamily::L2(kDim, 1.0), dataset, options);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->Save(Path("idbase.idx")).ok());
  auto loaded = L2Index::Load(Path("idbase.idx"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->id_base(), kBase);
  ExpectIdenticalBehaviour(*index, *loaded, dataset);

  // The bucket ids themselves carry the offset after reload.
  util::VisitedSet original_ids(kBase + dataset.size());
  util::VisitedSet loaded_ids(kBase + dataset.size());
  for (size_t q = 0; q < 10; ++q) {
    const lsh::ProbePlan plan = PlanOf(*index, dataset.point(q));
    original_ids.Reset();
    loaded_ids.Reset();
    index->CollectCandidates(plan, &original_ids);
    loaded->CollectCandidates(plan, &loaded_ids);
    auto a = original_ids.touched();
    auto b = loaded_ids.touched();
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_FALSE(a.empty());  // the home bucket holds at least point q
    EXPECT_EQ(a, b) << "query " << q;
    for (uint32_t id : a) EXPECT_GE(id, kBase);
  }
}

TEST_F(IndexSerializationTest, RejectsWrongFamily) {
  const data::DenseDataset dataset = data::MakeCorelLike(500, 8, 13);
  L2Index::Options options;
  options.num_tables = 5;
  options.k = 4;
  auto index = L2Index::Build(lsh::PStableFamily::L2(8, 1.0), dataset, options);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->Save(Path("l2.idx")).ok());
  // Loading a p-stable index as a SimHash index must fail cleanly.
  EXPECT_EQ(CosineIndex::Load(Path("l2.idx")).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(IndexSerializationTest, RejectsGarbageFile) {
  std::ofstream out(Path("garbage.idx"), std::ios::binary);
  out << "this is not an index";
  out.close();
  EXPECT_EQ(L2Index::Load(Path("garbage.idx")).status().code(),
            util::StatusCode::kDataLoss);
}

TEST_F(IndexSerializationTest, RejectsTruncatedFile) {
  const data::DenseDataset dataset = data::MakeCorelLike(500, 8, 14);
  L2Index::Options options;
  options.num_tables = 5;
  options.k = 4;
  auto index = L2Index::Build(lsh::PStableFamily::L2(8, 1.0), dataset, options);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->Save(Path("l2.idx")).ok());
  const auto size = std::filesystem::file_size(Path("l2.idx"));
  std::filesystem::resize_file(Path("l2.idx"), size / 2);
  EXPECT_FALSE(L2Index::Load(Path("l2.idx")).ok());
}

TEST_F(IndexSerializationTest, RejectsTrailingGarbage) {
  const data::DenseDataset dataset = data::MakeCorelLike(500, 8, 15);
  L2Index::Options options;
  options.num_tables = 5;
  options.k = 4;
  auto index = L2Index::Build(lsh::PStableFamily::L2(8, 1.0), dataset, options);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->Save(Path("l2.idx")).ok());
  std::ofstream out(Path("l2.idx"), std::ios::binary | std::ios::app);
  out << "extra";
  out.close();
  EXPECT_FALSE(L2Index::Load(Path("l2.idx")).ok());
}

TEST_F(IndexSerializationTest, MissingFileIsNotFound) {
  EXPECT_EQ(L2Index::Load(Path("missing.idx")).status().code(),
            util::StatusCode::kNotFound);
}

TEST_F(IndexSerializationTest, TruncationAtEveryByteRejectsCleanly) {
  // Regression (fuzz-lite): an index file cut at ANY byte — i.e. at every
  // field boundary and inside every field — must fail with a clean Status,
  // never parse, and never crash. A small index keeps the loop fast.
  const data::DenseDataset dataset = data::MakeCorelLike(48, 4, 16);
  L2Index::Options options;
  options.num_tables = 3;
  options.k = 3;
  options.seed = 17;
  auto index = L2Index::Build(lsh::PStableFamily::L2(4, 1.0), dataset, options);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->Save(Path("full.idx")).ok());
  auto bytes = util::ReadFileBytes(Path("full.idx"));
  ASSERT_TRUE(bytes.ok());
  ASSERT_GT(bytes->size(), 0u);

  for (size_t len = 0; len < bytes->size(); ++len) {
    ASSERT_TRUE(util::WriteFileBytes(
                    Path("cut.idx"),
                    std::span<const uint8_t>(bytes->data(), len))
                    .ok());
    const auto loaded = L2Index::Load(Path("cut.idx"));
    ASSERT_FALSE(loaded.ok()) << "prefix of " << len << " bytes parsed";
    // Short reads surface as DataLoss (or InvalidArgument for a cut that
    // garbles a validated field) — never OK, never an abort.
    const util::StatusCode code = loaded.status().code();
    ASSERT_TRUE(code == util::StatusCode::kDataLoss ||
                code == util::StatusCode::kInvalidArgument)
        << "prefix " << len << ": " << loaded.status().ToString();
  }
}

TEST_F(IndexSerializationTest, SaveIsAtomicOverExistingFile) {
  // Save writes through a temp file + rename: a pre-existing index at the
  // same path is replaced atomically, stray temp files from an interrupted
  // earlier Save are overwritten, and no temp residue is left behind.
  const data::DenseDataset dataset = data::MakeCorelLike(300, 8, 18);
  L2Index::Options options;
  options.num_tables = 4;
  options.k = 4;
  auto index = L2Index::Build(lsh::PStableFamily::L2(8, 1.0), dataset, options);
  ASSERT_TRUE(index.ok());

  // Simulate an interrupted previous Save: a garbage temp file.
  {
    std::ofstream tmp(Path("idx.bin.tmp"), std::ios::binary);
    tmp << "partial garbage from a crashed writer";
  }
  ASSERT_TRUE(index->Save(Path("idx.bin")).ok());
  EXPECT_FALSE(std::filesystem::exists(Path("idx.bin.tmp")));
  ASSERT_TRUE(L2Index::Load(Path("idx.bin")).ok());

  // Overwriting with a different index leaves a fully-valid file.
  options.seed = 99;
  auto other =
      L2Index::Build(lsh::PStableFamily::L2(8, 1.0), dataset, options);
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(other->Save(Path("idx.bin")).ok());
  auto reloaded = L2Index::Load(Path("idx.bin"));
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(PlanOf(*other, dataset.point(0)).keys,
            PlanOf(*reloaded, dataset.point(0)).keys);
}

TEST_F(IndexSerializationTest, GoldenV1FileLoadsWithZeroIdBase) {
  // Format-compatibility contract: v1 files (no id_base field) stay
  // loadable forever, defaulting id_base to 0 and answering queries
  // identically to a fresh v2 build with the same parameters and seed. The
  // golden file was built from MakeRandomCodes(256, 64, 21) with the
  // options below — bit sampling and integer codes keep it byte-stable
  // across platforms (no libm in either sampling path).
  const std::string golden =
      std::string(HLSH_TESTDATA_DIR) + "/golden_v1_hamming.idx";
  auto loaded = HammingIndex::Load(golden);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->id_base(), 0u);

  const data::BinaryDataset dataset = data::MakeRandomCodes(256, 64, 21);
  HammingIndex::Options options;
  options.num_tables = 6;
  options.k = 8;
  options.seed = 42;
  auto fresh =
      HammingIndex::Build(lsh::BitSamplingFamily(64), dataset, options);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->id_base(), 0u);
  ExpectIdenticalBehaviour(*fresh, *loaded, dataset);

  // Candidate sets match too — the v1 payload carries the same buckets.
  util::VisitedSet fresh_ids(dataset.size());
  util::VisitedSet golden_ids(dataset.size());
  for (size_t q = 0; q < 32; ++q) {
    const lsh::ProbePlan plan = PlanOf(*fresh, dataset.point(q * 8));
    fresh_ids.Reset();
    golden_ids.Reset();
    fresh->CollectCandidates(plan, &fresh_ids);
    loaded->CollectCandidates(plan, &golden_ids);
    EXPECT_EQ(fresh_ids.touched(), golden_ids.touched()) << "query " << q;
  }
}

}  // namespace
}  // namespace hybridlsh
