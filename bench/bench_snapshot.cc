// Cold-start benchmark: restoring an engine from a snapshot vs rebuilding
// it from the raw dataset.
//
// Rebuild cost is the hash bill — n * L signatures plus table construction
// — while restore is pure IO + parse: tables, sketches, and functions
// reload as bytes (zero hash evaluations, asserted below). Each row is one
// JSON object on its own line:
//
//   {"bench":"snapshot","n":...,"build_seconds":...,"save_seconds":...,
//    "restore_seconds":...,"restore_mmap_seconds":...,
//    "speedup_restore_vs_build":...,"snapshot_bytes":...}
//
// Default run sweeps small sizes (CI-friendly); --full adds the 1M-point
// row the acceptance criterion pins (restore >= 10x faster than rebuild).

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/hybridlsh.h"
#include "engine/sharded_engine.h"

namespace {

namespace fs = std::filesystem;
using namespace hybridlsh;
using L2Engine = engine::ShardedEngine<lsh::PStableFamily>;

constexpr size_t kDim = 16;
constexpr double kRadius = 0.4;

uint64_t DirBytes(const std::string& root) {
  uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

void RunOne(size_t n) {
  const data::DenseDataset dataset = data::MakeCorelLike(n, kDim, 7);

  engine::EngineOptions options;
  options.num_shards = 4;
  options.num_threads = 4;
  // The paper's serving configuration (L = 50, k = 7): what a production
  // engine actually rebuilds on restart.
  options.num_tables = 50;
  options.k = 7;
  options.seed = 11;
  options.searcher.cost_model = core::CostModel::FromRatio(6.0);

  util::WallTimer build_timer;
  auto engine = L2Engine::Build(lsh::PStableFamily::L2(kDim, 2 * kRadius),
                                dataset, options);
  HLSH_CHECK(engine.ok());
  const double build_seconds = build_timer.ElapsedSeconds();

  const std::string root =
      (fs::temp_directory_path() / ("hlsh_bench_snap_" + std::to_string(n)))
          .string();
  fs::remove_all(root);
  util::WallTimer save_timer;
  HLSH_CHECK(engine->SaveSnapshot(root).ok());
  const double save_seconds = save_timer.ElapsedSeconds();
  const uint64_t snapshot_bytes = DirBytes(root);

  lsh::SetHashEvalCounting(true);
  const uint64_t evals_before = lsh::HashEvalCountForTest();
  util::WallTimer restore_timer;
  data::DenseDataset restored_dataset;
  auto restored = L2Engine::OpenSnapshot(root, &restored_dataset);
  HLSH_CHECK(restored.ok());
  const double restore_seconds = restore_timer.ElapsedSeconds();
  HLSH_CHECK(lsh::HashEvalCountForTest() == evals_before);
  lsh::SetHashEvalCounting(false);

  util::WallTimer mmap_timer;
  data::DenseDataset mmap_dataset;
  engine::snapshot::OpenOptions mmap_options;
  mmap_options.use_mmap = true;
  auto mmap_restored = L2Engine::OpenSnapshot(root, &mmap_dataset,
                                              mmap_options);
  HLSH_CHECK(mmap_restored.ok());
  const double restore_mmap_seconds = mmap_timer.ElapsedSeconds();

  // Spot-check equivalence so the numbers describe a CORRECT restore.
  std::vector<uint32_t> out_a, out_b, out_c;
  for (size_t q = 0; q < 16; ++q) {
    out_a.clear();
    out_b.clear();
    out_c.clear();
    const float* query = dataset.point((q * 997) % n);
    engine->Query(query, kRadius, &out_a);
    restored->Query(query, kRadius, &out_b);
    mmap_restored->Query(query, kRadius, &out_c);
    HLSH_CHECK(out_a == out_b && out_a == out_c);
  }

  std::printf(
      "{\"bench\":\"snapshot\",\"metric\":\"L2\",\"n\":%zu,\"dim\":%zu,"
      "\"shards\":4,\"tables\":50,\"k\":7,"
      "\"build_seconds\":%.4f,\"save_seconds\":%.4f,"
      "\"restore_seconds\":%.4f,\"restore_mmap_seconds\":%.4f,"
      "\"speedup_restore_vs_build\":%.1f,\"snapshot_bytes\":%" PRIu64 "}\n",
      n, kDim, build_seconds, save_seconds, restore_seconds,
      restore_mmap_seconds, build_seconds / restore_seconds, snapshot_bytes);
  std::fflush(stdout);
  fs::remove_all(root);
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = argc > 1 && std::strcmp(argv[1], "--full") == 0;
  std::printf("# Snapshot cold start: rebuild vs restore (dim=%zu, L=50, "
              "k=7, 4 shards)\n",
              kDim);
  RunOne(50000);
  RunOne(200000);
  if (full) {
    RunOne(1000000);
  } else {
    std::printf("# pass --full for the 1M-point row\n");
  }
  return 0;
}
