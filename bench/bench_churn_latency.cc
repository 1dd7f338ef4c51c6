// Serving-latency-under-churn benchmark for the concurrent core
// (engine/sharded_engine.h Query from several threads + background
// seal/compaction).
//
// The question the lock-free query path exists to answer: what does a
// reader's tail latency look like while writers churn the index? Two
// phases per reader-thread count:
//
//   1. read_only — N reader threads running Query back to back over a
//      quiesced engine (each on a query context the engine lends it);
//   2. mixed     — the same readers while one writer thread streams
//      rate-limited Insert/Remove churn (1 delete per 4 inserts) with
//      background maintenance sealing and compacting off the write path.
//
// Per-query wall latencies are recorded per thread and merged; each row
// reports p50/p95/p99 in microseconds plus aggregate QPS — one JSON object
// per line, the repo's machine-readable bench format:
//
//   {"bench":"churn_latency","phase":"mixed","threads":2,"p99_us":...}
//
// The serving-core regression gate: at the same thread count, the mixed
// p99 should stay within 2x of the read-only p99 — churn costs CPU, but
// epoch publication means it never blocks a reader.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "engine/sharded_engine.h"
#include "util/stats.h"

using namespace hybridlsh;

namespace {

struct PhaseResult {
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double qps = 0;
  size_t queries = 0;
};

/// Runs `num_threads` readers for `queries_per_thread` queries each and
/// returns merged latency percentiles. Readers start together on a latch.
PhaseResult RunReaders(engine::ShardedEngine<lsh::PStableFamily>& engine,
                       const data::DenseDataset& queries, double radius,
                       size_t num_threads, size_t queries_per_thread) {
  std::vector<std::vector<double>> latencies(num_threads);
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> readers;
  readers.reserve(num_threads);
  for (size_t t = 0; t < num_threads; ++t) {
    readers.emplace_back([&, t] {
      std::vector<uint32_t> out;
      latencies[t].reserve(queries_per_thread);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (size_t q = 0; q < queries_per_thread; ++q) {
        const auto query = queries.point((q * num_threads + t) % queries.size());
        out.clear();
        util::WallTimer timer;
        HLSH_CHECK(engine.Query(query, radius, &out).ok());
        latencies[t].push_back(timer.ElapsedSeconds());
      }
    });
  }
  while (ready.load() < num_threads) std::this_thread::yield();
  util::WallTimer wall;
  go.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  const double wall_seconds = wall.ElapsedSeconds();

  std::vector<double> merged;
  for (const auto& thread_latencies : latencies) {
    merged.insert(merged.end(), thread_latencies.begin(),
                  thread_latencies.end());
  }
  PhaseResult result;
  result.queries = merged.size();
  result.p50_us = util::Percentile(merged, 0.50) * 1e6;
  result.p95_us = util::Percentile(merged, 0.95) * 1e6;
  result.p99_us = util::Percentile(merged, 0.99) * 1e6;
  result.qps = wall_seconds > 0 ? static_cast<double>(merged.size()) /
                                      wall_seconds
                                : 0;
  return result;
}

/// Runs a phase with one short untimed warm-up (touches the dataset and
/// fault-in pages so the first measured query is not a cold outlier) and
/// then three timed runs, returning the run with the MEDIAN p99. A single
/// run's tail on a noisy host is dominated by whichever query ate a
/// scheduling hiccup; the median keeps the committed numbers stable.
PhaseResult MedianByP99(engine::ShardedEngine<lsh::PStableFamily>& engine,
                        const data::DenseDataset& queries, double radius,
                        size_t num_threads, size_t queries_per_thread) {
  constexpr int kRuns = 3;
  RunReaders(engine, queries, radius, num_threads,
             std::max<size_t>(queries_per_thread / 4, 1));  // warm-up
  std::vector<PhaseResult> runs;
  runs.reserve(kRuns);
  for (int r = 0; r < kRuns; ++r) {
    runs.push_back(
        RunReaders(engine, queries, radius, num_threads, queries_per_thread));
  }
  std::sort(runs.begin(), runs.end(),
            [](const PhaseResult& a, const PhaseResult& b) {
              return a.p99_us < b.p99_us;
            });
  return runs[kRuns / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchScale scale = bench::GetScale(argc, argv);
  std::printf("# Concurrent serving core: Query tail latency, "
              "quiesced vs. under rate-limited insert/delete churn\n");
  bench::PrintScaleNote(scale);

  const double radius = 0.45;
  const size_t dim = 32;
  const size_t base_n = scale.N(68040, 8);
  const size_t churn_pool = base_n / 2;
  const data::DenseDataset full =
      data::MakeCorelLike(base_n + churn_pool, dim, /*seed=*/421);
  const data::DenseSplit split =
      data::SplitQueries(full, scale.num_queries, /*seed=*/422);
  const size_t live_base = split.base.size() - churn_pool;
  const size_t queries_per_thread = scale.full ? 2000 : 400;
  const double writer_ops_per_sec = 5000.0;

  std::printf("# base_n=%zu d=%zu L=25 k=7 radius=%.2f shards=4 "
              "writer=%.0f ops/s (1 delete per 4 inserts), "
              "background seal threshold=2048\n",
              live_base, dim, radius, writer_ops_per_sec);

  for (size_t num_threads : {1, 2, 4}) {
    // Fresh engine per thread count so churn from one sweep point never
    // pollutes the next phase's read-only baseline.
    data::DenseDataset dataset(0, dim);
    for (size_t i = 0; i < live_base; ++i) {
      dataset.Append({split.base.point(i), dim});
    }
    engine::EngineOptions options;
    options.num_shards = 4;
    options.num_tables = 25;
    options.k = 7;
    options.seed = 423;
    options.active_seal_threshold = 2048;
    options.max_sealed_segments = 4;
    options.searcher.cost_model = core::CostModel::FromRatio(6.0);
    auto built = engine::ShardedEngine<lsh::PStableFamily>::Build(
        lsh::PStableFamily::L2(dim, 2 * radius), &dataset, options);
    HLSH_CHECK(built.ok());
    auto engine = std::move(*built);

    // Phase 1: quiesced baseline (warm-up + median-of-3 by p99).
    const PhaseResult read_only = MedianByP99(engine, split.queries, radius,
                                              num_threads, queries_per_thread);
    std::printf(
        "{\"bench\":\"churn_latency\",\"phase\":\"read_only\","
        "\"threads\":%zu,\"queries\":%zu,\"p50_us\":%.1f,\"p95_us\":%.1f,"
        "\"p99_us\":%.1f,\"qps\":%.1f}\n",
        num_threads, read_only.queries, read_only.p50_us, read_only.p95_us,
        read_only.p99_us, read_only.qps);

    // Phase 2: the same readers with a rate-limited writer churning the
    // index (and background maintenance sealing behind it).
    std::atomic<bool> stop_writer{false};
    std::atomic<size_t> writer_ops{0};
    std::thread writer([&] {
      const auto interval = std::chrono::duration<double>(
          1.0 / writer_ops_per_sec);
      util::Rng rng(424);
      size_t i = 0;
      const auto start = std::chrono::steady_clock::now();
      while (!stop_writer.load(std::memory_order_acquire)) {
        HLSH_CHECK(
            engine.Insert(split.base.point(live_base + i % churn_pool)).ok());
        writer_ops.fetch_add(1, std::memory_order_relaxed);
        if (i % 4 == 3) {
          const uint32_t victim = static_cast<uint32_t>(rng.UniformInt(
              0, static_cast<int64_t>(dataset.size() - 1)));
          // Double-removes are fine (idempotent no-op in the engine).
          HLSH_CHECK(engine.Remove(victim).ok());
          writer_ops.fetch_add(1, std::memory_order_relaxed);
        }
        ++i;
        // Rate limit: sleep until this op's scheduled slot.
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        interval * static_cast<double>(
                                       writer_ops.load(
                                           std::memory_order_relaxed))));
      }
    });
    util::WallTimer mixed_wall;
    const PhaseResult mixed = MedianByP99(engine, split.queries, radius,
                                          num_threads, queries_per_thread);
    const double mixed_seconds = mixed_wall.ElapsedSeconds();
    stop_writer.store(true, std::memory_order_release);
    writer.join();
    engine.DrainMaintenance();

    std::printf(
        "{\"bench\":\"churn_latency\",\"phase\":\"mixed\",\"threads\":%zu,"
        "\"queries\":%zu,\"p50_us\":%.1f,\"p95_us\":%.1f,\"p99_us\":%.1f,"
        "\"qps\":%.1f,\"writer_ops\":%zu,\"writer_ops_per_sec\":%.1f,"
        "\"p99_vs_read_only\":%.2f}\n",
        num_threads, mixed.queries, mixed.p50_us, mixed.p95_us, mixed.p99_us,
        mixed.qps, writer_ops.load(),
        mixed_seconds > 0
            ? static_cast<double>(writer_ops.load()) / mixed_seconds
            : 0.0,
        read_only.p99_us > 0 ? mixed.p99_us / read_only.p99_us : 0.0);
  }
  return 0;
}
