// Shard-parallel serving engine over id-range partitions of one dataset.
//
// ShardedEngine<Family> splits the dataset into S disjoint contiguous id
// ranges, builds one SegmentedIndex<Family> per range (in parallel, on the
// engine's persistent util::ThreadPool), and answers a query by walking
// every shard and concatenating results in shard order. Each shard runs the
// paper's full Algorithm-2 hybrid decision *locally*, with
// LinearCost(shard_live_n) instead of LinearCost(n) — so a small or dense
// shard can independently fall back to an exact scan of its range while the
// others stay on LSH.
//
// Shards share the hash-function seed: table t of every shard samples the
// same k-wise functions and bucket-key seed as a monolithic table set (a
// one-segment SegmentedIndex over the whole dataset) built with the same
// options. A bucket of the monolithic index is therefore the exact union
// of the shards' corresponding buckets, which gives the engine's
// equivalence guarantee: with the same (seed, k, L), the union of
// per-shard LSH candidate sets equals the monolithic index's plan walk, so
// forced-LSH results equal that walk's in-radius candidates and
// forced-linear results equal a brute-force scan, for any shard count
// (tests/test_sharded_engine.cc). A 1-shard engine is the paper's static
// hybrid searcher; the paper benches and examples run on it.
//
// Shard indexes carry *global* ids directly (the initial segment is built
// with the range start as its id offset) — no per-result offset translation
// on the query hot path.
//
// Mutable lifecycle (engine/segmented_index.h): after EnableUpdates (or a
// Build from a mutable dataset), Insert appends to the shared dataset and
// routes the new point to a shard round-robin; Remove routes the tombstone
// to the shard that owns the id; CompactAll compacts every shard in
// parallel on the pool (one task per shard, so no shard is touched by two
// threads).
//
// --- Concurrency model (the serving core) ----------------------------------
//
// The engine serves reads lock-free while writes and background
// maintenance run:
//
//   - Query, QueryFused and QueryBatch are const, and any number of
//     threads may call them concurrently with each other, with Insert /
//     Remove, and with background seal / compaction. Each query walks an
//     epoch-published SegmentSnapshot per shard — acquired with plain
//     atomic loads, re-acquired only when a shard's segment list actually
//     changed — and takes no lock anywhere.
//   - Everything a query writes lives in a query context the engine lends
//     for the call: one slot per shard (cached snapshot, dedup set, merged
//     sketch, live-id and output buffers) plus the plan, filter and fusion
//     workspaces. A caller claims a free context of a fixed-size array
//     with a compare-exchange and hands it back with a release store; when
//     every one is claimed it gets a fresh context for that call. No lock
//     is taken either way.
//   - A query that is the only one in flight walks its shards on the pool,
//     one task per shard, when the pool has more than one worker. With
//     company — another caller, or a QueryBatch, which counts as one query
//     and whose workers walk their shards in order — each query walks its
//     shards in order on its own thread. Either way every shard runs
//     QueryShard on the same snapshot, plan and filter, so the answer and
//     its stats do not depend on which.
//   - Insert and Remove serialize against each other on an internal writer
//     mutex (callers need no external locking) and never block readers.
//   - When ingest fills a shard's active segment, the freeze is published
//     immediately and the expensive part — CSR-building the sealed segment
//     and compaction — is scheduled on a dedicated background maintenance
//     thread, rate-limited to one in-flight task per shard. Ingest applies
//     backpressure (seals inline) only if the background thread falls
//     behind by several segments.
//   - stats(), size(), and live accounting are atomic snapshots, safe to
//     poll from any thread.
//   - SaveSnapshot and CompactAll take the writer mutex and drain
//     maintenance first: they block writers, not readers.
//   - AttachAttributes and EnableUpdates are set-up calls: make them before
//     the queries and writes that depend on them.
//
// --- The composable query pipeline (engine/query_pipeline.h) ----------------
//
// Every entry point executes one QuerySpec through the same stage chain:
// plan -> probe -> gather -> filter -> verify -> score -> merge. The radius
// calls are thin wrappers over QuerySpec::Radius(r); a predicate
// pushes a BitVector filter into the verify kernels (candidates pay a bit
// test before a distance, and the cost model prices the linear scan at
// LinearCost(live, selectivity)); fusion runs all its same-metric radius
// clauses as ONE ordinary radius query at the widest radius, scores that
// walk's hits in one pass of the verify kernels and ranks them once, carves
// each narrower clause as the ranked prefix whose verify keys pass at its
// radius, and merges with deterministic RRF / LINEAR scoring
// (core/fusion.h). Attach an AttributeStore (row == global id) with
// AttachAttributes before issuing filtered specs.

#ifndef HYBRIDLSH_ENGINE_SHARDED_ENGINE_H_
#define HYBRIDLSH_ENGINE_SHARDED_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/fusion.h"
#include "core/kernels.h"
#include "core/strategy.h"
#include "data/attributes.h"
#include "data/dataset.h"
#include "data/metric.h"
#include "data/quantized.h"
#include "engine/options.h"
#include "engine/query_pipeline.h"
#include "engine/segmented_index.h"
#include "engine/snapshot.h"
#include "lsh/index.h"
#include "util/bit_vector.h"
#include "util/simd.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hybridlsh {
namespace engine {

/// Aggregate per-query observability across the shard walks.
struct ShardedQueryStats {
  /// Shards queried (== engine num_shards()).
  size_t num_shards = 0;
  /// How many shards answered with LSH-based search vs. exact scan.
  size_t lsh_shards = 0;
  size_t linear_shards = 0;
  /// How many shard decisions each core::Settlement settled: the upper
  /// bound (LSH), the lower bound (linear), the merged sketches (the gap
  /// between the bounds) or a forced strategy.
  size_t upper_bound_shards = 0;
  size_t lower_bound_shards = 0;
  size_t sketch_shards = 0;
  size_t forced_shards = 0;
  /// Sums of the per-shard Algorithm-2 quantities (core::QueryStats says
  /// what a shard the bounds settled reports).
  uint64_t collisions = 0;
  double cand_estimate = 0.0;
  size_t cand_actual = 0;
  size_t output_size = 0;
  /// Per-table hash signatures evaluated for this query: L with the
  /// hash-once ProbePlan regardless of shard count, 0 on forced-linear
  /// (the plan is skipped entirely).
  uint64_t hash_evals = 0;
  /// Shard walks served by the one precomputed plan (== shards queried on
  /// the hybrid/LSH paths; 0 on forced-linear).
  size_t plan_reuse = 0;
  /// Wall seconds computing the probe plan (S1; amortized share of the
  /// batch plan computation on the QueryBatch path).
  double hash_seconds = 0.0;
  /// Wall seconds for the whole query (not the per-shard sum).
  double total_seconds = 0.0;
  /// Filter stage (pushdown predicate): whether this query carried one,
  /// the fraction of live points passing it, the composed-bitmap
  /// popcount, and the wall seconds spent evaluating + composing it (0
  /// when the filter was prebuilt and shared, e.g. across a batch).
  bool filtered = false;
  double filter_selectivity = 1.0;
  size_t filter_survivors = 0;
  double filter_seconds = 0.0;
  /// Fusion clauses executed (0 for plain queries).
  size_t fusion_subqueries = 0;
  /// Fused queries' stage seconds (0 for plain queries): the score stage
  /// (the score pass over the shared walk's hits, its rank sort, and every
  /// clause's list: the carve, metric-override scans, attribute-only
  /// lists) and the merge (core::FuseScoredLists).
  double score_seconds = 0.0;
  double merge_seconds = 0.0;
  /// Per-shard detail, indexed by shard ordinal. On fused queries it
  /// describes the one shared walk at the widest same-metric radius (all
  /// zero when no clause walks the index).
  std::vector<core::QueryStats> per_shard;
};

/// One query's result in a batch.
struct ShardedBatchResult {
  std::vector<uint32_t> neighbors;
  ShardedQueryStats stats;
};

/// Build/serve summary of an engine.
struct EngineStats {
  size_t num_points = 0;
  size_t num_shards = 0;
  size_t num_threads = 0;
  double build_seconds = 0.0;   // wall time of the parallel shard build
  size_t memory_bytes = 0;      // index: shard segments + tombstones
  size_t sketch_bytes = 0;
  /// Memory outside the index: the point container (with its norm cache)
  /// and the int8 quantized mirror (0 when the screen is off or the
  /// container is not dense — expect ~dataset_bytes/4 when on).
  size_t dataset_bytes = 0;
  size_t mirror_bytes = 0;
  /// Whether the int8 screen is active (a mirror is built and queries
  /// verify through VerifyBlockQuantized).
  bool quantized_verify = false;
  /// Cumulative query-side hash counters (atomic snapshots): per-table
  /// signature evaluations performed, and shard walks that reused a
  /// precomputed ProbePlan instead of rehashing. With S shards,
  /// plan_reuse grows S times faster than hash_evals / num_tables — the
  /// hash-once pipeline's savings made visible.
  uint64_t hash_evals = 0;
  uint64_t plan_reuse = 0;
  /// Cumulative shard decisions by core::Settlement (atomic snapshots; the
  /// ShardedQueryStats counts summed over every query): how often the
  /// bounds alone decided, and how often the sketches had to.
  uint64_t upper_bound_decisions = 0;
  uint64_t lower_bound_decisions = 0;
  uint64_t sketch_decisions = 0;
  uint64_t forced_decisions = 0;
  /// Instruction-set tier resolved at build ("scalar"/"sse2"/"avx2"). The
  /// kernel dispatch is process-wide (util/simd.h), so every shard and
  /// segment of every engine verifies through the same kernel table.
  std::string_view simd_tier = "scalar";
};

/// Shard-parallel hybrid-LSH engine (see file comment).
template <typename Family,
          typename Dataset =
              typename DefaultDataset<typename Family::Point>::type>
class ShardedEngine {
 public:
  using ShardIndex = SegmentedIndex<Family, Dataset>;
  using Point = typename Family::Point;

  /// Builds all shards in parallel. The dataset is retained by pointer and
  /// must outlive the engine. Options that fail ValidateOptions return its
  /// InvalidArgument, and a multi-probe width above 1 on a family without
  /// multi-probe Unimplemented (lsh::ValidateProbesPerTable). options()
  /// then reports the resolved shard count and pool size.
  static util::StatusOr<ShardedEngine> Build(Family family,
                                             const Dataset& dataset,
                                             const EngineOptions& options) {
    HLSH_RETURN_IF_ERROR(ValidateOptions(options));
    if (dataset.size() == 0) {
      return util::Status::InvalidArgument("cannot build over an empty dataset");
    }
    // Global ids are 32-bit (each shard stores its range start as a
    // uint32_t id base), so a larger n would wrap them instead of failing.
    if (dataset.size() > static_cast<size_t>(UINT32_MAX)) {
      return util::Status::InvalidArgument("dataset exceeds 2^32-1 points");
    }
    HLSH_RETURN_IF_ERROR(lsh::ValidateProbesPerTable(
        family, options.searcher.probes_per_table));

    ShardedEngine engine;
    engine.dataset_ = &dataset;
    const size_t n = dataset.size();
    const size_t num_shards = std::min(options.num_shards, n);
    const size_t num_threads =
        options.num_threads > 0 ? options.num_threads : num_shards;
    engine.options_ = options;
    engine.options_.num_shards = num_shards;
    engine.options_.num_threads = num_threads;
    engine.pool_ = std::make_unique<util::ThreadPool>(num_threads);

    // Balanced contiguous partition: n/S per shard, remainder spread left.
    engine.shards_.resize(num_shards);
    {
      const size_t per_shard = n / num_shards;
      const size_t remainder = n % num_shards;
      size_t base = 0;
      for (size_t s = 0; s < num_shards; ++s) {
        engine.shards_[s].base = base;
        engine.shards_[s].size = per_shard + (s < remainder ? 1 : 0);
        base += engine.shards_[s].size;
      }
      HLSH_CHECK(base == n);
    }

    // Build every shard's index on the pool. All shards share one
    // tombstone bitmap (heap-allocated so engine moves keep it stable).
    engine.tombstones_ = std::make_unique<util::BitVector>(n);
    util::WallTimer build_timer;
    std::vector<util::Status> statuses(num_shards, util::Status::Ok());
    util::ParallelForOn(engine.pool_.get(), 0, num_shards, [&](size_t s) {
      Shard& shard = engine.shards_[s];
      auto built = ShardIndex::Build(family, &dataset, shard.base, shard.size,
                                     engine.options_, engine.tombstones_.get());
      if (!built.ok()) {
        statuses[s] = built.status();
        return;
      }
      shard.index = std::make_unique<ShardIndex>(std::move(*built));
    });
    for (const util::Status& status : statuses) {
      if (!status.ok()) return status;
    }

    engine.SetupMirror();
    engine.initial_n_ = n;
    engine.stats_.num_points = n;
    engine.stats_.num_shards = num_shards;
    engine.stats_.num_threads = num_threads;
    engine.stats_.build_seconds = build_timer.ElapsedSeconds();
    engine.stats_.simd_tier = util::simd::TierName(util::ResolvedSimdTier());
    engine.StartMaintenance();
    return engine;
  }

  /// Build over a mutable dataset: same as the const Build plus
  /// EnableUpdates, so Insert works immediately.
  static util::StatusOr<ShardedEngine> Build(Family family, Dataset* dataset,
                                             const EngineOptions& options) {
    if (dataset == nullptr) {
      return util::Status::InvalidArgument("dataset pointer is null");
    }
    auto engine = Build(std::move(family), *dataset, options);
    if (!engine.ok()) return engine.status();
    HLSH_RETURN_IF_ERROR(engine->EnableUpdates(dataset));
    return engine;
  }

  /// Arms Insert on every shard. `dataset` must be the object Build indexed.
  util::Status EnableUpdates(Dataset* dataset) {
    if (dataset != dataset_) {
      return util::Status::InvalidArgument(
          "mutable dataset does not match the engine's dataset");
    }
    for (Shard& shard : shards_) {
      HLSH_RETURN_IF_ERROR(shard.index->EnableUpdates(dataset));
    }
    mutable_dataset_ = dataset;
    return util::Status::Ok();
  }
  bool updates_enabled() const { return mutable_dataset_ != nullptr; }

  /// Attaches the attribute table the filter stage evaluates predicates
  /// against. Row r describes global id r; ids past the store's current
  /// row count match no predicate. The store must outlive the engine and
  /// may keep growing (AppendRow) while queries run — the filter stage
  /// reads it through acquire-published row counts. Passing nullptr
  /// detaches (filtered specs then fail ValidateSpec).
  void AttachAttributes(const data::AttributeStore* attributes) {
    attributes_ = attributes;
  }
  const data::AttributeStore* attributes() const { return attributes_; }

  /// Appends the point to the shared dataset and indexes it in one shard's
  /// active segment (round-robin, so ingest load spreads evenly). Returns
  /// the new global id. Ownership needs no side table: every successful
  /// insert appends exactly one point, so the k-th insert gets id
  /// initial_n + k and shard k % S — Remove re-derives that.
  ///
  /// Serialized on the internal writer mutex; safe to call from any thread
  /// and concurrently with queries. When the shard's active segment fills,
  /// sealing is scheduled on the background maintenance thread (one task
  /// in flight per shard) instead of running on this call. A dense point
  /// with a NaN or infinite coordinate returns InvalidArgument and is not
  /// stored.
  util::StatusOr<uint32_t> Insert(Point point) {
    if (mutable_dataset_ == nullptr) {
      return util::Status::FailedPrecondition(
          "engine is read-only: build from a mutable dataset or call "
          "EnableUpdates to insert");
    }
    std::lock_guard<std::mutex> lock(sync_->write_mu);
    const size_t inserted = dataset_->size() - initial_n_;
    Shard& shard = shards_[inserted % shards_.size()];
    auto id = shard.index->Insert(point);
    if (id.ok()) {
      // Quantize the stored copy of the point (published by the dataset
      // append inside Insert) so the mirror stays row-for-row with the
      // dataset. Still under write_mu: the mirror has one writer.
      if constexpr (std::is_same_v<Dataset, data::DenseDataset>) {
        if (mirror_ != nullptr) mirror_->AppendRow(dataset_->point(*id));
      }
      MaybeScheduleMaintenance(maintenance_group_.get(), shard.index.get());
    }
    return id;
  }

  /// Tombstones one global id on the shard that owns it. Removing an
  /// already-removed id is a no-op; unknown ids are rejected. Serialized on
  /// the writer mutex like Insert; safe concurrently with queries, which
  /// observe the removal through release/acquire tombstone bits.
  util::Status Remove(uint32_t id) {
    std::lock_guard<std::mutex> lock(sync_->write_mu);
    const size_t n = static_cast<size_t>(id);
    size_t s = 0;
    if (n < initial_n_) {
      // Initial ids live in the contiguous ranges (S is small).
      while (s < shards_.size() &&
             n >= shards_[s].base + shards_[s].size) {
        ++s;
      }
      HLSH_CHECK(s < shards_.size());
    } else {
      if (n >= dataset_->size()) {
        return util::Status::InvalidArgument(
            "id was never inserted into this engine");
      }
      s = (n - initial_n_) % shards_.size();  // round-robin insert order
    }
    return shards_[s].index->Remove(id);
  }

  /// Blocks until every scheduled background seal/compaction has finished.
  /// Queries and writers may keep running; tasks scheduled after this call
  /// are not waited for.
  void DrainMaintenance() {
    if (maintenance_group_ != nullptr) maintenance_group_->Wait();
  }

  /// Compacts every shard in parallel on the engine's pool (one task per
  /// shard — segments are never touched by two threads). Takes the writer
  /// mutex and drains background maintenance first; queries continue
  /// serving off the pre-compaction epochs until each shard's merged
  /// segment is published.
  void CompactAll() {
    std::lock_guard<std::mutex> lock(sync_->write_mu);
    DrainMaintenance();
    util::ParallelForOn(pool_.get(), 0, shards_.size(),
                        [&](size_t s) { shards_[s].index->Compact(); });
  }

  /// Answers one query: every id with Distance(point, query) <= radius is
  /// reported, exactly on a shard that scans and with the LSH guarantee
  /// (probability >= 1 - delta per point) on a shard that probes. Results
  /// are appended to *out grouped by shard (ascending id ranges); ids are
  /// global. Safe from any number of threads, concurrently with writers
  /// and maintenance (see the file comment). A negative or non-finite
  /// radius, or a dense query with a NaN or infinite coordinate, returns
  /// InvalidArgument (the spec form's validation).
  util::Status Query(Point query, double radius, std::vector<uint32_t>* out,
                     ShardedQueryStats* stats = nullptr) const {
    return Query(query, QuerySpec::Radius(radius), out, stats);
  }

  /// Spec form: the filter stage runs once per query, and every shard walk
  /// reads the composed bitmap const. Rejects fused specs — use
  /// QueryFused.
  util::Status Query(Point query, const QuerySpec& spec,
                     std::vector<uint32_t>* out,
                     ShardedQueryStats* stats = nullptr) const {
    HLSH_RETURN_IF_ERROR(ValidateSpec(spec, /*fused=*/false));
    HLSH_RETURN_IF_ERROR(ValidateQueryPoint(query));
    ShardedQueryStats local_stats;
    const InFlightQuery in_flight(*this);
    const ContextLease context(*this);
    RunQuery(query, spec, context.get(), out,
             stats != nullptr ? stats : &local_stats);
    return util::Status::Ok();
  }

  /// Fused query, merged into (id, score) hits under the spec's fusion
  /// options. Its same-metric radius clauses share one walk at the widest
  /// radius, so every shard walks, decides, gathers and verifies once;
  /// see RunFused. Safe from any number of threads, like Query.
  util::Status QueryFused(Point query, const QuerySpec& spec,
                          std::vector<core::FusedHit>* out,
                          ShardedQueryStats* stats = nullptr) const {
    HLSH_RETURN_IF_ERROR(ValidateSpec(spec, /*fused=*/true));
    HLSH_RETURN_IF_ERROR(ValidateQueryPoint(query));
    ShardedQueryStats local_stats;
    const InFlightQuery in_flight(*this);
    const ContextLease context(*this);
    return RunFused(query, spec, context.get(), out,
                    stats != nullptr ? stats : &local_stats);
  }

  /// Answers a whole query set (any container with size() and point(i)) on
  /// the pool: queries are distributed dynamically across workers, each
  /// worker borrows one query context and walks every shard of its query
  /// in order. Results are positionally aligned with the query set.
  /// `wall_seconds` (optional) receives the batch wall time. The filter
  /// stage runs ONCE for the whole batch — predicates do not depend on the
  /// query point, so every worker shares the one composed bitmap read-only
  /// (per-query stats report filter_seconds = 0 and the shared
  /// selectivity, and the batch sees removals as of that stage). Every
  /// buffer of the batch is its own, so batches may run concurrently with
  /// each other and with single queries. Rejects fused specs, invalid
  /// radii and non-finite dense queries like Query.
  template <typename QuerySet>
  util::StatusOr<std::vector<ShardedBatchResult>> QueryBatch(
      const QuerySet& queries, const QuerySpec& spec,
      double* wall_seconds = nullptr) const {
    HLSH_RETURN_IF_ERROR(ValidateSpec(spec, /*fused=*/false));
    for (size_t q = 0; q < queries.size(); ++q) {
      HLSH_RETURN_IF_ERROR(ValidateQueryPoint(queries.point(q)));
    }
    std::vector<ShardedBatchResult> results(queries.size());
    util::WallTimer timer;
    if (queries.size() > 0) {
      const InFlightQuery in_flight(*this);
      BatchShare share;
      util::BitVector filter_storage;
      FilterContext filter;
      if (spec.predicate != nullptr) {
        ShardedQueryStats filter_stats;
        filter = BuildFilterStage(spec, &filter_storage, &filter_stats);
        share.filter = &filter;
      }
      // S1 for the whole batch up front: every table's projections run
      // through the blocked (multi-query) kernel form, and the workers
      // consume the precomputed plans read-only.
      std::vector<lsh::ProbePlan> plans;
      if (options_.searcher.forced != core::ForcedStrategy::kAlwaysLinear) {
        util::WallTimer hash_timer;
        std::vector<Point> points(queries.size());
        for (size_t q = 0; q < queries.size(); ++q) {
          points[q] = queries.point(q);
        }
        plans.resize(queries.size());
        lsh::PlanScratch plan_scratch;
        HLSH_CHECK(shards_[0]
                       .index
                       ->ComputePlanBatch(points.data(), queries.size(),
                                          options_.searcher.probes_per_table,
                                          &plan_scratch, plans.data())
                       .ok());
        share.hash_seconds = hash_timer.ElapsedSeconds() / queries.size();
      }
      const size_t num_workers =
          std::min(pool_->num_threads(), queries.size());
      std::atomic<size_t> next{0};
      util::ParallelForOn(pool_.get(), 0, num_workers, [&](size_t) {
        const ContextLease context(*this);
        BatchShare query_share = share;
        for (size_t q = next.fetch_add(1); q < queries.size();
             q = next.fetch_add(1)) {
          if (!plans.empty()) query_share.plan = &plans[q];
          ShardedBatchResult& result = results[q];
          RunQuery(queries.point(q), spec, context.get(), &result.neighbors,
                   &result.stats, &query_share);
        }
      });
    }
    if (wall_seconds != nullptr) *wall_seconds = timer.ElapsedSeconds();
    return results;
  }

  size_t num_shards() const { return shards_.size(); }
  size_t num_threads() const { return pool_->num_threads(); }
  /// Live points across all shards (equals the dataset size until the
  /// first Remove).
  size_t size() const {
    size_t live = 0;
    for (const Shard& shard : shards_) live += shard.index->live_size();
    return live;
  }
  size_t live_size() const { return size(); }
  /// Build-time shape plus *current* point and memory accounting (segments
  /// grow with ingest and shrink at compaction, so bytes are recomputed
  /// per call). Returns a by-value snapshot assembled from atomic reads
  /// and epoch-published segment lists — safe to poll from any thread
  /// while writers and background maintenance run.
  EngineStats stats() const {
    EngineStats stats = stats_;
    stats.num_points = dataset_->size();
    stats.memory_bytes = 0;
    stats.sketch_bytes = 0;
    for (const Shard& shard : shards_) {
      stats.memory_bytes += shard.index->MemoryBytes();
      stats.sketch_bytes += shard.index->SketchBytes();
    }
    if (tombstones_ != nullptr) {
      stats.memory_bytes += tombstones_->MemoryBytes();
    }
    stats.dataset_bytes = dataset_->MemoryBytes();
    stats.mirror_bytes = mirror_ != nullptr ? mirror_->MemoryBytes() : 0;
    stats.quantized_verify = mirror_ != nullptr;
    stats.hash_evals = counters_->hash_evals.load(std::memory_order_relaxed);
    stats.plan_reuse = counters_->plan_reuse.load(std::memory_order_relaxed);
    stats.upper_bound_decisions =
        counters_->upper_bound_decisions.load(std::memory_order_relaxed);
    stats.lower_bound_decisions =
        counters_->lower_bound_decisions.load(std::memory_order_relaxed);
    stats.sketch_decisions =
        counters_->sketch_decisions.load(std::memory_order_relaxed);
    stats.forced_decisions =
        counters_->forced_decisions.load(std::memory_order_relaxed);
    return stats;
  }
  const EngineOptions& options() const { return options_; }
  const Dataset& dataset() const { return *dataset_; }

  /// Shard inspection for tests: the index and initial id range of shard s.
  const ShardIndex& shard_index(size_t s) const { return *shards_[s].index; }
  std::pair<size_t, size_t> shard_range(size_t s) const {
    return {shards_[s].base, shards_[s].base + shards_[s].size};
  }

  // --- Snapshot / restore (engine/snapshot.h). ---------------------------

  /// Persists the full serving state into a versioned, checksummed snapshot
  /// under `dir`: the shared FunctionSet (once), the dataset with its norm
  /// cache, the tombstone bitmap, and every shard's sealed segments. Active
  /// segments are sealed first, so the snapshot is pure CSR and the engine
  /// continues serving from exactly the state it saved. Atomic at the
  /// directory level: a crash mid-save never disturbs the previous
  /// snapshot, and the new one only becomes visible when its CURRENT
  /// pointer commits. Takes the writer mutex and drains background
  /// maintenance (counters must agree with the sealed view it persists),
  /// so it blocks writers for its duration — but not readers, which keep
  /// serving off their epochs.
  util::Status SaveSnapshot(const std::string& dir) {
    std::lock_guard<std::mutex> lock(sync_->write_mu);
    DrainMaintenance();
    for (Shard& shard : shards_) shard.index->SealActive();

    auto writer = snapshot::SnapshotWriter::Begin(dir);
    if (!writer.ok()) return writer.status();
    {
      util::ByteWriter payload;
      shards_[0].index->functions().Save(&payload);
      HLSH_RETURN_IF_ERROR(
          writer->WriteFile(snapshot::kFunctionsFile, payload.bytes()));
    }
    {
      util::ByteWriter payload;
      data::SaveDataset(*dataset_, &payload);
      HLSH_RETURN_IF_ERROR(
          writer->WriteFile(snapshot::kDatasetFile, payload.bytes()));
    }
    {
      util::ByteWriter payload;
      tombstones_->Serialize(&payload);
      HLSH_RETURN_IF_ERROR(
          writer->WriteFile(snapshot::kTombstonesFile, payload.bytes()));
    }
    if (mirror_ != nullptr) {
      // v2 sidecar: the int8 mirror, so a restore skips requantization.
      util::ByteWriter payload;
      mirror_->Save(&payload);
      HLSH_RETURN_IF_ERROR(
          writer->WriteFile(snapshot::kMirrorFile, payload.bytes()));
    }
    for (size_t s = 0; s < shards_.size(); ++s) {
      util::ByteWriter payload;
      payload.WriteU64(shards_[s].base);
      payload.WriteU64(shards_[s].size);
      HLSH_RETURN_IF_ERROR(shards_[s].index->SaveTo(&payload));
      HLSH_RETURN_IF_ERROR(
          writer->WriteFile(snapshot::ShardFileName(s), payload.bytes()));
    }

    snapshot::Manifest manifest;
    manifest.family_tag = Family::kFamilyTag;
    manifest.metric_tag =
        static_cast<uint32_t>(shards_[0].index->family().metric());
    manifest.dataset_kind = data::DatasetKindOf(*dataset_);
    manifest.num_points = dataset_->size();
    manifest.initial_n = initial_n_;
    manifest.config = options_;
    return writer->Commit(std::move(manifest));
  }

  /// Rehydrates a query-ready engine from the snapshot CURRENT points at.
  /// The dataset is loaded into *dataset (which must outlive the engine,
  /// like Build's) and updates are armed on it, so Insert/Remove serve
  /// immediately. Zero hash functions are evaluated — functions, tables,
  /// and sketches reload as bytes; shard payloads parse in parallel on the
  /// restored pool. Rejects snapshots of a different family or container
  /// with InvalidArgument, corrupt ones with DataLoss, and a multi-probe
  /// width the family lacks like Build does.
  static util::StatusOr<ShardedEngine> OpenSnapshot(
      const std::string& dir, Dataset* dataset,
      const snapshot::OpenOptions& open_options = {}) {
    if (dataset == nullptr) {
      return util::Status::InvalidArgument("dataset pointer is null");
    }
    auto reader = snapshot::SnapshotReader::Open(dir, open_options.use_mmap);
    if (!reader.ok()) return reader.status();
    const snapshot::Manifest& manifest = reader->manifest();
    if (manifest.family_tag != Family::kFamilyTag) {
      return util::Status::InvalidArgument(
          "snapshot was saved with a different LSH family");
    }
    if (manifest.dataset_kind != data::DatasetKindOf(*dataset)) {
      return util::Status::InvalidArgument(
          "snapshot holds a different dataset container");
    }

    util::WallTimer restore_timer;
    ShardedEngine engine;
    engine.options_ = manifest.config;
    if (open_options.num_threads > 0) {
      engine.options_.num_threads = open_options.num_threads;
    } else if (engine.options_.num_threads == 0) {
      engine.options_.num_threads = engine.options_.num_shards;
    }
    HLSH_RETURN_IF_ERROR(ValidateOptions(engine.options_));
    engine.dataset_ = dataset;
    engine.initial_n_ = manifest.initial_n;

    const size_t num_shards = engine.options_.num_shards;
    const size_t num_threads = engine.options_.num_threads;
    engine.pool_ = std::make_unique<util::ThreadPool>(num_threads);

    // Phase 1, all on the pool at once: the dataset chain (read + checksum
    // + parse — the cold-start critical path at millions of points), the
    // tombstone bitmap, the function set, and every shard file's read +
    // checksum. Shard PARSING needs the dataset size and the tombstones for
    // validation, so it waits for phase 2.
    util::Status dataset_status = util::Status::Ok();
    util::Status tombstones_status = util::Status::Ok();
    util::Status functions_status = util::Status::Ok();
    std::optional<lsh::FunctionSet<Family>> functions;
    std::vector<std::optional<snapshot::SnapshotBlob>> shard_blobs(num_shards);
    std::vector<util::Status> statuses(num_shards, util::Status::Ok());
    util::ParallelForOn(
        engine.pool_.get(), 0, num_shards + 3, [&](size_t task) {
          if (task == num_shards) {
            dataset_status = [&] {
              auto blob = reader->ReadFile(snapshot::kDatasetFile);
              if (!blob.ok()) return blob.status();
              util::ByteReader bytes(blob->payload());
              HLSH_RETURN_IF_ERROR(data::LoadDataset(&bytes, dataset));
              return bytes.ExpectEnd();
            }();
            return;
          }
          if (task == num_shards + 1) {
            tombstones_status = [&] {
              auto blob = reader->ReadFile(snapshot::kTombstonesFile);
              if (!blob.ok()) return blob.status();
              util::ByteReader bytes(blob->payload());
              auto tombstones = util::BitVector::Deserialize(&bytes);
              if (!tombstones.ok()) return tombstones.status();
              HLSH_RETURN_IF_ERROR(bytes.ExpectEnd());
              engine.tombstones_ =
                  std::make_unique<util::BitVector>(std::move(*tombstones));
              return util::Status::Ok();
            }();
            return;
          }
          if (task == num_shards + 2) {
            functions_status = [&] {
              auto blob = reader->ReadFile(snapshot::kFunctionsFile);
              if (!blob.ok()) return blob.status();
              util::ByteReader bytes(blob->payload());
              auto loaded = lsh::FunctionSet<Family>::Load(&bytes);
              if (!loaded.ok()) return loaded.status();
              HLSH_RETURN_IF_ERROR(bytes.ExpectEnd());
              functions.emplace(std::move(*loaded));
              return util::Status::Ok();
            }();
            return;
          }
          auto blob = reader->ReadFile(snapshot::ShardFileName(task));
          if (!blob.ok()) {
            statuses[task] = blob.status();
            return;
          }
          shard_blobs[task].emplace(std::move(*blob));
        });
    HLSH_RETURN_IF_ERROR(dataset_status);
    HLSH_RETURN_IF_ERROR(tombstones_status);
    HLSH_RETURN_IF_ERROR(functions_status);
    if (dataset->size() != manifest.num_points ||
        manifest.initial_n > manifest.num_points) {
      return util::Status::DataLoss(
          "snapshot dataset disagrees with its manifest");
    }
    if (engine.tombstones_->size() != dataset->size()) {
      return util::Status::DataLoss(
          "snapshot tombstone bitmap mismatches the dataset");
    }
    if (functions->num_tables() !=
        static_cast<size_t>(engine.options_.num_tables)) {
      return util::Status::DataLoss(
          "snapshot function set mismatches the manifest table count");
    }
    HLSH_RETURN_IF_ERROR(lsh::ValidateProbesPerTable(
        functions->family(), engine.options_.searcher.probes_per_table));

    // Phase 2: parse every shard's segments (checksums already verified).
    engine.shards_.resize(num_shards);
    util::ParallelForOn(engine.pool_.get(), 0, num_shards, [&](size_t s) {
      if (!statuses[s].ok()) return;
      util::ByteReader bytes(shard_blobs[s]->payload());
      Shard& shard = engine.shards_[s];
      uint64_t base = 0, size = 0;
      util::Status header = bytes.ReadU64(&base);
      if (header.ok()) header = bytes.ReadU64(&size);
      if (!header.ok() || base > dataset->size() ||
          size > dataset->size() - base) {
        statuses[s] =
            util::Status::DataLoss("snapshot shard range is invalid");
        return;
      }
      shard.base = static_cast<size_t>(base);
      shard.size = static_cast<size_t>(size);
      auto loaded = ShardIndex::LoadFrom(&bytes, *functions, dataset,
                                         engine.options_,
                                         engine.tombstones_.get());
      if (!loaded.ok()) {
        statuses[s] = loaded.status();
        return;
      }
      const util::Status end = bytes.ExpectEnd();
      if (!end.ok()) {
        statuses[s] = end;
        return;
      }
      shard.index = std::make_unique<ShardIndex>(std::move(*loaded));
    });
    for (const util::Status& status : statuses) {
      if (!status.ok()) return status;
    }

    // Mirror restore: load the v2 sidecar when the snapshot carries one,
    // else (a v1 snapshot, or one saved with the screen off and re-opened
    // with it on) requantize from the freshly loaded dataset. Both paths
    // produce the same mirror — quantization is deterministic.
    if constexpr (std::is_same_v<Dataset, data::DenseDataset>) {
      if (engine.options_.quantized_verify) {
        if (manifest.FindFile(snapshot::kMirrorFile) != nullptr) {
          auto blob = reader->ReadFile(snapshot::kMirrorFile);
          if (!blob.ok()) return blob.status();
          util::ByteReader bytes(blob->payload());
          auto mirror = data::QuantizedMirror::Load(&bytes, dataset->dim(),
                                                    dataset->size());
          if (!mirror.ok()) return mirror.status();
          HLSH_RETURN_IF_ERROR(bytes.ExpectEnd());
          if (mirror->size() != dataset->size()) {
            return util::Status::DataLoss(
                "snapshot mirror row count mismatches the dataset");
          }
          engine.mirror_ =
              std::make_unique<data::QuantizedMirror>(std::move(*mirror));
        } else {
          engine.SetupMirror();
        }
      }
    }

    engine.stats_.num_points = manifest.num_points;
    engine.stats_.num_shards = num_shards;
    engine.stats_.num_threads = num_threads;
    engine.stats_.build_seconds = restore_timer.ElapsedSeconds();
    engine.stats_.simd_tier = util::simd::TierName(util::ResolvedSimdTier());

    engine.StartMaintenance();
    HLSH_RETURN_IF_ERROR(engine.EnableUpdates(dataset));
    return engine;
  }

 private:
  struct Shard {
    size_t base = 0;
    size_t size = 0;  // initial range size (inserts/removes don't update it)
    std::unique_ptr<ShardIndex> index;  // pointer keeps Shard movable
  };

  /// Writer-side synchronization, heap-allocated so engine moves keep the
  /// mutex address stable.
  struct EngineSync {
    std::mutex write_mu;
  };

  /// Engine-lifetime query counters, heap-allocated (atomics are neither
  /// movable nor copyable, and the engine must stay movable).
  struct QueryCounters {
    std::atomic<uint64_t> hash_evals{0};
    std::atomic<uint64_t> plan_reuse{0};
    /// Shard decisions by core::Settlement.
    std::atomic<uint64_t> upper_bound_decisions{0};
    std::atomic<uint64_t> lower_bound_decisions{0};
    std::atomic<uint64_t> sketch_decisions{0};
    std::atomic<uint64_t> forced_decisions{0};
    /// Queries in flight, a QueryBatch counting as one (InFlightQuery).
    /// A query that finds itself alone fans its shard walks out on the
    /// pool; relaxed, because it only picks where the walks run.
    std::atomic<size_t> in_flight{0};
  };

  /// What one shard walk writes: the shard's cached epoch snapshot
  /// (re-acquired with two atomic loads, refreshed only when the shard's
  /// segment list changed), the global-id dedup set (sized on first use),
  /// the bounded walk's scratch, the merged HLL sketch (written only when
  /// the bounds leave the decision open), the linear path's live-id buffer
  /// and the walk's output.
  struct ShardSlot {
    explicit ShardSlot(hll::HyperLogLog sketch) : merged(std::move(sketch)) {}
    typename ShardIndex::SegmentSnapshot snapshot;
    uint64_t version = 0;
    util::VisitedSet visited;
    BoundedWalkScratch walk;
    hll::HyperLogLog merged;
    std::vector<uint32_t> live_ids;
    std::vector<uint32_t> out;
  };

  /// Everything one query writes: a slot per shard, so that a fanned-out
  /// walk gives each worker its own, plus the plan, filter and fusion
  /// workspaces. One caller holds it at a time (ContextLease).
  struct QueryContext {
    std::vector<ShardSlot> shards;
    lsh::PlanScratch plan_scratch;   // hash-once S1 workspace
    lsh::ProbePlan plan;             // the query's plan, shared by all shards
    util::BitVector filter;          // filter stage: predicate ∧ ¬tombstone
    core::ScoredList walk_hits;      // fused: the shared walk's hits, keyed
    std::vector<core::ScoredList> sub_lists;  // fused per-subquery results
    core::FusionScratch fusion;      // score + merge workspace
  };

  /// The engine's lendable contexts: a fixed number of slots, each on its
  /// own cache line, its context created by the first caller to claim it.
  /// Sixteen cover a few concurrent callers next to a batch's workers; a
  /// call past them builds a fresh context and regrows its dedup sets.
  static constexpr size_t kLentContexts = 16;
  struct alignas(64) ContextSlot {
    std::atomic<bool> claimed{false};
    std::unique_ptr<QueryContext> context;
  };

  /// One call's query context: the first free slot, claimed with a
  /// compare-exchange (acquire: the last holder's writes are visible) and
  /// handed back with a release store, or a fresh context of its own when
  /// every slot is claimed. Never blocks.
  class ContextLease {
   public:
    explicit ContextLease(const ShardedEngine& engine) {
      for (size_t i = 0; i < kLentContexts; ++i) {
        ContextSlot& slot = engine.contexts_[i];
        bool expected = false;
        if (slot.claimed.compare_exchange_strong(expected, true,
                                                 std::memory_order_acquire,
                                                 std::memory_order_relaxed)) {
          if (slot.context == nullptr) slot.context = engine.NewContext();
          slot_ = &slot;
          context_ = slot.context.get();
          return;
        }
      }
      fresh_ = engine.NewContext();
      context_ = fresh_.get();
    }
    ~ContextLease() {
      if (slot_ != nullptr) {
        slot_->claimed.store(false, std::memory_order_release);
      }
    }
    ContextLease(const ContextLease&) = delete;
    ContextLease& operator=(const ContextLease&) = delete;

    QueryContext* get() const { return context_; }

   private:
    ContextSlot* slot_ = nullptr;
    std::unique_ptr<QueryContext> fresh_;
    QueryContext* context_ = nullptr;
  };

  /// Counts one query (or one whole batch) in QueryCounters::in_flight for
  /// its scope.
  class InFlightQuery {
   public:
    explicit InFlightQuery(const ShardedEngine& engine)
        : count_(&engine.counters_->in_flight) {
      count_->fetch_add(1, std::memory_order_relaxed);
    }
    ~InFlightQuery() { count_->fetch_sub(1, std::memory_order_relaxed); }
    InFlightQuery(const InFlightQuery&) = delete;
    InFlightQuery& operator=(const InFlightQuery&) = delete;

   private:
    std::atomic<size_t>* count_;
  };

  /// What QueryBatch hands the driver for one of its queries: the plan its
  /// blocked S1 pass computed (null on forced-linear), that pass's
  /// per-query share of time, and the batch's one filter stage (null when
  /// the spec has no predicate).
  struct BatchShare {
    const lsh::ProbePlan* plan = nullptr;
    double hash_seconds = 0.0;
    const FilterContext* filter = nullptr;
  };

  ShardedEngine()
      : sync_(std::make_unique<EngineSync>()),
        counters_(std::make_unique<QueryCounters>()),
        contexts_(std::make_unique<ContextSlot[]>(kLentContexts)) {}

  std::unique_ptr<QueryContext> NewContext() const {
    auto context = std::make_unique<QueryContext>();
    context->shards.reserve(shards_.size());
    for (const Shard& shard : shards_) {
      context->shards.emplace_back(shard.index->MakeScratchSketch());
    }
    return context;
  }

  /// Builds the int8 mirror over the engine's dataset when the container
  /// is dense, the option is on, and the data quantizes (non-degenerate
  /// scale). No-op otherwise — queries then verify all-float, which is the
  /// same result set either way.
  void SetupMirror() {
    if constexpr (std::is_same_v<Dataset, data::DenseDataset>) {
      if (!options_.quantized_verify) return;
      auto mirror = data::QuantizedMirror::Build(*dataset_);
      if (!mirror.enabled()) return;
      mirror_ = std::make_unique<data::QuantizedMirror>(std::move(mirror));
    }
  }

  /// Arms deferred maintenance on every shard and spins up the dedicated
  /// one-thread maintenance pool.
  void StartMaintenance() {
    for (Shard& shard : shards_) shard.index->SetDeferredMaintenance(true);
    maintenance_pool_ = std::make_unique<util::ThreadPool>(1);
    maintenance_group_ =
        std::make_unique<util::TaskGroup>(maintenance_pool_.get());
  }

  /// Schedules one background maintenance pass for the shard if it has
  /// pending work and none in flight — the per-shard rate limit that keeps
  /// a burst of inserts from queueing redundant seal tasks. No-op without
  /// a maintenance group (inline maintenance). Called under write_mu, and
  /// by a finishing pass; tasks capture only heap-stable pointers (the
  /// group and the index), so the engine stays movable while tasks are
  /// queued.
  static void MaybeScheduleMaintenance(util::TaskGroup* group,
                                       ShardIndex* index) {
    if (group == nullptr || !index->needs_maintenance()) return;
    if (index->maintenance_inflight().exchange(true,
                                               std::memory_order_acq_rel)) {
      return;
    }
    group->Submit([group, index] {
      index->RunMaintenance();
      index->maintenance_inflight().store(false, std::memory_order_release);
      // An insert that froze a log after the pass's last look found the
      // flag still set and scheduled nothing. The flag is cleared before
      // this re-check reads the segment list (under the same mutex the
      // freeze publishes it with), so either the re-check sees that log or
      // the insert saw the cleared flag and scheduled its own pass. The
      // follow-up pass queues behind other shards' tasks.
      MaybeScheduleMaintenance(group, index);
    });
  }

  /// Re-acquires shard i's snapshot into its context slot (two atomic
  /// loads when the segment list is unchanged).
  void RefreshSnapshot(size_t i, ShardSlot* slot) const {
    shards_[i].index->AcquireCached(&slot->snapshot, &slot->version);
  }

  /// The one query driver, behind Query, QueryFused's shared walk and every
  /// QueryBatch worker: runs the filter stage (or adopts the batch's),
  /// computes the probe plan once (or adopts the batch's; forced-linear
  /// skips planning, so no hash function runs), walks every shard through
  /// QueryShard on the context's slot for it, appends the shard outputs to
  /// *out in shard order and folds the stats. A query alone in flight on a
  /// pool of several workers walks its shards there, one task per shard;
  /// otherwise the calling thread walks them in order. A batch worker
  /// always walks in order: it runs on the pool, and a fan-out from it
  /// would wait on the pool it occupies (ParallelForOn must not nest).
  /// Each slot has one writer either way, and the pool dispatch orders the
  /// plan and filter writes before the walks read them. Returns the filter
  /// stage's product.
  FilterContext RunQuery(Point query, const QuerySpec& spec,
                         QueryContext* context, std::vector<uint32_t>* out,
                         ShardedQueryStats* s,
                         const BatchShare* batch = nullptr) const {
    ResetStats(s);
    util::WallTimer timer;
    FilterContext fctx;
    if (batch != nullptr && batch->filter != nullptr) {
      // Prebuilt for the whole batch: adopt it (filter_seconds stays 0 —
      // the cost was paid once, not per query).
      fctx = *batch->filter;
      NoteFilterStats(fctx, s);
    } else {
      fctx = BuildFilterStage(spec, &context->filter, s);
    }
    const lsh::ProbePlan* plan = batch != nullptr ? batch->plan : nullptr;
    if (plan != nullptr) {
      s->hash_seconds = batch->hash_seconds;
    } else if (options_.searcher.forced !=
               core::ForcedStrategy::kAlwaysLinear) {
      util::WallTimer hash_timer;
      ComputePlan(query, &context->plan_scratch, &context->plan);
      s->hash_seconds = hash_timer.ElapsedSeconds();
      plan = &context->plan;
    }
    if (plan != nullptr) s->hash_evals = plan->num_tables();

    const auto walk = [&](size_t i) {
      ShardSlot& slot = context->shards[i];
      RefreshSnapshot(i, &slot);
      slot.out.clear();
      QueryShard(shards_[i], slot.snapshot, query, spec.radius, plan, fctx,
                 &slot, &s->per_shard[i]);
    };
    if (batch == nullptr && pool_->num_threads() > 1 &&
        counters_->in_flight.load(std::memory_order_relaxed) == 1) {
      util::ParallelForOn(pool_.get(), 0, shards_.size(), walk);
    } else {
      for (size_t i = 0; i < shards_.size(); ++i) walk(i);
    }
    for (const ShardSlot& slot : context->shards) {
      out->insert(out->end(), slot.out.begin(), slot.out.end());
    }
    FoldStats(s);
    NoteQueryCounters(*s);
    s->total_seconds = timer.ElapsedSeconds();
    return fctx;
  }

  /// The fused execution path (score + merge stages live here).
  ///
  /// Gather: every same-metric radius clause runs inside ONE ordinary
  /// radius query at the widest such radius (RunQuery, on this context),
  /// so each shard walks, decides, gathers and verifies once.
  /// Metric-override clauses scan the snapshots that walk used;
  /// attribute-only clauses report the composed filter's survivors.
  ///
  /// Score: one prefetched pass of the dispatched kernels gives every hit
  /// its verify key (core::kernels::ScoreCandidates: d^2 under L2, the
  /// distance otherwise), and one flat-key sort ranks the walk on it. A
  /// same-metric clause is then the ranked prefix whose keys pass the
  /// verify's own test at its radius (key <= VerifyThreshold). That is
  /// exact: the Algorithm 2 decision does not read the radius, so a
  /// separate query at the narrower radius would verify the same
  /// candidates, computing the same keys (the int8 screen's verdicts equal
  /// the float verify's). Only then do keys become distances
  /// (KeyToDistance), which keeps the rank order, so every clause's list
  /// comes out already ranked. Every tier computes the same key bits
  /// (core/kernels.h), so fused scores do not depend on the tier.
  /// Metric-override scans score their live ids with the same pass under
  /// the override metric and keep the keys that pass its verify test.
  ///
  /// Merge: RRF reads the ranks off as is, and in both modes the fused hits
  /// reach the final ranking nearly in order (core/fusion.h).
  util::Status RunFused(Point query, const QuerySpec& spec,
                        QueryContext* context,
                        std::vector<core::FusedHit>* out,
                        ShardedQueryStats* s) const {
    util::WallTimer timer;
    const data::Metric engine_metric = shards_[0].index->family().metric();
    auto walks_index = [&](const SubquerySpec& sub) {
      return !sub.attribute_only &&
             (!sub.metric.has_value() || *sub.metric == engine_metric);
    };
    std::optional<double> widest;
    for (const SubquerySpec& sub : spec.subqueries) {
      if (walks_index(sub)) {
        widest = std::max(widest.value_or(sub.radius), sub.radius);
      }
    }

    core::ScoredList& walk = context->walk_hits;
    walk.ids.clear();
    FilterContext fctx;
    if (widest.has_value()) {
      QuerySpec walk_spec = QuerySpec::Radius(*widest);
      walk_spec.predicate = spec.predicate;
      fctx = RunQuery(query, walk_spec, context, &walk.ids, s);
    } else {
      ResetStats(s);
      fctx = BuildFilterStage(spec, &context->filter, s);
      for (size_t i = 0; i < shards_.size(); ++i) {
        RefreshSnapshot(i, &context->shards[i]);
      }
    }

    util::WallTimer score_timer;
    ScoreKeys(query, engine_metric, &walk);
    core::RankScoredList(&walk, &context->fusion);

    auto& lists = context->sub_lists;
    lists.resize(spec.subqueries.size());
    for (size_t j = 0; j < lists.size(); ++j) {
      const SubquerySpec& sub = spec.subqueries[j];
      core::ScoredList& list = lists[j];
      list.weight = sub.weight;
      list.ids.clear();
      list.distances.clear();
      if (walks_index(sub)) {
        // The ranked prefix whose keys pass the verify at this radius,
        // carved on keys and only then mapped to distances.
        const double threshold =
            core::kernels::VerifyThreshold(engine_metric, sub.radius);
        const size_t hits = static_cast<size_t>(
            std::partition_point(walk.distances.begin(), walk.distances.end(),
                                 [&](double key) { return key <= threshold; }) -
            walk.distances.begin());
        list.ids.assign(walk.ids.begin(), walk.ids.begin() + hits);
        for (size_t k = 0; k < hits; ++k) {
          list.distances.push_back(
              core::kernels::KeyToDistance(engine_metric, walk.distances[k]));
        }
        continue;
      }
      if (sub.attribute_only) {
        // Every composed-filter survivor, distance 0: the predicate IS the
        // clause. Ascending ids at one distance — already in rank order.
        fctx.filter->ForEachSetBitInRange(
            0, fctx.filter->size(), [&](size_t id) {
              list.ids.push_back(static_cast<uint32_t>(id));
              list.distances.push_back(0.0);
            });
        continue;
      }
      // A metric override: the index's buckets hash the engine's family,
      // so the clause scans every shard's live (filter-passing) ids, keeps
      // those whose key passes the verify at its radius and ranks them.
      // Dense datasets only (enforced by ValidateSpec).
      for (const ShardSlot& slot : context->shards) {
        slot.snapshot.GatherLiveIds(fctx.filter, &list.ids);
      }
      ScoreKeys(query, *sub.metric, &list);
      const double threshold =
          core::kernels::VerifyThreshold(*sub.metric, sub.radius);
      size_t kept = 0;
      for (size_t k = 0; k < list.ids.size(); ++k) {
        if (list.distances[k] <= threshold) {
          list.ids[kept] = list.ids[k];
          list.distances[kept++] =
              core::kernels::KeyToDistance(*sub.metric, list.distances[k]);
        }
      }
      list.ids.resize(kept);
      list.distances.resize(kept);
      core::RankScoredList(&list, &context->fusion);
    }
    s->score_seconds = score_timer.ElapsedSeconds();

    util::WallTimer merge_timer;
    HLSH_RETURN_IF_ERROR(
        core::FuseScoredLists(lists, spec.fusion, &context->fusion, out));
    s->merge_seconds = merge_timer.ElapsedSeconds();
    s->fusion_subqueries = spec.subqueries.size();
    s->output_size = out->size();  // fused hits, not the walk's
    s->total_seconds = timer.ElapsedSeconds();
    return util::Status::Ok();
  }

  /// The score pass over list->ids: list->distances receives each id's
  /// verify key under `metric` (core::kernels::ScoreCandidates).
  void ScoreKeys(Point query, data::Metric metric,
                 core::ScoredList* list) const {
    list->distances.resize(list->ids.size());
    core::kernels::ScoreCandidates(*shards_[0].index, *dataset_, metric,
                                   query, list->ids, list->distances.data());
  }

  /// S1 once per query: all shards sample identical functions from the
  /// shared seed (the engine's equivalence invariant), so shard 0's
  /// function set plans for every shard. Cannot fail: Build and
  /// OpenSnapshot validated the multi-probe width.
  void ComputePlan(Point query, lsh::PlanScratch* scratch,
                   lsh::ProbePlan* plan) const {
    HLSH_CHECK(shards_[0]
                   .index
                   ->ComputePlan(query, options_.searcher.probes_per_table,
                                 scratch, plan)
                   .ok());
  }

  void ResetStats(ShardedQueryStats* s) const {
    *s = ShardedQueryStats{};
    s->num_shards = shards_.size();
    s->per_shard.resize(shards_.size());
  }

  /// Sums the per-shard stats into the aggregate fields.
  void FoldStats(ShardedQueryStats* s) const {
    for (const core::QueryStats& shard : s->per_shard) {
      if (shard.strategy == core::Strategy::kLsh) {
        ++s->lsh_shards;
      } else {
        ++s->linear_shards;
      }
      switch (shard.decided_by) {
        case core::Settlement::kUpperBound:
          ++s->upper_bound_shards;
          break;
        case core::Settlement::kLowerBound:
          ++s->lower_bound_shards;
          break;
        case core::Settlement::kSketch:
          ++s->sketch_shards;
          break;
        case core::Settlement::kForced:
          ++s->forced_shards;
          break;
      }
      s->collisions += shard.collisions;
      s->cand_estimate += shard.cand_estimate;
      s->cand_actual += shard.cand_actual;
      s->output_size += shard.output_size;
      s->plan_reuse += shard.plan_reuse;
    }
  }

  /// Folds one query's hash and settlement accounting into the
  /// engine-lifetime counters surfaced by stats(). Relaxed: the counters
  /// are monotonic telemetry, not synchronization.
  void NoteQueryCounters(const ShardedQueryStats& s) const {
    QueryCounters& c = *counters_;
    c.hash_evals.fetch_add(s.hash_evals, std::memory_order_relaxed);
    c.plan_reuse.fetch_add(s.plan_reuse, std::memory_order_relaxed);
    const auto add = [](std::atomic<uint64_t>& counter, size_t n) {
      if (n > 0) counter.fetch_add(n, std::memory_order_relaxed);
    };
    add(c.upper_bound_decisions, s.upper_bound_shards);
    add(c.lower_bound_decisions, s.lower_bound_shards);
    add(c.sketch_decisions, s.sketch_shards);
    add(c.forced_decisions, s.forced_shards);
  }

  /// The paper's Algorithm 2 on one shard over an epoch-published
  /// snapshot, bounds first: one bucket walk (SegmentSnapshot::
  /// BoundedWalk) counts the collisions c exactly and the largest
  /// per-table probed total `lower`, which bound candSize from both sides
  /// (core::DecisionBounds), and collects the candidates while LSH can
  /// still win. The walk settles most decisions on its own: the upper
  /// bound CorrectedLshCost(c, c) < LinearCost(shard_live_n) is LSH, with
  /// the candidates already collected; the lower bound
  /// CorrectedLshCost(c, lower) >= LinearCost is linear, and cuts the walk
  /// short. Only in the gap between them are the sketches merged
  /// (EstimateProbe), the estimate clamped into [lower, c] and the
  /// decision taken as Eq. 1 vs Eq. 2; an LSH decision there collects the
  /// candidates from the sealed buckets the walk resolved and the logs'
  /// chains (CollectWalked). The bounds are priced from ONE coherent
  /// LiveStats read taken before the walk, so the tombstone correction and
  /// the linear side cannot mix counter values from different instants.
  /// Forced-LSH walks with no bound, forced-linear does not walk. Appends
  /// global ids to slot->out and records how the decision was settled.
  /// Lock-free.
  void QueryShard(const Shard& shard,
                  const typename ShardIndex::SegmentSnapshot& snap,
                  Point query, double radius, const lsh::ProbePlan* plan,
                  const FilterContext& fctx, ShardSlot* slot,
                  core::QueryStats* st) const {
    *st = core::QueryStats{};
    util::WallTimer total_timer;
    const core::CostModel& model = options_.searcher.cost_model;
    const core::ForcedStrategy forced = options_.searcher.forced;
    // Tombstoned ids inflate both bounds and the estimate, so the LSH side
    // subtracts their verification share, and a pushdown filter shrinks
    // BOTH sides through the one effective live fraction (cost_model.h):
    // the linear scan only pays exact distances on filter survivors, and
    // LSH candidates that fail the bit test stop before the distance. At
    // low selectivity the model therefore finds that the filtered linear
    // scan wins.
    const core::LiveStats live = shard.index->live_stats();
    st->linear_cost = model.LinearCost(live.live, fctx.selectivity);

    if (forced == core::ForcedStrategy::kAlwaysLinear) {
      st->strategy = core::Strategy::kLinear;
      ExecuteLinear(shard, snap, query, radius, fctx, slot, st);
      st->total_seconds = total_timer.ElapsedSeconds();
      return;
    }

    // S1 already ran: this walk consumes the query's one shared plan —
    // valid here because every shard samples identical functions from the
    // shared seed. No hash function evaluates inside the shard.
    HLSH_DCHECK(plan != nullptr);
    st->plan_reuse = 1;

    const core::DecisionBounds bounds =
        forced == core::ForcedStrategy::kAlwaysLsh
            ? core::DecisionBounds::AlwaysLsh(model, live, fctx.selectivity)
            : core::DecisionBounds(model, live, fctx.selectivity);
    // The dedup set spans the *global* id space (shard buckets store
    // global ids): widen it to every id this snapshot can emit.
    if (slot->visited.capacity() < snap.id_bound()) {
      slot->visited.Resize(snap.id_bound());
    }
    slot->visited.Reset();
    util::WallTimer walk_timer;
    const BoundedWalkResult walk =
        snap.BoundedWalk(*plan, bounds, &slot->walk, &slot->visited);
    const double walk_seconds = walk_timer.ElapsedSeconds();
    st->collisions = walk.collisions;

    bool use_lsh = true;
    if (walk.collected) {
      // The upper bound held, as it always does under forced-LSH.
      if (forced == core::ForcedStrategy::kAuto) {
        st->decided_by = core::Settlement::kUpperBound;
      }
      st->lsh_cost = bounds.CorrectedLshCost(
          walk.collisions, static_cast<double>(walk.collisions));
    } else if (walk.stopped) {
      st->decided_by = core::Settlement::kLowerBound;
      st->lsh_cost = bounds.CorrectedLshCost(
          walk.collisions, static_cast<double>(walk.lower));
      use_lsh = false;
    } else {
      // The gap: Alg. 2 lines 1-4 with the sketch estimate, which can
      // only move within [lower, c].
      st->decided_by = core::Settlement::kSketch;
      util::WallTimer merge_timer;
      const lsh::ProbeEstimate estimate =
          snap.EstimateProbe(*plan, &slot->merged);
      HLSH_DCHECK(estimate.collisions == walk.collisions);
      st->cand_estimate = std::clamp(estimate.cand_estimate,
                                     static_cast<double>(walk.lower),
                                     static_cast<double>(walk.collisions));
      st->lsh_cost =
          bounds.CorrectedLshCost(walk.collisions, st->cand_estimate);
      use_lsh = st->lsh_cost < st->linear_cost;
      st->estimate_seconds = merge_timer.ElapsedSeconds();
      if (use_lsh) {
        slot->visited.Reset();
        snap.CollectWalked(*plan, &slot->walk, &slot->visited);
      }
    }

    if (use_lsh) {
      st->strategy = core::Strategy::kLsh;
      st->cand_actual = slot->visited.size();
      st->output_size += core::kernels::VerifyCandidatesQuantized(
          *shard.index, *dataset_, mirror_.get(), query,
          slot->visited.touched(), radius, &slot->out, fctx.filter);
    } else {
      st->strategy = core::Strategy::kLinear;
      st->estimate_seconds += walk_seconds;
      ExecuteLinear(shard, snap, query, radius, fctx, slot, st);
    }
    st->total_seconds = total_timer.ElapsedSeconds();
  }

  void ExecuteLinear(const Shard& shard,
                     const typename ShardIndex::SegmentSnapshot& snap,
                     Point query, double radius, const FilterContext& fctx,
                     ShardSlot* slot, core::QueryStats* st) const {
    // Flatten the snapshot's live ids — through the filter when one is
    // pushed down, so non-survivors never reach the kernels — then verify
    // in one block-batched pass (core/kernels.h, int8 screen included)
    // instead of per-id Distance calls.
    slot->live_ids.clear();
    snap.GatherLiveIds(fctx.filter, &slot->live_ids);
    st->output_size += core::kernels::VerifyCandidatesQuantized(
        *shard.index, *dataset_, mirror_.get(), query, slot->live_ids,
        radius, &slot->out);
  }

  /// Validates a spec against this engine before anything executes: every
  /// radius, clause weight and the RRF constant must be finite and >= 0
  /// (the dense kernels compare squared distances against radius^2, so a
  /// negative radius would otherwise answer as its absolute value); a
  /// predicate needs an attached AttributeStore holding every column it
  /// names (the filter stage reads them unchecked); attribute-only clauses
  /// need a predicate (they report its survivors); metric overrides exist
  /// for dense float data only, and only among the dense metrics. The
  /// fused flag pins which result shape the caller asked for.
  util::Status ValidateSpec(const QuerySpec& spec, bool fused) const {
    if (spec.fused() != fused) {
      return util::Status::InvalidArgument(
          fused ? "QueryFused needs a spec with subqueries"
                : "fused specs return scored hits: call QueryFused");
    }
    auto finite_non_negative = [](double v) {
      return std::isfinite(v) && v >= 0.0;
    };
    if (!finite_non_negative(spec.radius)) {
      return util::Status::InvalidArgument("radius must be finite and >= 0");
    }
    if (!finite_non_negative(spec.fusion.rrf_k)) {
      return util::Status::InvalidArgument("rrf_k must be finite and >= 0");
    }
    if (spec.predicate != nullptr) {
      if (attributes_ == nullptr) {
        return util::Status::FailedPrecondition(
            "filtered spec without an attached AttributeStore "
            "(AttachAttributes)");
      }
      for (const data::Predicate::Term& term : spec.predicate->all_of) {
        if (term.column >= attributes_->num_columns()) {
          return util::Status::InvalidArgument(
              "predicate names a column the AttributeStore lacks");
        }
      }
    }
    for (const SubquerySpec& sub : spec.subqueries) {
      if (!finite_non_negative(sub.radius) ||
          !finite_non_negative(sub.weight)) {
        return util::Status::InvalidArgument(
            "subquery radius and weight must be finite and >= 0");
      }
      if (sub.attribute_only && spec.predicate == nullptr) {
        return util::Status::InvalidArgument(
            "attribute-only subquery requires a predicate");
      }
      if (sub.metric.has_value() &&
          *sub.metric != shards_[0].index->family().metric()) {
        if constexpr (!std::is_same_v<Dataset, data::DenseDataset>) {
          return util::Status::InvalidArgument(
              "metric overrides require a dense float dataset");
        }
        if (*sub.metric != data::Metric::kL1 &&
            *sub.metric != data::Metric::kL2 &&
            *sub.metric != data::Metric::kCosine) {
          return util::Status::InvalidArgument(
              "metric override must be a dense metric (L1/L2/cosine)");
        }
      }
    }
    return util::Status::Ok();
  }

  /// A dense query must be finite (data::IsFinitePoint): a NaN or infinite
  /// coordinate has no bucket and no meaningful distance. Binary and sparse
  /// points have no such values.
  util::Status ValidateQueryPoint(Point query) const {
    if constexpr (std::is_same_v<Dataset, data::DenseDataset>) {
      if (!data::IsFinitePoint(query, dataset_->dim())) {
        return util::Status::InvalidArgument(
            "query coordinates must be finite");
      }
    }
    return util::Status::Ok();
  }

  /// Runs the filter stage for one query (BuildFilterContext) into
  /// `storage` and records it in the stats. Pass-through (and free) for
  /// unfiltered specs.
  FilterContext BuildFilterStage(const QuerySpec& spec,
                                 util::BitVector* storage,
                                 ShardedQueryStats* s) const {
    if (spec.predicate == nullptr) return FilterContext{};
    util::WallTimer timer;
    const FilterContext fctx =
        BuildFilterContext(attributes_, spec.predicate, tombstones_.get(),
                           dataset_->size(), live_size(), storage);
    NoteFilterStats(fctx, s);
    s->filter_seconds = timer.ElapsedSeconds();
    return fctx;
  }

  void NoteFilterStats(const FilterContext& fctx, ShardedQueryStats* s) const {
    if (fctx.filter == nullptr) return;
    s->filtered = true;
    s->filter_selectivity = fctx.selectivity;
    s->filter_survivors = fctx.survivors;
  }

  EngineOptions options_;
  const Dataset* dataset_ = nullptr;
  Dataset* mutable_dataset_ = nullptr;
  // Attribute table for the filter stage (row == global id); attached by
  // the caller, read lock-free through acquire-published row counts.
  const data::AttributeStore* attributes_ = nullptr;
  // Writer mutex (heap-stable across engine moves).
  std::unique_ptr<EngineSync> sync_;
  // Cumulative hash/plan counters and the in-flight count (heap-stable
  // across engine moves).
  std::unique_ptr<QueryCounters> counters_;
  std::unique_ptr<util::ThreadPool> pool_;
  // One tombstone bitmap shared by every shard (heap-stable across moves).
  std::unique_ptr<util::BitVector> tombstones_;
  // Int8 mirror of the (dense) dataset for the quantized screen; null when
  // the option is off, the container is not dense, or the data does not
  // quantize. Heap-stable across engine moves; appended under write_mu,
  // read lock-free by queries through acquire-published row counts.
  std::unique_ptr<data::QuantizedMirror> mirror_;
  std::vector<Shard> shards_;
  // Background seal/compaction: a dedicated one-thread pool plus its
  // completion latch. Declared after shards_ so destruction drains every
  // queued task (which captures raw ShardIndex pointers) before any shard
  // index dies.
  std::unique_ptr<util::ThreadPool> maintenance_pool_;
  std::unique_ptr<util::TaskGroup> maintenance_group_;
  size_t initial_n_ = 0;  // dataset size at Build
  EngineStats stats_;     // build-time shape; dynamic fields redone in stats()
  // The lendable query contexts (ContextLease), kLentContexts of them;
  // heap-stable across engine moves.
  std::unique_ptr<ContextSlot[]> contexts_;
};

}  // namespace engine
}  // namespace hybridlsh

#endif  // HYBRIDLSH_ENGINE_SHARDED_ENGINE_H_
