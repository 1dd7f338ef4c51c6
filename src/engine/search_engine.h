// Type-erased serving facade over ShardedEngine<Family>.
//
// Everything below engine/ is compile-time generic: callers name
// ShardedEngine<Family> and the dataset container in their types, which is
// right for benches but wrong for a server that picks the metric from a
// request or a config file. SearchEngine is the runtime boundary: one virtual
// interface that any (family, dataset) pair adapts into, so examples,
// benches, and future server code hold a std::unique_ptr<SearchEngine>
// instead of propagating <Family, Dataset> template parameters.
//
// Points cross the type-erased boundary through one typed overload per
// representation (dense floats, packed binary codes, sparse id sets). An
// engine implements the overload matching its family's Point type and
// rejects the others with InvalidArgument — a server routing requests by
// metric always knows which representation its payload is in.
//
// Construction goes through a registry keyed by data::Metric:
//
//   auto engine = BuildEngine(data::Metric::kL2, &dataset, options);
//   (*engine)->Query(query, radius, &ids);
//
// The five paper pairings are pre-registered; RegisterEngineFactory lets
// new families plug in without touching this file.

#ifndef HYBRIDLSH_ENGINE_SEARCH_ENGINE_H_
#define HYBRIDLSH_ENGINE_SEARCH_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/fusion.h"
#include "data/attributes.h"
#include "data/dataset.h"
#include "data/metric.h"
#include "engine/options.h"
#include "engine/query_pipeline.h"
#include "engine/sharded_engine.h"
#include "util/status.h"

namespace hybridlsh {
namespace engine {

/// The mutable counterpart of AnyDataset: hand one of these to
/// BuildEngine (or EnableUpdates) and the engine can append points on
/// Insert. The pointee must outlive the engine.
using AnyMutableDataset = std::variant<data::DenseDataset*,
                                       data::BinaryDataset*,
                                       data::SparseDataset*>;

/// Runtime-polymorphic handle to a built sharded engine (see file comment).
///
/// Thread-safety matches ShardedEngine: any number of threads may call
/// Query, QueryFused, QueryBatch, Insert, Remove, Compact, SaveSnapshot and
/// the accessors concurrently; queries take no lock and never wait for
/// writers. AttachAttributes and EnableUpdates are set-up calls, made
/// before the queries and writes that depend on them. A query that is the
/// only one in flight walks its shards on the engine's pool; concurrent
/// queries each walk theirs on the calling thread.
class SearchEngine {
 public:
  virtual ~SearchEngine() = default;

  virtual data::Metric metric() const = 0;
  /// The adapted family's kFamilyTag (e.g. "SIMH", "PSTB").
  virtual uint32_t family_tag() const = 0;
  virtual size_t size() const = 0;
  virtual size_t num_shards() const = 0;
  virtual size_t num_threads() const = 0;
  virtual EngineStats stats() const = 0;

  // --- Single queries, one typed overload per point representation. ------
  // The overload matching the engine's family succeeds and appends global
  // ids to *out; the others return InvalidArgument, and so does a negative
  // or non-finite radius (each is the spec form with QuerySpec::Radius).
  // Defaults here reject everything; adapters override exactly one.

  /// Dense float vector (kL1, kL2, kCosine engines).
  virtual util::Status Query(const float* query, double radius,
                             std::vector<uint32_t>* out,
                             ShardedQueryStats* stats = nullptr);
  /// Packed binary code (kHamming engines).
  virtual util::Status Query(const uint64_t* query, double radius,
                             std::vector<uint32_t>* out,
                             ShardedQueryStats* stats = nullptr);
  /// Sparse increasing id set (kJaccard engines).
  virtual util::Status Query(std::span<const uint32_t> query, double radius,
                             std::vector<uint32_t>* out,
                             ShardedQueryStats* stats = nullptr);

  // --- Composable pipeline queries (engine/query_pipeline.h). ------------
  // One QuerySpec describes radius, optional pushdown predicate, and
  // optional fusion clauses; the engine validates it (a predicate needs an
  // attached AttributeStore, metric overrides need dense data) and
  // executes every spec through the same plan→probe→gather→filter→verify→
  // score→merge chain the radius overloads ride.

  /// Attaches the attribute table predicates evaluate against (row r
  /// describes global id r; must outlive the engine). nullptr detaches.
  virtual util::Status AttachAttributes(const data::AttributeStore* attributes);

  /// Non-fused spec (radius + optional predicate): appends matching global
  /// ids to *out, exactly the post-filtered result set of the radius
  /// overload but with the predicate pushed below the distance kernels.
  virtual util::Status Query(const float* query, const QuerySpec& spec,
                             std::vector<uint32_t>* out,
                             ShardedQueryStats* stats = nullptr);
  virtual util::Status Query(const uint64_t* query, const QuerySpec& spec,
                             std::vector<uint32_t>* out,
                             ShardedQueryStats* stats = nullptr);
  virtual util::Status Query(std::span<const uint32_t> query,
                             const QuerySpec& spec,
                             std::vector<uint32_t>* out,
                             ShardedQueryStats* stats = nullptr);

  /// Fused spec (N subqueries): merged (id, score) hits under the spec's
  /// RRF / LINEAR fusion options, deterministically ordered.
  virtual util::Status QueryFused(const float* query, const QuerySpec& spec,
                                  std::vector<core::FusedHit>* out,
                                  ShardedQueryStats* stats = nullptr);
  virtual util::Status QueryFused(const uint64_t* query, const QuerySpec& spec,
                                  std::vector<core::FusedHit>* out,
                                  ShardedQueryStats* stats = nullptr);
  virtual util::Status QueryFused(std::span<const uint32_t> query,
                                  const QuerySpec& spec,
                                  std::vector<core::FusedHit>* out,
                                  ShardedQueryStats* stats = nullptr);

  // --- Batches, one typed overload per dataset container. ---------------
  // Pooled execution, each worker on a query context the engine lends it
  // (ShardedEngine::QueryBatch); results are positionally aligned with the
  // query set.
  // `wall_seconds` (optional) receives the batch wall time. A negative or
  // non-finite radius returns InvalidArgument.

  virtual util::StatusOr<std::vector<ShardedBatchResult>> QueryBatch(
      const data::DenseDataset& queries, double radius,
      double* wall_seconds = nullptr);
  virtual util::StatusOr<std::vector<ShardedBatchResult>> QueryBatch(
      const data::BinaryDataset& queries, double radius,
      double* wall_seconds = nullptr);
  virtual util::StatusOr<std::vector<ShardedBatchResult>> QueryBatch(
      const data::SparseDataset& queries, double radius,
      double* wall_seconds = nullptr);

  // --- Mutable lifecycle (segmented shards). -----------------------------
  // Insert follows the Query pattern: one typed overload per point
  // representation, non-matching overloads reject. Insert additionally
  // requires a mutable dataset — build through the AnyMutableDataset
  // BuildEngine overload, or call EnableUpdates on an engine built from a
  // const dataset. Remove and Compact work on any engine (tombstones and
  // compaction never touch the dataset).

  /// Appends the point and indexes it; returns the new global id.
  virtual util::StatusOr<uint32_t> Insert(const float* point);
  virtual util::StatusOr<uint32_t> Insert(const uint64_t* code);
  virtual util::StatusOr<uint32_t> Insert(std::span<const uint32_t> point);

  /// Tombstones one global id (idempotent; unknown ids are rejected).
  virtual util::Status Remove(uint32_t id);

  /// Merges every shard's segments, dropping tombstoned points and
  /// rebuilding sketches (ShardedEngine::CompactAll).
  virtual util::Status Compact();

  /// Arms Insert: the variant must hold the engine's dataset container
  /// type and point at the object the engine was built over.
  virtual util::Status EnableUpdates(AnyMutableDataset dataset);

  // --- Snapshot / restore. -----------------------------------------------
  // SaveSnapshot persists the full serving state (hash functions, sealed
  // segments, tombstones, dataset + norm cache, cost model) into a
  // crash-safe snapshot directory; OpenSnapshotEngine (below) restores it
  // behind the facade without recomputing a single hash. See
  // engine/snapshot.h for the directory protocol and guarantees.

  virtual util::Status SaveSnapshot(const std::string& dir);

 protected:
  /// The InvalidArgument produced by every non-matching overload.
  util::Status WrongPointType(const char* got) const;
};

/// Adapts a built ShardedEngine<Family, Dataset> into the facade. Only the
/// Query / QueryBatch overloads matching the family's Point type and the
/// dataset container answer; the rest fall through to the rejecting base.
template <typename Family,
          typename Dataset =
              typename DefaultDataset<typename Family::Point>::type>
class ShardedEngineAdapter final : public SearchEngine {
 public:
  using Engine = ShardedEngine<Family, Dataset>;
  using Point = typename Engine::Point;

  explicit ShardedEngineAdapter(Engine engine) : engine_(std::move(engine)) {}

  /// Adapter that also owns the dataset — the snapshot-restore path, where
  /// no caller-held container exists yet. The engine references *dataset by
  /// pointer, so the unique_ptr's stable address is what makes this safe.
  ShardedEngineAdapter(Engine engine, std::unique_ptr<Dataset> dataset)
      : owned_dataset_(std::move(dataset)), engine_(std::move(engine)) {}

  data::Metric metric() const override {
    return engine_.shard_index(0).family().metric();
  }
  uint32_t family_tag() const override { return Family::kFamilyTag; }
  size_t size() const override { return engine_.size(); }
  size_t num_shards() const override { return engine_.num_shards(); }
  size_t num_threads() const override { return engine_.num_threads(); }
  EngineStats stats() const override { return engine_.stats(); }

  /// The adapted engine, for callers that do know the concrete type.
  Engine& engine() { return engine_; }
  const Engine& engine() const { return engine_; }

  using SearchEngine::Query;
  using SearchEngine::QueryFused;
  using SearchEngine::QueryBatch;
  using SearchEngine::Insert;

  util::Status AttachAttributes(
      const data::AttributeStore* attributes) override {
    engine_.AttachAttributes(attributes);
    return util::Status::Ok();
  }

  util::Status Query(const float* query, const QuerySpec& spec,
                     std::vector<uint32_t>* out,
                     ShardedQueryStats* stats) override {
    return SpecQueryImpl(query, spec, out, stats, "dense float");
  }
  util::Status Query(const uint64_t* query, const QuerySpec& spec,
                     std::vector<uint32_t>* out,
                     ShardedQueryStats* stats) override {
    return SpecQueryImpl(query, spec, out, stats, "packed binary");
  }
  util::Status Query(std::span<const uint32_t> query, const QuerySpec& spec,
                     std::vector<uint32_t>* out,
                     ShardedQueryStats* stats) override {
    return SpecQueryImpl(query, spec, out, stats, "sparse id-set");
  }

  util::Status QueryFused(const float* query, const QuerySpec& spec,
                          std::vector<core::FusedHit>* out,
                          ShardedQueryStats* stats) override {
    return FusedQueryImpl(query, spec, out, stats, "dense float");
  }
  util::Status QueryFused(const uint64_t* query, const QuerySpec& spec,
                          std::vector<core::FusedHit>* out,
                          ShardedQueryStats* stats) override {
    return FusedQueryImpl(query, spec, out, stats, "packed binary");
  }
  util::Status QueryFused(std::span<const uint32_t> query,
                          const QuerySpec& spec,
                          std::vector<core::FusedHit>* out,
                          ShardedQueryStats* stats) override {
    return FusedQueryImpl(query, spec, out, stats, "sparse id-set");
  }

  util::Status Query(const float* query, double radius,
                     std::vector<uint32_t>* out,
                     ShardedQueryStats* stats) override {
    return SpecQueryImpl(query, QuerySpec::Radius(radius), out, stats,
                         "dense float");
  }

  util::Status Query(const uint64_t* query, double radius,
                     std::vector<uint32_t>* out,
                     ShardedQueryStats* stats) override {
    return SpecQueryImpl(query, QuerySpec::Radius(radius), out, stats,
                         "packed binary");
  }

  util::Status Query(std::span<const uint32_t> query, double radius,
                     std::vector<uint32_t>* out,
                     ShardedQueryStats* stats) override {
    return SpecQueryImpl(query, QuerySpec::Radius(radius), out, stats,
                         "sparse id-set");
  }

  util::StatusOr<std::vector<ShardedBatchResult>> QueryBatch(
      const data::DenseDataset& queries, double radius,
      double* wall_seconds) override {
    return BatchImpl(queries, radius, wall_seconds, "dense float");
  }

  util::StatusOr<std::vector<ShardedBatchResult>> QueryBatch(
      const data::BinaryDataset& queries, double radius,
      double* wall_seconds) override {
    return BatchImpl(queries, radius, wall_seconds, "packed binary");
  }

  util::StatusOr<std::vector<ShardedBatchResult>> QueryBatch(
      const data::SparseDataset& queries, double radius,
      double* wall_seconds) override {
    return BatchImpl(queries, radius, wall_seconds, "sparse id-set");
  }

  util::StatusOr<uint32_t> Insert(const float* point) override {
    return InsertImpl(point, "dense float");
  }
  util::StatusOr<uint32_t> Insert(const uint64_t* code) override {
    return InsertImpl(code, "packed binary");
  }
  util::StatusOr<uint32_t> Insert(std::span<const uint32_t> point) override {
    return InsertImpl(point, "sparse id-set");
  }

  util::Status Remove(uint32_t id) override { return engine_.Remove(id); }

  util::Status Compact() override {
    engine_.CompactAll();
    return util::Status::Ok();
  }

  util::Status EnableUpdates(AnyMutableDataset dataset) override {
    if (auto* const* held = std::get_if<Dataset*>(&dataset)) {
      if (*held == nullptr) {
        return util::Status::InvalidArgument("dataset pointer is null");
      }
      return engine_.EnableUpdates(*held);
    }
    return util::Status::InvalidArgument(
        "mutable dataset container does not match the engine's dataset");
  }

  util::Status SaveSnapshot(const std::string& dir) override {
    return engine_.SaveSnapshot(dir);
  }

 private:
  template <typename P>
  util::Status SpecQueryImpl(P query, const QuerySpec& spec,
                             std::vector<uint32_t>* out,
                             ShardedQueryStats* stats, const char* got) {
    if constexpr (std::is_same_v<P, Point>) {
      return engine_.Query(query, spec, out, stats);
    } else {
      return WrongPointType(got);
    }
  }
  template <typename P>
  util::Status FusedQueryImpl(P query, const QuerySpec& spec,
                              std::vector<core::FusedHit>* out,
                              ShardedQueryStats* stats, const char* got) {
    if constexpr (std::is_same_v<P, Point>) {
      return engine_.QueryFused(query, spec, out, stats);
    } else {
      return WrongPointType(got);
    }
  }
  template <typename P>
  util::StatusOr<uint32_t> InsertImpl(P point, const char* got) {
    if constexpr (std::is_same_v<P, Point>) {
      return engine_.Insert(point);
    } else {
      return WrongPointType(got);
    }
  }
  template <typename QuerySet>
  util::StatusOr<std::vector<ShardedBatchResult>> BatchImpl(
      const QuerySet& queries, double radius, double* wall_seconds,
      const char* got) {
    if constexpr (std::is_same_v<QuerySet, Dataset>) {
      return engine_.QueryBatch(queries, QuerySpec::Radius(radius),
                                wall_seconds);
    } else {
      return WrongPointType(got);
    }
  }

  // Set only by the snapshot-restore constructor; engine_ points into it.
  // Declared first so the dataset outlives the engine on destruction.
  std::unique_ptr<Dataset> owned_dataset_;
  Engine engine_;
};

/// The dataset containers an engine factory can be handed. A factory whose
/// family reads a different container rejects with InvalidArgument.
using AnyDataset = std::variant<const data::DenseDataset*,
                                const data::BinaryDataset*,
                                const data::SparseDataset*>;

/// Builds a fully-typed engine behind the facade. Signature shared by the
/// built-in factories and external registrations.
using EngineFactory = util::StatusOr<std::unique_ptr<SearchEngine>> (*)(
    AnyDataset dataset, const EngineOptions& options);

/// Registers (or replaces) the factory serving `metric`. The five paper
/// pairings are pre-registered: kCosine/kL2/kL1 over DenseDataset, kHamming
/// over BinaryDataset, kJaccard over SparseDataset.
void RegisterEngineFactory(data::Metric metric, EngineFactory factory);

/// Builds an engine through the registry. The dataset must outlive the
/// returned engine (it is retained by pointer, not copied).
util::StatusOr<std::unique_ptr<SearchEngine>> BuildEngine(
    data::Metric metric, AnyDataset dataset, const EngineOptions& options);

/// Builds an updatable engine: same registry path, then EnableUpdates, so
/// Insert / Remove / Compact serve immediately. The dataset will grow on
/// Insert and must outlive the engine. (A distinct name, not an overload:
/// a non-const dataset pointer would otherwise make every existing
/// BuildEngine call ambiguous.)
util::StatusOr<std::unique_ptr<SearchEngine>> BuildMutableEngine(
    data::Metric metric, AnyMutableDataset dataset,
    const EngineOptions& options);

/// Restores a snapshot written by SearchEngine::SaveSnapshot (or by
/// ShardedEngine::SaveSnapshot directly) behind the facade. The snapshot's
/// manifest names the metric, LSH family, and dataset container, so the
/// caller needs no type information: the right typed engine is rebuilt, the
/// dataset is owned by the returned engine, and updates are armed — a
/// service restart is Open + serve. `options.use_mmap` maps the snapshot
/// files read-only for near-zero-copy startup.
util::StatusOr<std::unique_ptr<SearchEngine>> OpenSnapshotEngine(
    const std::string& dir, const snapshot::OpenOptions& options = {});

}  // namespace engine
}  // namespace hybridlsh

#endif  // HYBRIDLSH_ENGINE_SEARCH_ENGINE_H_
