// Registry and built-in factories for the type-erased SearchEngine facade.

#include "engine/search_engine.h"

#include <map>
#include <mutex>
#include <string>

#include "lsh/families.h"

namespace hybridlsh {
namespace engine {

namespace {

// -- Registry ---------------------------------------------------------------

std::mutex& RegistryMutex() {
  static std::mutex mutex;
  return mutex;
}

std::map<data::Metric, EngineFactory>& Registry() {
  static std::map<data::Metric, EngineFactory> registry;
  return registry;
}

// -- Shared factory plumbing ------------------------------------------------

template <typename Family, typename Dataset>
util::StatusOr<std::unique_ptr<SearchEngine>> Adapt(
    Family family, const Dataset& dataset, const EngineOptions& options) {
  auto engine = ShardedEngine<Family, Dataset>::Build(std::move(family),
                                                      dataset, options);
  if (!engine.ok()) return engine.status();
  return std::unique_ptr<SearchEngine>(
      new ShardedEngineAdapter<Family, Dataset>(std::move(*engine)));
}

/// Pulls the container a factory needs out of the variant, or fails with a
/// metric-specific message.
template <typename Dataset>
util::StatusOr<const Dataset*> Expect(AnyDataset dataset, const char* want) {
  if (const auto* const* held = std::get_if<const Dataset*>(&dataset)) {
    if (*held == nullptr) {
      return util::Status::InvalidArgument("dataset pointer is null");
    }
    return *held;
  }
  return util::Status::InvalidArgument(
      std::string("this metric requires a ") + want + " dataset");
}

/// The p-stable quantization window, tied to the radius as in the paper
/// (w = 4r for L1, 2r for L2; §4.1).
util::StatusOr<double> PStableW(const EngineOptions& options,
                                double radius_multiple) {
  if (options.radius > 0) return radius_multiple * options.radius;
  return util::Status::InvalidArgument(
      "kL1/kL2 engines need radius > 0 to derive their window w");
}

// -- Built-in factories, one per paper pairing ------------------------------

util::StatusOr<std::unique_ptr<SearchEngine>> BuildCosine(
    AnyDataset dataset, const EngineOptions& options) {
  auto dense = Expect<data::DenseDataset>(dataset, "dense");
  if (!dense.ok()) return dense.status();
  return Adapt(lsh::SimHashFamily((*dense)->dim()), **dense, options);
}

util::StatusOr<std::unique_ptr<SearchEngine>> BuildL2(
    AnyDataset dataset, const EngineOptions& options) {
  auto dense = Expect<data::DenseDataset>(dataset, "dense");
  if (!dense.ok()) return dense.status();
  auto w = PStableW(options, 2.0);
  if (!w.ok()) return w.status();
  return Adapt(lsh::PStableFamily::L2((*dense)->dim(), *w), **dense, options);
}

util::StatusOr<std::unique_ptr<SearchEngine>> BuildL1(
    AnyDataset dataset, const EngineOptions& options) {
  auto dense = Expect<data::DenseDataset>(dataset, "dense");
  if (!dense.ok()) return dense.status();
  auto w = PStableW(options, 4.0);
  if (!w.ok()) return w.status();
  return Adapt(lsh::PStableFamily::L1((*dense)->dim(), *w), **dense, options);
}

util::StatusOr<std::unique_ptr<SearchEngine>> BuildHamming(
    AnyDataset dataset, const EngineOptions& options) {
  auto binary = Expect<data::BinaryDataset>(dataset, "binary");
  if (!binary.ok()) return binary.status();
  return Adapt(lsh::BitSamplingFamily((*binary)->width_bits()), **binary,
               options);
}

util::StatusOr<std::unique_ptr<SearchEngine>> BuildJaccard(
    AnyDataset dataset, const EngineOptions& options) {
  auto sparse = Expect<data::SparseDataset>(dataset, "sparse");
  if (!sparse.ok()) return sparse.status();
  return Adapt(lsh::MinHashFamily(), **sparse, options);
}

void EnsureBuiltins() {
  static const bool registered = [] {
    std::map<data::Metric, EngineFactory>& registry = Registry();
    registry[data::Metric::kCosine] = &BuildCosine;
    registry[data::Metric::kL2] = &BuildL2;
    registry[data::Metric::kL1] = &BuildL1;
    registry[data::Metric::kHamming] = &BuildHamming;
    registry[data::Metric::kJaccard] = &BuildJaccard;
    return true;
  }();
  (void)registered;
}

}  // namespace

// -- SearchEngine defaults: every overload rejects --------------------------

util::Status SearchEngine::WrongPointType(const char* got) const {
  return util::Status::InvalidArgument(
      std::string("engine for metric ") + std::string(MetricName(metric())) +
      " does not accept " + got + " queries");
}

util::Status SearchEngine::Query(const float*, double, std::vector<uint32_t>*,
                                 ShardedQueryStats*) {
  return WrongPointType("dense float");
}

util::Status SearchEngine::Query(const uint64_t*, double,
                                 std::vector<uint32_t>*, ShardedQueryStats*) {
  return WrongPointType("packed binary");
}

util::Status SearchEngine::Query(std::span<const uint32_t>, double,
                                 std::vector<uint32_t>*, ShardedQueryStats*) {
  return WrongPointType("sparse id-set");
}

util::Status SearchEngine::AttachAttributes(const data::AttributeStore*) {
  return util::Status::Unimplemented(
      "this engine does not support attribute filters");
}

util::Status SearchEngine::Query(const float*, const QuerySpec&,
                                 std::vector<uint32_t>*, ShardedQueryStats*) {
  return WrongPointType("dense float");
}

util::Status SearchEngine::Query(const uint64_t*, const QuerySpec&,
                                 std::vector<uint32_t>*, ShardedQueryStats*) {
  return WrongPointType("packed binary");
}

util::Status SearchEngine::Query(std::span<const uint32_t>, const QuerySpec&,
                                 std::vector<uint32_t>*, ShardedQueryStats*) {
  return WrongPointType("sparse id-set");
}

util::Status SearchEngine::QueryFused(const float*, const QuerySpec&,
                                      std::vector<core::FusedHit>*,
                                      ShardedQueryStats*) {
  return WrongPointType("dense float");
}

util::Status SearchEngine::QueryFused(const uint64_t*, const QuerySpec&,
                                      std::vector<core::FusedHit>*,
                                      ShardedQueryStats*) {
  return WrongPointType("packed binary");
}

util::Status SearchEngine::QueryFused(std::span<const uint32_t>,
                                      const QuerySpec&,
                                      std::vector<core::FusedHit>*,
                                      ShardedQueryStats*) {
  return WrongPointType("sparse id-set");
}

util::StatusOr<std::vector<ShardedBatchResult>> SearchEngine::QueryBatch(
    const data::DenseDataset&, double, double*) {
  return WrongPointType("dense float");
}

util::StatusOr<std::vector<ShardedBatchResult>> SearchEngine::QueryBatch(
    const data::BinaryDataset&, double, double*) {
  return WrongPointType("packed binary");
}

util::StatusOr<std::vector<ShardedBatchResult>> SearchEngine::QueryBatch(
    const data::SparseDataset&, double, double*) {
  return WrongPointType("sparse id-set");
}

util::StatusOr<uint32_t> SearchEngine::Insert(const float*) {
  return WrongPointType("dense float");
}

util::StatusOr<uint32_t> SearchEngine::Insert(const uint64_t*) {
  return WrongPointType("packed binary");
}

util::StatusOr<uint32_t> SearchEngine::Insert(std::span<const uint32_t>) {
  return WrongPointType("sparse id-set");
}

util::Status SearchEngine::Remove(uint32_t) {
  return util::Status::Unimplemented("this engine does not support updates");
}

util::Status SearchEngine::SaveSnapshot(const std::string&) {
  return util::Status::Unimplemented("this engine does not support snapshots");
}

util::Status SearchEngine::Compact() {
  return util::Status::Unimplemented("this engine does not support updates");
}

util::Status SearchEngine::EnableUpdates(AnyMutableDataset) {
  return util::Status::Unimplemented("this engine does not support updates");
}

// -- Registry API -----------------------------------------------------------

void RegisterEngineFactory(data::Metric metric, EngineFactory factory) {
  HLSH_CHECK(factory != nullptr);
  EnsureBuiltins();
  std::lock_guard<std::mutex> lock(RegistryMutex());
  Registry()[metric] = factory;
}

util::StatusOr<std::unique_ptr<SearchEngine>> BuildEngine(
    data::Metric metric, AnyDataset dataset, const EngineOptions& options) {
  EnsureBuiltins();
  EngineFactory factory = nullptr;
  {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    auto it = Registry().find(metric);
    if (it != Registry().end()) factory = it->second;
  }
  if (factory == nullptr) {
    return util::Status::NotFound(
        std::string("no engine factory registered for metric ") +
        std::string(MetricName(metric)));
  }
  return factory(dataset, options);
}

util::StatusOr<std::unique_ptr<SearchEngine>> BuildMutableEngine(
    data::Metric metric, AnyMutableDataset dataset,
    const EngineOptions& options) {
  const AnyDataset view =
      std::visit([](auto* held) -> AnyDataset { return held; }, dataset);
  auto engine = BuildEngine(metric, view, options);
  if (!engine.ok()) return engine;
  HLSH_RETURN_IF_ERROR((*engine)->EnableUpdates(dataset));
  return engine;
}

// -- Snapshot restore ---------------------------------------------------------

namespace {

/// Restores one typed engine and hands the dataset's ownership to the
/// adapter. OpenSnapshot itself checks that the snapshot's family and
/// container match <Family, Dataset> and arms updates.
template <typename Family, typename Dataset>
util::StatusOr<std::unique_ptr<SearchEngine>> OpenTyped(
    const std::string& dir, const snapshot::OpenOptions& options) {
  auto dataset = std::make_unique<Dataset>();
  auto engine =
      ShardedEngine<Family, Dataset>::OpenSnapshot(dir, dataset.get(), options);
  if (!engine.ok()) return engine.status();
  return std::unique_ptr<SearchEngine>(
      new ShardedEngineAdapter<Family, Dataset>(std::move(*engine),
                                                std::move(dataset)));
}

}  // namespace

util::StatusOr<std::unique_ptr<SearchEngine>> OpenSnapshotEngine(
    const std::string& dir, const snapshot::OpenOptions& options) {
  // One cheap manifest read decides which typed opener to run; the typed
  // OpenSnapshot then re-verifies everything it loads.
  auto reader = snapshot::SnapshotReader::Open(dir, /*use_mmap=*/false);
  if (!reader.ok()) return reader.status();
  switch (static_cast<data::Metric>(reader->manifest().metric_tag)) {
    case data::Metric::kCosine:
      return OpenTyped<lsh::SimHashFamily, data::DenseDataset>(dir, options);
    case data::Metric::kL2:
    case data::Metric::kL1:
      return OpenTyped<lsh::PStableFamily, data::DenseDataset>(dir, options);
    case data::Metric::kHamming:
      return OpenTyped<lsh::BitSamplingFamily, data::BinaryDataset>(dir,
                                                                    options);
    case data::Metric::kJaccard:
      return OpenTyped<lsh::MinHashFamily, data::SparseDataset>(dir, options);
  }
  return util::Status::DataLoss("snapshot manifest names an unknown metric");
}

}  // namespace engine
}  // namespace hybridlsh
