#include "engine/options.h"

#include "hll/hyperloglog.h"

namespace hybridlsh {
namespace engine {

util::Status ValidateOptions(const EngineOptions& options) {
  if (options.num_shards < 1 || options.num_shards > kMaxOptionCount) {
    return util::Status::InvalidArgument("num_shards must be in [1, 2^20]");
  }
  if (options.num_threads > kMaxOptionCount) {
    return util::Status::InvalidArgument("num_threads must be at most 2^20");
  }
  if (options.num_tables < 1 ||
      static_cast<size_t>(options.num_tables) > kMaxOptionCount) {
    return util::Status::InvalidArgument("num_tables must be in [1, 2^20]");
  }
  if (options.k < 0 || static_cast<size_t>(options.k) > kMaxOptionCount) {
    return util::Status::InvalidArgument("k must be in [0, 2^20]");
  }
  if (options.hll_precision < hll::HyperLogLog::kMinPrecision ||
      options.hll_precision > hll::HyperLogLog::kMaxPrecision) {
    return util::Status::InvalidArgument("hll_precision out of range");
  }
  if (options.active_seal_threshold > kMaxOptionCount) {
    return util::Status::InvalidArgument(
        "active_seal_threshold must be at most 2^20");
  }
  const core::SearcherOptions& searcher = options.searcher;
  if (searcher.probes_per_table == 0) {
    return util::Status::InvalidArgument("probes_per_table must be >= 1");
  }
  if (static_cast<uint32_t>(searcher.forced) >
      static_cast<uint32_t>(core::ForcedStrategy::kAlwaysLinear)) {
    return util::Status::InvalidArgument("forced strategy is out of range");
  }
  if (!(searcher.cost_model.beta_screen >= 0.0) ||
      !(searcher.cost_model.rescore_fraction >= 0.0)) {
    return util::Status::InvalidArgument(
        "beta_screen and rescore_fraction must be >= 0");
  }
  return util::Status::Ok();
}

}  // namespace engine
}  // namespace hybridlsh
