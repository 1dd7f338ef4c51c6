// The engine's one set of parameters, from the facade to the snapshot
// manifest.
//
// The paper's method runs on a few values: L tables of k concatenated
// hashes (or k derived from the radius r and the failure probability
// delta), the HLL precision b with the small-bucket threshold of §3.2, and
// the cost constants alpha and beta of §3.1. EngineOptions holds them next
// to the serving knobs (sharding, the segment lifecycle, the int8 screen).
// BuildEngine, ShardedEngine::Build and SegmentedIndex::Build take it,
// every shard keeps a copy, snapshot::Manifest persists it field for field,
// and ValidateOptions is the one check of the set.

#ifndef HYBRIDLSH_ENGINE_OPTIONS_H_
#define HYBRIDLSH_ENGINE_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "core/strategy.h"
#include "lsh/table.h"
#include "util/status.h"

namespace hybridlsh {
namespace engine {

struct EngineOptions {
  /// Number of id-range shards S. Build clamps it to the dataset size, so
  /// that no shard is empty, and writes the clamped count back.
  size_t num_shards = 1;
  /// Worker threads in the engine's persistent pool: shard builds,
  /// compaction, QueryBatch's workers, and the shard walks of a query that
  /// is the only one in flight (with company, each caller walks its shards
  /// on its own thread). 0 = one per shard; Build writes the resolved pool
  /// size back. Each shard builds its tables on
  /// max(1, num_threads / num_shards) of them. Query callers need no
  /// worker of their own: any number of threads may query the engine.
  size_t num_threads = 0;

  /// Number of hash tables L. The paper's evaluation fixes L = 50.
  int num_tables = 50;
  /// Concatenation width k; 0 = derive from (radius, delta) via the
  /// paper's rule lsh::AutoK (requires radius > 0).
  int k = 0;
  /// Per-point failure probability delta (used when k == 0).
  double delta = 0.1;
  /// Search radius: parameter derivation for k == 0, and the quantization
  /// window of the facade's p-stable engines (w = 4r for kL1, 2r for kL2).
  double radius = 0.0;
  /// HLL precision b (m = 2^b registers per bucket sketch). Paper: b = 7.
  int hll_precision = 7;
  /// Buckets of at most this many ids keep no sketch and fold into the
  /// query-time estimate instead (§3.2); kThresholdAuto = m.
  size_t small_bucket_threshold = lsh::LshTable::kThresholdAuto;
  /// Seed of the hash functions. Every shard uses it, which is what makes
  /// a sharded engine candidate-equivalent to a one-shard one.
  uint64_t seed = 1;

  /// Segment lifecycle, applied per shard (engine/segmented_index.h): the
  /// active log freezes at this many points, and a shard compacts past
  /// this many sealed segments (0 = never on its own).
  size_t active_seal_threshold = 4096;
  size_t max_sealed_segments = 4;

  /// Int8 quantized verification tier (dense datasets only): an int8
  /// mirror of the dataset screens every candidate, and only borderline
  /// ones are rescored with the exact float kernels. Result sets are
  /// identical either way; false verifies exact-float everywhere.
  bool quantized_verify = true;

  /// Cost model, multi-probe width, and forced-strategy escape hatch. The
  /// hybrid decision runs per shard with LinearCost(shard_live_n).
  core::SearcherOptions searcher;
};

/// The largest num_shards, num_threads, active_seal_threshold, num_tables
/// and k accepted: each sizes an allocation (shard vectors, the thread
/// pool, three arrays of every active log, L sampled functions of k
/// slots). The table and k caps are the ones lsh::FunctionSet::Load
/// applies, so Build and a snapshot accept the same range.
inline constexpr size_t kMaxOptionCount = size_t{1} << 20;

/// The family-independent checks of the set: InvalidArgument naming the
/// first bad field. Build runs it on the caller's options and
/// snapshot::Manifest::Parse on the persisted ones (reporting DataLoss).
/// What depends on the family stays with it: a multi-probe width the
/// family lacks (lsh::ValidateProbesPerTable), and the radius and delta
/// that derive k when it is 0 (lsh::FunctionSet::Sample).
util::Status ValidateOptions(const EngineOptions& options);

}  // namespace engine
}  // namespace hybridlsh

#endif  // HYBRIDLSH_ENGINE_OPTIONS_H_
