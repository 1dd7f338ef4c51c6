// Umbrella header: the full public API of the hybridlsh library.
//
// Typical use (see examples/quickstart.cpp):
//
//   #include "core/hybridlsh.h"
//   using namespace hybridlsh;
//
//   data::DenseDataset points = ...;                     // n x d, L2 metric
//   engine::EngineOptions options;                       // one shard
//   options.radius = r;                                  // k auto-tuned
//   options.searcher.cost_model = core::CostModel::FromRatio(6.0);
//   auto engine =
//       L2Engine::Build(lsh::PStableFamily::L2(d, /*w=*/2 * r), points,
//                       options);
//
//   std::vector<uint32_t> neighbors;
//   engine::ShardedQueryStats stats;  // per_shard[0]: the Alg. 2 decision
//   util::Status status = engine->Query(query, r, &neighbors, &stats);

#ifndef HYBRIDLSH_CORE_HYBRIDLSH_H_
#define HYBRIDLSH_CORE_HYBRIDLSH_H_

#include "core/cost_model.h"
#include "core/kernels.h"
#include "core/strategy.h"
#include "data/dataset.h"
#include "data/io.h"
#include "data/metric.h"
#include "data/synthetic.h"
#include "data/workload.h"
#include "engine/options.h"
#include "engine/search_engine.h"
#include "engine/sharded_engine.h"
#include "hll/hyperloglog.h"
#include "lsh/families.h"
#include "lsh/fingerprint.h"
#include "lsh/index.h"
#include "lsh/params.h"

namespace hybridlsh {

/// Engine aliases over the standard dataset containers (plus covering LSH
/// over packed codes). A 1-shard engine is the paper's hybrid searcher.
using CosineEngine = engine::ShardedEngine<lsh::SimHashFamily>;
using L2Engine = engine::ShardedEngine<lsh::PStableFamily>;
using L1Engine = engine::ShardedEngine<lsh::PStableFamily>;
using HammingEngine = engine::ShardedEngine<lsh::BitSamplingFamily>;
using JaccardEngine = engine::ShardedEngine<lsh::MinHashFamily>;
using CoveringEngine = engine::ShardedEngine<lsh::CoveringFamily>;

}  // namespace hybridlsh

#endif  // HYBRIDLSH_CORE_HYBRIDLSH_H_
