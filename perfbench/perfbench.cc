// perfbench: the end-to-end serving benchmark of the hybridlsh engine.
//
// One closed-loop client (it sends the next request only after the previous
// one returns) drives a 4-shard L2 engine through the type-erased
// SearchEngine facade, the surface a server would hold. The inputs are
// generated here from --seed; the engine receives only points, attributes
// and query specs. Workloads (README.md explains why each exists):
//
//   point     plain radius queries                       SearchEngine::Query
//   filtered  radius queries under a 1%-selective predicate  Query(QuerySpec)
//   fused     two-radius RRF fusion queries              QueryFused
//   churn     queries interleaved with inserts and removes  Query/Insert/Remove
//
// Every workload shares one set-up: build the engine over the base points,
// insert a second batch (so shards hold sealed and active segments), and
// remove a slice of ids (so tombstones are live). The set-up runs
// kSetupRepeats times and its median wall time is `setup_s`.
//
// Every response of the timed phase is checked: ids are unique, live, within
// the radius and (filtered) pass the predicate; fused hits are ordered by
// (score desc, id asc). Recall against a brute-force oracle is a metric.
//
// The last line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ledger, and --trace-out FILE receives every recorded span.
//
//   perfbench --workload point --seed 1 --seconds 20 --trace 0

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/fusion.h"
#include "data/attributes.h"
#include "data/dataset.h"
#include "data/metric.h"
#include "engine/query_pipeline.h"
#include "engine/search_engine.h"

using namespace hybridlsh;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Fixed shape of the benchmark ------------------------------------------

constexpr size_t kDim = 32;
constexpr size_t kBasePoints = 48000;     // indexed by the build
constexpr size_t kIngestPoints = 8000;    // inserted during set-up
constexpr size_t kRemovedAtSetup = 1200;  // tombstoned during set-up
constexpr size_t kChurnPool = 40000;      // insert pool of the churn workload
constexpr size_t kClusters = 64;
constexpr size_t kQueries = 512;          // distinct query points, cycled
constexpr double kRadius = 1.0;
constexpr double kFusedOuterRadius = 1.5 * kRadius;
constexpr uint32_t kCategories = 100;     // one category = 1% of the points
constexpr uint32_t kTargetCategory = 0;  // the filtered workload's predicate
constexpr size_t kShards = 4;
constexpr size_t kThreads = 1;
constexpr int kSetupRepeats = 5;
constexpr size_t kWindowRequests = 2 * kQueries;
constexpr size_t kBaselineEvery = 32;  // requests per baseline run
constexpr double kWarmupSeconds = 0.5;
constexpr double kRecallFloor = 0.8;
// churn: share of requests that are queries; the rest split evenly between
// inserts and removes, so the live size stays level.
constexpr double kChurnQueryShare = 0.6;
// churn: every this many queries, the response is compared with a
// brute-force scan of the live points at that instant.
constexpr size_t kChurnOracleEvery = 8;

enum class Workload { kPoint, kFiltered, kFused, kChurn };

std::optional<Workload> ParseWorkload(const std::string& name) {
  if (name == "point") return Workload::kPoint;
  if (name == "filtered") return Workload::kFiltered;
  if (name == "fused") return Workload::kFused;
  if (name == "churn") return Workload::kChurn;
  return std::nullopt;
}

struct Args {
  Workload workload = Workload::kPoint;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      const auto w = ParseWorkload(value);
      if (!w) return false;
      args->workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && args->seconds > 0;
}

// --- Inputs -----------------------------------------------------------------

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// A Gaussian mixture with a fixed density ladder: cluster c has standard
// deviation kScales[c % 8] per coordinate, so the share of dense and sparse
// neighborhoods is the same for every seed and only positions vary. Cluster
// 0 is a near-duplicate core holding kCoreShare of the points: queries
// landing there report thousands of neighbors, where the paper's hybrid
// decision switches a shard to the linear scan.
constexpr double kScales[8] = {0.05, 0.08, 0.12, 0.16, 0.2, 0.25, 0.3, 0.4};
constexpr double kCoreScale = 0.02;
constexpr double kCoreShare = 0.3;
constexpr double kCenterBox = 4.0;
constexpr double kCoreQueryShare = 0.05;

struct Mixture {
  std::vector<float> centers;  // kClusters x kDim
  std::vector<double> scales;  // per cluster
  std::vector<double> weights;  // per cluster, sums to 1
};

Mixture MakeMixture(std::mt19937_64* rng) {
  Mixture m;
  std::uniform_real_distribution<double> box(-kCenterBox, kCenterBox);
  m.centers.resize(kClusters * kDim);
  for (float& x : m.centers) x = static_cast<float>(box(*rng));
  m.scales.resize(kClusters);
  m.weights.resize(kClusters);
  m.scales[0] = kCoreScale;
  m.weights[0] = kCoreShare;
  for (size_t c = 1; c < kClusters; ++c) {
    m.scales[c] = kScales[c % 8];
    m.weights[c] = (1.0 - kCoreShare) / static_cast<double>(kClusters - 1);
  }
  return m;
}

// Appends one point drawn from cluster c.
void AppendPoint(const Mixture& m, size_t c, std::mt19937_64* rng,
                 data::DenseDataset* out) {
  std::normal_distribution<double> gauss(0.0, 1.0);
  float point[kDim];
  for (size_t j = 0; j < kDim; ++j) {
    point[j] = static_cast<float>(m.centers[c * kDim + j] +
                                  m.scales[c] * gauss(*rng));
  }
  out->Append({point, kDim});
}

// Samples `n` points with exactly round(weight * n) points per cluster
// (then shuffled), so cluster sizes do not vary with the seed.
data::DenseDataset SamplePoints(const Mixture& m, size_t n,
                                std::mt19937_64* rng) {
  std::vector<uint32_t> labels;
  labels.reserve(n);
  size_t assigned = 0;
  for (size_t c = 0; c < kClusters; ++c) {
    size_t count = static_cast<size_t>(std::llround(m.weights[c] * n));
    if (c + 1 == kClusters) count = n - assigned;
    count = std::min(count, n - assigned);
    labels.insert(labels.end(), count, static_cast<uint32_t>(c));
    assigned += count;
  }
  std::shuffle(labels.begin(), labels.end(), *rng);
  data::DenseDataset out(0, kDim);
  out.Reserve(n);
  for (const uint32_t c : labels) AppendPoint(m, c, rng, &out);
  return out;
}

struct Inputs {
  data::DenseDataset base;     // built into the engine
  data::DenseDataset ingest;   // inserted during set-up
  data::DenseDataset pool;     // inserted by the churn workload
  data::DenseDataset queries;  // kQueries points, cycled
  std::vector<uint32_t> setup_removals;  // ids removed during set-up
  std::vector<uint32_t> baseline_order;  // random-order half of BaselineRun
  uint64_t category_salt = 0;  // category(id) = Mix64(salt ^ id) % 100
  uint64_t engine_seed = 0;
  uint64_t churn_seed = 0;

  uint32_t Category(uint32_t id) const {
    return static_cast<uint32_t>(Mix64(category_salt ^ id) % kCategories);
  }
};

Inputs MakeInputs(uint64_t seed) {
  std::mt19937_64 rng(Mix64(seed));
  Inputs in;
  const Mixture m = MakeMixture(&rng);
  in.base = SamplePoints(m, kBasePoints, &rng);
  in.ingest = SamplePoints(m, kIngestPoints, &rng);
  in.pool = SamplePoints(m, kChurnPool, &rng);

  // Queries: a fixed share in the near-duplicate core, the rest spread
  // round-robin over the other clusters, in shuffled order.
  std::vector<size_t> query_clusters(kQueries);
  const size_t core_queries =
      static_cast<size_t>(std::llround(kCoreQueryShare * kQueries));
  for (size_t q = 0; q < kQueries; ++q) {
    query_clusters[q] = q < core_queries ? 0 : 1 + q % (kClusters - 1);
  }
  std::shuffle(query_clusters.begin(), query_clusters.end(), rng);
  in.queries = data::DenseDataset(0, kDim);
  for (const size_t c : query_clusters) AppendPoint(m, c, &rng, &in.queries);

  // Set-up removals, then the baseline's random visiting order: distinct
  // ids over base + ingest (all stored, whether live or not).
  std::vector<uint32_t> ids(kBasePoints + kIngestPoints);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);
  std::shuffle(ids.begin(), ids.end(), rng);
  const auto removals_end = ids.begin() + kRemovedAtSetup;
  in.setup_removals.assign(ids.begin(), removals_end);
  in.baseline_order.assign(removals_end, removals_end + kBasePoints / 4);

  in.category_salt = rng();
  in.engine_seed = rng() | 1;
  in.churn_seed = rng();
  return in;
}

// --- Oracle -----------------------------------------------------------------

double ExactL2(const float* a, const float* b) {
  double sum = 0.0;
  for (size_t j = 0; j < kDim; ++j) {
    const double d = static_cast<double>(a[j]) - static_cast<double>(b[j]);
    sum += d * d;
  }
  return std::sqrt(sum);
}

// Squared L2 distance summed in 8 interleaved lanes, the accumulation
// order of the engine's block kernels; used by the timing baseline only.
float SquaredL2Lanes(const float* a, const float* b) {
  float lanes[8] = {};
  for (size_t j = 0; j < kDim; j += 8) {
    for (size_t l = 0; l < 8; ++l) {
      const float d = a[j + l] - b[j + l];
      lanes[l] += d * d;
    }
  }
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

// The engine verifies with float SIMD kernels; the oracle sums in double.
// Distances within this relative margin of the radius may land on either
// side, so soundness allows them and recall does not count them.
constexpr double kBoundaryMargin = 1e-4;

// The state the oracle checks responses against: which ids are live, and
// (filtered workload) which pass the predicate.
struct Truth {
  std::vector<uint8_t> live;  // by global id
  std::vector<uint32_t> live_ids;  // unordered, for uniform removal picks
  std::vector<uint32_t> live_pos;  // id -> index in live_ids
  const Inputs* inputs = nullptr;
  bool filtered = false;

  bool Eligible(uint32_t id) const {
    if (id >= live.size() || !live[id]) return false;
    return !filtered || inputs->Category(id) == kTargetCategory;
  }
  void AddLive(uint32_t id) {
    if (live.size() <= id) live.resize(id + 1, 0);
    if (live_pos.size() <= id) live_pos.resize(id + 1, 0);
    live[id] = 1;
    live_pos[id] = static_cast<uint32_t>(live_ids.size());
    live_ids.push_back(id);
  }
  void RemoveLive(uint32_t id) {
    live[id] = 0;
    const uint32_t pos = live_pos[id];
    live_ids[pos] = live_ids.back();
    live_pos[live_ids[pos]] = pos;
    live_ids.pop_back();
  }
};

// Ids of eligible points strictly inside the radius (by the margin).
std::vector<uint32_t> BruteForce(const data::DenseDataset& points,
                                 const Truth& truth, const float* query,
                                 double radius) {
  std::vector<uint32_t> out;
  const double inner = radius * (1.0 - kBoundaryMargin);
  for (const uint32_t id : truth.live_ids) {
    if (!truth.Eligible(id)) continue;
    if (ExactL2(query, points.point(id)) <= inner) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Checks one response's ids: unique, eligible, within the radius. Counts
// how many of `expected` (sorted) were returned into *found.
bool CheckIds(const data::DenseDataset& points, const Truth& truth,
              const float* query, double radius, std::vector<uint32_t> ids,
              const std::vector<uint32_t>* expected, uint64_t* found) {
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) return false;
  const double outer = radius * (1.0 + kBoundaryMargin);
  for (const uint32_t id : ids) {
    if (id >= points.size() || !truth.Eligible(id)) return false;
    if (ExactL2(query, points.point(id)) > outer) return false;
  }
  if (expected != nullptr) {
    std::vector<uint32_t> common;
    std::set_intersection(ids.begin(), ids.end(), expected->begin(),
                          expected->end(), std::back_inserter(common));
    *found += common.size();
  }
  return true;
}

// --- Tracing ----------------------------------------------------------------

// Spans recorded at the benchmark's calls into the engine: name, start and
// end (microseconds since the run began), parent span. Engine-reported
// stage durations ride along as attributes of the request span.
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  std::vector<std::pair<const char*, double>> attrs;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  bool on() const { return on_; }

  double Now() const { return SecondsBetween(origin_, Clock::now()) * 1e6; }

  // Records a finished span; returns its id (0 when tracing is off or the
  // in-memory cap is reached).
  uint32_t Record(const char* name, uint32_t parent, double start_us,
                  double end_us,
                  std::vector<std::pair<const char*, double>> attrs = {}) {
    if (!on_ || spans_.size() >= kMaxSpans) return 0;
    Span span;
    span.id = static_cast<uint32_t>(spans_.size() + 1);
    span.parent = parent;
    span.name = name;
    span.start_us = start_us;
    span.end_us = end_us;
    span.attrs = std::move(attrs);
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  // Reserves an id for a span whose children are recorded before it ends.
  uint32_t Open(const char* name, double start_us) {
    return Record(name, 0, start_us, start_us);
  }
  void Close(uint32_t id, double end_us) {
    if (id != 0) spans_[id - 1].end_us = end_us;
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%u,\"parent\":%u,\"name\":\"%s\","
                   "\"start_us\":%.3f,\"end_us\":%.3f",
                   s.id, s.parent, s.name, s.start_us, s.end_us);
      for (const auto& [key, value] : s.attrs) {
        std::fprintf(f, ",\"%s\":%.17g", key, value);
      }
      std::fprintf(f, "}%s\n", i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static constexpr size_t kMaxSpans = 100000;
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --- The engine under test ----------------------------------------------

engine::EngineOptions MakeEngineOptions(uint64_t seed) {
  engine::EngineOptions options;
  options.num_shards = kShards;
  options.num_threads = kThreads;
  options.num_tables = 50;
  options.k = 7;
  options.radius = kRadius;  // w = 2r
  options.seed = seed;
  // Small segments so the set-up ingest seals some and the churn workload
  // keeps sealing and compacting in the background.
  options.active_seal_threshold = 1024;
  options.max_sealed_segments = 4;
  options.searcher.cost_model = core::CostModel::FromRatio(6.0);
  return options;
}

// One built, ingested engine plus the containers it references. The
// dataset and attribute store are heap-held so their addresses stay fixed.
struct Served {
  std::unique_ptr<data::DenseDataset> points;
  std::unique_ptr<data::AttributeStore> attributes;
  std::unique_ptr<engine::SearchEngine> engine;
  double build_seconds = 0.0;
  double ingest_seconds = 0.0;
};

struct WriteLedger {
  uint64_t inserts = 0;
  double insert_seconds = 0.0;
  uint64_t removes = 0;
  double remove_seconds = 0.0;
};

// Appends the attribute row of the next global id (filtered workload), then
// inserts the point; returns the new id or nullopt on failure.
std::optional<uint32_t> InsertPoint(Served* served, const Inputs& in,
                                    const float* point, WriteLedger* ledger,
                                    double* seconds) {
  if (served->attributes != nullptr) {
    const uint32_t row[1] = {
        in.Category(static_cast<uint32_t>(served->attributes->size()))};
    served->attributes->AppendRow(row);
  }
  const Clock::time_point t0 = Clock::now();
  auto id = served->engine->Insert(point);
  const double dt = SecondsBetween(t0, Clock::now());
  ledger->inserts++;
  ledger->insert_seconds += dt;
  if (seconds != nullptr) *seconds = dt;
  if (!id.ok()) return std::nullopt;
  return *id;
}

bool RemovePoint(Served* served, uint32_t id, WriteLedger* ledger,
                 double* seconds) {
  const Clock::time_point t0 = Clock::now();
  const util::Status status = served->engine->Remove(id);
  const double dt = SecondsBetween(t0, Clock::now());
  ledger->removes++;
  ledger->remove_seconds += dt;
  if (seconds != nullptr) *seconds = dt;
  return status.ok();
}

// Builds the engine over the base points, inserts the ingest batch and
// removes the set-up ids. Returns nullopt (after printing why) on failure.
std::optional<Served> SetUp(const Inputs& in, bool filtered, Tracer* tracer,
                            WriteLedger* ledger) {
  Served served;
  served.points = std::make_unique<data::DenseDataset>(in.base);
  served.points->Reserve(kBasePoints + kIngestPoints + kChurnPool);
  if (filtered) {
    served.attributes = std::make_unique<data::AttributeStore>();
    served.attributes->AddColumn("category");
    for (size_t id = 0; id < kBasePoints; ++id) {
      const uint32_t row[1] = {in.Category(static_cast<uint32_t>(id))};
      served.attributes->AppendRow(row);
    }
  }

  const double span_start = tracer->Now();
  const uint32_t setup_span = tracer->Open("setup", span_start);
  const Clock::time_point t0 = Clock::now();
  auto built = engine::BuildMutableEngine(data::Metric::kL2,
                                          served.points.get(),
                                          MakeEngineOptions(in.engine_seed));
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return std::nullopt;
  }
  served.engine = std::move(*built);
  if (served.attributes != nullptr &&
      !served.engine->AttachAttributes(served.attributes.get()).ok()) {
    std::fprintf(stderr, "attaching attributes failed\n");
    return std::nullopt;
  }
  const Clock::time_point t1 = Clock::now();
  tracer->Record("build", setup_span, span_start, tracer->Now());

  const double ingest_start = tracer->Now();
  for (size_t i = 0; i < in.ingest.size(); ++i) {
    const auto id = InsertPoint(&served, in, in.ingest.point(i), ledger,
                                nullptr);
    if (!id || *id != kBasePoints + i) {
      std::fprintf(stderr, "set-up insert %zu failed\n", i);
      return std::nullopt;
    }
  }
  for (const uint32_t id : in.setup_removals) {
    if (!RemovePoint(&served, id, ledger, nullptr)) {
      std::fprintf(stderr, "set-up remove of %u failed\n", id);
      return std::nullopt;
    }
  }
  const Clock::time_point t2 = Clock::now();
  tracer->Record("ingest", setup_span, ingest_start, tracer->Now());
  tracer->Close(setup_span, tracer->Now());
  served.build_seconds = SecondsBetween(t0, t1);
  served.ingest_seconds = SecondsBetween(t1, t2);
  return served;
}

// --- Measurement ------------------------------------------------------------

// Per-query sums of the engine's own stage accounting (ShardedQueryStats).
struct QueryLedger {
  uint64_t queries = 0;
  double engine_seconds = 0.0;
  double plan_seconds = 0.0;
  double estimate_seconds = 0.0;
  double shard_seconds = 0.0;  // per-shard totals, summed over shards
  uint64_t collisions = 0;
  double cand_estimate = 0.0;
  uint64_t cand_actual = 0;
  uint64_t output = 0;
  uint64_t hash_evals = 0;
  // LSH-decided shards only: estimate error and verify yield.
  double lsh_estimate_abs_error = 0.0;
  uint64_t lsh_cand_actual = 0;
  uint64_t lsh_output = 0;

  void Add(const engine::ShardedQueryStats& s) {
    queries++;
    engine_seconds += s.total_seconds;
    plan_seconds += s.hash_seconds;
    collisions += s.collisions;
    cand_estimate += s.cand_estimate;
    cand_actual += s.cand_actual;
    output += s.output_size;
    hash_evals += s.hash_evals;
    for (const core::QueryStats& shard : s.per_shard) {
      estimate_seconds += shard.estimate_seconds;
      shard_seconds += shard.total_seconds;
      if (shard.strategy == core::Strategy::kLsh) {
        lsh_estimate_abs_error += std::fabs(
            shard.cand_estimate - static_cast<double>(shard.cand_actual));
        lsh_cand_actual += shard.cand_actual;
        lsh_output += shard.output_size;
      }
    }
  }
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  // Latency statistics per window of kWindowRequests consecutive requests
  // (two passes over the query set), each relative to the mean time B of
  // the baseline runs interleaved with that window: B over the mean request
  // latency, and the p50 / p99 latencies over B. The reported figures are
  // medians over windows.
  std::vector<double> window;  // open window's request latencies, seconds
  std::vector<double> speedup;
  std::vector<double> p50_rel;
  std::vector<double> p99_rel;
  // Absolute totals, reported by the trace ledger.
  double request_seconds = 0.0;
  uint64_t baselines = 0;
  double baseline_seconds = 0.0;
  uint64_t truth_total = 0;
  uint64_t truth_found = 0;
  QueryLedger queries;
  WriteLedger writes;
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

class Runner {
 public:
  Runner(const Args& args, const Inputs& in, Served* served, Tracer* tracer,
         RunResult* result)
      : args_(args), in_(in), served_(served), tracer_(tracer),
        result_(result), churn_rng_(in.churn_seed) {
    truth_.inputs = &in;
    truth_.filtered = args.workload == Workload::kFiltered;
    for (size_t id = 0; id < kBasePoints + kIngestPoints; ++id) {
      truth_.AddLive(static_cast<uint32_t>(id));
    }
    for (const uint32_t id : in.setup_removals) truth_.RemoveLive(id);

    spec_ = engine::QuerySpec::Radius(kRadius);
    predicate_ = data::Predicate::Equals(0, kTargetCategory);
    if (truth_.filtered) spec_.predicate = &predicate_;
    fused_spec_.subqueries.push_back({kRadius, 1.0, std::nullopt, false});
    fused_spec_.subqueries.push_back(
        {kFusedOuterRadius, 0.5, std::nullopt, false});
  }

  // Live count the oracle expects the engine to report.
  size_t expected_live() const { return truth_.live_ids.size(); }

  double oracle_radius() const {
    return args_.workload == Workload::kFused ? kFusedOuterRadius : kRadius;
  }

  // Ground truth of the fixed query set (read-only workloads).
  void ComputeStaticTruth() {
    static_truth_.resize(kQueries);
    for (size_t q = 0; q < kQueries; ++q) {
      static_truth_[q] = BruteForce(*served_->points, truth_,
                                    in_.queries.point(q), oracle_radius());
    }
  }

  // Closes the open window into the per-window statistics. Latencies are
  // taken relative to the window's baseline runs (BaselineRun): both ran
  // interleaved on the same core within a fraction of a second, so the
  // ratio cancels the slow drift in CPU speed of a shared machine.
  void CloseWindow() {
    RunResult* r = result_;
    if (r->window.empty()) return;
    if (window_baselines_ == 0) BaselineRun();
    double busy = 0.0;
    for (const double s : r->window) busy += s;
    const double mean_latency = busy / static_cast<double>(r->window.size());
    const double baseline =
        window_baseline_seconds_ / static_cast<double>(window_baselines_);
    r->speedup.push_back(baseline / mean_latency);
    r->p50_rel.push_back(Percentile(r->window, 0.50) / baseline);
    r->p99_rel.push_back(Percentile(r->window, 0.99) / baseline);
    r->window.clear();
    window_baseline_seconds_ = 0.0;
    window_baselines_ = 0;
  }

  // Issues requests until `seconds` of wall time pass. `measure` = record
  // latencies, ledgers and correctness into the result.
  void Loop(double seconds, bool measure) {
    const Clock::time_point start = Clock::now();
    while (SecondsBetween(start, Clock::now()) < seconds) {
      for (int i = 0; i < 16; ++i) Step(measure);
    }
  }

 private:
  void Fail(const char* what) {
    if (result_->correct) {
      std::fprintf(stderr, "incorrect response: %s\n", what);
    }
    result_->correct = false;
  }

  void Step(bool measure) {
    if (args_.workload == Workload::kChurn) {
      std::uniform_real_distribution<double> u(0.0, 1.0);
      const double x = u(churn_rng_);
      if (x < kChurnQueryShare) {
        QueryStep(measure);
      } else if (x < kChurnQueryShare + (1.0 - kChurnQueryShare) / 2) {
        InsertStep(measure);
      } else {
        RemoveStep(measure);
      }
      return;
    }
    QueryStep(measure);
  }

  // Times one run of the baseline: the brute-force work the engine exists
  // to avoid, in the benchmark's own scalar code (identical for every
  // version of the engine). It is an exact range scan of the base points in
  // id order plus distance checks of a quarter as many stored points in
  // random order: the two ways the engine touches points (linear scan,
  // candidate verify).
  // A mixed yardstick tracks the machine's speed drift for both
  // compute-bound and memory-bound stretches of a query.
  void BaselineRun() {
    const data::DenseDataset& points = *served_->points;
    const float* query = in_.queries.point(next_baseline_++ % kQueries);
    const float r2 = static_cast<float>(kRadius * kRadius);
    const Clock::time_point t0 = Clock::now();
    size_t matches = 0;
    for (size_t id = 0; id < kBasePoints; ++id) {
      matches += SquaredL2Lanes(query, points.point(id)) <= r2;
    }
    for (const uint32_t id : in_.baseline_order) {
      matches += SquaredL2Lanes(query, points.point(id)) <= r2;
    }
    const double seconds = SecondsBetween(t0, Clock::now());
    window_baseline_seconds_ += seconds;
    window_baselines_++;
    result_->baseline_seconds += seconds;
    result_->baselines++;
    baseline_matches_ += matches;  // keeps the loops from being optimized out
  }

  void Note(bool measure, const char* name, double start_us, double seconds,
            bool ok, std::vector<std::pair<const char*, double>> attrs = {}) {
    if (!measure) return;
    result_->attempted++;
    if (!ok) result_->failed++;
    result_->request_seconds += seconds;
    result_->window.push_back(seconds);
    if (result_->window.size() % kBaselineEvery == 0) BaselineRun();
    if (result_->window.size() == kWindowRequests) CloseWindow();
    tracer_->Record(name, 0, start_us, start_us + seconds * 1e6,
                    std::move(attrs));
  }

  void QueryStep(bool measure) {
    const size_t q = next_query_++ % kQueries;
    const float* query = in_.queries.point(q);
    engine::ShardedQueryStats stats;
    engine::ShardedQueryStats* stats_ptr = args_.trace ? &stats : nullptr;
    const double start_us = tracer_->on() ? tracer_->Now() : 0.0;
    util::Status status = util::Status::Ok();
    ids_.clear();
    hits_.clear();
    const Clock::time_point t0 = Clock::now();
    switch (args_.workload) {
      case Workload::kPoint:
      case Workload::kChurn:
        status = served_->engine->Query(query, kRadius, &ids_, stats_ptr);
        break;
      case Workload::kFiltered:
        status = served_->engine->Query(query, spec_, &ids_, stats_ptr);
        break;
      case Workload::kFused:
        status = served_->engine->QueryFused(query, fused_spec_, &hits_,
                                             stats_ptr);
        break;
    }
    const double dt = SecondsBetween(t0, Clock::now());
    std::vector<std::pair<const char*, double>> attrs;
    if (args_.trace && status.ok()) {
      result_->queries.Add(stats);
      attrs = StageAttrs(stats);
    }
    Note(measure, "query", start_us, dt, status.ok(), std::move(attrs));
    if (!measure) return;
    if (!status.ok()) {
      Fail(status.ToString().c_str());
      return;
    }
    if (args_.workload == Workload::kFused) {
      for (size_t i = 1; i < hits_.size(); ++i) {
        const bool ordered =
            hits_[i - 1].score > hits_[i].score ||
            (hits_[i - 1].score == hits_[i].score &&
             hits_[i - 1].id < hits_[i].id);
        if (!ordered) {
          Fail("fused hits out of (score desc, id asc) order");
          return;
        }
      }
      for (const core::FusedHit& hit : hits_) ids_.push_back(hit.id);
    }
    CheckResponse(q, query);
  }

  void CheckResponse(size_t q, const float* query) {
    const std::vector<uint32_t>* expected = nullptr;
    std::vector<uint32_t> fresh;
    if (args_.workload != Workload::kChurn) {
      expected = &static_truth_[q];
    } else if (churn_queries_++ % kChurnOracleEvery == 0) {
      fresh = BruteForce(*served_->points, truth_, query, oracle_radius());
      expected = &fresh;
    }
    if (!CheckIds(*served_->points, truth_, query, oracle_radius(), ids_,
                  expected, &result_->truth_found)) {
      Fail("id not unique, not live, outside the radius or filtered out");
      return;
    }
    if (expected != nullptr) result_->truth_total += expected->size();
  }

  void InsertStep(bool measure) {
    const float* point = in_.pool.point(next_insert_++ % in_.pool.size());
    const double start_us = tracer_->on() ? tracer_->Now() : 0.0;
    double dt = 0.0;
    const auto id = InsertPoint(served_, in_, point, &result_->writes, &dt);
    Note(measure, "insert", start_us, dt, id.has_value());
    if (!id) {
      if (measure) Fail("insert failed");
      return;
    }
    if (*id + 1 != served_->points->size()) Fail("insert returned a wrong id");
    truth_.AddLive(*id);
  }

  void RemoveStep(bool measure) {
    if (truth_.live_ids.empty()) return;
    std::uniform_int_distribution<size_t> pick(0, truth_.live_ids.size() - 1);
    const uint32_t id = truth_.live_ids[pick(churn_rng_)];
    const double start_us = tracer_->on() ? tracer_->Now() : 0.0;
    double dt = 0.0;
    const bool ok = RemovePoint(served_, id, &result_->writes, &dt);
    Note(measure, "remove", start_us, dt, ok);
    if (!ok) {
      if (measure) Fail("remove failed");
      return;
    }
    truth_.RemoveLive(id);
  }

  static std::vector<std::pair<const char*, double>> StageAttrs(
      const engine::ShardedQueryStats& s) {
    double estimate = 0.0, shards = 0.0;
    for (const core::QueryStats& shard : s.per_shard) {
      estimate += shard.estimate_seconds;
      shards += shard.total_seconds;
    }
    return {{"engine_us", s.total_seconds * 1e6},
            {"plan_us", s.hash_seconds * 1e6},
            {"filter_us", s.filter_seconds * 1e6},
            {"estimate_us", estimate * 1e6},
            {"shards_us", shards * 1e6},
            {"output", static_cast<double>(s.output_size)},
            {"linear_shards", static_cast<double>(s.linear_shards)}};
  }

  const Args& args_;
  const Inputs& in_;
  Served* served_;
  Tracer* tracer_;
  RunResult* result_;
  std::mt19937_64 churn_rng_;
  Truth truth_;
  std::vector<std::vector<uint32_t>> static_truth_;
  engine::QuerySpec spec_;
  data::Predicate predicate_;
  engine::QuerySpec fused_spec_;
  std::vector<uint32_t> ids_;
  std::vector<core::FusedHit> hits_;
  size_t next_query_ = 0;
  size_t next_insert_ = 0;
  size_t churn_queries_ = 0;
  size_t next_baseline_ = 0;
  size_t baseline_matches_ = 0;
  double window_baseline_seconds_ = 0.0;
  size_t window_baselines_ = 0;
};

// --- Reporting --------------------------------------------------------------

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void PrintResult(const RunResult& r, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload point|filtered|fused|churn "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  const bool filtered = args.workload == Workload::kFiltered;

  const Inputs in = MakeInputs(args.seed);
  Tracer tracer(args.trace);

  // Set-up, kSetupRepeats times; the last engine serves the timed phase.
  std::vector<double> setup_seconds, build_seconds;
  WriteLedger setup_writes;
  std::optional<Served> served;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    served.reset();  // release the previous engine before building anew
    served = SetUp(in, filtered, &tracer, &setup_writes);
    if (!served) return 1;
    setup_seconds.push_back(served->build_seconds + served->ingest_seconds);
    build_seconds.push_back(served->build_seconds);
  }

  RunResult result;
  Runner runner(args, in, &*served, &tracer, &result);
  if (args.workload != Workload::kChurn) runner.ComputeStaticTruth();

  runner.Loop(kWarmupSeconds, /*measure=*/false);
  result = RunResult{};  // the warm-up's ledgers are not reported
  runner.Loop(args.seconds, /*measure=*/true);
  // A partial last window counts only when no window completed.
  if (result.speedup.empty()) runner.CloseWindow();

  if (served->engine->size() != runner.expected_live()) {
    std::fprintf(stderr, "engine reports %zu live points, oracle %zu\n",
                 served->engine->size(), runner.expected_live());
    result.correct = false;
  }
  const double recall =
      Ratio(static_cast<double>(result.truth_found),
            static_cast<double>(result.truth_total));
  if (result.truth_total == 0 || recall < kRecallFloor) {
    std::fprintf(stderr, "recall %.4f over %llu expected ids is below %.2f\n",
                 recall, static_cast<unsigned long long>(result.truth_total),
                 kRecallFloor);
    result.correct = false;
  }
  if (result.failed > 0) result.correct = false;

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"speedup", Median(result.speedup), "x"},
        {"p50_rel", Median(result.p50_rel), "ratio"},
        {"p99_rel", Median(result.p99_rel), "ratio"},
        {"recall", recall, "ratio"},
        {"setup_s", Median(setup_seconds), "s"},
    };
  } else {
    const QueryLedger& q = result.queries;
    const double nq = static_cast<double>(q.queries);
    const WriteLedger all_writes{
        setup_writes.inserts + result.writes.inserts,
        setup_writes.insert_seconds + result.writes.insert_seconds,
        setup_writes.removes + result.writes.removes,
        setup_writes.remove_seconds + result.writes.remove_seconds};
    metrics = {
        {"request_us",
         Ratio(result.request_seconds, static_cast<double>(result.attempted)) *
             1e6,
         "us"},
        {"baseline_us",
         Ratio(result.baseline_seconds, static_cast<double>(result.baselines)) *
             1e6,
         "us"},
        {"engine_us", Ratio(q.engine_seconds, nq) * 1e6, "us"},
        {"plan_us", Ratio(q.plan_seconds, nq) * 1e6, "us"},
        {"estimate_us", Ratio(q.estimate_seconds, nq) * 1e6, "us"},
        {"shard_exec_us",
         Ratio(q.shard_seconds - q.estimate_seconds, nq) * 1e6, "us"},
        {"coordinator_us",
         Ratio(q.engine_seconds - q.plan_seconds - q.shard_seconds, nq) * 1e6,
         "us"},
        {"insert_us",
         Ratio(all_writes.insert_seconds,
               static_cast<double>(all_writes.inserts)) * 1e6,
         "us"},
        {"remove_us",
         Ratio(all_writes.remove_seconds,
               static_cast<double>(all_writes.removes)) * 1e6,
         "us"},
        {"build_s", Median(build_seconds), "s"},
        {"collisions", Ratio(static_cast<double>(q.collisions), nq), "count"},
        {"cand_estimate", Ratio(q.cand_estimate, nq), "count"},
        {"cand_actual", Ratio(static_cast<double>(q.cand_actual), nq),
         "count"},
        {"output", Ratio(static_cast<double>(q.output), nq), "count"},
        {"hash_evals", Ratio(static_cast<double>(q.hash_evals), nq), "count"},
        {"estimate_error_pct",
         100.0 * Ratio(q.lsh_estimate_abs_error,
                       static_cast<double>(q.lsh_cand_actual)),
         "%"},
        {"verify_yield_pct",
         100.0 * Ratio(static_cast<double>(q.lsh_output),
                       static_cast<double>(q.lsh_cand_actual)),
         "%"},
    };
    if (!args.trace_out.empty() && !tracer.Write(args.trace_out)) {
      std::fprintf(stderr, "cannot write trace to %s\n",
                   args.trace_out.c_str());
      return 1;
    }
  }
  PrintResult(result, metrics);
  return 0;
}
