// The hash side of the paper's Algorithm 1 and the probe walks of
// Algorithm 2, shared by every table set.
//
// A table set is L LshTables (lsh/table.h), each keyed by a concatenation
// of k atomic hashes from `Family`, every bucket carrying a HyperLogLog
// sketch of its ids. FunctionSet holds one draw of its hash functions; the
// parameters come from engine::EngineOptions. The query side exposes the
// LSH steps separately so that the hybrid decision can settle before any
// work it would waste:
//
//   S1  ComputePlan — hash the query once into its ProbePlan: every table's
//       unique probe keys (home bucket, then multi-probe perturbations);
//   (bounds)  ResolveProbedBuckets — look every probed bucket up in the
//       directory, reading no id: #collisions exactly and each table's
//       probed total, the two bounds on candSize (core::DecisionBounds);
//   S2  CollectResolvedIds — dedup the resolved buckets' contents into a
//       VisitedSet;
//   (estimate)  AccumulateProbe — candSize via merged HLLs (paper Alg. 2
//       lines 1-2), in O(mL) plus small-bucket folding; only a decision the
//       bounds leave open needs it;
//   S3  (caller) verify candidate distances and report.
//
// engine::SegmentedIndex owns one FunctionSet and *many* table sets (the
// sealed segments of its LSM-style lifecycle); a static table set is a
// SegmentedIndex with one sealed segment. The walks are free functions
// over any table range, so several segments sum into one decision (the
// one bounded walk per shard is engine::SegmentedIndex's
// SegmentSnapshot::BoundedWalk). Queries are served by
// engine::ShardedEngine.
//
// The template parameter Family supplies the point type, the atomic hash
// sampler, the paired metric, and multi-probe costs (see lsh/families.h).

#ifndef HYBRIDLSH_LSH_INDEX_H_
#define HYBRIDLSH_LSH_INDEX_H_

#include <atomic>
#include <concepts>
#include <cstdint>
#include <utility>
#include <vector>

#include "hll/hyperloglog.h"
#include "lsh/families.h"
#include "lsh/multi_probe.h"
#include "lsh/params.h"
#include "lsh/table.h"
#include "util/bit_vector.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/serialize.h"
#include "util/status.h"

namespace hybridlsh {
namespace lsh {

/// Result of the query-time cost estimation (paper Alg. 2, lines 1-2).
struct ProbeEstimate {
  uint64_t collisions = 0;     // exact: sum of probed bucket sizes
  double cand_estimate = 0.0;  // candSize estimate from merged HLLs
};

/// A query's complete S1 product, computed ONCE and then replayed against
/// any number of table ranges (shards, segments): the unique probe keys of
/// every table, in probe order, in CSR layout. Deduplication happens at
/// plan-build time — exhausted perturbation pools simply contribute fewer
/// keys instead of home-key padding — so probe walks never rescan for
/// repeated probes and collision counts stay exact by construction.
struct ProbePlan {
  std::vector<uint64_t> keys;           // unique probe keys, grouped by table
  std::vector<uint32_t> table_offsets;  // CSR offsets, num_tables() + 1 long

  size_t num_tables() const {
    return table_offsets.empty() ? 0 : table_offsets.size() - 1;
  }
  std::span<const uint64_t> TableKeys(size_t t) const {
    return std::span<const uint64_t>(keys.data() + table_offsets[t],
                                     table_offsets[t + 1] - table_offsets[t]);
  }
  void Clear() {
    keys.clear();
    table_offsets.clear();
  }
};

/// Reusable workspace for FunctionSet::ComputePlan / ComputePlanBatch. One
/// instance per query worker; every member keeps its capacity across
/// queries, so steady-state plan computation allocates nothing.
struct PlanScratch {
  std::vector<int32_t> slots;      // home signature of the current table
  std::vector<int32_t> perturbed;  // slots with one probe set applied
  std::vector<double> down, up;    // per-slot perturbation costs
  std::vector<ProbeAtom> atoms;    // candidate perturbations of one table
  ProbeGenScratch probe_gen;       // heap scratch for GenerateProbeSetsInto
  std::vector<ProbeSet> sets;      // emitted probe sets of one table
  std::vector<float> projections;  // batch path: raw L x count x k dots
};

// --- Hash-evaluation instrumentation (tests and benches only). -------------
// Counts k-wise signature computations (one per point-table pair) across
// every FunctionSet. The snapshot tests use it to prove that restoring an
// engine evaluates ZERO hash functions — the whole point of persistence.
// Disabled by default; the enabled check is one relaxed load of a
// read-mostly flag, which is noise next to the k x dim signature itself.

namespace internal {
inline std::atomic<bool>& HashEvalCountingEnabled() {
  static std::atomic<bool> enabled{false};
  return enabled;
}
inline std::atomic<uint64_t>& HashEvalCount() {
  static std::atomic<uint64_t> count{0};
  return count;
}
inline void NoteHashEvals(uint64_t n) {
  if (HashEvalCountingEnabled().load(std::memory_order_relaxed)) {
    HashEvalCount().fetch_add(n, std::memory_order_relaxed);
  }
}
}  // namespace internal

/// Turns signature counting on/off; returns the current count. Counting is
/// process-wide, so tests that use it must not run concurrent builds they
/// don't mean to measure.
inline void SetHashEvalCounting(bool enabled) {
  internal::HashEvalCountingEnabled().store(enabled,
                                            std::memory_order_relaxed);
}
inline uint64_t HashEvalCountForTest() {
  return internal::HashEvalCount().load(std::memory_order_relaxed);
}

/// A family whose table-t function is derived from t rather than sampled
/// (lsh::CoveringFamily). Such a family also fixes the table count
/// (CheckNumTables) and the signature width (signature_slots).
template <typename Family>
concept TableIndexedFamily = requires(const Family& family) {
  family.Sample(size_t{0});
  { family.CheckNumTables(1) } -> std::same_as<util::Status>;
  { family.signature_slots() } -> std::convertible_to<size_t>;
};

/// Checks a multi-probe width against `family`: InvalidArgument for 0,
/// Unimplemented above 1 on a family without multi-probe
/// (ProbeKind::kNone). Every plan request runs it; engines also run it at
/// build and open, so a bad width fails there instead of on a query.
template <typename Family>
util::Status ValidateProbesPerTable(const Family& family,
                                    size_t probes_per_table) {
  if (probes_per_table == 0) {
    return util::Status::InvalidArgument("probes_per_table must be >= 1");
  }
  if (probes_per_table > 1 && family.probe_kind() == ProbeKind::kNone) {
    return util::Status::Unimplemented(
        "multi-probe is not defined for this family");
  }
  return util::Status::Ok();
}

/// One draw of the L k-wise hash functions plus the per-table bucket-key
/// seeds — everything S1 needs, independent of any table contents. Two
/// holders sampled with the same (family, num_tables, k, seed) hash every
/// point identically, which is the invariant both the sharded engine and
/// the segmented lifecycle build on: a point collides with a query in table
/// t no matter which shard or segment currently stores it.
template <typename Family>
class FunctionSet {
 public:
  using Point = typename Family::Point;

  /// Parameters derived by the paper's AutoK rule (zero when k was given
  /// explicitly).
  struct DerivedParams {
    double p1_at_radius = 0.0;
    double recall_lower_bound = 0.0;
  };

  /// Samples the k-wise functions of `num_tables` tables from decorrelated
  /// streams. k == 0 derives k from (radius, delta) via AutoK. A
  /// table-indexed family (CoveringFamily) instead derives table t's
  /// function from t itself, validates the table count, and fixes k.
  static util::StatusOr<FunctionSet> Sample(Family family, int num_tables,
                                            int k, double delta, double radius,
                                            uint64_t seed) {
    if (num_tables < 1) {
      return util::Status::InvalidArgument("num_tables must be >= 1");
    }
    FunctionSet set(std::move(family));
    if constexpr (TableIndexedFamily<Family>) {
      // Covering LSH: the family fixes the table count and the signature
      // width; k is ignored.
      HLSH_RETURN_IF_ERROR(set.family_.CheckNumTables(num_tables));
      k = static_cast<int>(set.family_.signature_slots());
    } else if (k == 0) {
      if (!(radius > 0.0)) {
        return util::Status::InvalidArgument(
            "k == 0 (auto) requires a positive radius");
      }
      const double p1 = set.family_.CollisionProbability(radius);
      auto auto_k = AutoK(p1, num_tables, delta);
      if (!auto_k.ok()) return auto_k.status();
      k = *auto_k;
      set.derived_.p1_at_radius = p1;
      set.derived_.recall_lower_bound = RecallLowerBound(k, num_tables, p1);
    } else if (k < 0) {
      return util::Status::InvalidArgument("k must be >= 0");
    }
    set.k_ = k;

    const size_t L = static_cast<size_t>(num_tables);
    set.functions_.reserve(L);
    set.table_seeds_.reserve(L);
    for (size_t t = 0; t < L; ++t) {
      if constexpr (TableIndexedFamily<Family>) {
        set.functions_.push_back(set.family_.Sample(t));
      } else {
        util::Rng rng(util::HashU64(seed, t));
        set.functions_.push_back(
            set.family_.Sample(static_cast<size_t>(k), &rng));
      }
      set.table_seeds_.push_back(util::HashU64(seed ^ 0x5bd1e995, t));
    }
    return set;
  }

  /// The bucket key of `point` in table t. `slots` is caller scratch.
  uint64_t SignatureKey(Point point, size_t t,
                        std::vector<int32_t>* slots) const {
    internal::NoteHashEvals(1);
    slots->resize(static_cast<size_t>(k_));
    family_.Signature(functions_[t], point, *slots);
    return KeyOf(*slots, t);
  }

  /// S1, hash-once form: computes the query's full probe plan — the unique
  /// probe keys of every table, home bucket first then perturbed buckets in
  /// increasing cost (see ProbePlan). probes_per_table == 1 plans only the
  /// home buckets and works for every family; larger values require a
  /// multi-probe family (Unimplemented otherwise). The plan replays
  /// against any table range sharing this function set, so an engine with S
  /// shards evaluates L hash signatures per query instead of S * L.
  util::Status ComputePlan(Point query, size_t probes_per_table,
                           PlanScratch* scratch, ProbePlan* plan) const {
    HLSH_RETURN_IF_ERROR(ValidateProbesPerTable(family_, probes_per_table));
    const size_t L = functions_.size();
    const size_t k = static_cast<size_t>(k_);
    internal::NoteHashEvals(L);
    ResetPlan(L, probes_per_table, plan);
    scratch->slots.resize(k);
    for (size_t t = 0; t < L; ++t) {
      if (probes_per_table == 1) {
        family_.Signature(functions_[t], query, scratch->slots);
        scratch->atoms.clear();
      } else {
        SignatureAndAtoms(t, query, scratch);
      }
      AppendTablePlan(t, probes_per_table, scratch, plan);
    }
    return util::Status::Ok();
  }

  /// ComputePlan for a whole batch of queries. Dense projection families
  /// push all count x k dot products of each table through the blocked
  /// (GEMM-shaped) projection kernel in one call — bit-identical to the
  /// per-query form — before finishing each query's slots and probe sets;
  /// other families fall back to a per-query loop. plans must hold `count`
  /// entries.
  util::Status ComputePlanBatch(const Point* queries, size_t count,
                                size_t probes_per_table, PlanScratch* scratch,
                                ProbePlan* plans) const {
    if constexpr (HasBatchProjection<Family>) {
      HLSH_RETURN_IF_ERROR(ValidateProbesPerTable(family_, probes_per_table));
      if (count == 0) return util::Status::Ok();
      const size_t L = functions_.size();
      const size_t k = static_cast<size_t>(k_);
      internal::NoteHashEvals(L * count);
      scratch->projections.resize(L * count * k);
      for (size_t t = 0; t < L; ++t) {
        family_.ProjectBatch(
            functions_[t], queries, count,
            std::span<float>(scratch->projections.data() + t * count * k,
                             count * k));
      }
      scratch->slots.resize(k);
      for (size_t q = 0; q < count; ++q) {
        ProbePlan* plan = plans + q;
        ResetPlan(L, probes_per_table, plan);
        for (size_t t = 0; t < L; ++t) {
          const std::span<const float> proj(
              scratch->projections.data() + (t * count + q) * k, k);
          if (probes_per_table == 1) {
            family_.SignatureFromProjections(functions_[t], proj,
                                             scratch->slots);
            scratch->atoms.clear();
          } else {
            SignatureAndAtomsFromProjections(t, proj, scratch);
          }
          AppendTablePlan(t, probes_per_table, scratch, plan);
        }
      }
      return util::Status::Ok();
    } else {
      for (size_t q = 0; q < count; ++q) {
        HLSH_RETURN_IF_ERROR(
            ComputePlan(queries[q], probes_per_table, scratch, plans + q));
      }
      return util::Status::Ok();
    }
  }

  const Family& family() const { return family_; }
  int k() const { return k_; }
  size_t num_tables() const { return functions_.size(); }
  const DerivedParams& derived() const { return derived_; }

  /// Persists the whole set — family parameters, k, table seeds, and every
  /// table's sampled functions — as one self-contained block: the snapshot
  /// path (engine/snapshot.h) writes one per engine, shared by all shards
  /// and segments.
  void Save(util::ByteWriter* writer) const {
    writer->WriteU32(Family::kFamilyTag);
    family_.SaveFamily(writer);
    writer->WriteU32(static_cast<uint32_t>(k_));
    writer->WriteU64(functions_.size());
    writer->WriteArray<uint64_t>(table_seeds_);
    for (size_t t = 0; t < functions_.size(); ++t) {
      family_.SaveFunctions(functions_[t], writer);
    }
  }

  /// Parses a block written by Save. Rejects wrong-family payloads with
  /// InvalidArgument and malformed ones with DataLoss. No hash function is
  /// evaluated — the sampled functions are reloaded, not re-drawn.
  static util::StatusOr<FunctionSet> Load(util::ByteReader* reader) {
    uint32_t family_tag = 0;
    HLSH_RETURN_IF_ERROR(reader->ReadU32(&family_tag));
    if (family_tag != Family::kFamilyTag) {
      return util::Status::InvalidArgument(
          "function set was sampled from a different LSH family");
    }
    auto family = Family::LoadFamily(reader);
    if (!family.ok()) return family.status();
    uint32_t k = 0;
    uint64_t num_tables = 0;
    HLSH_RETURN_IF_ERROR(reader->ReadU32(&k));
    HLSH_RETURN_IF_ERROR(reader->ReadU64(&num_tables));
    if (num_tables == 0 || num_tables > (uint64_t{1} << 20) ||
        k > (uint32_t{1} << 20)) {
      return util::Status::DataLoss("function set header is invalid");
    }
    FunctionSet set(std::move(*family));
    set.k_ = static_cast<int>(k);
    HLSH_RETURN_IF_ERROR(
        reader->ReadArray<uint64_t>(num_tables, &set.table_seeds_));
    set.functions_.reserve(num_tables);
    for (uint64_t t = 0; t < num_tables; ++t) {
      auto functions = set.family_.LoadFunctions(reader);
      if (!functions.ok()) return functions.status();
      set.functions_.push_back(std::move(*functions));
    }
    return set;
  }

 private:
  explicit FunctionSet(Family family) : family_(std::move(family)) {}

  // Concept probes for the two probe-cost signatures.
  template <typename F>
  static constexpr bool HasTwoSidedCosts = requires(
      const F& f, const typename F::Functions& fns, typename F::Point p,
      std::span<int32_t> s, std::span<double> c) {
    f.SignatureWithProbeCosts(fns, p, s, c, c);
  };
  template <typename F>
  static constexpr bool HasFlipCosts = requires(
      const F& f, const typename F::Functions& fns, typename F::Point p,
      std::span<int32_t> s, std::span<double> c) {
    f.SignatureWithProbeCosts(fns, p, s, c);
  };

  // The raw-projection split of dense families (lsh/families.h), which is
  // what lets ComputePlanBatch run one blocked kernel per table.
  template <typename F>
  static constexpr bool HasBatchProjection = requires(
      const F& f, const typename F::Functions& fns,
      const typename F::Point* pts, std::span<float> proj,
      std::span<const float> cproj, std::span<int32_t> s) {
    f.ProjectBatch(fns, pts, size_t{1}, proj);
    f.SignatureFromProjections(fns, cproj, s);
  };
  template <typename F>
  static constexpr bool HasTwoSidedCostsFromProj = requires(
      const F& f, const typename F::Functions& fns,
      std::span<const float> proj, std::span<int32_t> s, std::span<double> c) {
    f.SignatureWithProbeCostsFromProjections(fns, proj, s, c, c);
  };
  template <typename F>
  static constexpr bool HasFlipCostsFromProj = requires(
      const F& f, const typename F::Functions& fns,
      std::span<const float> proj, std::span<int32_t> s, std::span<double> c) {
    f.SignatureWithProbeCostsFromProjections(fns, proj, s, c);
  };

  static void ResetPlan(size_t num_tables, size_t probes_per_table,
                        ProbePlan* plan) {
    plan->keys.clear();
    plan->keys.reserve(num_tables * probes_per_table);
    plan->table_offsets.clear();
    plan->table_offsets.reserve(num_tables + 1);
    plan->table_offsets.push_back(0);
  }

  /// Fills scratch->slots and scratch->atoms for table t by hashing the
  /// query with probe costs (multi-probe path of ComputePlan).
  void SignatureAndAtoms(size_t t, Point query, PlanScratch* scratch) const {
    const size_t k = static_cast<size_t>(k_);
    scratch->atoms.clear();
    if constexpr (HasTwoSidedCosts<Family>) {
      if (family_.probe_kind() == ProbeKind::kTwoSided) {
        scratch->down.resize(k);
        scratch->up.resize(k);
        family_.SignatureWithProbeCosts(functions_[t], query, scratch->slots,
                                        scratch->down, scratch->up);
        BuildAtomsFromCosts(scratch);
        return;
      }
    }
    if constexpr (HasFlipCosts<Family>) {
      if (family_.probe_kind() == ProbeKind::kFlip) {
        scratch->down.resize(k);
        family_.SignatureWithProbeCosts(functions_[t], query, scratch->slots,
                                        scratch->down);
        BuildAtomsFromCosts(scratch);
        return;
      }
    }
  }

  /// SignatureAndAtoms from precomputed raw projections (batch path).
  void SignatureAndAtomsFromProjections(size_t t, std::span<const float> proj,
                                        PlanScratch* scratch) const {
    const size_t k = static_cast<size_t>(k_);
    scratch->atoms.clear();
    if constexpr (HasTwoSidedCostsFromProj<Family>) {
      if (family_.probe_kind() == ProbeKind::kTwoSided) {
        scratch->down.resize(k);
        scratch->up.resize(k);
        family_.SignatureWithProbeCostsFromProjections(
            functions_[t], proj, scratch->slots, scratch->down, scratch->up);
        BuildAtomsFromCosts(scratch);
        return;
      }
    }
    if constexpr (HasFlipCostsFromProj<Family>) {
      if (family_.probe_kind() == ProbeKind::kFlip) {
        scratch->down.resize(k);
        family_.SignatureWithProbeCostsFromProjections(
            functions_[t], proj, scratch->slots, scratch->down);
        BuildAtomsFromCosts(scratch);
        return;
      }
    }
  }

  /// Turns the costs in scratch->down / scratch->up into probe atoms: two
  /// (-1, +1) per slot for two-sided families, one flip per slot otherwise.
  void BuildAtomsFromCosts(PlanScratch* scratch) const {
    const uint32_t k = static_cast<uint32_t>(k_);
    if (family_.probe_kind() == ProbeKind::kTwoSided) {
      for (uint32_t i = 0; i < k; ++i) {
        scratch->atoms.push_back(ProbeAtom{i, -1, scratch->down[i]});
        scratch->atoms.push_back(ProbeAtom{i, +1, scratch->up[i]});
      }
    } else {
      for (uint32_t i = 0; i < k; ++i) {
        scratch->atoms.push_back(ProbeAtom{i, +1, scratch->down[i]});
      }
    }
  }

  /// Appends table t's unique probe keys (home bucket first, then perturbed
  /// buckets in increasing cost) and closes the table's CSR range. Expects
  /// scratch->slots / scratch->atoms already filled for table t. The dedup
  /// scan runs over at most probes_per_table emitted keys, once per query,
  /// so no probe walk ever rescans for repeated probes.
  void AppendTablePlan(size_t t, size_t probes_per_table, PlanScratch* scratch,
                       ProbePlan* plan) const {
    const size_t table_begin = plan->keys.size();
    plan->keys.push_back(KeyOf(scratch->slots, t));
    if (probes_per_table > 1) {
      const size_t num_sets =
          GenerateProbeSetsInto(scratch->atoms, probes_per_table - 1,
                                &scratch->probe_gen, &scratch->sets);
      std::vector<int32_t>& perturbed = scratch->perturbed;
      for (size_t p = 0; p < num_sets; ++p) {
        perturbed.assign(scratch->slots.begin(), scratch->slots.end());
        for (const ProbeAtom& atom : scratch->sets[p]) {
          if (family_.probe_kind() == ProbeKind::kFlip) {
            perturbed[atom.slot] ^= 1;
          } else {
            // Wraps at the int32 ends (a huge coordinate's slot is
            // INT32_MIN) instead of overflowing; every other slot moves
            // by one.
            perturbed[atom.slot] = static_cast<int32_t>(
                static_cast<uint32_t>(perturbed[atom.slot]) +
                static_cast<uint32_t>(atom.delta));
          }
        }
        const uint64_t key = KeyOf(perturbed, t);
        bool duplicate = false;
        for (size_t j = table_begin; j < plan->keys.size(); ++j) {
          if (plan->keys[j] == key) {
            duplicate = true;
            break;
          }
        }
        if (!duplicate) plan->keys.push_back(key);
      }
    }
    plan->table_offsets.push_back(static_cast<uint32_t>(plan->keys.size()));
  }

  /// Reduces a k-slot signature to the 64-bit bucket key of table t.
  /// Distinct signatures collide with probability ~2^-64; such a collision
  /// only adds spurious candidates, which S3's distance check removes.
  uint64_t KeyOf(std::span<const int32_t> slots, size_t table) const {
    return util::HashBytes(slots.data(), slots.size() * sizeof(int32_t),
                           table_seeds_[table]);
  }

  Family family_;
  int k_ = 0;
  std::vector<typename Family::Functions> functions_;
  std::vector<uint64_t> table_seeds_;
  DerivedParams derived_;
};

// --- Plan-based probe walks. ------------------------------------------------
// Two walks replay a ProbePlan against one table range, both consuming
// buckets in plan order (table-major, then probe order), so collisions,
// merged registers and the dedup order do not depend on their prefetching.
// Per-table keys are already unique, and both first prefetch the directory
// slot of every probe of the range, so the range's lookups (most of which
// miss) overlap their cache misses instead of paying them one at a time.
//
// The decision's bounded walk runs in two steps, so that it can stop
// before reading any id: ResolveProbedBuckets looks the buckets up and
// sums their sizes, then CollectResolvedIds dedups their ids (S2), each
// bucket's ids prefetched a few buckets ahead of its inserts.
//
// AccumulateProbe, the estimate, walks through WalkProbedBuckets, which is
// windowed over the plan's flattened key list, crossing table boundaries:
// a window resolves kProbeWindow buckets and prefetches their id and
// sketch storage before consuming the first, hiding those dependent loads
// behind the HLL merges. At one probe per table (the paper's setting) a
// window spans 8 tables; a window per table would hold one bucket,
// prefetched just before the load that consumes it. The active/frozen
// logs walk their bucket chains in the same windows (engine::ActiveLshLog).

namespace internal {
/// Buckets resolved (and prefetched) ahead of consumption in one window.
inline constexpr size_t kProbeWindow = 8;

inline void PrefetchBucket(const LshTable::BucketView& bucket) {
  if (bucket.empty()) return;
  __builtin_prefetch(bucket.ids.data());
  if (bucket.sketch != nullptr) __builtin_prefetch(bucket.sketch);
}

/// Calls consume(bucket) for the bucket of every (table, key) of `plan`
/// against `tables`, in plan order; a missed probe yields an empty view.
template <typename Consume>
void WalkProbedBuckets(std::span<const LshTable> tables, const ProbePlan& plan,
                       Consume&& consume) {
  HLSH_DCHECK(plan.num_tables() == tables.size());
  for (size_t t = 0; t < tables.size(); ++t) {
    for (const uint64_t key : plan.TableKeys(t)) tables[t].PrefetchSlot(key);
  }
  const size_t num_keys = plan.keys.size();
  LshTable::BucketView window[kProbeWindow];
  size_t t = 0;  // table of the next key to resolve
  for (size_t base = 0; base < num_keys; base += kProbeWindow) {
    const size_t n = std::min(kProbeWindow, num_keys - base);
    for (size_t w = 0; w < n; ++w) {
      while (base + w >= plan.table_offsets[t + 1]) ++t;
      window[w] = tables[t].Lookup(plan.keys[base + w]);
      PrefetchBucket(window[w]);
    }
    for (size_t w = 0; w < n; ++w) consume(window[w]);
  }
}
}  // namespace internal

/// Accumulates one table range's contribution to the Alg. 2 estimate:
/// adds the probed buckets' sizes to *collisions and merges (or folds)
/// their sketches into *scratch, which is NOT cleared — callers sum several
/// segments into one estimate.
inline void AccumulateProbe(std::span<const LshTable> tables,
                            const ProbePlan& plan, hll::HyperLogLog* scratch,
                            uint64_t* collisions) {
  internal::WalkProbedBuckets(
      tables, plan, [&](const LshTable::BucketView& bucket) {
        if (bucket.empty()) return;
        *collisions += bucket.size();
        if (bucket.sketch != nullptr) {
          HLSH_CHECK(scratch->Merge(*bucket.sketch).ok());
        } else {
          // Small bucket: fold ids on demand (paper §3.2).
          for (uint32_t id : bucket.ids) scratch->AddPoint(id);
        }
      });
}

/// The first step of a bounded walk over one table range: resolves the
/// bucket of every (table, key) of `plan` from the directory alone (every
/// probed slot is prefetched first, as in WalkProbedBuckets), reading no id
/// and no sketch register. Appends the non-empty buckets to *resolved in
/// plan order, and after each table calls table_done(t, probed), `probed`
/// being the sizes of table t's probed buckets summed; a true return ends
/// the walk there. Returns whether it ended early.
template <typename TableDone>
bool ResolveProbedBuckets(std::span<const LshTable> tables,
                          const ProbePlan& plan,
                          std::vector<LshTable::BucketView>* resolved,
                          TableDone&& table_done) {
  HLSH_DCHECK(plan.num_tables() == tables.size());
  for (size_t t = 0; t < tables.size(); ++t) {
    for (const uint64_t key : plan.TableKeys(t)) tables[t].PrefetchSlot(key);
  }
  for (size_t t = 0; t < tables.size(); ++t) {
    uint64_t probed = 0;
    for (const uint64_t key : plan.TableKeys(t)) {
      const LshTable::BucketView bucket = tables[t].Lookup(key);
      if (bucket.empty()) continue;
      probed += bucket.size();
      resolved->push_back(bucket);
    }
    if (table_done(t, probed)) return true;
  }
  return false;
}

/// S2 over buckets ResolveProbedBuckets resolved: dedups their ids into
/// *visited in order, whose touched() list then IS the flat candidate
/// buffer block verification consumes (core/kernels.h). Bucket ids are
/// bulk-inserted, each bucket's ids prefetched kProbeWindow buckets ahead
/// of its inserts. Ids whose `tombstones` bit is set are not inserted (the
/// caller counted them as collisions: the probe cost was paid), so deleted
/// points never reach verification.
inline void CollectResolvedIds(std::span<const LshTable::BucketView> buckets,
                               util::VisitedSet* visited,
                               const util::BitVector* tombstones = nullptr) {
  constexpr size_t kAhead = internal::kProbeWindow;
  const size_t n = buckets.size();
  for (size_t i = 0; i < std::min(kAhead, n); ++i) {
    __builtin_prefetch(buckets[i].ids.data());
  }
  for (size_t i = 0; i < n; ++i) {
    if (i + kAhead < n) __builtin_prefetch(buckets[i + kAhead].ids.data());
    if (tombstones == nullptr) {
      visited->InsertSpan(buckets[i].ids);
    } else {
      visited->InsertSpanFiltered(buckets[i].ids, *tombstones);
    }
  }
}

}  // namespace lsh
}  // namespace hybridlsh

#endif  // HYBRIDLSH_LSH_INDEX_H_
