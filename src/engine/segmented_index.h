// LSM-style segmented LSH index: the mutable lifecycle behind the serving
// engine, with an epoch-published read path that takes zero locks.
//
// The paper's Algorithm 1 builds its L tables once, over a frozen dataset:
// here that static table set is an index with one sealed segment and no
// inserts. The per-bucket HyperLogLog sketches make in-place deletion
// impossible (HLLs merge but never subtract), so mutability needs an
// architectural answer rather than a patch. SegmentedIndex gives it the
// storage-engine shape:
//
//   inserts  -> ACTIVE log        a fixed-capacity, insert-only chained hash
//                                 log (ActiveLshLog) readers walk lock-free;
//                                 no sketches — buckets fold into the
//                                 query-time estimate like small buckets
//                                 (§3.2);
//   freeze   -> FROZEN log        when the active log fills, the writer swaps
//                                 in a fresh one; the frozen log stays
//                                 queryable as-is until a maintenance pass
//                                 seals it;
//   seal     -> SEALED segment    a frozen log rebuilt into L CSR LshTables
//                                 with fresh HLL sketches;
//   deletes  -> TOMBSTONES        one shared BitVector over global ids,
//                                 monotone set-only between compactions; dead
//                                 ids stay in their buckets (and sketches)
//                                 until compaction, but are dropped before
//                                 distance verification;
//   compact  -> one fresh sealed segment: every sealed segment's surviving
//                                 (key, id) entries are exported and merged
//                                 (LshTable::BuildFromEntries) — no point is
//                                 rehashed — and sketches are rebuilt without
//                                 the dead ids.
//
// All segments share ONE FunctionSet (lsh/index.h): a point hashes to the
// same bucket key in table t no matter which segment currently stores it,
// so the union of per-segment candidate sets equals the candidate set of a
// one-segment index built over the same live points with the same seed.
// That is the lifecycle's equivalence guarantee, tested in
// tests/test_segmented_index.cc.
//
// The hybrid decision walks every segment once (SegmentSnapshot::
// BoundedWalk): sealed buckets are resolved from their directories before
// any id is read, the logs' chains are counted, and the exact collisions
// plus the largest per-table probed total bound candSize from both sides
// (core::DecisionBounds). Only when those bounds leave the decision open is
// a ProbeEstimate summed across segments from the merged sketches
// (EstimateProbe). Tombstones bias both upward (dead ids still sit in
// buckets and sketches), which core::CostModel::CorrectedLshCost discounts
// before the LSH-vs-linear comparison.
//
// --- Concurrency model (the PR 6 serving core) -----------------------------
//
// The segment list is immutable once published: readers acquire a
// SegmentSnapshot and walk a consistent set of sealed segments and logs
// with no locks; shared_ptr refcounts are the reader epoch, so a
// superseded list (and its segments) is reclaimed when the last in-flight
// reader drops it. Snapshots are cached per reader scratch and re-validated
// against an atomic version counter, so the steady-state read path is two
// relaxed/acquire loads; only a version change makes the reader copy the
// current shared_ptr under a brief mutex (libstdc++'s atomic<shared_ptr>
// unlocks its load with a relaxed op, which is formally racy and trips
// TSan, so the slot is mutex-guarded instead — same cost, clean model). Writers (Insert/Remove) are
// externally serialized against each other (ShardedEngine holds a writer
// mutex); seal and compaction may run on a background thread concurrently
// with both readers and the writer:
//
//   - Insert appends to the active log (entries become visible through
//     release-published bucket heads) and never rebuilds anything; when the
//     log fills it is frozen and a fresh log is published.
//   - RunMaintenance() (background or inline) seals frozen logs into CSR
//     segments and compacts sealed segments, building off to the side and
//     atomically installing a new list under a brief writer-side mutex that
//     readers never touch.
//   - Remove marks the shared tombstone bitmap with a release-ordered set;
//     readers filter with acquire loads. Stale reads are monotone-safe: a
//     query may return a point removed *during* the query, never one whose
//     removal happened-before the query began.
//
// By default maintenance runs inline at the thresholds (standalone indexes
// keep the old synchronous behavior); ShardedEngine switches the index to
// deferred maintenance and drives RunMaintenance() from its pool.

#ifndef HYBRIDLSH_ENGINE_SEGMENTED_INDEX_H_
#define HYBRIDLSH_ENGINE_SEGMENTED_INDEX_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "core/cost_model.h"
#include "data/dataset.h"
#include "engine/options.h"
#include "hll/hyperloglog.h"
#include "lsh/index.h"
#include "lsh/table.h"
#include "util/bit_vector.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hybridlsh {
namespace engine {

/// Default dataset container for a family's Point type (so that
/// SegmentedIndex<Family> / ShardedEngine<Family> work without naming the
/// container).
template <typename Point>
struct DefaultDataset;
template <>
struct DefaultDataset<const float*> {
  using type = data::DenseDataset;
};
template <>
struct DefaultDataset<const uint64_t*> {
  using type = data::BinaryDataset;
};
template <>
struct DefaultDataset<std::span<const uint32_t>> {
  using type = data::SparseDataset;
};

/// Appends one point to the container, matching the container's own Append
/// surface. The uniform Status signature is what SegmentedIndex::Insert
/// uses across representations. The point is staged through a thread-local
/// buffer first: callers routinely insert a point that aliases the
/// dataset's own storage (e.g. re-inserting dataset.point(i)), which the
/// growth reallocation would otherwise invalidate mid-copy. A dense point
/// with a NaN or infinite coordinate is rejected before anything changes.
inline util::Status AppendDatasetPoint(data::DenseDataset* dataset,
                                       const float* point) {
  if (dataset->dim() == 0) {
    return util::Status::InvalidArgument(
        "cannot append to a dense dataset without a dimension");
  }
  if (!data::IsFinitePoint(point, dataset->dim())) {
    return util::Status::InvalidArgument("point coordinates must be finite");
  }
  static thread_local std::vector<float> buffer;
  buffer.assign(point, point + dataset->dim());
  dataset->Append(buffer);
  return util::Status::Ok();
}
inline util::Status AppendDatasetPoint(data::BinaryDataset* dataset,
                                       const uint64_t* code) {
  if (dataset->width_bits() == 0) {
    return util::Status::InvalidArgument(
        "cannot append to a binary dataset without a code width");
  }
  static thread_local std::vector<uint64_t> buffer;
  buffer.assign(code, code + dataset->words_per_code());
  dataset->Append(buffer.data());
  return util::Status::Ok();
}
inline util::Status AppendDatasetPoint(data::SparseDataset* dataset,
                                       std::span<const uint32_t> point) {
  static thread_local std::vector<uint32_t> buffer;
  buffer.assign(point.begin(), point.end());
  return dataset->Append(buffer);
}

/// The running state of one bounded walk (SegmentedIndex's
/// SegmentSnapshot::BoundedWalk) against the decision bounds of its shard
/// (core::DecisionBounds): the collisions counted so far, each table's
/// probed total and their maximum `lower`, and whether the upper bound
/// still holds. While it holds the walk collects ids; once it fails (c only
/// grows, so it never holds again) the walk only counts, and stops as soon
/// as the lower bound settles linear.
class BoundedWalkState {
 public:
  /// Starts a walk of `num_tables` tables; `table_totals` is reusable
  /// scratch.
  BoundedWalkState(const core::DecisionBounds& bounds, size_t num_tables,
                   std::vector<uint64_t>* table_totals)
      : bounds_(&bounds), totals_(table_totals) {
    totals_->assign(num_tables, 0);
  }

  /// Re-tests the bounds at the current counts. Returns true when the
  /// lower bound settles linear: the walk stops.
  bool Settle() {
    if (collecting_) collecting_ = bounds_->UpperSettlesLsh(collisions_);
    return !collecting_ && bounds_->LowerSettlesLinear(collisions_, lower_);
  }

  /// Counts `n` more collisions in table t, then Settle()s.
  bool Add(size_t t, uint64_t n) {
    if (n == 0) return false;  // nothing moved since the last Settle
    collisions_ += n;
    uint64_t& total = (*totals_)[t];
    total += n;
    lower_ = std::max(lower_, total);
    return Settle();
  }

  bool collecting() const { return collecting_; }
  uint64_t collisions() const { return collisions_; }
  uint64_t lower() const { return lower_; }

 private:
  const core::DecisionBounds* bounds_;
  std::vector<uint64_t>* totals_;
  uint64_t collisions_ = 0;
  uint64_t lower_ = 0;
  bool collecting_ = true;
};

/// Fixed-capacity, insert-only chained-hash log over L tables: the active
/// segment of a SegmentedIndex. One writer appends entries; any number of
/// readers walk buckets concurrently with no locks.
///
/// Layout: per table t, entry i stores its bucket key at keys_[t*cap + i]
/// and a chain link at next_[t*cap + i]; bucket heads are atomic entry
/// indexes. The writer fills an entry's id, keys, and links, then
/// release-stores each table's bucket head — a reader that acquires a head
/// therefore sees every field of every entry on the chain. Chains list
/// entries in descending insertion order, so a reader bounding itself to a
/// count snapshot skips newer entries and never reads a slot that is still
/// being filled. All storage is allocated up front (capacity entries), so
/// appends never reallocate under readers. Keys, links and ids stay in
/// three split arrays: an interleaved 16-byte node per entry was measured
/// to double the walk over a dense core's long chains.
///
/// Readers replay a query's ProbePlan through one memory-parallel walker
/// (WalkProbedChains): the head of every probe is prefetched first, then
/// heads are acquire-loaded a window of probes at a time, and each chain's
/// first entry is prefetched before any chain of the window is walked. The
/// walker hands out entry indexes, so the estimate's fold can skip entries
/// it already folded: a query whose buckets hold the same entries in many
/// tables hashes each entry once, not once per table.
class ActiveLshLog {
 public:
  ActiveLshLog(size_t num_tables, size_t capacity)
      : num_tables_(num_tables), capacity_(capacity) {
    HLSH_CHECK(num_tables >= 1 && capacity >= 1);
    size_t buckets = 8;
    while (buckets < 2 * capacity) buckets *= 2;
    buckets_per_table_ = buckets;
    bucket_mask_ = buckets - 1;
    keys_.resize(num_tables * capacity);
    next_.resize(num_tables * capacity);
    ids_.resize(capacity);
    heads_ = std::make_unique<std::atomic<int32_t>[]>(num_tables * buckets);
    for (size_t i = 0; i < num_tables * buckets; ++i) {
      heads_[i].store(-1, std::memory_order_relaxed);
    }
  }

  ActiveLshLog(const ActiveLshLog&) = delete;
  ActiveLshLog& operator=(const ActiveLshLog&) = delete;

  size_t capacity() const { return capacity_; }
  size_t num_tables() const { return num_tables_; }
  bool full() const { return size() >= capacity_; }

  /// Published entry count (relaxed; monotone under one writer).
  size_t size() const { return count_.load(std::memory_order_relaxed); }
  /// Published entry count; entries below it are fully visible afterwards.
  size_t size_acquire() const {
    return count_.load(std::memory_order_acquire);
  }

  /// Appends one entry (id + its L bucket keys). Writer-only; requires
  /// !full(). Readers see the entry through the bucket heads (release) and
  /// the count (release).
  void Append(std::span<const uint64_t> keys, uint32_t id) {
    const size_t i = count_.load(std::memory_order_relaxed);
    HLSH_DCHECK(i < capacity_ && keys.size() == num_tables_);
    ids_[i] = id;
    for (size_t t = 0; t < num_tables_; ++t) {
      keys_[t * capacity_ + i] = keys[t];
    }
    for (size_t t = 0; t < num_tables_; ++t) {
      std::atomic<int32_t>& head = heads_[BucketSlot(t, keys[t])];
      next_[t * capacity_ + i] = head.load(std::memory_order_relaxed);
      head.store(static_cast<int32_t>(i), std::memory_order_release);
    }
    count_.store(i + 1, std::memory_order_release);
  }

  /// id of entry i (i below a count snapshot).
  uint32_t id(size_t i) const { return ids_[i]; }
  /// Bucket key of entry i in table t.
  uint64_t key(size_t t, size_t i) const { return keys_[t * capacity_ + i]; }

  /// Alg. 2 estimate contribution over entries [0, limit): adds probed
  /// collision counts and folds probed ids into *scratch (active buckets
  /// have no sketches — §3.2 on-demand folding). Per-table plan keys are
  /// already unique, so the walk is a straight replay. Every match counts
  /// as a collision, but an entry is hashed and folded only the first time
  /// the walk meets it: a dense core meets the same entries in many of the
  /// L tables, and HLL max is idempotent, so the registers are the same as
  /// folding every match. The per-entry bitmap is thread-private scratch,
  /// cleared for each call.
  void AccumulateProbe(const lsh::ProbePlan& plan, size_t limit,
                       hll::HyperLogLog* scratch, uint64_t* collisions) const {
    thread_local std::vector<uint64_t> folded;
    folded.assign((limit + 63) / 64, 0);
    uint64_t* const folded_words = folded.data();
    WalkProbedChains(plan, limit, [&](size_t entry) {
      ++*collisions;
      uint64_t& word = folded_words[entry >> 6];
      const uint64_t bit = uint64_t{1} << (entry & 63);
      if ((word & bit) != 0) return;
      word |= bit;
      scratch->AddPoint(ids_[entry]);
    });
  }

  /// The log's part of a bounded walk over entries [0, limit), and its S2:
  /// counts every probed match into *walk one chain at a time, and dedups
  /// a chain's live ids into *visited (tombstoned ids are counted but not
  /// inserted) when the walk was still collecting as the chain began.
  /// Returns true when the walk stopped: the lower bound settled after
  /// some chain.
  bool BoundedProbe(const lsh::ProbePlan& plan, size_t limit,
                    BoundedWalkState* walk, util::VisitedSet* visited,
                    const util::BitVector* tombstones) const {
    bool collect = walk->collecting();
    uint64_t matches = 0;
    return WalkProbedChains(
        plan, limit,
        [&](size_t entry) {
          ++matches;
          if (collect) Collect(entry, visited, tombstones);
        },
        [&](size_t t) {
          const bool stop = walk->Add(t, matches);
          matches = 0;
          collect = walk->collecting();
          return stop;
        });
  }

  /// Heap bytes of the log's fixed storage.
  size_t MemoryBytes() const {
    return keys_.capacity() * sizeof(uint64_t) +
           next_.capacity() * sizeof(int32_t) +
           ids_.capacity() * sizeof(uint32_t) +
           num_tables_ * buckets_per_table_ * sizeof(std::atomic<int32_t>);
  }

 private:
  size_t BucketSlot(size_t t, uint64_t key) const {
    // Keys are already avalanched 64-bit hashes (lsh::SignatureKey); fold
    // the high half in so masking stays well distributed.
    return t * buckets_per_table_ +
           (static_cast<size_t>(key ^ (key >> 32)) & bucket_mask_);
  }

  void Collect(size_t entry, util::VisitedSet* visited,
               const util::BitVector* tombstones) const {
    const uint32_t id = ids_[entry];
    if (tombstones == nullptr || !tombstones->TestAcquire(id)) {
      visited->Insert(id);
    }
  }

  /// Calls fn(entry) for every entry below `limit` in the bucket of every
  /// (table, key) of `plan`, in plan order (table-major, then probe order),
  /// each chain newest first, and chain_done(t) after each probe's chain
  /// (t its table); a true return from chain_done ends the walk, and the
  /// walker returns whether that happened. The prefetching (see the class
  /// comment) runs in windows of lsh::internal::kProbeWindow probes and
  /// never changes that order.
  template <typename Fn, typename ChainDone>
  bool WalkProbedChains(const lsh::ProbePlan& plan, size_t limit, Fn&& fn,
                        ChainDone&& chain_done) const {
    HLSH_DCHECK(plan.num_tables() == num_tables_);
    constexpr size_t kWindow = lsh::internal::kProbeWindow;
    for (size_t t = 0; t < num_tables_; ++t) {
      for (const uint64_t key : plan.TableKeys(t)) {
        __builtin_prefetch(&heads_[BucketSlot(t, key)]);
      }
    }
    const size_t num_keys = plan.keys.size();
    int32_t heads[kWindow];
    size_t tables[kWindow];  // each probe's table
    size_t bases[kWindow];   // t * capacity_ of each probe's table
    size_t t = 0;            // table of the next probe to resolve
    for (size_t window = 0; window < num_keys; window += kWindow) {
      const size_t n = std::min(kWindow, num_keys - window);
      for (size_t w = 0; w < n; ++w) {
        while (window + w >= plan.table_offsets[t + 1]) ++t;
        tables[w] = t;
        bases[w] = t * capacity_;
        heads[w] = heads_[BucketSlot(t, plan.keys[window + w])].load(
            std::memory_order_acquire);
        if (heads[w] >= 0) {
          const size_t first = bases[w] + static_cast<size_t>(heads[w]);
          __builtin_prefetch(&keys_[first]);
          __builtin_prefetch(&next_[first]);
          __builtin_prefetch(&ids_[static_cast<size_t>(heads[w])]);
        }
      }
      for (size_t w = 0; w < n; ++w) {
        const uint64_t key = plan.keys[window + w];
        for (int32_t i = heads[w]; i >= 0;
             i = next_[bases[w] + static_cast<size_t>(i)]) {
          const size_t entry = static_cast<size_t>(i);
          if (entry >= limit) continue;  // appended after the caller's snapshot
          if (keys_[bases[w] + entry] == key) fn(entry);
        }
        if (chain_done(tables[w])) return true;
      }
    }
    return false;
  }
  template <typename Fn>
  void WalkProbedChains(const lsh::ProbePlan& plan, size_t limit,
                        Fn&& fn) const {
    WalkProbedChains(plan, limit, fn, [](size_t) { return false; });
  }

  size_t num_tables_;
  size_t capacity_;
  size_t buckets_per_table_ = 0;
  size_t bucket_mask_ = 0;
  std::vector<uint64_t> keys_;  // [t * capacity + i]
  std::vector<int32_t> next_;   // [t * capacity + i]
  std::vector<uint32_t> ids_;   // [i]
  std::unique_ptr<std::atomic<int32_t>[]> heads_;  // [t * buckets + slot]
  std::atomic<size_t> count_{0};
};

/// Reusable scratch of SegmentSnapshot::BoundedWalk, one per query
/// context slot: the sealed buckets its first step resolves (which
/// CollectWalked reuses), and each table's probed total.
struct BoundedWalkScratch {
  std::vector<lsh::LshTable::BucketView> resolved;
  std::vector<uint64_t> table_totals;
};

/// What one SegmentSnapshot::BoundedWalk learned.
struct BoundedWalkResult {
  /// Collisions counted: all of them unless the walk stopped.
  uint64_t collisions = 0;
  /// The largest per-table probed total: a lower bound on the distinct
  /// candidates (tombstoned ids included).
  uint64_t lower = 0;
  /// The lower bound settled linear before the walk reached the end.
  bool stopped = false;
  /// The upper bound held throughout: every probed live id is in the
  /// visited set, in the order an unbounded walk inserts them.
  bool collected = false;
};

/// A frozen segment: L CSR tables with sketches plus its live-at-seal id
/// list (ascending; later tombstones are filtered on read). Immutable once
/// published in a SegmentListView.
struct LshSegment {
  std::vector<lsh::LshTable> tables;
  std::vector<uint32_t> ids;

  /// True when the (ascending) ids are one run [ids.front(), ids.back()] —
  /// an initial range segment, or a sealed log of a one-shard engine.
  bool contiguous() const {
    return !ids.empty() &&
           static_cast<size_t>(ids.back() - ids.front()) + 1 == ids.size();
  }

  size_t MemoryBytes() const {
    size_t total = ids.capacity() * sizeof(uint32_t);
    for (const lsh::LshTable& table : tables) total += table.MemoryBytes();
    return total;
  }
};

/// The epoch-published segment list: an immutable snapshot of which
/// segments and logs exist. Readers hold it by shared_ptr (the epoch);
/// writers install a new list and the old one is reclaimed when the last
/// reader drains.
struct SegmentListView {
  std::vector<std::shared_ptr<const LshSegment>> sealed;
  /// Filled logs awaiting a seal pass, oldest first. Queried as-is.
  std::vector<std::shared_ptr<const ActiveLshLog>> frozen;
  /// The log the writer currently appends to (never null; entries keep
  /// appearing in it after this view is published — readers bound
  /// themselves by a count snapshot).
  std::shared_ptr<const ActiveLshLog> active;
};

/// Mutable LSH index over a (possibly growing) dataset (see file comment):
/// the shard index of engine::ShardedEngine. Queries run on a
/// SegmentSnapshot (Acquire / AcquireCached) — plan walks, the summed
/// estimate, and the linear scan's live ids; the lifecycle surface is
/// Insert, Remove, SealActive, Compact and the maintenance hooks.
template <typename Family,
          typename Dataset =
              typename DefaultDataset<typename Family::Point>::type>
class SegmentedIndex {
 public:
  using Point = typename Family::Point;

  /// Lifecycle observability. All counters are atomic snapshots — safe to
  /// read while writers and maintenance run.
  struct LifecycleStats {
    size_t live_points = 0;      // reported by queries
    size_t indexed_points = 0;   // live + tombstoned-but-not-yet-compacted
    size_t active_points = 0;    // in the active log
    size_t pending_seal_logs = 0;  // frozen logs awaiting a seal pass
    size_t sealed_segments = 0;
    size_t tombstones = 0;       // dead ids still occupying buckets
    size_t compactions = 0;      // lifetime count
    double last_compact_seconds = 0.0;
    size_t memory_bytes = 0;
  };

  /// A consistent, immutable handle on the index for one query: the
  /// segment list view plus a count snapshot of the (still-growing) active
  /// log and the id bound every contained id is below. Acquiring is one
  /// atomic shared_ptr load; all query methods on it are lock-free and safe
  /// concurrently with Insert/Remove/maintenance.
  class SegmentSnapshot {
   public:
    /// The one bucket walk of a shard decision (ShardedEngine::QueryShard),
    /// against `bounds` (core::DecisionBounds), in three steps:
    ///
    ///   1. every probed bucket of every sealed segment is resolved from
    ///      the directories alone (lsh::ResolveProbedBuckets): no id is
    ///      read, and the collisions and per-table totals accumulate;
    ///   2. if the upper bound still holds, the resolved buckets' ids are
    ///      dedup'd into *visited in plan order (lsh::CollectResolvedIds);
    ///   3. the frozen and active logs' chains are walked: every match is
    ///      counted, and dedup'd while the upper bound holds.
    ///
    /// After each table of step 1 and each chain of step 3 the bounds are
    /// re-tested, and the walk stops as soon as the lower bound settles
    /// linear. So a linear-settled walk reads at most the ids dedup'd
    /// before the upper bound failed, and a walk the upper bound settles
    /// has collected every candidate: S2, whose touched() list is the flat
    /// candidate buffer block verification consumes (core/kernels.h).
    /// *visited must be empty and span id_bound(). Tombstoned ids count as
    /// collisions (their probe cost was paid) but are never inserted, so
    /// S3 only verifies live candidates.
    BoundedWalkResult BoundedWalk(const lsh::ProbePlan& plan,
                                  const core::DecisionBounds& bounds,
                                  BoundedWalkScratch* scratch,
                                  util::VisitedSet* visited) const {
      BoundedWalkState walk(bounds, plan.num_tables(),
                            &scratch->table_totals);
      scratch->resolved.clear();
      bool stopped = walk.Settle();
      for (const auto& segment : view_->sealed) {
        if (stopped) break;
        stopped = lsh::ResolveProbedBuckets(
            segment->tables, plan, &scratch->resolved,
            [&](size_t t, uint64_t probed) { return walk.Add(t, probed); });
      }
      if (!stopped) {
        stopped = CollectResolved(plan, scratch->resolved, &walk, visited);
      }
      BoundedWalkResult result;
      result.collisions = walk.collisions();
      result.lower = walk.lower();
      result.stopped = stopped;
      result.collected = walk.collecting();
      return result;
    }

    /// Collects every candidate after a BoundedWalk that ran to the end
    /// without collecting them (an LSH decision taken in the gap between
    /// the bounds): the sealed buckets the walk resolved into *scratch are
    /// dedup'd with no second directory lookup, then the logs' chains are
    /// walked again with no bound. *visited must be empty; it ends as an
    /// unbounded BoundedWalk leaves it.
    void CollectWalked(const lsh::ProbePlan& plan, BoundedWalkScratch* scratch,
                       util::VisitedSet* visited) const {
      const core::DecisionBounds unbounded = NoBounds();
      BoundedWalkState walk(unbounded, plan.num_tables(),
                            &scratch->table_totals);
      CollectResolved(plan, scratch->resolved, &walk, visited);
    }

    /// S2 with no bound: an unbounded BoundedWalk, returning the exact
    /// collision count.
    uint64_t CollectCandidates(const lsh::ProbePlan& plan,
                               util::VisitedSet* visited) const {
      BoundedWalkScratch scratch;
      return BoundedWalk(plan, NoBounds(), &scratch, visited).collisions;
    }

    /// Sums the Alg. 2 lines 1-2 estimate across every segment, replaying
    /// one ProbePlan against each: collisions exactly, candSize from ONE
    /// merged HLL (sketches from sealed buckets, on-demand folding for
    /// small/active buckets). Tombstoned ids are still counted — apply
    /// CostModel's tombstone correction with the live fraction before
    /// comparing against the linear cost. The engine merges only when
    /// BoundedWalk's bounds leave its decision open.
    lsh::ProbeEstimate EstimateProbe(const lsh::ProbePlan& plan,
                                     hll::HyperLogLog* scratch) const {
      scratch->Clear();
      lsh::ProbeEstimate estimate;
      for (const auto& segment : view_->sealed) {
        lsh::AccumulateProbe(segment->tables, plan, scratch,
                             &estimate.collisions);
      }
      for (const auto& log : view_->frozen) {
        log->AccumulateProbe(plan, log->size_acquire(), scratch,
                             &estimate.collisions);
      }
      if (active_count_ > 0) {
        view_->active->AccumulateProbe(plan, active_count_, scratch,
                                       &estimate.collisions);
      }
      estimate.cand_estimate =
          estimate.collisions == 0 ? 0.0 : scratch->Estimate();
      return estimate;
    }

    /// The linear scan's id source: appends the snapshot's live ids to *ids
    /// in segment order (ascending within a sealed segment), only those set
    /// in `filter` when one is pushed down (ids past its bound fail). The
    /// filtered output is a subsequence of the unfiltered one, so pushdown
    /// results are bit-identical to post-filtering. A sealed segment whose
    /// ids are one contiguous run skips the per-id tombstone test: its ids
    /// are read word by word, from the tombstone words (each loaded once
    /// with acquire ordering; a word with no tombstone appends its 64 ids
    /// whole) or from the filter's words, which already exclude the filter
    /// stage's tombstones (BuildFilterContext). Other segments and the logs
    /// test each id.
    void GatherLiveIds(const util::BitVector* filter,
                       std::vector<uint32_t>* ids) const {
      auto gather = [&](uint32_t id) {
        if (tombstones_->TestAcquire(id)) return;
        if (filter != nullptr && (id >= filter->size() || !filter->Get(id))) {
          return;
        }
        ids->push_back(id);
      };
      for (const auto& segment : view_->sealed) {
        if (segment->contiguous()) {
          const size_t begin = segment->ids.front();
          const size_t end = begin + segment->ids.size();
          if (filter != nullptr) {
            filter->ForEachSetBitInRange(begin, end, [&](size_t id) {
              ids->push_back(static_cast<uint32_t>(id));
            });
          } else {
            tombstones_->AppendClearBitsAcquire(begin, end, ids);
          }
          continue;
        }
        for (const uint32_t id : segment->ids) gather(id);
      }
      for (const auto& log : view_->frozen) {
        const size_t n = log->size_acquire();
        for (size_t i = 0; i < n; ++i) gather(log->id(i));
      }
      for (size_t i = 0; i < active_count_; ++i) gather(view_->active->id(i));
    }

    /// Every id visible through this snapshot is below this bound (sizes a
    /// VisitedSet / result buffer).
    size_t id_bound() const { return id_bound_; }

    /// The active log's entries this snapshot sees: its walks stop at this
    /// count even while the writer keeps appending.
    size_t active_count() const { return active_count_; }

    const SegmentListView& view() const { return *view_; }

   private:
    friend class SegmentedIndex;

    /// Bounds under which a walk collects every id and never stops.
    static core::DecisionBounds NoBounds() {
      return core::DecisionBounds::AlwaysLsh(core::CostModel{},
                                             core::LiveStats{});
    }

    /// Steps 2 and 3 of BoundedWalk, once step 1 has resolved every sealed
    /// bucket into `resolved`. Returns whether the lower bound stopped the
    /// walk.
    bool CollectResolved(const lsh::ProbePlan& plan,
                         std::span<const lsh::LshTable::BucketView> resolved,
                         BoundedWalkState* walk,
                         util::VisitedSet* visited) const {
      if (walk->collecting()) {
        lsh::CollectResolvedIds(resolved, visited, tombstones_);
      }
      for (const auto& log : view_->frozen) {
        if (log->BoundedProbe(plan, log->size_acquire(), walk, visited,
                              tombstones_)) {
          return true;
        }
      }
      return active_count_ > 0 &&
             view_->active->BoundedProbe(plan, active_count_, walk, visited,
                                         tombstones_);
    }

    std::shared_ptr<const SegmentListView> view_;
    const util::BitVector* tombstones_ = nullptr;
    size_t active_count_ = 0;
    size_t id_bound_ = 0;
  };

  /// Builds an index whose initial sealed segment covers the `count` points
  /// of *dataset starting at `base` (global ids [base, base + count): a
  /// shard's range, or the whole dataset for a static table set). count ==
  /// 0 starts empty — the streaming-from-zero case. The dataset is retained
  /// by pointer; pass the same pointer to EnableUpdates to allow Insert.
  ///
  /// `shared_tombstones` lets several indexes over one dataset (the shards
  /// of a ShardedEngine) share a single delete bitmap instead of each
  /// holding a dataset-sized one; nullptr makes the index own its bitmap.
  /// A shared bitmap must outlive every index using it, and ids must be
  /// routed so that one index owns each id (tombstone *counts* stay
  /// per-index).
  static util::StatusOr<SegmentedIndex> Build(
      Family family, const Dataset* dataset, size_t base, size_t count,
      const EngineOptions& options,
      util::BitVector* shared_tombstones = nullptr) {
    if (dataset == nullptr) {
      return util::Status::InvalidArgument("dataset pointer is null");
    }
    if (base + count > dataset->size()) {
      return util::Status::InvalidArgument(
          "segment range exceeds the dataset");
    }
    HLSH_RETURN_IF_ERROR(ValidateOptions(options));
    if (dataset->size() > static_cast<size_t>(UINT32_MAX)) {
      return util::Status::InvalidArgument("dataset exceeds 2^32-1 points");
    }

    auto functions = lsh::FunctionSet<Family>::Sample(
        std::move(family), options.num_tables, options.k, options.delta,
        options.radius, options.seed);
    if (!functions.ok()) return functions.status();

    SegmentedIndex index(std::move(*functions));
    index.dataset_ = dataset;
    index.options_ = options;
    index.id_base_ = static_cast<uint32_t>(base);
    index.initial_count_ = count;
    index.build_n_ = dataset->size();
    index.table_options_.hll_precision = options.hll_precision;
    index.table_options_.small_bucket_threshold =
        options.small_bucket_threshold;
    if (shared_tombstones != nullptr) {
      index.tombstones_ = shared_tombstones;
    } else {
      index.owned_tombstones_ = std::make_unique<util::BitVector>();
      index.tombstones_ = index.owned_tombstones_.get();
    }
    index.tombstones_->Grow(dataset->size());

    auto view = std::make_shared<SegmentListView>();
    if (count > 0) {
      auto segment = std::make_shared<LshSegment>();
      segment->tables.resize(static_cast<size_t>(options.num_tables));
      lsh::LshTable::Options table_options = index.table_options_;
      table_options.id_base = static_cast<uint32_t>(base);
      util::ParallelFor(
          0, segment->tables.size(), index.build_threads(), [&](size_t t) {
            std::vector<int32_t> slots;
            std::vector<uint64_t> keys(count);
            for (size_t i = 0; i < count; ++i) {
              keys[i] = index.functions_.SignatureKey(
                  dataset->point(base + i), t, &slots);
            }
            segment->tables[t].Build(keys, table_options);
          });
      segment->ids.resize(count);
      for (size_t i = 0; i < count; ++i) {
        segment->ids[i] = static_cast<uint32_t>(base + i);
      }
      view->sealed.push_back(std::move(segment));
      index.live_dead_.store(static_cast<uint64_t>(count) * kLiveOne,
                             std::memory_order_relaxed);
    }
    view->active = index.MakeLog();
    index.active_writer_ = const_cast<ActiveLshLog*>(view->active.get());
    {
      std::lock_guard<std::mutex> lock(index.sync_->publish_mu);
      index.PublishViewLocked(std::move(view));
    }
    return index;
  }

  SegmentedIndex(const SegmentedIndex&) = delete;
  SegmentedIndex& operator=(const SegmentedIndex&) = delete;

  // Moves are build-time operations: neither operand may be under
  // concurrent access (StatusOr plumbing and engine assembly).
  SegmentedIndex(SegmentedIndex&& other) noexcept
      : dataset_(other.dataset_),
        mutable_dataset_(other.mutable_dataset_),
        options_(std::move(other.options_)),
        functions_(std::move(other.functions_)),
        table_options_(other.table_options_),
        active_writer_(other.active_writer_),
        sync_(std::move(other.sync_)),
        owned_tombstones_(std::move(other.owned_tombstones_)),
        tombstones_(owned_tombstones_ != nullptr ? owned_tombstones_.get()
                                                 : other.tombstones_),
        deferred_maintenance_(other.deferred_maintenance_),
        id_base_(other.id_base_),
        initial_count_(other.initial_count_),
        build_n_(other.build_n_) {
    view_ = std::move(other.view_);
    view_version_.store(
        other.view_version_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    live_dead_.store(other.live_dead_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    compactions_.store(other.compactions_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    last_compact_seconds_.store(
        other.last_compact_seconds_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    maintenance_inflight_.store(false, std::memory_order_relaxed);
  }
  SegmentedIndex& operator=(SegmentedIndex&& other) noexcept {
    if (this != &other) {
      this->~SegmentedIndex();
      new (this) SegmentedIndex(std::move(other));
    }
    return *this;
  }

  /// Arms Insert: `dataset` must be the pointer Build was given. Separated
  /// from Build so read-only callers can keep handing out const datasets.
  util::Status EnableUpdates(Dataset* dataset) {
    if (dataset != dataset_) {
      return util::Status::InvalidArgument(
          "mutable dataset does not match the indexed dataset");
    }
    mutable_dataset_ = dataset;
    return util::Status::Ok();
  }
  bool updates_enabled() const { return mutable_dataset_ != nullptr; }

  /// Deferred mode hands freeze-triggered seal/compaction to an external
  /// driver (ShardedEngine's background workers) instead of running them
  /// inline: Insert only swaps logs, and the caller polls
  /// needs_maintenance() / calls RunMaintenance(). Inline mode (default)
  /// preserves the synchronous standalone behavior.
  void SetDeferredMaintenance(bool deferred) {
    deferred_maintenance_ = deferred;
  }

  /// Whether background work is pending: frozen logs to seal, or a sealed
  /// segment count past the compaction watermark.
  bool needs_maintenance() const {
    const auto view = AcquireViewPtr();
    return !view->frozen.empty() ||
           (options_.max_sealed_segments > 0 &&
            view->sealed.size() > options_.max_sealed_segments);
  }

  /// One maintenance pass: seals every frozen log, then compacts if the
  /// sealed count exceeds the watermark. Safe concurrently with readers
  /// and with the (externally serialized) writer; at most one maintenance
  /// pass may run at a time per index (callers rate-limit — ShardedEngine
  /// keeps one in flight per shard).
  void RunMaintenance() {
    std::lock_guard<std::mutex> lock(sync_->maintenance_mu);
    SealFrozenLocked();
    if (options_.max_sealed_segments > 0 &&
        AcquireViewPtr()->sealed.size() > options_.max_sealed_segments) {
      CompactLocked();
    }
  }

  /// True while an engine-scheduled maintenance task is queued or running
  /// (the engine's one-in-flight rate limit; not used by the index itself).
  std::atomic<bool>& maintenance_inflight() const {
    return maintenance_inflight_;
  }

  /// Appends the point to the dataset and indexes it in the active log.
  /// Returns the new global id. At the seal threshold the log is frozen
  /// and — unless deferred maintenance is armed — sealed (and maybe
  /// compacted) inline.
  util::StatusOr<uint32_t> Insert(Point point) {
    if (mutable_dataset_ == nullptr) {
      return util::Status::FailedPrecondition(
          "index is read-only: EnableUpdates was not called with the "
          "mutable dataset");
    }
    if (dataset_->size() >= static_cast<size_t>(UINT32_MAX) + 1) {
      return util::Status::InvalidArgument(
          "dataset is at the 32-bit id limit");
    }
    const uint32_t id = static_cast<uint32_t>(dataset_->size());
    HLSH_RETURN_IF_ERROR(AppendDatasetPoint(mutable_dataset_, point));
    tombstones_->Grow(dataset_->size());
    // Hash the stored copy: `point` may alias dataset memory whose growth
    // Append just retired.
    insert_keys_.resize(functions_.num_tables());
    for (size_t t = 0; t < insert_keys_.size(); ++t) {
      insert_keys_[t] =
          functions_.SignatureKey(dataset_->point(id), t, &insert_slots_);
    }
    active_writer_->Append(insert_keys_, id);
    live_dead_.fetch_add(kLiveOne, std::memory_order_relaxed);
    if (active_writer_->full()) {
      FreezeActive();
      if (!deferred_maintenance_) {
        RunMaintenance();
      } else if (AcquireViewPtr()->frozen.size() >= kMaxFrozenLogs) {
        // Backpressure: the background driver is not keeping up; seal one
        // log on the ingest thread so frozen logs stay bounded.
        std::lock_guard<std::mutex> lock(sync_->maintenance_mu);
        SealFrozenLocked();
      }
    }
    return id;
  }

  /// Tombstones one id this index owns. Ids below the dataset size at
  /// Build must fall in the initial [base, base + count) range; later ids
  /// were inserted through *some* index over this dataset, and the caller
  /// routes them to the owning one (ShardedEngine::Remove does). Removing
  /// an already-dead id is a no-op. Safe concurrently with readers and
  /// maintenance (release-ordered tombstone set).
  util::Status Remove(uint32_t id) {
    tombstones_->Grow(dataset_->size());
    if (id >= tombstones_->size()) {
      return util::Status::InvalidArgument("id out of range");
    }
    if (id < build_n_ &&
        (id < id_base_ || id >= id_base_ + initial_count_)) {
      return util::Status::InvalidArgument(
          "id is not in this index's initial range");
    }
    if (tombstones_->Get(id)) return util::Status::Ok();
    tombstones_->SetConcurrent(id);
    // One RMW moves the id from live to dead: a concurrent live_stats()
    // load sees both fields change together (unsigned wrap subtracts the
    // high half cleanly — the fields cannot borrow into each other while
    // live > 0, which Remove guarantees for an untombstoned owned id).
    live_dead_.fetch_add(kDeadOne - kLiveOne, std::memory_order_relaxed);
    return util::Status::Ok();
  }

  /// Freezes the active log and seals every frozen log into CSR segments
  /// (public so callers can force sketches into existence before a
  /// read-heavy phase, and the precondition for SaveTo).
  void SealActive() {
    FreezeActive();
    std::lock_guard<std::mutex> lock(sync_->maintenance_mu);
    SealFrozenLocked();
  }

  /// Merges all sealed segments (sealing the active/frozen logs first)
  /// into one fresh sealed segment, dropping tombstoned ids and rebuilding
  /// sketches. Entries are exported and regrouped — no point is rehashed.
  void Compact() {
    FreezeActive();
    std::lock_guard<std::mutex> lock(sync_->maintenance_mu);
    SealFrozenLocked();
    CompactLocked();
  }

  // --- Lock-free query surface. ------------------------------------------

  /// Acquires a consistent snapshot for one query (one atomic shared_ptr
  /// load plus two count loads).
  SegmentSnapshot Acquire() const {
    SegmentSnapshot snapshot;
    snapshot.view_ = AcquireViewPtr();
    snapshot.tombstones_ = tombstones_;
    snapshot.active_count_ = snapshot.view_->active->size_acquire();
    // Read the dataset size AFTER the count acquires above: every id
    // published into the snapshot was appended to the dataset first, so
    // this load is guaranteed to cover them.
    snapshot.id_bound_ = dataset_->size();
    return snapshot;
  }

  /// Monotone counter bumped on every segment-list publication; callers
  /// may cache a SegmentSnapshot and re-acquire only when this changes
  /// (ShardedEngine's per-scratch view cache).
  uint64_t view_version() const {
    return view_version_.load(std::memory_order_acquire);
  }

  /// Acquire() with a caller-held cache: the shared_ptr load (an atomic RMW
  /// on the refcount, plus a library-internal lock in libstdc++'s
  /// atomic<shared_ptr>) only happens when the segment list actually
  /// changed, so a steady-state query costs two plain atomic loads. The
  /// version is read BEFORE the view, so a publication racing this call can
  /// only make the cache conservatively stale (re-acquired next call),
  /// never wrongly fresh. Counts are refreshed every call — the active log
  /// grows without a version bump.
  void AcquireCached(SegmentSnapshot* snapshot,
                     uint64_t* cached_version) const {
    const uint64_t version = view_version();
    if (snapshot->view_ == nullptr || *cached_version != version) {
      snapshot->view_ = AcquireViewPtr();
      snapshot->tombstones_ = tombstones_;
      *cached_version = version;
    }
    snapshot->active_count_ = snapshot->view_->active->size_acquire();
    snapshot->id_bound_ = dataset_->size();
  }

  /// S1, hash-once form (see lsh::FunctionSet::ComputePlan). The plan is
  /// valid for every snapshot of this index — segments share the one
  /// FunctionSet — and for any other index sampled with the same
  /// (family, num_tables, k, seed).
  util::Status ComputePlan(Point query, size_t probes_per_table,
                           lsh::PlanScratch* scratch,
                           lsh::ProbePlan* plan) const {
    return functions_.ComputePlan(query, probes_per_table, scratch, plan);
  }
  util::Status ComputePlanBatch(const Point* queries, size_t count,
                                size_t probes_per_table,
                                lsh::PlanScratch* scratch,
                                lsh::ProbePlan* plans) const {
    return functions_.ComputePlanBatch(queries, count, probes_per_table,
                                       scratch, plans);
  }

  bool is_live(uint32_t id) const {
    return id >= tombstones_->size() || !tombstones_->TestAcquire(id);
  }

  double Distance(Point a, Point b) const {
    return functions_.family().Distance(a, b);
  }
  const Family& family() const { return functions_.family(); }
  const lsh::FunctionSet<Family>& functions() const { return functions_; }
  int k() const { return functions_.k(); }
  int num_tables() const {
    return static_cast<int>(functions_.num_tables());
  }
  uint32_t id_base() const { return id_base_; }
  const EngineOptions& options() const { return options_; }
  /// Threads this index builds and compacts its tables on: its shard's
  /// share of the engine's pool.
  size_t build_threads() const {
    return std::max<size_t>(1, options_.num_threads / options_.num_shards);
  }

  /// Coherent (live, indexed) pair from ONE atomic load — both counters
  /// are packed in a single word, so concurrent Insert/Remove can never
  /// tear the pair apart. This is what the engine's decision sites read.
  core::LiveStats live_stats() const {
    const uint64_t packed = live_dead_.load(std::memory_order_relaxed);
    const size_t live = static_cast<size_t>(packed >> 32);
    const size_t dead = static_cast<size_t>(packed & 0xFFFFFFFFu);
    return core::LiveStats{live, live + dead};
  }

  /// Live points — what a query can report. Atomic counter reads.
  size_t size() const { return live_stats().live; }
  size_t live_size() const { return size(); }

  hll::HyperLogLog MakeScratchSketch() const {
    return hll::HyperLogLog(options_.hll_precision);
  }

  // --- Snapshot persistence (engine/snapshot.h). -------------------------
  // SaveTo/LoadFrom carry only what this index owns: range bookkeeping,
  // counters, and the sealed segments (CSR tables + sketches + id lists).
  // The FunctionSet, dataset, tombstones, and EngineOptions travel once at
  // the engine level and are handed back to LoadFrom — that is what makes a
  // multi-shard snapshot O(1) in hash functions instead of O(S).

  /// Appends this index's segments and counters to the writer. The active
  /// and frozen logs must be empty — callers SealActive() first (with
  /// writers and maintenance quiesced), so a snapshot is pure CSR and the
  /// restored index answers queries through sketches identical to the live
  /// sealed ones.
  util::Status SaveTo(util::ByteWriter* writer) const {
    const auto view = AcquireViewPtr();
    if (view->active->size() != 0 || !view->frozen.empty()) {
      return util::Status::FailedPrecondition(
          "seal the active segment before snapshotting");
    }
    const core::LiveStats live = live_stats();
    writer->WriteU32(id_base_);
    writer->WriteU64(initial_count_);
    writer->WriteU64(build_n_);
    writer->WriteU64(live.live);
    writer->WriteU64(live.indexed - live.live);
    writer->WriteU64(view->sealed.size());
    for (const auto& segment : view->sealed) {
      writer->WriteU64(segment->tables.size());
      for (const lsh::LshTable& table : segment->tables) {
        table.Serialize(writer);
      }
      writer->WriteU64(segment->ids.size());
      writer->WriteArray<uint32_t>(segment->ids);
    }
    return util::Status::Ok();
  }

  /// Rebuilds an index from a SaveTo payload. `functions` is the engine's
  /// shared (already-loaded) FunctionSet, `dataset` the restored container,
  /// `tombstones` the engine-wide bitmap (already loaded; nullptr makes the
  /// index own an empty one, the standalone case). No hash function is
  /// evaluated and no point is read — tables and sketches reload as bytes.
  /// The live/dead counters are revalidated against the actual segment
  /// contents, so a corrupt (but checksum-passing) payload cannot smuggle
  /// in an inconsistent index.
  static util::StatusOr<SegmentedIndex> LoadFrom(
      util::ByteReader* reader, lsh::FunctionSet<Family> functions,
      const Dataset* dataset, const EngineOptions& options,
      util::BitVector* shared_tombstones = nullptr) {
    if (dataset == nullptr) {
      return util::Status::InvalidArgument("dataset pointer is null");
    }
    HLSH_RETURN_IF_ERROR(ValidateOptions(options));

    SegmentedIndex index(std::move(functions));
    index.dataset_ = dataset;
    index.options_ = options;
    index.table_options_.hll_precision = options.hll_precision;
    index.table_options_.small_bucket_threshold =
        options.small_bucket_threshold;
    if (shared_tombstones != nullptr) {
      index.tombstones_ = shared_tombstones;
    } else {
      index.owned_tombstones_ = std::make_unique<util::BitVector>();
      index.tombstones_ = index.owned_tombstones_.get();
    }
    index.tombstones_->Grow(dataset->size());

    uint64_t initial_count = 0, build_n = 0, num_live = 0, num_dead = 0;
    uint64_t num_segments = 0;
    HLSH_RETURN_IF_ERROR(reader->ReadU32(&index.id_base_));
    HLSH_RETURN_IF_ERROR(reader->ReadU64(&initial_count));
    HLSH_RETURN_IF_ERROR(reader->ReadU64(&build_n));
    HLSH_RETURN_IF_ERROR(reader->ReadU64(&num_live));
    HLSH_RETURN_IF_ERROR(reader->ReadU64(&num_dead));
    HLSH_RETURN_IF_ERROR(reader->ReadU64(&num_segments));
    if (build_n > dataset->size() ||
        static_cast<uint64_t>(index.id_base_) + initial_count > build_n ||
        num_segments > (uint64_t{1} << 20)) {
      return util::Status::DataLoss("segmented index header is invalid");
    }
    index.initial_count_ = initial_count;
    index.build_n_ = build_n;

    size_t live_seen = 0, dead_seen = 0;
    auto view = std::make_shared<SegmentListView>();
    view->sealed.reserve(num_segments);
    for (uint64_t s = 0; s < num_segments; ++s) {
      auto segment = std::make_shared<LshSegment>();
      uint64_t num_tables = 0;
      HLSH_RETURN_IF_ERROR(reader->ReadU64(&num_tables));
      if (num_tables != index.functions_.num_tables()) {
        return util::Status::DataLoss(
            "segment table count mismatches the function set");
      }
      segment->tables.reserve(num_tables);
      for (uint64_t t = 0; t < num_tables; ++t) {
        auto table = lsh::LshTable::Deserialize(reader);
        if (!table.ok()) return table.status();
        segment->tables.push_back(std::move(*table));
      }
      uint64_t num_ids = 0;
      HLSH_RETURN_IF_ERROR(reader->ReadU64(&num_ids));
      HLSH_RETURN_IF_ERROR(
          reader->ReadArray<uint32_t>(num_ids, &segment->ids));
      if (!std::is_sorted(segment->ids.begin(), segment->ids.end()) ||
          std::adjacent_find(segment->ids.begin(), segment->ids.end()) !=
              segment->ids.end()) {
        return util::Status::DataLoss("segment ids are not ascending");
      }
      for (const uint32_t id : segment->ids) {
        if (id >= dataset->size()) {
          return util::Status::DataLoss("segment id exceeds the dataset");
        }
        if (index.tombstones_->Get(id)) {
          ++dead_seen;
        } else {
          ++live_seen;
        }
      }
      view->sealed.push_back(std::move(segment));
    }
    if (live_seen != num_live || dead_seen != num_dead) {
      return util::Status::DataLoss(
          "segment id lists disagree with the live/dead counters");
    }
    index.live_dead_.store(
        static_cast<uint64_t>(live_seen) * kLiveOne +
            static_cast<uint64_t>(dead_seen) * kDeadOne,
        std::memory_order_relaxed);
    view->active = index.MakeLog();
    index.active_writer_ = const_cast<ActiveLshLog*>(view->active.get());
    {
      std::lock_guard<std::mutex> lock(index.sync_->publish_mu);
      index.PublishViewLocked(std::move(view));
    }
    return index;
  }

  LifecycleStats lifecycle() const {
    const auto view = AcquireViewPtr();
    const core::LiveStats live = live_stats();
    LifecycleStats stats;
    stats.live_points = live.live;
    stats.indexed_points = live.indexed;
    stats.active_points = view->active->size();
    stats.pending_seal_logs = view->frozen.size();
    stats.sealed_segments = view->sealed.size();
    stats.tombstones = live.indexed - live.live;
    stats.compactions = compactions_.load(std::memory_order_relaxed);
    stats.last_compact_seconds =
        last_compact_seconds_.load(std::memory_order_relaxed);
    stats.memory_bytes = MemoryBytes();
    return stats;
  }

  size_t MemoryBytes() const {
    const auto view = AcquireViewPtr();
    size_t total = 0;
    for (const auto& segment : view->sealed) total += segment->MemoryBytes();
    for (const auto& log : view->frozen) total += log->MemoryBytes();
    total += view->active->MemoryBytes();
    if (owned_tombstones_ != nullptr) {
      total += owned_tombstones_->MemoryBytes();
    }
    return total;
  }

  /// Bytes used by HLL sketches alone (sealed segments; the active log
  /// has none by design).
  size_t SketchBytes() const {
    const auto view = AcquireViewPtr();
    size_t total = 0;
    for (const auto& segment : view->sealed) {
      for (const lsh::LshTable& table : segment->tables) {
        total += table.SketchBytes();
      }
    }
    return total;
  }

 private:
  /// Writer-side mutexes live on the heap so the index stays movable.
  /// Lock order: maintenance_mu before publish_mu (never the reverse).
  struct Sync {
    /// Serializes maintenance passes (seal/compact) against each other and
    /// against inline backpressure sealing.
    std::mutex maintenance_mu;
    /// Guards the view_ slot: every read or swap of the shared_ptr holds
    /// it, for O(list length) pointer copies at most. Writers take it on
    /// each publication; readers only when the version counter says their
    /// cached snapshot is stale (steady state never touches it).
    std::mutex publish_mu;
  };

  /// Bound on frozen logs before ingest applies backpressure (deferred
  /// maintenance mode only).
  static constexpr size_t kMaxFrozenLogs = 4;

  explicit SegmentedIndex(lsh::FunctionSet<Family> functions)
      : functions_(std::move(functions)), sync_(std::make_unique<Sync>()) {}

  std::shared_ptr<const SegmentListView> AcquireViewPtr() const {
    std::lock_guard<std::mutex> lock(sync_->publish_mu);
    return view_;
  }

  /// Requires publish_mu. The version bump is release so a reader that saw
  /// the new version (acquire) and then copies the slot under the mutex is
  /// guaranteed at least this view.
  void PublishViewLocked(std::shared_ptr<const SegmentListView> view) {
    view_ = std::move(view);
    view_version_.fetch_add(1, std::memory_order_release);
  }

  std::shared_ptr<ActiveLshLog> MakeLog() const {
    return std::make_shared<ActiveLshLog>(
        functions_.num_tables(),
        std::max<size_t>(options_.active_seal_threshold, 1));
  }

  /// Swaps a fresh active log in, moving the current one (if non-empty)
  /// onto the frozen list. Writer-thread only.
  void FreezeActive() {
    if (active_writer_ == nullptr || active_writer_->size() == 0) return;
    std::lock_guard<std::mutex> lock(sync_->publish_mu);
    auto next = std::make_shared<SegmentListView>(*view_);
    next->frozen.push_back(view_->active);
    next->active = MakeLog();
    active_writer_ = const_cast<ActiveLshLog*>(next->active.get());
    PublishViewLocked(std::move(next));
  }

  /// Seals every frozen log (oldest first) into CSR segments. Requires
  /// maintenance_mu. Builds off to the side; each install swaps the list.
  void SealFrozenLocked() {
    for (;;) {
      std::shared_ptr<const ActiveLshLog> log;
      {
        std::lock_guard<std::mutex> lock(sync_->publish_mu);
        if (view_->frozen.empty()) return;
        log = view_->frozen.front();
      }
      // Decide survival once per entry (one consistent tombstone read), so
      // the id list, the counter adjustment, and the per-table bucket
      // contents all agree even while Remove runs concurrently.
      const size_t count = log->size_acquire();
      std::vector<uint32_t> kept_ids;
      std::vector<bool> keep(count);
      kept_ids.reserve(count);
      for (size_t i = 0; i < count; ++i) {
        const uint32_t id = log->id(i);
        keep[i] = !tombstones_->Get(id);
        if (keep[i]) kept_ids.push_back(id);
      }
      auto segment = std::make_shared<LshSegment>();
      if (!kept_ids.empty()) {
        const size_t num_tables = log->num_tables();
        segment->tables.resize(num_tables);
        std::vector<uint64_t> keys;
        keys.reserve(kept_ids.size());
        for (size_t t = 0; t < num_tables; ++t) {
          keys.clear();
          for (size_t i = 0; i < count; ++i) {
            if (keep[i]) keys.push_back(log->key(t, i));
          }
          segment->tables[t].BuildFromEntries(keys, kept_ids,
                                              table_options_);
        }
        segment->ids = std::move(kept_ids);
      }
      const size_t dead_dropped = count - segment->ids.size();
      {
        std::lock_guard<std::mutex> lock(sync_->publish_mu);
        auto next = std::make_shared<SegmentListView>(*view_);
        // The sealed log is the oldest frozen entry; only maintenance
        // removes frozen logs, and maintenance_mu is held.
        HLSH_CHECK(!next->frozen.empty() && next->frozen.front() == log);
        next->frozen.erase(next->frozen.begin());
        if (!segment->ids.empty()) {
          next->sealed.push_back(std::move(segment));
        }
        PublishViewLocked(std::move(next));
      }
      // Dead active ids leave the index here, so they stop counting
      // against the estimate correction.
      live_dead_.fetch_sub(dead_dropped * kDeadOne,
                           std::memory_order_relaxed);
    }
  }

  /// Merges every sealed segment into one, dropping tombstoned ids.
  /// Requires maintenance_mu. The merge reads only immutable sealed
  /// segments, off the publication path; the install swaps the list.
  void CompactLocked() {
    util::WallTimer timer;
    std::vector<std::shared_ptr<const LshSegment>> inputs;
    {
      std::lock_guard<std::mutex> lock(sync_->publish_mu);
      inputs = view_->sealed;
    }
    const size_t L = functions_.num_tables();
    auto merged = std::make_shared<LshSegment>();
    merged->tables.resize(L);
    util::ParallelFor(0, L, build_threads(), [&](size_t t) {
      std::vector<uint64_t> keys;
      std::vector<uint32_t> ids;
      for (const auto& segment : inputs) {
        segment->tables[t].ExportEntries(&keys, &ids, tombstones_);
      }
      merged->tables[t].BuildFromEntries(keys, ids, table_options_);
    });

    size_t input_ids = 0;
    for (const auto& segment : inputs) {
      input_ids += segment->ids.size();
      for (const uint32_t id : segment->ids) {
        if (!tombstones_->Get(id)) merged->ids.push_back(id);
      }
    }
    std::sort(merged->ids.begin(), merged->ids.end());
    const size_t dead_dropped = input_ids - merged->ids.size();

    {
      std::lock_guard<std::mutex> lock(sync_->publish_mu);
      auto next = std::make_shared<SegmentListView>(*view_);
      // Replace exactly the merged inputs; segments sealed while the merge
      // ran (they appended past the input prefix) are preserved.
      std::vector<std::shared_ptr<const LshSegment>> sealed;
      if (!merged->ids.empty()) sealed.push_back(std::move(merged));
      for (const auto& segment : next->sealed) {
        if (std::find(inputs.begin(), inputs.end(), segment) ==
            inputs.end()) {
          sealed.push_back(segment);
        }
      }
      next->sealed = std::move(sealed);
      PublishViewLocked(std::move(next));
    }
    live_dead_.fetch_sub(dead_dropped * kDeadOne, std::memory_order_relaxed);
    compactions_.fetch_add(1, std::memory_order_relaxed);
    last_compact_seconds_.store(timer.ElapsedSeconds(),
                                std::memory_order_relaxed);
  }

  const Dataset* dataset_ = nullptr;
  Dataset* mutable_dataset_ = nullptr;
  EngineOptions options_;
  lsh::FunctionSet<Family> functions_;
  lsh::LshTable::Options table_options_;

  // The epoch-published segment list (see file comment) and its version.
  // The slot is guarded by sync_->publish_mu (readers copy it only when
  // view_version_ invalidates their cached snapshot); the version counter
  // is what the lock-free fast path polls.
  std::shared_ptr<const SegmentListView> view_;
  std::atomic<uint64_t> view_version_{0};
  // Writer-side alias of view_->active (the one log Append may touch).
  ActiveLshLog* active_writer_ = nullptr;
  std::unique_ptr<Sync> sync_;

  // Tombstone bitmap over the global id space: owned when standalone,
  // engine-provided (shared by all shards) under ShardedEngine.
  std::unique_ptr<util::BitVector> owned_tombstones_;
  util::BitVector* tombstones_ = nullptr;

  // Live/dead accounting, packed live<<32 | dead in ONE atomic word so a
  // single load yields a coherent core::LiveStats (the decision inputs).
  // Invariant (up to in-flight interleavings): `dead` counts tombstoned
  // ids still present in some segment or log of this index; `live` the
  // rest. Id counts fit 32 bits by the Build/Insert guards.
  static constexpr uint64_t kLiveOne = uint64_t{1} << 32;
  static constexpr uint64_t kDeadOne = 1;
  std::atomic<uint64_t> live_dead_{0};
  std::atomic<size_t> compactions_{0};
  std::atomic<double> last_compact_seconds_{0.0};
  mutable std::atomic<bool> maintenance_inflight_{false};

  bool deferred_maintenance_ = false;
  uint32_t id_base_ = 0;
  size_t initial_count_ = 0;  // size of the initial [base, base+count) range
  size_t build_n_ = 0;        // dataset size at Build (pre-insert ids)
  std::vector<int32_t> insert_slots_;    // Insert scratch
  std::vector<uint64_t> insert_keys_;    // Insert scratch
};

}  // namespace engine
}  // namespace hybridlsh

#endif  // HYBRIDLSH_ENGINE_SEGMENTED_INDEX_H_
