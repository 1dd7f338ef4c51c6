// One LSH hash table with HyperLogLog-augmented buckets (paper Alg. 1).
//
// A table maps 64-bit bucket keys (hashed k-wise signatures) to buckets of
// point ids. Each bucket additionally carries an HLL sketch of its ids so
// that, at query time, merging the sketches of the L probed buckets
// estimates the distinct candidate count candSize (paper Alg. 2, step 2).
//
// Space optimization (paper §3.2): buckets smaller than
// `small_bucket_threshold` do not materialize a sketch — their few ids are
// folded into the query-time merged HLL on demand, which costs O(bucket
// size) hashing but saves m bytes per small bucket. The threshold defaults
// to m (the register count), the break-even point the paper suggests.
//
// Storage is CSR-style: ids grouped by bucket in one contiguous array. The
// buckets are found through a flat directory: a power-of-two array of
// 16-byte slots, at most half full, probed linearly from slot
// (key ^ key >> 32) & mask (keys are already avalanched hashes). A slot
// holds the bucket key, its CSR begin, and either its size or, for a
// sketched bucket, the index of its sketch (which records the size). A
// lookup reads a short run of adjacent slots and chases no pointer — a miss,
// the common case in a sparse table, ends at the run's first empty slot —
// and a query can prefetch every probed slot before resolving any
// (PrefetchSlot). A table adds O(n) ids + O(#buckets) slots + sketches only
// for big buckets.

#ifndef HYBRIDLSH_LSH_TABLE_H_
#define HYBRIDLSH_LSH_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "hll/hyperloglog.h"
#include "util/bit_vector.h"
#include "util/serialize.h"
#include "util/status.h"

namespace hybridlsh {
namespace lsh {

/// A single hash table of the classic LSH scheme, with bucket sketches.
class LshTable {
 public:
  struct Options {
    /// HLL precision b; every bucket sketch has m = 2^b registers.
    int hll_precision = 7;
    /// Buckets with fewer ids than this get no sketch (ids are folded into
    /// the merged estimate on demand). kThresholdAuto = use m.
    size_t small_bucket_threshold = kThresholdAuto;
    /// Offset added to every stored id: position i in `keys` is indexed as
    /// id_base + i. Lets a shard index a slice of a larger dataset while
    /// reporting ids in the parent's global id space (bucket ids and bucket
    /// sketches both carry the offset). id_base + keys.size() must fit in
    /// uint32_t.
    uint32_t id_base = 0;
  };
  static constexpr size_t kThresholdAuto = static_cast<size_t>(-1);
  /// Most ids one table holds: a slot stores a bucket's CSR begin and size
  /// in 32-bit fields, and the size field's top bit marks a sketch index.
  static constexpr size_t kMaxIds = (size_t{1} << 31) - 1;

  LshTable() = default;

  /// Builds the table from per-point bucket keys: point id i belongs to the
  /// bucket keyed keys[i]. Single pass; replaces any previous content.
  /// Requires keys.size() <= kMaxIds.
  void Build(std::span<const uint64_t> keys, const Options& options);

  /// Builds the table from explicit (key, id) pairs: ids[i] belongs to the
  /// bucket keyed keys[i]. This is the segment-merge path: compaction
  /// exports the surviving entries of several tables (ExportEntries) and
  /// rebuilds one fresh table — with fresh sketches — without rehashing any
  /// point. Ids within a bucket are stored in ascending order, so the
  /// result is independent of the input entry order. Options::id_base is
  /// ignored (ids are already global). Replaces any previous content.
  /// Requires keys.size() <= kMaxIds.
  void BuildFromEntries(std::span<const uint64_t> keys,
                        std::span<const uint32_t> ids, const Options& options);

  /// Appends every (bucket key, id) pair of the table to *keys / *ids,
  /// skipping ids whose `tombstones` bit is set (pass nullptr to keep
  /// everything). The inverse of BuildFromEntries, used by compaction.
  void ExportEntries(std::vector<uint64_t>* keys, std::vector<uint32_t>* ids,
                     const util::BitVector* tombstones = nullptr) const;

  /// A view of one bucket. `sketch` is null for small buckets (fold `ids`
  /// into the merged HLL instead).
  struct BucketView {
    std::span<const uint32_t> ids;
    const hll::HyperLogLog* sketch = nullptr;

    size_t size() const { return ids.size(); }
    bool empty() const { return ids.empty(); }
  };

  /// Looks up the bucket for a key; returns an empty view when absent.
  BucketView Lookup(uint64_t key) const {
    return ViewOf(slots_[FindSlot(key)]);
  }

  /// Prefetches the directory slot a Lookup(key) starts at. Issuing this for
  /// a batch of keys before looking any of them up overlaps their misses.
  void PrefetchSlot(uint64_t key) const {
    __builtin_prefetch(&slots_[HomeSlot(key)]);
  }

  /// Number of non-empty buckets.
  size_t num_buckets() const { return num_buckets_; }
  /// Number of indexed points.
  size_t num_points() const { return ids_.size(); }
  /// Largest bucket size (0 when empty).
  size_t max_bucket_size() const { return max_bucket_size_; }
  /// Number of buckets that carry a materialized sketch.
  size_t num_sketches() const { return sketches_.size(); }
  /// Heap bytes for ids, the bucket directory, and sketches.
  size_t MemoryBytes() const;
  /// Bytes used by HLL sketches alone (the paper's space overhead).
  size_t SketchBytes() const;

  /// Appends the table (buckets, ids, sketches) to the writer.
  void Serialize(util::ByteWriter* writer) const;
  /// Parses a table written by Serialize. Validates counts, offsets and
  /// sketch payloads; returns DataLoss on malformed input.
  static util::StatusOr<LshTable> Deserialize(util::ByteReader* reader);

 private:
  /// A directory slot. size_or_sketch is 0 for an empty slot (buckets are
  /// never empty), the bucket size, or kSketchTag | sketch index.
  struct Slot {
    uint64_t key = 0;
    uint32_t begin = 0;
    uint32_t size_or_sketch = 0;

    bool empty() const { return size_or_sketch == 0; }
  };
  static_assert(sizeof(Slot) == 16);
  static constexpr uint32_t kSketchTag = uint32_t{1} << 31;

  /// A materialized bucket sketch and the size of its bucket.
  struct Sketch {
    hll::HyperLogLog hll;
    uint32_t bucket_size = 0;
  };

  size_t HomeSlot(uint64_t key) const {
    return static_cast<size_t>(key ^ (key >> 32)) & slot_mask_;
  }
  /// Index of the slot holding `key`, or of the empty slot that ends its
  /// probe run (one exists: the directory is at most half full).
  size_t FindSlot(uint64_t key) const {
    size_t i = HomeSlot(key);
    while (!slots_[i].empty() && slots_[i].key != key) {
      i = (i + 1) & slot_mask_;
    }
    return i;
  }

  BucketView ViewOf(const Slot& slot) const {
    if (slot.empty()) return BucketView{};
    if ((slot.size_or_sketch & kSketchTag) == 0) {
      return BucketView{{ids_.data() + slot.begin, slot.size_or_sketch},
                        nullptr};
    }
    const Sketch& sketch = sketches_[slot.size_or_sketch & ~kSketchTag];
    return BucketView{{ids_.data() + slot.begin, sketch.bucket_size},
                      &sketch.hll};
  }

  /// Shared body of Build and BuildFromEntries: groups entry order[j]
  /// (key keys[order[j]], id id_of(order[j])) into buckets; `order` lists
  /// the entries sorted by key.
  template <typename IdOf>
  void BuildSorted(std::span<const uint64_t> keys,
                   std::span<const uint32_t> order, IdOf id_of,
                   const Options& options);
  /// Replaces the directory with one holding `buckets`. DataLoss when two
  /// buckets share a key.
  util::Status FillDirectory(std::span<const Slot> buckets);
  /// The occupied slots in CSR order (ascending begin): the bucket order of
  /// the serialized format.
  std::vector<Slot> BucketsInCsrOrder() const;

  // A never-built table holds one empty slot, so its lookups miss.
  std::vector<Slot> slots_ = std::vector<Slot>(1);
  size_t slot_mask_ = 0;
  size_t num_buckets_ = 0;
  std::vector<uint32_t> ids_;  // grouped point ids
  std::vector<Sketch> sketches_;
  size_t max_bucket_size_ = 0;
};

}  // namespace lsh
}  // namespace hybridlsh

#endif  // HYBRIDLSH_LSH_TABLE_H_
