// Dense bit vector and the duplicate-elimination set used on the LSH query
// hot path.
//
// Step S2 of LSH-based search (paper §3.1) merges the L query buckets while
// removing duplicates. The per-collision cost of that merge is the alpha
// constant in the cost model, so the structure must be O(1) per probe with
// a tiny constant: VisitedSet is a bit vector plus a touched-id list so that
// clearing between queries is O(#touched), not O(n).
//
// BitVector doubles as the engine-wide tombstone bitmap, which is read by
// concurrent query threads while one writer marks deletes and grows the
// vector under live ingest. Two access families coexist:
//
//   - Plain ops (Set/Clear/TestAndSet/ClearAll/Resize): thread-private
//     scratch and build-time fills. Not safe under concurrent readers.
//   - Concurrent ops (SetConcurrent/TestAcquire/Get): word-atomic. Between
//     compactions the shared bitmap is monotone set-only, so a stale read
//     can only under-report a delete — semantically "the point was live at
//     some point during the query", never a wrong result. Grow() is
//     publication-safe: within Reserve()d capacity it touches only words
//     past the published prefix; past capacity it allocate-copy-swaps and
//     retires the old buffer so in-flight readers never dangle.

#ifndef HYBRIDLSH_UTIL_BIT_VECTOR_H_
#define HYBRIDLSH_UTIL_BIT_VECTOR_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "util/published_array.h"
#include "util/serialize.h"
#include "util/status.h"

namespace hybridlsh {
namespace util {

/// Dense bit vector (see file comment for the concurrency contract).
class BitVector {
 public:
  BitVector() = default;

  /// Creates a vector of `size` bits, all zero.
  explicit BitVector(size_t size) { Resize(size); }

  BitVector(const BitVector& other)
      : size_(other.size()), words_(other.words_) {}
  BitVector& operator=(const BitVector& other) {
    if (this != &other) {
      size_.store(other.size(), std::memory_order_relaxed);
      words_ = other.words_;
    }
    return *this;
  }
  BitVector(BitVector&& other) noexcept
      : size_(other.size()), words_(std::move(other.words_)) {
    other.size_.store(0, std::memory_order_relaxed);
  }
  BitVector& operator=(BitVector&& other) noexcept {
    if (this != &other) {
      size_.store(other.size(), std::memory_order_relaxed);
      words_ = std::move(other.words_);
      other.size_.store(0, std::memory_order_relaxed);
    }
    return *this;
  }

  /// Number of bits. Monotone under one writer; safe from any thread.
  size_t size() const { return size_.load(std::memory_order_relaxed); }

  /// Returns bit i. Word-atomic (relaxed): safe concurrently with
  /// SetConcurrent, but carries no ordering — use TestAcquire when the
  /// caller needs to observe writes published before its epoch.
  bool Get(size_t i) const {
    HLSH_DCHECK(i < size());
    return (LoadWord(i >> 6, std::memory_order_relaxed) >> (i & 63)) & 1;
  }

  /// Returns bit i with acquire ordering: a set that happens-before the
  /// caller's synchronization point (epoch acquire, clock handshake) is
  /// guaranteed visible. The tombstone read on the query path.
  bool TestAcquire(size_t i) const {
    HLSH_DCHECK(i < size());
    return (LoadWord(i >> 6, std::memory_order_acquire) >> (i & 63)) & 1;
  }

  /// Sets bit i to one. Plain read-modify-write: single-thread use only.
  void Set(size_t i) {
    HLSH_DCHECK(i < size());
    words_.mutable_data()[i >> 6] |= uint64_t{1} << (i & 63);
  }

  /// Sets bit i to one with a release-ordered atomic RMW: safe while other
  /// threads Get/TestAcquire concurrently.
  void SetConcurrent(size_t i) {
    HLSH_DCHECK(i < size());
    std::atomic_ref<uint64_t> word(words_.mutable_data()[i >> 6]);
    word.fetch_or(uint64_t{1} << (i & 63), std::memory_order_release);
  }

  /// Sets bit i to zero. Plain RMW: single-thread use only.
  void Clear(size_t i) {
    HLSH_DCHECK(i < size());
    words_.mutable_data()[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  /// Prefetches the word holding bit i (bulk random-probe loops issue this
  /// a few ids ahead of the matching Get/Set/TestAndSet). Pass
  /// for_write=true only when the probe will modify the word: a
  /// write-intent prefetch requests exclusive cache-line ownership, which
  /// would make a read-shared bitmap (e.g. the engine-wide tombstones)
  /// ping-pong between concurrently querying cores.
  void PrefetchWord(size_t i, bool for_write = false) const {
    const uint64_t* word = words_.data() + (i >> 6);
    if (for_write) {
      __builtin_prefetch(word, /*rw=*/1, /*locality=*/1);
    } else {
      __builtin_prefetch(word, /*rw=*/0, /*locality=*/1);
    }
  }

  /// Sets bit i and returns its previous value (plain single word RMW;
  /// thread-private scratch only).
  bool TestAndSet(size_t i) {
    HLSH_DCHECK(i < size());
    uint64_t& word = words_.mutable_data()[i >> 6];
    const uint64_t mask = uint64_t{1} << (i & 63);
    const bool was_set = (word & mask) != 0;
    word |= mask;
    return was_set;
  }

  /// Zeroes every bit. O(size/64). Single-thread use only.
  void ClearAll() {
    uint64_t* words = words_.mutable_data();
    const size_t n = words_.size();
    for (size_t w = 0; w < n; ++w) words[w] = 0;
  }

  /// Number of one bits. O(size/64).
  size_t Count() const;

  /// Word-wise this &= other. Bits of *this at positions >= other.size()
  /// are cleared (a bit the operand cannot vouch for does not survive an
  /// intersection). *this must be thread-private; `other` may be shared
  /// with a concurrent writer's SetConcurrent and Grow — its words are
  /// loaded with acquire ordering, so sets published before the caller's
  /// synchronization point are honored, and a torn view is impossible
  /// (loads are word-atomic); its size is read with acquire ordering, so
  /// every word below it already holds Grow's zero fill.
  void AndWith(const BitVector& other);

  /// Word-wise this |= other over the common prefix; bits of `other` at
  /// positions >= size() are ignored (the final word is re-masked, so the
  /// "no bits past size()" invariant Count/Grow rely on holds even when
  /// `other` is longer). Same sharing contract as AndWith.
  void OrWith(const BitVector& other);

  /// Word-wise this &= ~other over the common prefix. Bits of *this past
  /// other.size() are left unchanged — when `other` is a tombstone bitmap
  /// that has not grown to cover an id yet, that id cannot be dead. This
  /// is the filter∧¬tombstone composition of the predicate-pushdown query
  /// path. Same sharing contract as AndWith.
  void AndWithNot(const BitVector& other);

  /// popcount(*this & other) over the common prefix, without modifying
  /// either side. Same sharing contract as AndWith (both operands may be
  /// concurrently written; each word is read once, atomically).
  size_t CountAnd(const BitVector& other) const;

  /// Appends every position i in [begin, end) whose bit is clear to *out,
  /// in ascending order, reading each word once with acquire ordering — the
  /// tombstone read of a whole-run linear scan (a set that happens-before
  /// the caller's synchronization point is seen). A word with no bit set
  /// appends its whole 64-position run at once. Requires end <= size() and
  /// end <= 2^32 (positions are stored as uint32_t ids).
  void AppendClearBitsAcquire(size_t begin, size_t end,
                              std::vector<uint32_t>* out) const;

  /// Calls fn(i) for every set bit i in [begin, min(end, size())), in
  /// ascending order. Word-skipping: O(range/64 + #set bits in range), so
  /// enumerating the survivors of a selective filter costs far less than
  /// testing every id. *this must be quiescent (thread-private scratch or
  /// externally synchronized) for the duration of the walk.
  template <typename Fn>
  void ForEachSetBitInRange(size_t begin, size_t end, Fn&& fn) const {
    const size_t n = size();
    if (end > n) end = n;
    if (begin >= end) return;
    const uint64_t* words = words_.data();
    const size_t first_word = begin >> 6;
    const size_t last_word = (end - 1) >> 6;
    for (size_t w = first_word; w <= last_word; ++w) {
      uint64_t word = words[w];
      if (w == first_word && (begin & 63) != 0) {
        word &= ~uint64_t{0} << (begin & 63);
      }
      if (w == last_word && (end & 63) != 0) {
        word &= ~uint64_t{0} >> (64 - (end & 63));
      }
      while (word != 0) {
        const size_t bit = static_cast<size_t>(__builtin_ctzll(word));
        fn((w << 6) + bit);
        word &= word - 1;
      }
    }
  }

  /// Heap bytes of the word storage, retired growth buffers included.
  size_t MemoryBytes() const { return words_.MemoryBytes(); }

  /// Pre-allocates capacity for `size` bits so that subsequent Grow calls
  /// up to that size extend in place (no buffer swap, no retired copy).
  void Reserve(size_t size) { words_.Reserve((size + 63) / 64); }

  /// Resizes to `size` bits, zeroing everything. Single-thread use only.
  void Resize(size_t size) {
    const size_t num_words = (size + 63) / 64;
    words_.Reserve(num_words);
    words_.GrowTo(num_words, 0);
    ClearAll();
    size_.store(size, std::memory_order_relaxed);
  }

  /// Extends to `size` bits, preserving existing bits; new bits are zero.
  /// No-op when already at least `size` bits. Publication-safe: concurrent
  /// readers of bits below their own published bound stay valid (new words
  /// are zero-filled before the size is release-published, and growth past
  /// capacity retires the old word buffer instead of freeing it).
  void Grow(size_t size) {
    if (size <= this->size()) return;
    words_.GrowTo((size + 63) / 64, 0);
    size_.store(size, std::memory_order_release);
  }

  /// Appends [size:u64][words] to the writer (snapshot persistence of the
  /// engine tombstone bitmap).
  void Serialize(ByteWriter* writer) const;

  /// Parses a vector written by Serialize; DataLoss on truncation, a word
  /// count that mismatches the bit count, or set bits past `size`.
  static util::StatusOr<BitVector> Deserialize(ByteReader* reader);

 private:
  /// size() with acquire ordering, pairing with Grow's release store: word
  /// reads bounded by it never race the zero fill of a concurrent Grow.
  size_t AcquireSize() const { return size_.load(std::memory_order_acquire); }

  uint64_t LoadWord(size_t w, std::memory_order order) const {
    // atomic_ref<const T> is not available until C++26; the const_cast is
    // sound because only load() is performed.
    std::atomic_ref<uint64_t> word(
        const_cast<uint64_t*>(words_.data())[w]);
    return word.load(order);
  }

  std::atomic<size_t> size_{0};
  PublishedArray<uint64_t> words_;
};

/// Duplicate-elimination set over ids [0, capacity).
///
/// Insert() is the alpha-cost operation of the cost model: one bit probe
/// plus, for first occurrences, a push onto the touched list. Reset() undoes
/// only the touched bits, so a VisitedSet can be reused across queries with
/// cost proportional to the previous candidate set, not to n. A VisitedSet
/// is thread-private scratch; only the tombstone argument of
/// InsertSpanFiltered may be shared with concurrent writers.
class VisitedSet {
 public:
  VisitedSet() = default;

  /// Creates a set over ids [0, capacity).
  explicit VisitedSet(size_t capacity) : bits_(capacity) {
    touched_.reserve(64);
  }

  /// Capacity (exclusive upper bound on ids).
  size_t capacity() const { return bits_.size(); }

  /// Inserts id; returns true if it was newly inserted (first occurrence).
  bool Insert(uint32_t id) {
    if (bits_.TestAndSet(id)) return false;
    touched_.push_back(id);
    return true;
  }

  /// Bulk insert of one bucket's ids: equivalent to Insert() on each id in
  /// order, with the bit words prefetched a few probes ahead (bucket ids
  /// land on random words, so every probe is otherwise a cold cache miss).
  void InsertSpan(std::span<const uint32_t> ids) {
    constexpr size_t kPrefetchAhead = 8;
    const size_t n = ids.size();
    for (size_t j = 0; j < n; ++j) {
      if (j + kPrefetchAhead < n) {
        bits_.PrefetchWord(ids[j + kPrefetchAhead], /*for_write=*/true);
      }
      Insert(ids[j]);
    }
  }

  /// Like InsertSpan, but skips ids whose `tombstones` bit is set (the
  /// mutable-index probe path); the tombstone word and the dedup word are
  /// both prefetched ahead of the probe. The tombstone reads are
  /// acquire-ordered, so deletes published before this query's epoch are
  /// always honored even while a writer marks new ones.
  void InsertSpanFiltered(std::span<const uint32_t> ids,
                          const BitVector& tombstones) {
    constexpr size_t kPrefetchAhead = 8;
    const size_t n = ids.size();
    for (size_t j = 0; j < n; ++j) {
      if (j + kPrefetchAhead < n) {
        const uint32_t ahead = ids[j + kPrefetchAhead];
        tombstones.PrefetchWord(ahead);  // read-shared across query threads
        bits_.PrefetchWord(ahead, /*for_write=*/true);
      }
      if (!tombstones.TestAcquire(ids[j])) Insert(ids[j]);
    }
  }

  /// Whether id has been inserted since the last Reset().
  bool Contains(uint32_t id) const { return bits_.Get(id); }

  /// Ids inserted since the last Reset(), in first-occurrence order. This
  /// is the flat candidate buffer the LSH query path hands to the
  /// block-batched verifier (core/kernels.h VerifyCandidatesQuantized).
  const std::vector<uint32_t>& touched() const { return touched_; }

  /// Number of distinct ids inserted since the last Reset().
  size_t size() const { return touched_.size(); }

  /// Clears only the bits touched since the last Reset(). O(size()).
  void Reset() {
    for (uint32_t id : touched_) bits_.Clear(id);
    touched_.clear();
  }

  /// Re-targets the set to a new capacity and clears it fully.
  void Resize(size_t capacity) {
    bits_.Resize(capacity);
    touched_.clear();
  }

 private:
  BitVector bits_;
  std::vector<uint32_t> touched_;
};

}  // namespace util
}  // namespace hybridlsh

#endif  // HYBRIDLSH_UTIL_BIT_VECTOR_H_
