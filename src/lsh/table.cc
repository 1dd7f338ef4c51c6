#include "lsh/table.h"

#include <algorithm>
#include <numeric>

namespace hybridlsh {
namespace lsh {

void LshTable::Build(std::span<const uint64_t> keys, const Options& options) {
  const size_t n = keys.size();
  HLSH_CHECK(static_cast<uint64_t>(options.id_base) + n <=
             static_cast<uint64_t>(UINT32_MAX) + 1);
  // Ids are the contiguous range id_base + i, so the sort tie-breaks on the
  // order index directly and no id array needs materializing — this is the
  // hot per-table path of every static index build.
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&keys](uint32_t a, uint32_t b) {
    return keys[a] < keys[b] || (keys[a] == keys[b] && a < b);
  });
  BuildSorted(keys, order,
              [base = options.id_base](uint32_t i) { return base + i; },
              options);
}

void LshTable::BuildFromEntries(std::span<const uint64_t> keys,
                                std::span<const uint32_t> ids,
                                const Options& options) {
  HLSH_CHECK(keys.size() == ids.size());
  // Sort entries by bucket key to group buckets contiguously; break ties by
  // id so the layout is independent of the input entry order.
  std::vector<uint32_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&keys, &ids](uint32_t a, uint32_t b) {
    return keys[a] < keys[b] || (keys[a] == keys[b] && ids[a] < ids[b]);
  });
  BuildSorted(keys, order, [&ids](uint32_t i) { return ids[i]; }, options);
}

template <typename IdOf>
void LshTable::BuildSorted(std::span<const uint64_t> keys,
                           std::span<const uint32_t> order, IdOf id_of,
                           const Options& options) {
  const size_t n = order.size();
  HLSH_CHECK(n <= kMaxIds);
  const size_t m = static_cast<size_t>(1) << options.hll_precision;
  const size_t threshold = options.small_bucket_threshold == kThresholdAuto
                               ? m
                               : options.small_bucket_threshold;
  ids_.clear();
  ids_.reserve(n);
  sketches_.clear();
  max_bucket_size_ = 0;

  std::vector<Slot> buckets;  // CSR order
  size_t i = 0;
  while (i < n) {
    const uint64_t key = keys[order[i]];
    const size_t begin = i;
    while (i < n && keys[order[i]] == key) ids_.push_back(id_of(order[i++]));
    const size_t bucket_size = i - begin;
    max_bucket_size_ = std::max(max_bucket_size_, bucket_size);

    Slot bucket{key, static_cast<uint32_t>(begin),
                static_cast<uint32_t>(bucket_size)};
    // Materialize a sketch only for large buckets (paper §3.2 trick).
    if (bucket_size >= threshold) {
      hll::HyperLogLog sketch(options.hll_precision);
      for (size_t j = begin; j < i; ++j) sketch.AddPoint(ids_[j]);
      bucket.size_or_sketch =
          kSketchTag | static_cast<uint32_t>(sketches_.size());
      sketches_.push_back(
          {std::move(sketch), static_cast<uint32_t>(bucket_size)});
    }
    buckets.push_back(bucket);
  }
  // Keys are distinct after grouping, so filling cannot fail.
  HLSH_CHECK(FillDirectory(buckets).ok());
}

util::Status LshTable::FillDirectory(std::span<const Slot> buckets) {
  size_t num_slots = 1;
  while (num_slots < 2 * buckets.size()) num_slots *= 2;
  slots_.assign(num_slots, Slot{});
  slot_mask_ = num_slots - 1;
  num_buckets_ = buckets.size();
  for (const Slot& bucket : buckets) {
    Slot& slot = slots_[FindSlot(bucket.key)];
    if (!slot.empty()) {
      return util::Status::DataLoss("duplicate bucket key");
    }
    slot = bucket;
  }
  return util::Status::Ok();
}

std::vector<LshTable::Slot> LshTable::BucketsInCsrOrder() const {
  std::vector<Slot> buckets;
  buckets.reserve(num_buckets_);
  for (const Slot& slot : slots_) {
    if (!slot.empty()) buckets.push_back(slot);
  }
  std::sort(buckets.begin(), buckets.end(),
            [](const Slot& a, const Slot& b) { return a.begin < b.begin; });
  return buckets;
}

void LshTable::ExportEntries(std::vector<uint64_t>* keys,
                             std::vector<uint32_t>* ids,
                             const util::BitVector* tombstones) const {
  for (const Slot& bucket : BucketsInCsrOrder()) {
    for (const uint32_t id : ViewOf(bucket).ids) {
      if (tombstones != nullptr && id < tombstones->size() &&
          tombstones->Get(id)) {
        continue;
      }
      keys->push_back(bucket.key);
      ids->push_back(id);
    }
  }
}

size_t LshTable::MemoryBytes() const {
  return ids_.size() * sizeof(uint32_t) + slots_.size() * sizeof(Slot) +
         sketches_.size() * sizeof(Sketch) + SketchBytes();
}

size_t LshTable::SketchBytes() const {
  size_t total = 0;
  for (const Sketch& sketch : sketches_) total += sketch.hll.MemoryBytes();
  return total;
}

void LshTable::Serialize(util::ByteWriter* writer) const {
  const std::vector<Slot> buckets = BucketsInCsrOrder();
  writer->WriteU64(buckets.size());
  writer->WriteU64(ids_.size());
  writer->WriteU64(max_bucket_size_);

  // Per bucket, in CSR order: key, CSR offset (plus the closing offset),
  // and sketch index or -1.
  std::vector<uint64_t> keys;
  std::vector<size_t> offsets;
  std::vector<int32_t> sketch_of_bucket;
  keys.reserve(buckets.size());
  offsets.reserve(buckets.size() + 1);
  sketch_of_bucket.reserve(buckets.size());
  for (const Slot& bucket : buckets) {
    keys.push_back(bucket.key);
    offsets.push_back(bucket.begin);
    sketch_of_bucket.push_back(
        (bucket.size_or_sketch & kSketchTag) != 0
            ? static_cast<int32_t>(bucket.size_or_sketch & ~kSketchTag)
            : -1);
  }
  offsets.push_back(ids_.size());
  writer->WriteArray<uint64_t>(keys);
  writer->WriteArray<size_t>(offsets);
  writer->WriteArray<uint32_t>(ids_);
  writer->WriteArray<int32_t>(sketch_of_bucket);

  writer->WriteU64(sketches_.size());
  for (const Sketch& sketch : sketches_) {
    writer->WriteBlob(sketch.hll.Serialize());
  }
}

util::StatusOr<LshTable> LshTable::Deserialize(util::ByteReader* reader) {
  LshTable table;
  uint64_t num_buckets = 0, num_ids = 0, max_bucket = 0;
  HLSH_RETURN_IF_ERROR(reader->ReadU64(&num_buckets));
  HLSH_RETURN_IF_ERROR(reader->ReadU64(&num_ids));
  HLSH_RETURN_IF_ERROR(reader->ReadU64(&max_bucket));
  if (num_ids > kMaxIds) {
    return util::Status::DataLoss(
        "table id count exceeds the directory's 32-bit begin/size fields");
  }
  table.max_bucket_size_ = max_bucket;

  std::vector<uint64_t> keys;
  std::vector<size_t> offsets;
  std::vector<int32_t> sketch_of_bucket;
  HLSH_RETURN_IF_ERROR(reader->ReadArray<uint64_t>(num_buckets, &keys));
  HLSH_RETURN_IF_ERROR(reader->ReadArray<size_t>(
      num_buckets == 0 ? 1 : num_buckets + 1, &offsets));
  HLSH_RETURN_IF_ERROR(reader->ReadArray<uint32_t>(num_ids, &table.ids_));
  HLSH_RETURN_IF_ERROR(
      reader->ReadArray<int32_t>(num_buckets, &sketch_of_bucket));

  // Validate CSR structure. Buckets are never empty (a slot of size 0 marks
  // an empty slot), so offsets rise strictly.
  if (offsets.front() != 0 || offsets.back() != num_ids) {
    return util::Status::DataLoss("table offsets do not bracket the ids");
  }
  for (size_t b = 1; b < offsets.size(); ++b) {
    if (offsets[b] <= offsets[b - 1]) {
      return util::Status::DataLoss("table offsets do not rise strictly");
    }
  }

  uint64_t num_sketches = 0;
  HLSH_RETURN_IF_ERROR(reader->ReadU64(&num_sketches));
  std::vector<uint8_t> blob;
  for (uint64_t s = 0; s < num_sketches; ++s) {
    HLSH_RETURN_IF_ERROR(reader->ReadBlob(&blob));
    auto sketch = hll::HyperLogLog::Deserialize(blob);
    if (!sketch.ok()) return sketch.status();
    table.sketches_.push_back({std::move(*sketch), 0});
  }

  std::vector<Slot> buckets(num_buckets);
  for (uint64_t b = 0; b < num_buckets; ++b) {
    const uint32_t bucket_size =
        static_cast<uint32_t>(offsets[b + 1] - offsets[b]);
    Slot& bucket = buckets[b];
    bucket.key = keys[b];
    bucket.begin = static_cast<uint32_t>(offsets[b]);
    bucket.size_or_sketch = bucket_size;
    const int32_t index = sketch_of_bucket[b];
    if (index < 0) continue;
    if (static_cast<uint64_t>(index) >= num_sketches) {
      return util::Status::DataLoss("sketch index out of range");
    }
    Sketch& sketch = table.sketches_[static_cast<size_t>(index)];
    if (sketch.bucket_size != 0) {
      return util::Status::DataLoss("sketch shared by two buckets");
    }
    sketch.bucket_size = bucket_size;
    bucket.size_or_sketch = kSketchTag | static_cast<uint32_t>(index);
  }
  HLSH_RETURN_IF_ERROR(table.FillDirectory(buckets));
  return table;
}

}  // namespace lsh
}  // namespace hybridlsh
