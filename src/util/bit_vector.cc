#include "util/bit_vector.h"

#include <algorithm>
#include <bit>

namespace hybridlsh {
namespace util {

size_t BitVector::Count() const {
  size_t total = 0;
  for (uint64_t word : words_.span()) {
    total += static_cast<size_t>(std::popcount(word));
  }
  return total;
}

namespace {

// Number of 64-bit words holding `bits` bits.
size_t WordCount(size_t bits) { return (bits + 63) / 64; }

// Mask keeping only the bits of a word that lie below bit index `bits`
// (all ones when `bits` is a multiple of 64).
uint64_t TailMask(size_t bits) {
  return (bits & 63) == 0 ? ~uint64_t{0} : ~uint64_t{0} >> (64 - (bits & 63));
}

}  // namespace

void BitVector::AndWith(const BitVector& other) {
  uint64_t* words = words_.mutable_data();
  const size_t my_words = WordCount(size());
  const size_t common = std::min(my_words, WordCount(other.AcquireSize()));
  for (size_t w = 0; w < common; ++w) {
    words[w] &= other.LoadWord(w, std::memory_order_acquire);
  }
  // Positions >= other.size() intersect with an implicit zero. Within the
  // last common word, other's own tail invariant (no bits past its size)
  // already clears them; whole words past other's storage go to zero here.
  for (size_t w = common; w < my_words; ++w) words[w] = 0;
}

void BitVector::OrWith(const BitVector& other) {
  uint64_t* words = words_.mutable_data();
  const size_t my_words = WordCount(size());
  const size_t common = std::min(my_words, WordCount(other.AcquireSize()));
  for (size_t w = 0; w < common; ++w) {
    words[w] |= other.LoadWord(w, std::memory_order_acquire);
  }
  // A longer `other` may have set bits in our last word past size(); re-mask
  // so the "no bits past size()" invariant survives.
  if (my_words > 0 && common == my_words) {
    words[my_words - 1] &= TailMask(size());
  }
}

void BitVector::AndWithNot(const BitVector& other) {
  uint64_t* words = words_.mutable_data();
  const size_t common =
      std::min(WordCount(size()), WordCount(other.AcquireSize()));
  for (size_t w = 0; w < common; ++w) {
    words[w] &= ~other.LoadWord(w, std::memory_order_acquire);
  }
  // Words past other's coverage are untouched: a bit the operand never
  // covered (e.g. an id inserted after the tombstone map was snapshotted)
  // cannot be marked dead.
}

size_t BitVector::CountAnd(const BitVector& other) const {
  const size_t common =
      std::min(WordCount(AcquireSize()), WordCount(other.AcquireSize()));
  size_t total = 0;
  for (size_t w = 0; w < common; ++w) {
    total += static_cast<size_t>(
        std::popcount(LoadWord(w, std::memory_order_acquire) &
                      other.LoadWord(w, std::memory_order_acquire)));
  }
  return total;
}

void BitVector::AppendClearBitsAcquire(size_t begin, size_t end,
                                       std::vector<uint32_t>* out) const {
  HLSH_DCHECK(end <= size());
  if (begin >= end) return;
  // Size for the all-clear case once, write through a cursor, trim after.
  const size_t base = out->size();
  out->resize(base + (end - begin));
  uint32_t* cursor = out->data() + base;
  const size_t first_word = begin >> 6;
  const size_t last_word = (end - 1) >> 6;
  for (size_t w = first_word; w <= last_word; ++w) {
    uint64_t clear = ~LoadWord(w, std::memory_order_acquire);
    if (w == first_word) clear &= ~uint64_t{0} << (begin & 63);
    if (w == last_word && (end & 63) != 0) {
      clear &= ~uint64_t{0} >> (64 - (end & 63));
    }
    const uint32_t word_base = static_cast<uint32_t>(w << 6);
    if (clear == ~uint64_t{0}) {
      for (uint32_t bit = 0; bit < 64; ++bit) cursor[bit] = word_base + bit;
      cursor += 64;
      continue;
    }
    while (clear != 0) {
      *cursor++ = word_base + static_cast<uint32_t>(std::countr_zero(clear));
      clear &= clear - 1;
    }
  }
  out->resize(static_cast<size_t>(cursor - out->data()));
}

void BitVector::Serialize(ByteWriter* writer) const {
  writer->WriteU64(size());
  writer->WriteArray<uint64_t>(words_.span());
}

util::StatusOr<BitVector> BitVector::Deserialize(ByteReader* reader) {
  uint64_t size = 0;
  HLSH_RETURN_IF_ERROR(reader->ReadU64(&size));
  // size / 64 (not (size + 63) / 64): the latter wraps for sizes near
  // 2^64, accepting a huge bit count backed by zero words.
  const uint64_t num_words = size / 64 + (size % 64 != 0 ? 1 : 0);
  std::vector<uint64_t> words;
  HLSH_RETURN_IF_ERROR(reader->ReadArray<uint64_t>(num_words, &words));
  // Bits past `size` must be zero — Grow and Count both assume it.
  if (size % 64 != 0 && !words.empty() &&
      (words.back() >> (size % 64)) != 0) {
    return util::Status::DataLoss("bit vector has set bits past its size");
  }
  BitVector bits;
  bits.words_.Assign(words);
  bits.size_.store(static_cast<size_t>(size), std::memory_order_relaxed);
  return bits;
}

}  // namespace util
}  // namespace hybridlsh
