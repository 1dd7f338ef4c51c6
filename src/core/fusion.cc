#include "core/fusion.h"

#include <algorithm>
#include <array>
#include <bit>

namespace hybridlsh {
namespace core {

namespace {

/// Maps a double to bits whose unsigned order is the double's numeric
/// order: positives get the sign bit set, negatives are inverted. -0.0 is
/// folded onto +0.0 first, so the two tie (as they do as doubles).
uint64_t OrderedBits(double value) {
  if (value == 0.0) value = 0.0;
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

double FromOrderedBits(uint64_t key) {
  return std::bit_cast<double>((key >> 63) != 0 ? key & ~(uint64_t{1} << 63)
                                                : ~key);
}

/// Sorts the pairs (keys[i], ids[i]) by (key, id) ascending: a stable LSD
/// radix sort over 12 byte digits, the id's four first. A digit whose byte
/// is the same in every pair (the high bytes of a small id space, the zero
/// low mantissa bytes of a float-valued distance) costs no pass.
void SortByKeyThenId(std::vector<uint64_t>* keys, std::vector<uint32_t>* ids,
                     FusionScratch* s) {
  const size_t n = keys->size();
  if (n < 2) return;
  uint64_t varying_key = 0;
  uint32_t varying_id = 0;
  for (size_t i = 0; i < n; ++i) {
    varying_key |= (*keys)[i] ^ (*keys)[0];
    varying_id |= (*ids)[i] ^ (*ids)[0];
  }
  s->keys_tmp.resize(n);
  s->ids_tmp.resize(n);
  for (int d = 0; d < 12; ++d) {
    const int shift = 8 * (d < 4 ? d : d - 4);
    auto digit = [&](size_t i) -> size_t {
      return ((d < 4 ? uint64_t{(*ids)[i]} : (*keys)[i]) >> shift) & 0xff;
    };
    if ((((d < 4 ? uint64_t{varying_id} : varying_key) >> shift) & 0xff) ==
        0) {
      continue;
    }
    std::array<size_t, 256> offsets{};
    for (size_t i = 0; i < n; ++i) ++offsets[digit(i)];
    size_t offset = 0;
    for (size_t& c : offsets) {
      const size_t bucket = c;
      c = offset;
      offset += bucket;
    }
    for (size_t i = 0; i < n; ++i) {
      const size_t to = offsets[digit(i)]++;
      s->keys_tmp[to] = (*keys)[i];
      s->ids_tmp[to] = (*ids)[i];
    }
    keys->swap(s->keys_tmp);
    ids->swap(s->ids_tmp);
  }
}

/// The final ranking order: score descending, then id ascending.
bool RanksBefore(const FusedHit& a, const FusedHit& b) {
  return a.score > b.score || (a.score == b.score && a.id < b.id);
}

/// Sorts hits into final order with a natural merge sort: split them into
/// maximal runs already in order, then merge neighbouring runs pairwise
/// until one is left — O(n log runs). Hits accumulated from ranked lists
/// arrive in very few runs: each list's first-seen ids come in rank order,
/// and when the lists share one ranking (the engine's one walk) their
/// scores fall along it, so the sort is usually one or two linear passes.
void SortHits(std::vector<FusedHit>* hits, FusionScratch* s) {
  std::vector<size_t>& bounds = s->run_bounds;
  bounds.assign(1, 0);
  for (size_t i = 1; i < hits->size(); ++i) {
    if (RanksBefore((*hits)[i], (*hits)[i - 1])) bounds.push_back(i);
  }
  bounds.push_back(hits->size());
  s->merged.resize(hits->size());
  while (bounds.size() > 2) {
    const size_t runs = bounds.size() - 1;
    size_t kept = 0;
    for (size_t k = 0; k < runs; k += 2) {  // an odd last run is copied
      const auto first = hits->begin() + bounds[k];
      const auto middle = hits->begin() + bounds[k + 1];
      const auto last = hits->begin() + bounds[std::min(k + 2, runs)];
      std::merge(first, middle, middle, last, s->merged.begin() + bounds[k],
                 RanksBefore);
      bounds[kept++] = bounds[k];
    }
    bounds[kept++] = hits->size();
    bounds.resize(kept);
    hits->swap(s->merged);
  }
}

/// Whether `list` is already in rank order: (distance ascending, id
/// ascending), strictly — so a list holding a duplicate entry is not.
bool IsRanked(const ScoredList& list) {
  for (size_t j = 1; j < list.ids.size(); ++j) {
    const double prev = list.distances[j - 1], next = list.distances[j];
    if (!(prev < next || (prev == next && list.ids[j - 1] < list.ids[j]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

void RankScoredList(ScoredList* list, FusionScratch* scratch) {
  FusionScratch local;
  FusionScratch* s = scratch != nullptr ? scratch : &local;
  const size_t n = list->ids.size();
  HLSH_DCHECK(list->distances.size() == n);
  s->keys.resize(n);
  for (size_t i = 0; i < n; ++i) s->keys[i] = OrderedBits(list->distances[i]);
  SortByKeyThenId(&s->keys, &list->ids, s);
  for (size_t i = 0; i < n; ++i) {
    list->distances[i] = FromOrderedBits(s->keys[i]);
  }
}

util::Status FuseScoredLists(std::span<const ScoredList> lists,
                             const FusionOptions& options,
                             FusionScratch* scratch,
                             std::vector<FusedHit>* out) {
  out->clear();
  FusionScratch local;
  FusionScratch* s = scratch != nullptr ? scratch : &local;

  size_t entries = 0;
  for (const ScoredList& list : lists) {
    if (list.distances.size() != list.ids.size()) {
      return util::Status::InvalidArgument(
          "ScoredList ids/distances length mismatch");
    }
    entries += list.ids.size();
  }
  // At most half full, so a probe for an absent id ends quickly.
  size_t capacity = 16;
  while (capacity < 2 * entries) capacity *= 2;
  const int bits = std::countr_zero(capacity);
  const size_t mask = capacity - 1;
  s->slots.assign(capacity, 0);
  s->last_list.clear();

  // Adds list i's contribution for id. Lists are visited in order, so each
  // id's score folds its contributions in subquery order, from 0.0.
  auto accumulate = [&](uint32_t id, uint32_t i, double contribution) {
    size_t h = (id * uint64_t{0x9E3779B97F4A7C15}) >> (64 - bits);
    while (s->slots[h] != 0 && (*out)[s->slots[h] - 1].id != id) {
      h = (h + 1) & mask;
    }
    if (s->slots[h] == 0) {
      out->push_back(FusedHit{id, 0.0});
      s->last_list.push_back(i);
      s->slots[h] = static_cast<uint32_t>(out->size());
    } else if (s->last_list[s->slots[h] - 1] == i) {
      return false;
    }
    const size_t hit = s->slots[h] - 1;
    s->last_list[hit] = i;
    (*out)[hit].score += contribution;
    return true;
  };

  for (uint32_t i = 0; i < lists.size(); ++i) {
    const ScoredList* list = &lists[i];
    if (options.mode == FusionMode::kRrf && !IsRanked(*list)) {
      s->ranked = *list;
      RankScoredList(&s->ranked, s);
      list = &s->ranked;
    }
    for (size_t r = 0; r < list->ids.size(); ++r) {
      const double contribution =
          options.mode == FusionMode::kRrf
              ? list->weight / (options.rrf_k + static_cast<double>(r + 1))
              : list->weight / (1.0 + list->distances[r]);
      if (!accumulate(list->ids[r], i, contribution)) {
        out->clear();
        return util::Status::InvalidArgument(
            "duplicate id within one fused subquery result list");
      }
    }
  }

  SortHits(out, s);
  return util::Status::Ok();
}

}  // namespace core
}  // namespace hybridlsh
