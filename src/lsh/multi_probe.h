// Query-directed probing sequences (Lv, Josephson, Wang, Charikar, Li 2007).
//
// Multi-probe LSH examines several "close" buckets per table instead of
// only the home bucket, trading probes for tables. The paper names
// multi-probe schemes as the natural host for its hybrid strategy (§1, §5):
// more probed buckets mean more collisions and more duplicates, so the
// HLL-based candSize estimate matters even more. The plan walks
// (lsh/index.h) merge bucket sketches across probes exactly as they do
// across tables.
//
// This file implements the probing-sequence core: given perturbation
// "atoms" (move slot s by delta at cost c), emit perturbation sets in
// non-decreasing total-cost order using the heap algorithm of Lv et al.
// (shift/expand over cost-sorted atoms). For projection families the atom
// costs are the query's distances to the window boundaries; for SimHash
// they are the hyperplane margins; for bit sampling they are uniform.

#ifndef HYBRIDLSH_LSH_MULTI_PROBE_H_
#define HYBRIDLSH_LSH_MULTI_PROBE_H_

#include <cstdint>
#include <span>
#include <vector>

namespace hybridlsh {
namespace lsh {

/// One candidate perturbation: move `slot` by `delta` at cost `cost`.
struct ProbeAtom {
  uint32_t slot = 0;
  int8_t delta = 0;  // +1 / -1 for projections; +1 = flip for binary slots
  double cost = 0.0;
};

/// A perturbation set: atoms applied together to form one probe.
using ProbeSet = std::vector<ProbeAtom>;

namespace internal {
/// Heap node of the Lv et al. generator: a candidate set as strictly
/// increasing indices into the cost-sorted atom array. Exposed only so
/// ProbeGenScratch can recycle the nodes; not part of the public API.
struct ProbeHeapEntry {
  double total_cost = 0.0;
  std::vector<uint32_t> indices;
};
}  // namespace internal

/// Reusable allocations for GenerateProbeSetsInto. One instance per scratch
/// context (per query worker); carrying it across tables and queries makes
/// probe-sequence generation allocation-free in steady state.
struct ProbeGenScratch {
  std::vector<ProbeAtom> sorted;                    // cost-sorted atom copy
  std::vector<internal::ProbeHeapEntry> heap;       // binary min-heap storage
  std::vector<std::vector<uint32_t>> free_indices;  // recycled index vectors
};

/// Emits up to `max_sets` perturbation sets in non-decreasing total cost.
/// Sets never contain two atoms for the same slot (a slot cannot move both
/// ways at once). The empty set (home bucket) is NOT emitted; callers probe
/// the home bucket first. Returns fewer sets when the atom pool is
/// exhausted.
std::vector<ProbeSet> GenerateProbeSets(std::span<const ProbeAtom> atoms,
                                        size_t max_sets);

/// Scratch-reusing form of GenerateProbeSets: fills `*out` with the same
/// sets in the same order and returns how many were emitted. `*out` is
/// resized to the result; its inner vectors (and everything in `*scratch`)
/// keep their capacity across calls, so repeated invocations allocate
/// nothing once warm.
size_t GenerateProbeSetsInto(std::span<const ProbeAtom> atoms, size_t max_sets,
                             ProbeGenScratch* scratch,
                             std::vector<ProbeSet>* out);

}  // namespace lsh
}  // namespace hybridlsh

#endif  // HYBRIDLSH_LSH_MULTI_PROBE_H_
