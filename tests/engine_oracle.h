// Reference answers for engine tests that share no code with the engine's
// query path: forced-LSH is the in-radius part of a static LshIndex's plan
// walk (ComputePlan + CollectCandidates, scalar family distance); tests
// take forced-linear from data::RangeScan* directly. The scalar distances
// match the engine's kernels for the suites' fixed seeds (see the
// core/kernels.h comment on last-ulp radii).

#ifndef HYBRIDLSH_TESTS_ENGINE_ORACLE_H_
#define HYBRIDLSH_TESTS_ENGINE_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "lsh/index.h"
#include "util/bit_vector.h"

namespace hybridlsh {
namespace test_oracle {

/// S1 for one query: the index's probe plan.
template <typename Index, typename Point>
lsh::ProbePlan PlanOf(const Index& index, Point query,
                      size_t probes_per_table = 1) {
  lsh::PlanScratch scratch;
  lsh::ProbePlan plan;
  HLSH_CHECK(index.ComputePlan(query, probes_per_table, &scratch, &plan).ok());
  return plan;
}

/// Sorted in-radius candidates of `index`'s plan walk for `query`. `dataset`
/// is the one the index was built over (its ids index it directly).
template <typename Family, typename Dataset>
std::vector<uint32_t> LshOracle(const lsh::LshIndex<Family>& index,
                                const Dataset& dataset,
                                typename Family::Point query, double radius,
                                size_t probes_per_table = 1) {
  util::VisitedSet visited(dataset.size());
  index.CollectCandidates(PlanOf(index, query, probes_per_table), &visited);
  std::vector<uint32_t> ids;
  for (const uint32_t id : visited.touched()) {
    if (index.family().Distance(dataset.point(id), query) <= radius) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace test_oracle
}  // namespace hybridlsh

#endif  // HYBRIDLSH_TESTS_ENGINE_ORACLE_H_
