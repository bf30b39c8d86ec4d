#include "sort/merge_sort.hpp"

#include <initializer_list>
#include <string_view>

#include "sort/batched_merge.hpp"
#include "sort/merge_arrays.hpp"
#include "sort/segmented_sort.hpp"

namespace cfmerge::sort {

namespace {
// Phase sums are computed on the launcher's reduced (block-order)
// counters, so they are independent of the worker pool size.
std::uint64_t phase_sum(const gpusim::PhaseCounters& phases,
                        std::initializer_list<std::string_view> names,
                        std::uint64_t gpusim::Counters::*field) {
  std::uint64_t c = 0;
  for (const auto& [name, counters] : phases.phases())
    for (const std::string_view want : names)
      if (name == want) c += counters.*field;
  return c;
}

// Only the pairwise-merge kernel's merge phase: this is what the paper's
// gather replaces and what its nvprof check ("no bank conflicts during
// merging") measured.  The block-sort stage is identical in both variants
// and tracked separately.
constexpr std::string_view kMergePhase = "merge.merge";
}  // namespace

std::uint64_t SortReport::merge_conflicts() const {
  return phase_sum(phases, {kMergePhase}, &gpusim::Counters::bank_conflicts);
}

std::uint64_t SortReport::merge_shared_accesses() const {
  return phase_sum(phases, {kMergePhase}, &gpusim::Counters::shared_accesses);
}

std::uint64_t MergeReport::merge_conflicts() const {
  return phase_sum(phases, {kMergePhase}, &gpusim::Counters::bank_conflicts);
}

std::uint64_t BatchedMergeReport::merge_conflicts() const {
  return phase_sum(phases, {kMergePhase}, &gpusim::Counters::bank_conflicts);
}

std::uint64_t SegmentedSortReport::merge_conflicts() const {
  return phase_sum(phases, {kMergePhase}, &gpusim::Counters::bank_conflicts);
}

std::uint64_t SortReport::blocksort_conflicts() const {
  return phase_sum(phases, {"bsort.merge", "bsort.search", "bsort.thread_sort"},
                   &gpusim::Counters::bank_conflicts);
}

}  // namespace cfmerge::sort
