#include "core/cohort_planner.hpp"

#include <stdexcept>

#include "mm/oracle.hpp"

namespace mmdiag {

CohortPlan plan_cohorts(std::span<const std::size_t> run_of) {
  const std::size_t n = run_of.size();
  // runs[id] collects its requests in order; `order` lists run ids by
  // first request, which fixes the cohort order.
  std::vector<std::vector<std::size_t>> runs(n);
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t id = run_of[i];
    if (id == kNoRun) continue;
    if (id >= n) {
      throw std::invalid_argument("plan_cohorts: run id out of range");
    }
    if (runs[id].empty()) order.push_back(id);
    runs[id].push_back(i);
  }

  constexpr std::size_t kLanes = BitSlicedOracle::kMaxLanes;
  CohortPlan plan;
  std::vector<char> in_cohort(n, 0);
  for (const std::size_t id : order) {
    const std::vector<std::size_t>& run = runs[id];
    if (run.size() < kLanes) continue;
    const std::size_t count = (run.size() + kLanes - 1) / kLanes;
    const std::size_t width = run.size() / count;
    const std::size_t wider = run.size() % count;  // these take width + 1
    auto first = run.begin();
    for (std::size_t c = 0; c < count; ++c) {
      const auto last = first + static_cast<std::ptrdiff_t>(
                                    width + (c < wider ? 1 : 0));
      plan.cohorts.emplace_back(first, last);
      first = last;
    }
    for (const std::size_t i : run) in_cohort[i] = 1;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (in_cohort[i] == 0) plan.scalar.push_back(i);
  }
  return plan;
}

}  // namespace mmdiag
