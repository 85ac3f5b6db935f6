// Cohort planning: which syndromes of a batch share one bitsliced solve.
//
// Diagnoser::diagnose_cohort solves up to 64 table syndromes of one
// calibration in lockstep, bit-identical per lane at every width from 1 to
// 64; the scalar driver solves one at a time. DiagnosisEngine::serve asks
// this planner which of its requests ride a cohort: every run of at least
// 64 same-calibration table requests does, cut into near-equal cohorts of
// at most 64 lanes, so a run leaves no scalar remainder. Shorter runs, and
// every other request, go to the scalar driver, where the thread pool
// spreads them over every lane.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mmdiag {

/// run_of value for a request no cohort may take.
inline constexpr std::size_t kNoRun = SIZE_MAX;

struct CohortPlan {
  /// Request indices per cohort, each ascending. A run's cohorts are
  /// consecutive slices of it, and runs come in order of first request.
  std::vector<std::vector<std::size_t>> cohorts;
  /// Every other request index, ascending.
  std::vector<std::size_t> scalar;
};

/// Plans one batch. run_of[i] names the run request i may share a cohort
/// with — requests with one run id share a calibration and a graph shape —
/// or is kNoRun. Run ids are below run_of.size(). A run of n >= 64
/// (BitSlicedOracle::kMaxLanes) requests is cut, in request order, into
/// ceil(n / 64) cohorts whose widths differ by at most one, so none is
/// narrower than 32; a shorter run goes to `scalar` whole.
[[nodiscard]] CohortPlan plan_cohorts(std::span<const std::size_t> run_of);

}  // namespace mmdiag
