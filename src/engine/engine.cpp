#include "engine/engine.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/cohort_planner.hpp"
#include "topology/registry.hpp"
#include "util/timer.hpp"

namespace mmdiag {

namespace {

/// Diagnoser over whichever GraphView the calibration carries, with shared
/// ownership of the whole bundle either way.
std::unique_ptr<Diagnoser> make_calibrated_diagnoser(
    const std::shared_ptr<const Calibration>& cal,
    const DiagnoserOptions& options) {
  if (cal->is_implicit()) {
    return std::make_unique<Diagnoser>(implicit_handle(cal), cal->partition,
                                       options);
  }
  return std::make_unique<Diagnoser>(graph_handle(cal), cal->partition,
                                     options);
}

/// One directed request, start to finish: a plain global solve, or —
/// when local_node is set — the BGM fast path. A definite local answer is
/// a success about that node alone; on kUnknown the global solve answers,
/// narrowed to the node, with the fast path's reads folded into its
/// look-up count.
DiagnosisResult run_directed(DirectedDiagnoser& driver, const Graph& graph,
                             const DirectedOracle& oracle, Node local_node) {
  if (local_node == kNoNode) return driver.diagnose(oracle);
  const Timer timer;
  const LocalDiagnosisResult local =
      bgm_local_diagnose(graph, oracle, local_node);
  DiagnosisResult out;
  if (local.status != LocalDiagnosisStatus::kUnknown) {
    out.success = true;
    out.used_local_fast_path = true;
    if (local.status == LocalDiagnosisStatus::kFaulty) {
      out.faults.push_back(local_node);
    }
  } else {
    out = driver.diagnose(oracle);
    if (out.success) {
      const bool faulty = std::binary_search(out.faults.begin(),
                                             out.faults.end(), local_node);
      out.faults.assign(faulty ? 1 : 0, local_node);
    }
  }
  out.lookups += local.lookups;
  out.diagnose_seconds = timer.seconds();
  return out;
}

}  // namespace

DiagnosisEngine::DiagnosisEngine(EngineOptions options)
    : options_(options),
      capacity_(options.cache_capacity == 0 ? 1 : options.cache_capacity),
      pool_(options.threads),
      lane_scratch_(pool_.size()) {}

DiagnosisEngine::ResolvedKey DiagnosisEngine::resolve(
    const std::string& spec, unsigned delta, ParentRule rule,
    bool validate_all, DiagnosisModel model) const {
  ResolvedKey out;
  out.topology = make_topology_from_spec(spec);
  out.delta = delta != 0 ? delta : out.topology->default_fault_bound();
  // out.delta may still be 0 (diagnosability unknown): the key is then never
  // inserted because build_calibration throws its descriptive error first.
  // Directed bundles are CSR-only (their drivers read adjacency both ways),
  // so a graph_mode preference never leaks into their keys.
  out.implicit = !is_directed_model(model) &&
                 resolve_implicit_mode(options_.graph_mode, *out.topology);
  out.key = out.topology->spec();
  out.key += "|delta=" + std::to_string(out.delta);
  out.key += "|rule=" + parent_rule_to_string(rule);
  if (!validate_all) out.key += "|component0-only";
  if (out.implicit) out.key += "|implicit";
  if (is_directed_model(model)) {
    out.key += "|model=" + diagnosis_model_to_string(model);
  }
  return out;
}

std::shared_ptr<const Calibration> DiagnosisEngine::get_or_build(
    const std::string& spec, unsigned delta, ParentRule rule,
    bool validate_all, DiagnosisModel model, bool* reused) {
  ResolvedKey resolved = resolve(spec, delta, rule, validate_all, model);
  if (reused) *reused = true;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = index_.find(resolved.key); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++counters_.hits;
      return it->second->calibration;
    }
  }

  // Miss: serialise builds of this key on its stripe (other stripes — other
  // specs — keep calibrating in parallel), then re-check. A racer that
  // loses the stripe finds the winner's entry here and scores a counter
  // *hit* (one build per key, however many threads miss simultaneously) —
  // but it blocked for the whole build, so for latency attribution it is
  // reported as not-reused: calibration_reused describes what this request
  // waited for, the hit/miss counters describe what was built.
  const std::lock_guard<std::mutex> build_lock(
      stripes_[std::hash<std::string>{}(resolved.key) % kStripes]);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = index_.find(resolved.key); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++counters_.hits;
      if (reused) *reused = false;
      return it->second->calibration;
    }
  }

  std::shared_ptr<const Calibration> built = build_calibration(
      std::move(resolved.topology), resolved.delta, rule, validate_all,
      resolved.implicit ? GraphMode::kImplicit : GraphMode::kCsr, model);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    lru_.push_front(Entry{resolved.key, built});
    index_[resolved.key] = lru_.begin();
    ++counters_.misses;
    while (lru_.size() > capacity_) {
      index_.erase(lru_.back().key);
      lru_.pop_back();
      ++counters_.evictions;  // holders keep the evicted bundle alive
      ++counters_.evictions_lru;
    }
  }
  if (reused) *reused = false;
  return built;
}

std::shared_ptr<const Calibration> DiagnosisEngine::calibration(
    const std::string& spec) {
  return get_or_build(spec, options_.diagnoser.delta, options_.diagnoser.rule,
                      options_.diagnoser.validate_all_components,
                      DiagnosisModel::kMMStar, nullptr);
}

std::shared_ptr<const Calibration> DiagnosisEngine::calibration(
    const std::string& spec, unsigned delta, ParentRule rule,
    bool validate_all, DiagnosisModel model) {
  return get_or_build(spec, delta, rule, validate_all, model, nullptr);
}

DiagnosisResult DiagnosisEngine::diagnose(const std::string& spec,
                                          const SyndromeOracle& oracle) {
  const std::lock_guard<std::mutex> serve_lock(serve_mu_);
  return solve(0, EngineRequest{spec, &oracle});
}

DiagnosisResult DiagnosisEngine::solve(unsigned lane,
                                       const EngineRequest& request) {
  DiagnosisResult out;
  if (request.oracle != nullptr && request.directed != nullptr) {
    out.failure_reason = "request carries both an MM* and a directed oracle";
    return out;
  }
  if (request.oracle == nullptr && request.directed == nullptr) {
    out.failure_reason = "null oracle in request";
    return out;
  }
  if (request.local_node != kNoNode && request.directed == nullptr) {
    out.failure_reason =
        "local_node is set but the request has no directed oracle";
    return out;
  }
  if (request.directed != nullptr &&
      !is_directed_model(request.directed->model())) {
    // An MM* calibration has no DirectedDiagnoser to hand the oracle to.
    out.failure_reason = "directed oracle carries the MM* model";
    return out;
  }
  const Timer setup_timer;
  bool reused = false;
  const std::shared_ptr<const Calibration> cal = get_or_build(
      request.spec, options_.diagnoser.delta, options_.diagnoser.rule,
      options_.diagnoser.validate_all_components,
      request.directed != nullptr ? request.directed->model()
                                  : DiagnosisModel::kMMStar,
      &reused);
  LaneDiagnoser& driver = lane_driver(lane, cal);
  const double setup_seconds = setup_timer.seconds();
  out = request.directed != nullptr
            ? run_directed(*driver.directed, cal->graph, *request.directed,
                           request.local_node)
            : driver.diagnoser->diagnose(*request.oracle);
  out.calibration_reused = reused;
  out.setup_seconds = setup_seconds;
  return out;
}

std::vector<DiagnosisResult> DiagnosisEngine::serve(
    const std::vector<EngineRequest>& requests) {
  const std::lock_guard<std::mutex> serve_lock(serve_mu_);
  std::vector<DiagnosisResult> results(requests.size());

  // Bitsliced cohorts (core/cohort_planner.hpp): the well-formed MM*
  // TableOracle requests of one raw spec string and one oracle graph shape
  // (node count, minimum and maximum degree) form a run, and every run of
  // 64 or more is cut, in request order, into near-equal cohorts of at most
  // 64 lanes, each one lockstep solve (Diagnoser::diagnose_cohort) on
  // whichever lane picks it up. Shorter runs and every other request stay
  // scalar items. Keying on the shape keeps an oracle over another graph
  // out of its spec's cohorts: it fails alone, on the O(1) shape check of
  // whichever route serves it.
  // get_or_build still runs once per *request*, so cache hit/miss counters
  // and per-request calibration_reused semantics are exactly the scalar
  // path's. Per-syndrome results and look-up counts are bit-identical
  // either way.
  std::vector<std::size_t> run_of(requests.size(), kNoRun);
  {
    using RunKey =
        std::tuple<std::string_view, std::size_t, unsigned, unsigned>;
    std::map<RunKey, std::size_t> run_ids;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const EngineRequest& rq = requests[i];
      if (rq.oracle == nullptr || rq.directed != nullptr ||
          rq.local_node != kNoNode || !rq.oracle->has_graph() ||
          dynamic_cast<const TableOracle*>(rq.oracle) == nullptr) {
        continue;
      }
      const Graph& g = rq.oracle->graph();
      if (g.max_degree() > 64) continue;
      const RunKey key{rq.spec, g.num_nodes(), g.min_degree(),
                       g.max_degree()};
      run_of[i] = run_ids.try_emplace(key, run_ids.size()).first->second;
    }
  }
  const CohortPlan plan = plan_cohorts(run_of);

  pool_.parallel_for(
      plan.cohorts.size() + plan.scalar.size(),
      [&](unsigned lane, std::size_t item) {
        if (item < plan.cohorts.size()) {
          const std::vector<std::size_t>& idx = plan.cohorts[item];
          try {
            const Timer setup_timer;
            std::shared_ptr<const Calibration> cal;
            std::array<bool, BitSlicedOracle::kMaxLanes> reused{};
            for (std::size_t k = 0; k < idx.size(); ++k) {
              bool r = false;
              cal = get_or_build(requests[idx[k]].spec,
                                 options_.diagnoser.delta,
                                 options_.diagnoser.rule,
                                 options_.diagnoser.validate_all_components,
                                 DiagnosisModel::kMMStar, &r);
              reused[k] = r;
            }
            Diagnoser& diagnoser = *lane_driver(lane, cal).diagnoser;
            const double setup_seconds = setup_timer.seconds();
            if (cal->is_implicit()) {
              // Cohorts bitslice through CSR row layout; an implicit
              // calibration serves its TableOracle requests scalar instead
              // (same results, no lockstep).
              for (std::size_t k = 0; k < idx.size(); ++k) {
                DiagnosisResult r =
                    diagnoser.diagnose(*requests[idx[k]].oracle);
                r.calibration_reused = reused[k];
                r.setup_seconds = setup_seconds;
                results[idx[k]] = std::move(r);
              }
              return;
            }
            std::vector<const TableOracle*> cohort;
            cohort.reserve(idx.size());
            for (const std::size_t i : idx) {
              cohort.push_back(
                  static_cast<const TableOracle*>(requests[i].oracle));
            }
            auto res = diagnoser.diagnose_cohort(cohort);
            for (std::size_t k = 0; k < idx.size(); ++k) {
              res[k].calibration_reused = reused[k];
              res[k].setup_seconds = setup_seconds;
              results[idx[k]] = std::move(res[k]);
            }
          } catch (const std::exception& e) {
            // A failing cohort fails alone; the stream goes on.
            for (const std::size_t i : idx) {
              results[i] = DiagnosisResult{};
              results[i].failure_reason =
                  std::string("engine setup failed: ") + e.what();
            }
          }
          return;
        }
        const std::size_t i = plan.scalar[item - plan.cohorts.size()];
        try {
          results[i] = solve(lane, requests[i]);
        } catch (const std::exception& e) {
          // A malformed or unsupported request fails alone.
          results[i] = DiagnosisResult{};
          results[i].failure_reason =
              std::string("engine setup failed: ") + e.what();
        }
      });
  return results;
}

std::unique_ptr<Diagnoser> DiagnosisEngine::make_diagnoser(
    const std::string& spec) {
  return make_diagnoser(spec, options_.diagnoser);
}

std::unique_ptr<Diagnoser> DiagnosisEngine::make_diagnoser(
    const std::string& spec, const DiagnoserOptions& diagnoser_options) {
  const std::shared_ptr<const Calibration> cal = get_or_build(
      spec, diagnoser_options.delta, diagnoser_options.rule,
      diagnoser_options.validate_all_components, DiagnosisModel::kMMStar,
      nullptr);
  return make_calibrated_diagnoser(cal, diagnoser_options);
}

DiagnosisEngine::LaneDiagnoser& DiagnosisEngine::lane_driver(
    unsigned lane, const std::shared_ptr<const Calibration>& cal) {
  // Lane-local drivers reuse their scratch (a Diagnoser's Set_Builder
  // bitsets and parent positions, a DirectedDiagnoser's outcome and
  // union-find arrays) across requests without crossing threads. Stale
  // entries for evicted calibrations can never be looked up again (the
  // pointer differs), so pruning them first keeps total pinned memory
  // proportional to the cache capacity, not to threads x capacity.
  auto& scratch = lane_scratch_[lane];
  if (const auto it = scratch.find(cal.get()); it != scratch.end()) {
    return it->second;
  }
  if (scratch.size() >= capacity_) {
    std::unordered_set<const Calibration*> resident;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      resident.reserve(lru_.size());
      for (const Entry& entry : lru_) resident.insert(entry.calibration.get());
    }
    std::erase_if(scratch, [&](const auto& kv) {
      return resident.find(kv.first) == resident.end();
    });
    if (scratch.size() >= capacity_) scratch.clear();
  }
  LaneDiagnoser entry;
  entry.calibration = cal;
  if (cal->is_directed()) {
    entry.directed =
        std::make_unique<DirectedDiagnoser>(cal->graph, cal->delta());
  } else {
    entry.diagnoser = make_calibrated_diagnoser(cal, options_.diagnoser);
  }
  return scratch.emplace(cal.get(), std::move(entry)).first->second;
}

std::size_t DiagnosisEngine::invalidate(const std::string& spec) {
  // Canonicalise through the registry so "hypercube  07" retires the
  // "hypercube 7" entries; unknown specs throw rather than silently
  // matching nothing.
  const std::string stem = make_topology_from_spec(spec)->spec();
  const std::string prefix = stem + "|";
  std::size_t dropped = 0;
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key == stem || it->key.rfind(prefix, 0) == 0) {
      index_.erase(it->key);
      it = lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  counters_.evictions += dropped;
  counters_.evictions_explicit += dropped;
  return dropped;
}

std::size_t DiagnosisEngine::invalidate_all() {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::size_t dropped = lru_.size();
  index_.clear();
  lru_.clear();
  counters_.evictions += dropped;
  counters_.evictions_explicit += dropped;
  return dropped;
}

EngineCounters DiagnosisEngine::counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  EngineCounters out = counters_;
  out.entries = lru_.size();
  return out;
}

}  // namespace mmdiag
