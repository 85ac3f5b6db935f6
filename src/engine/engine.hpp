// DiagnosisEngine — the shared calibration-cache service layer.
//
// Every entry point of this library (the CLI's diagnose and serve commands,
// the differential fuzzer, the churn engine, perfbench's workloads) needs
// the same expensive fault-independent state per topology spec: Topology +
// graph view + certified partition. A service facing a mixed-spec request
// stream needs exactly one owner of that state, so the engine provides it:
//
//   - a thread-safe LRU cache of immutable shared_ptr<const Calibration>
//     entries keyed by *canonical* spec (Topology::spec(), so "hypercube 7",
//     " hypercube  07" and a registry-parsed equivalent all share one
//     entry) extended with the calibration parameters (delta/rule/validate)
//     when a caller departs from the engine defaults;
//   - per-key striped build locks: concurrent misses on the same key
//     calibrate exactly once (the losers block, then reuse the winner's
//     bundle), while misses on different keys calibrate in parallel;
//   - eviction safety by construction: entries are shared_ptr, so a bundle
//     evicted mid-flight stays alive for every Diagnoser still holding it;
//   - one request path: serve() fans a mixed-spec request stream over the
//     engine's ThreadPool (util/thread_pool.hpp), and diagnose() is one
//     request on serve()'s lane 0. Every request is solved by its lane's
//     cached driver, with per-request setup/solve accounting
//     (DiagnosisResult::calibration_reused / setup_seconds).
//
// Results are bit-identical to constructing a Diagnoser (or a
// DirectedDiagnoser) directly: the engine only decides *where* the
// calibration lives, never what the solver computes (asserted across all
// registry families by tests/engine_test.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/diagnoser.hpp"
#include "core/directed_diagnoser.hpp"
#include "engine/calibration.hpp"
#include "mm/directed_oracle.hpp"
#include "mm/oracle.hpp"
#include "util/thread_pool.hpp"

namespace mmdiag {

struct EngineOptions {
  /// Resident calibration entries; at least 1 (0 is clamped to 1). Sized by
  /// the number of *distinct specs in flight*, not by traffic volume.
  std::size_t cache_capacity = 8;
  /// serve() worker lanes (calling thread included); 0 = hardware.
  unsigned threads = 0;
  /// Per-request defaults: rule/delta/validate_all select the calibration,
  /// the remaining fields configure each per-request Diagnoser.
  DiagnoserOptions diagnoser;
  /// GraphView selection for calibrations this engine builds. kAuto puts
  /// hypercubes of 2^17 nodes or more on the O(1)-memory ImplicitGraph and
  /// everything else on CSR (which also serves TableOracle/batch requests);
  /// kImplicit fails every request whose topology is not a hypercube. The
  /// resolved choice is part of the cache key, so one engine never
  /// conflates the two representations of a spec.
  GraphMode graph_mode = GraphMode::kAuto;
};

/// Monotonic cache counters (entries is a snapshot). misses counts actual
/// calibration builds: racing misses on one key resolve to one miss for the
/// winner and hits for the losers.
struct EngineCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;  // total = evictions_lru + evictions_explicit
  std::uint64_t evictions_lru = 0;       // capacity pressure
  std::uint64_t evictions_explicit = 0;  // invalidate()/invalidate_all()
  std::size_t entries = 0;
};

/// One unit of a mixed-spec request stream. The oracle is consulted by
/// exactly one lane (its look-up counter is unsynchronised), so pass one
/// oracle per request, never a shared one.
///
/// Exactly one of `oracle` (MM* comparator syndrome) and `directed`
/// (PMC/BGM per-arc syndrome; the model tag travels on the oracle) may be
/// set. A directed request with `local_node` set asks only for that node's
/// status: under BGM it is served by the local-diagnosis fast path first —
/// neighbourhood reads, no global solve — falling back to a full
/// DirectedDiagnoser solve only on kUnknown. The result then reports
/// success with faults = {local_node} (faulty) or {} (healthy), and
/// used_local_fast_path says which path answered.
struct EngineRequest {
  std::string spec;
  const SyndromeOracle* oracle = nullptr;
  const DirectedOracle* directed = nullptr;
  Node local_node = kNoNode;
};

class DiagnosisEngine {
 public:
  explicit DiagnosisEngine(EngineOptions options = {});

  DiagnosisEngine(const DiagnosisEngine&) = delete;
  DiagnosisEngine& operator=(const DiagnosisEngine&) = delete;

  /// Get-or-build under the engine's default calibration parameters.
  /// Thread-safe; throws std::invalid_argument on unknown specs and
  /// DiagnosisUnsupportedError when the instance cannot certify the bound.
  [[nodiscard]] std::shared_ptr<const Calibration> calibration(
      const std::string& spec);

  /// Get-or-build with explicit parameters (delta = 0 resolves to the
  /// topology's default fault bound). The fuzzer uses this to hold both
  /// probe-rule calibrations of one instance side by side. Directed models
  /// get their own cache entries — the key gains a "|model=" tag — holding
  /// an uncertified CSR bundle (see build_calibration).
  [[nodiscard]] std::shared_ptr<const Calibration> calibration(
      const std::string& spec, unsigned delta, ParentRule rule,
      bool validate_all = true,
      DiagnosisModel model = DiagnosisModel::kMMStar);

  /// Diagnose one MM* syndrome on serve()'s request path, with lane 0's
  /// cached Diagnoser. Takes serve()'s lock, so calls are serialised with
  /// serve() and with each other: safe from any thread, never parallel
  /// (serve() is the concurrent entry point). Lane 0's solver stays
  /// allocated between calls (about 4.6 MiB of Set_Builder scratch at
  /// hypercube 20) until the lane prunes drivers of evicted calibrations.
  /// Fills the result's calibration_reused/setup_seconds split. Throws what
  /// serve() reports as failed results: std::invalid_argument on an unknown
  /// spec or, before any look-up, on an oracle whose graph differs from the
  /// calibration's in shape; DiagnosisUnsupportedError when the instance
  /// cannot certify the bound.
  [[nodiscard]] DiagnosisResult diagnose(const std::string& spec,
                                         const SyndromeOracle& oracle);

  /// Diagnose a mixed-spec request stream over the engine's ThreadPool,
  /// reusing per-lane Diagnoser scratch per calibration. requests[i] ->
  /// results[i]. Every run of at least 64 MM* TableOracle requests with
  /// one spec string and one oracle graph shape is solved as bitsliced
  /// cohorts of near-equal width (plan_cohorts), with no scalar remainder;
  /// shorter runs and every other request are solved one by one. Results
  /// are bit-identical either way. Per-request failures (unknown spec,
  /// uncertifiable bound, an oracle whose graph differs from the
  /// calibration's in node count or minimum or maximum degree) become
  /// failed results, never exceptions — one bad request must not poison a
  /// stream.
  /// Serialised: concurrent serve() and diagnose() calls run one at a time
  /// (each serve() already uses every pool lane).
  [[nodiscard]] std::vector<DiagnosisResult> serve(
      const std::vector<EngineRequest>& requests);

  /// A Diagnoser wired to the cached calibration via shared ownership —
  /// safe to keep after the entry is evicted or the engine destroyed.
  [[nodiscard]] std::unique_ptr<Diagnoser> make_diagnoser(
      const std::string& spec);

  /// As above with explicit per-diagnoser options; the calibration is
  /// looked up (or built) under options.rule/delta/validate_all_components
  /// so the pair can never mismatch.
  [[nodiscard]] std::unique_ptr<Diagnoser> make_diagnoser(
      const std::string& spec, const DiagnoserOptions& diagnoser_options);

  /// Explicitly retire every cached calibration of `spec` (all delta/rule/
  /// model variants — the key stem is the canonical spec). Returns how many
  /// entries were dropped; they count as explicit evictions, never LRU.
  /// In-flight holders keep their bundles alive (shared_ptr); the next
  /// request for the spec rebuilds. Throws std::invalid_argument on a spec
  /// the registry cannot parse. This is how churn retires calibrations
  /// whose topology has drifted too far from the base.
  std::size_t invalidate(const std::string& spec);

  /// Drop every cached calibration (explicit evictions). Returns the count.
  std::size_t invalidate_all();

  [[nodiscard]] EngineCounters counters() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] unsigned threads() const noexcept { return pool_.size(); }
  [[nodiscard]] const EngineOptions& options() const noexcept {
    return options_;
  }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const Calibration> calibration;
  };
  using LruList = std::list<Entry>;

  /// Canonicalise the spec (parsing it into a topology as a by-product),
  /// resolve delta, and return the full cache key.
  struct ResolvedKey {
    std::string key;
    std::unique_ptr<const Topology> topology;  // consumed on build
    unsigned delta = 0;
    bool implicit = false;  // resolved from options_.graph_mode
  };
  [[nodiscard]] ResolvedKey resolve(const std::string& spec, unsigned delta,
                                    ParentRule rule, bool validate_all,
                                    DiagnosisModel model) const;

  [[nodiscard]] std::shared_ptr<const Calibration> get_or_build(
      const std::string& spec, unsigned delta, ParentRule rule,
      bool validate_all, DiagnosisModel model, bool* reused);

  EngineOptions options_;
  std::size_t capacity_;
  ThreadPool pool_;

  mutable std::mutex mu_;  // guards lru_/index_/counters_
  LruList lru_;            // front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_;
  EngineCounters counters_;

  /// Build-time locks, striped by key hash: held across a calibration build
  /// so racing misses on one key build once, while other stripes proceed.
  /// Never acquired while holding mu_.
  static constexpr std::size_t kStripes = 16;
  std::array<std::mutex, kStripes> stripes_;

  /// One request, start to finish, on lane `lane`'s cached driver: the
  /// malformed-request checks (returned as failed results), get_or_build
  /// under the request's model, then the MM* solve or run_directed, with
  /// the calibration_reused/setup_seconds stamps. Setup and solver
  /// exceptions propagate; serve() turns them into failed results. The
  /// caller holds serve_mu_ or is lane `lane` inside serve().
  DiagnosisResult solve(unsigned lane, const EngineRequest& request);

  std::mutex serve_mu_;  // parallel_for is not reentrant; lane 0 is shared
  /// lane_scratch_[lane] maps calibration -> that lane's driver; touched
  /// only under serve_mu_, by lane `lane` inside serve()'s parallel_for or
  /// (lane 0) by diagnose(). A calibration is MM* or directed (the model is
  /// in its cache key), so exactly one of the two driver slots is populated
  /// per entry.
  struct LaneDiagnoser {
    std::shared_ptr<const Calibration> calibration;
    std::unique_ptr<Diagnoser> diagnoser;
    std::unique_ptr<DirectedDiagnoser> directed;
  };
  std::vector<std::unordered_map<const Calibration*, LaneDiagnoser>>
      lane_scratch_;

  /// Lane `lane`'s driver for `cal`, built on first use: a DirectedDiagnoser
  /// when cal->is_directed(), else a Diagnoser over the calibration's view.
  /// On overflow, entries for calibrations the LRU has since evicted are
  /// pruned first, and the map is cleared only if every entry is resident.
  LaneDiagnoser& lane_driver(unsigned lane,
                             const std::shared_ptr<const Calibration>& cal);
};

}  // namespace mmdiag
