// Shared plumbing of the engine benchmark: options, clocks, spans, the
// measured timeline, summary statistics, the correctness ledger and the
// result line.
//
// The benchmark drives the mmdiag library only through its public entry
// points. Spans are recorded here, around the calls the benchmark makes
// into each layer, never inside the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
};

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_between(std::int64_t start_ns,
                                            std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string detail;  // printed next to the figure, e.g. its sample count
};

/// What one workload run reports. `metrics` is the contract set of the run
/// (every end-to-end metric, or every per-layer metric when traced);
/// `notes` are printed for people only (tails, write latencies, figures
/// over every sample).
class Report {
 public:
  void metric(std::string name, double value, std::string unit,
              std::string detail = {}) {
    metrics_.push_back(
        {std::move(name), value, std::move(unit), std::move(detail)});
  }
  void note(std::string name, double value, std::string unit) {
    notes_.push_back({std::move(name), value, std::move(unit), {}});
  }

  /// Counts one answered request: `ok` = success, `right` = the answer
  /// matches the injected truth. A failure or refusal counts in error_rate.
  /// Returns false for a wrong answer, which the caller then explains
  /// through wrong() — a wrong answer fails the whole run.
  [[nodiscard]] bool answer(bool ok, bool right) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      return true;
    }
    return right;
  }
  void wrong(const std::string& what);

  [[nodiscard]] bool correct() const noexcept { return errors_.empty(); }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] const std::vector<Metric>& notes() const noexcept {
    return notes_;
  }
  [[nodiscard]] const std::vector<std::string>& errors() const noexcept {
    return errors_;
  }

  unsigned lanes = 1;  // threads doing the measured work

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<Metric> notes_;
  std::vector<std::string> errors_;
};

// ---------------------------------------------------------------------------
// Spans. A span is one call into a layer: its name, start and end. Spans
// stay in memory. A disabled tracer records nothing, so the same code path
// runs with span recording on and off (trace.overhead).
// ---------------------------------------------------------------------------

struct Span {
  std::uint32_t name = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 16); }

  void enable(bool on) noexcept { enabled_ = on; }

  /// Interns a span name; call once per name, outside the timed loops.
  [[nodiscard]] std::uint32_t name(std::string_view text);

  /// Opens a span and returns its id (ids start at 1; 0 while disabled).
  std::uint32_t open(std::uint32_t name) {
    if (!enabled_) return 0;
    spans_.push_back(Span{name, now_ns(), 0});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void close(std::uint32_t id) {
    if (id != 0) spans_[id - 1].end_ns = now_ns();
  }

  /// A closed span's duration; 0 for the id of a disabled open().
  [[nodiscard]] double span_us(std::uint32_t id) const {
    if (id == 0) return 0;
    const Span& s = spans_[id - 1];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
  }

  /// Every closed span of one name, in microseconds.
  [[nodiscard]] std::vector<double> durations_us(std::uint32_t name) const;
  [[nodiscard]] double total_us(std::uint32_t name) const;

 private:
  bool enabled_ = true;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& values);
[[nodiscard]] inline double ratio(double num, double den) {
  return den != 0 ? num / den : 0;
}

/// Process peak resident set size, in MiB.
[[nodiscard]] double peak_rss_mb();

// ---------------------------------------------------------------------------
// The measured part of an untraced run: passes over the workload's whole
// input set, each the same sequence of timed ops, with cold set-ups taken
// between passes.
// ---------------------------------------------------------------------------

class Timeline {
 public:
  /// One timed op; `latency` says whether it is a latency sample. Every
  /// pass must make the same ops in the same order.
  void op(double us, bool latency = true) {
    op_us_.push_back(us);
    is_latency_.push_back(latency ? 1 : 0);
  }

  /// Runs `pass(*this)` until passes and set-ups together have taken
  /// `seconds` of wall time. After each pass, `set_up()` (a cold set-up
  /// returning its seconds) runs while the set-ups have taken less than
  /// `setup_share` of the pass time so far, so set-ups are spread over the
  /// whole run.
  template <class Pass, class SetUp>
  void measure(double seconds, double setup_share, Pass&& pass,
               SetUp&& set_up) {
    double pass_s = 0;
    double setup_s = 0;
    while (pass_s + setup_s < seconds) {
      const std::int64_t t0 = now_ns();
      pass(*this);
      ++passes_;
      pass_s += seconds_between(t0, now_ns());
      while (setup_s < setup_share * pass_s) {
        const double s = set_up();
        setups_.push_back(s);
        setup_s += s;
      }
    }
  }

  /// Adds setup_s, throughput_rps and latency_p50_us, each op answering
  /// `requests_per_op` requests.
  ///
  /// Timings on a shared machine come in phases of contention that last
  /// about a second, while a cost the code itself adds shows in every pass.
  /// So each op of the pass is scored by its fastest time over all passes
  /// of the run: throughput_rps is the pass's requests over the sum of those
  /// times, latency_p50_us the median of them over the latency ops. The
  /// figures are what the machine gives each request while its neighbours
  /// are quiet, and every request counts once. setup_s is scored the same
  /// way: the fastest of the run's set-ups. The p90 and p99, the median
  /// set-up, and the figures over every sample are printed as notes:
  /// co-tenant jitter moves them further than the largest regression bound
  /// the benchmark may set.
  void report(Report& report, double requests_per_op) const;

 private:
  std::vector<double> op_us_;
  std::vector<char> is_latency_;
  std::size_t passes_ = 0;
  std::vector<double> setups_;
};

// ---------------------------------------------------------------------------
// Workloads. Each builds its inputs from opt.seed before any timed span,
// measures for opt.seconds, and checks every answer.
// ---------------------------------------------------------------------------

Report run_serve_batch(const Options& opt);
Report run_online_lazy(const Options& opt);
Report run_scale_implicit(const Options& opt);
Report run_churn_online(const Options& opt);

}  // namespace perfbench
