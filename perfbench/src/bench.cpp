#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace perfbench {

void Report::wrong(const std::string& what) {
  if (errors_.size() < 8) errors_.push_back(what);
  if (errors_.size() == 8) errors_.push_back("(further errors suppressed)");
}

std::uint32_t Tracer::name(std::string_view text) {
  const auto it = std::find(names_.begin(), names_.end(), text);
  if (it != names_.end()) {
    return static_cast<std::uint32_t>(it - names_.begin());
  }
  names_.emplace_back(text);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::vector<double> Tracer::durations_us(std::uint32_t name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns != 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
  }
  return out;
}

double Tracer::total_us(std::uint32_t name) const {
  const std::vector<double> d = durations_us(name);
  return std::accumulate(d.begin(), d.end(), 0.0);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

void Timeline::report(Report& report, double requests_per_op) const {
  if (passes_ == 0 || op_us_.size() % passes_ != 0) {
    throw std::logic_error("Timeline: passes of unequal length");
  }
  const std::size_t per_pass = op_us_.size() / passes_;
  std::vector<double> fastest(op_us_.begin(), op_us_.begin() + per_pass);
  for (std::size_t i = per_pass; i < op_us_.size(); ++i) {
    double& best = fastest[i % per_pass];
    best = std::min(best, op_us_[i]);
  }
  std::vector<double> fastest_latency;
  for (std::size_t i = 0; i < per_pass; ++i) {
    if (is_latency_[i] != 0) fastest_latency.push_back(fastest[i]);
  }
  std::vector<double> all;
  for (std::size_t i = 0; i < op_us_.size(); ++i) {
    if (is_latency_[i] != 0) all.push_back(op_us_[i]);
  }
  const double pass_us = std::accumulate(fastest.begin(), fastest.end(), 0.0);
  const double all_us = std::accumulate(op_us_.begin(), op_us_.end(), 0.0);

  const std::string fastest_of = "fastest of " + std::to_string(passes_) +
                                 " passes for each of ";
  report.metric("setup_s", percentile(setups_, 0), "s",
                "fastest of " + std::to_string(setups_.size()) + " set-ups");
  report.metric("throughput_rps",
                static_cast<double>(per_pass) * requests_per_op /
                    (pass_us * 1e-6),
                "1/s", fastest_of + std::to_string(per_pass) + " ops");
  report.metric("latency_p50_us", median(fastest_latency), "us",
                fastest_of + std::to_string(fastest_latency.size()) +
                    " latency ops");
  report.note("latency_p90_us", percentile(fastest_latency, 0.90), "us");
  report.note("latency_p99_us", percentile(fastest_latency, 0.99), "us");
  report.note("median_setup_s", median(setups_), "s");
  report.note("all_samples", static_cast<double>(all.size()), "count");
  report.note("all_throughput_rps",
              static_cast<double>(op_us_.size()) * requests_per_op /
                  (all_us * 1e-6),
              "1/s");
  report.note("all_latency_p50_us", median(all), "us");
  report.note("all_latency_p90_us", percentile(all, 0.90), "us");
  report.note("all_latency_p99_us", percentile(all, 0.99), "us");
}

}  // namespace perfbench
