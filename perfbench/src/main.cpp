// perfbench — the engine benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--commit SHA]
//
// Workloads: serve-batch, online-lazy, scale-implicit, churn-online (see
// perfbench/README.md). Prints the run metadata, every metric by name with
// its unit, and as the last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when an answer is wrong, 2 on bad usage or an unoptimised build.
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Options;
using perfbench::Report;

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

std::string compiler() {
#if defined(__clang__)
  return std::string("Clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("GCC ") + __VERSION__;
#else
  return "unknown";
#endif
}

int usage() {
  std::cerr << "usage: perfbench --workload serve-batch|online-lazy|"
               "scale-implicit|churn-online --seed N --seconds S --trace 0|1 "
               "[--commit SHA]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#if !defined(__OPTIMIZE__)
  std::cerr << "perfbench: refusing to measure an unoptimised build ("
            << build_type << ")\n";
  return 2;
#endif
  if (build_type == "Debug") {
    std::cerr << "perfbench: refusing to measure a Debug build\n";
    return 2;
  }

  Options opt;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage();
        opt.trace = value == "1";
      } else if (arg == "--commit") {
        opt.commit = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (!have_workload || !(opt.seconds > 0)) return usage();

  const std::map<std::string, Report (*)(const Options&)> workloads = {
      {"serve-batch", perfbench::run_serve_batch},
      {"online-lazy", perfbench::run_online_lazy},
      {"scale-implicit", perfbench::run_scale_implicit},
      {"churn-online", perfbench::run_churn_online},
  };
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end()) return usage();

  Report report;
  try {
    report = it->second(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  std::cout << "# perfbench workload=" << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << (opt.trace ? 1 : 0)
            << "\n# nproc=" << std::thread::hardware_concurrency()
            << " lanes=" << report.lanes << " build=" << build_type
            << " compiler=\"" << compiler() << "\" commit=" << opt.commit
            << "\n";
  for (const auto& m : report.metrics()) {
    std::cout << m.name << " = " << number(m.value) << " " << m.unit;
    if (!m.detail.empty()) std::cout << "  (" << m.detail << ")";
    std::cout << "\n";
  }
  for (const auto& m : report.notes()) {
    std::cout << "  (" << m.name << " = " << number(m.value) << " " << m.unit
              << ")\n";
  }
  const double error_rate =
      report.attempted() == 0
          ? 0
          : static_cast<double>(report.failed()) /
                static_cast<double>(report.attempted());
  std::cout << "error_rate = " << number(error_rate) << " ratio ("
            << report.failed() << " failed or refused of "
            << report.attempted() << " attempted)\n";
  for (const std::string& e : report.errors()) {
    std::cout << "WRONG: " << e << "\n";
  }

  bool finite = true;
  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted());
  json += ", \"failed\": " + std::to_string(report.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : report.metrics()) {
    finite = finite && std::isfinite(m.value);
    json += first ? "" : ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  if (!finite) {
    std::cerr << "perfbench: a metric is not a finite number\n";
    return 1;
  }
  std::cout << json << std::endl;
  return report.correct() && report.attempted() > 0 ? 0 : 1;
}
