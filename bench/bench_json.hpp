// JSON bench reporting — the machine-readable BENCH_*.json artefacts that
// track the perf trajectory across PRs. Values are pre-encoded: JsonValue
// holds finished JSON text, so composition is string concatenation and the
// writer cannot emit structurally invalid output.
//
// Split out of bench_util.hpp so benches that do not use google-benchmark
// (bench_scale, bench_models, bench_churn) can report without pulling in
// the benchmark library.
#pragma once

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace mmdiag::bench {

struct JsonValue {
  std::string raw;  // already-encoded JSON

  static JsonValue str(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += '"';
    return {out};
  }
  template <typename T, typename = std::enable_if_t<std::is_integral_v<T>>>
  static JsonValue num(T v) {
    return {std::to_string(v)};
  }
  static JsonValue num(double v) {
    if (!std::isfinite(v)) return {"null"};
    std::ostringstream os;
    os.precision(12);
    os << v;
    return {os.str()};
  }
  static JsonValue boolean(bool v) { return {v ? "true" : "false"}; }
};

using JsonField = std::pair<std::string, JsonValue>;

inline JsonValue json_object(const std::vector<JsonField>& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out += ", ";
    out += JsonValue::str(fields[i].first).raw;
    out += ": ";
    out += fields[i].second.raw;
  }
  out += '}';
  return {out};
}

inline JsonValue json_array(const std::vector<JsonValue>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ", ";
    out += items[i].raw;
  }
  out += ']';
  return {out};
}

/// Accumulates one result record per measured configuration and writes
///   { "bench": <name>, "schema_version": 1, <meta...>, "results": [...] }
/// pretty-printed one record per line, so diffs of BENCH_*.json stay
/// reviewable across perf PRs.
class JsonBenchReport {
 public:
  explicit JsonBenchReport(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  void set_meta(const std::string& key, JsonValue value) {
    meta_.emplace_back(key, std::move(value));
  }

  void add_result(std::vector<JsonField> fields) {
    results_.push_back(json_object(fields));
  }

  [[nodiscard]] std::size_t num_results() const noexcept {
    return results_.size();
  }

  void write(std::ostream& os) const {
    os << "{\n  \"bench\": " << JsonValue::str(bench_name_).raw << ",\n"
       << "  \"schema_version\": 1,\n";
    for (const auto& [key, value] : meta_) {
      os << "  " << JsonValue::str(key).raw << ": " << value.raw << ",\n";
    }
    os << "  \"results\": [";
    for (std::size_t i = 0; i < results_.size(); ++i) {
      os << (i ? ",\n    " : "\n    ") << results_[i].raw;
    }
    os << "\n  ]\n}\n";
  }

  /// Returns false (and reports on stderr) if the file cannot be written.
  bool write_file(const std::string& path) const {
    std::ofstream os(path);
    if (!os) {
      std::cerr << "cannot write " << path << "\n";
      return false;
    }
    write(os);
    return os.good();
  }

 private:
  std::string bench_name_;
  std::vector<JsonField> meta_;
  std::vector<JsonValue> results_;
};

}  // namespace mmdiag::bench
