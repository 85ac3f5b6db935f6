// The shared enum <-> name tables of the library's public vocabulary.
//
// ParentRule, GraphMode and DiagnosisModel each used to carry (or were about
// to grow) their own to_string/from_string pair, and the CLI, the repro
// format and the differ configs each re-spelled the names. One header now
// owns the enums and the canonical spellings of ParentRule and
// DiagnosisModel; every consumer — CLI flags, .repro provenance lines,
// syndrome-file headers, differ config labels — goes through these
// functions, so a new enumerator is added in exactly one place. GraphMode
// is set only in code (EngineOptions, build_calibration), so it has no
// names.
//
// from_string parsers canonicalise '_' to '-' (so "least_first" and
// "least-first" both parse) and throw std::invalid_argument naming the
// expected spellings, which the CLI surfaces as a usage diagnostic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace mmdiag {

// ---------------------------------------------------------------------------
// ParentRule — Set_Builder's growth-tree parent selection (core/set_builder
// documents the semantics of each rule; this header only names them).
// ---------------------------------------------------------------------------

enum class ParentRule : std::uint8_t {
  kLeastFirst,
  kSpread,
  kLeastSync,
  kHashSpread,
};

inline constexpr ParentRule kAllParentRules[] = {
    ParentRule::kLeastFirst, ParentRule::kSpread, ParentRule::kLeastSync,
    ParentRule::kHashSpread};

// ---------------------------------------------------------------------------
// GraphMode — which GraphView a calibration (and the Diagnosers built on it)
// uses: the CSR Graph, or the hypercube's O(1)-memory ImplicitGraph, which
// no other family has. kAuto picks the implicit view for hypercubes of 2^17
// nodes or more (resolve_implicit_mode in engine/calibration.hpp).
// ---------------------------------------------------------------------------

enum class GraphMode : std::uint8_t { kAuto, kCsr, kImplicit };

// ---------------------------------------------------------------------------
// DiagnosisModel — the test semantics a syndrome was produced under.
//
//   kMMStar — the comparison model: node u compares each unordered pair
//     {v,w} of its neighbours; a healthy u reports 1 iff v or w is faulty,
//     a faulty u reports arbitrarily. Mirrored d×d bit-matrix syndrome.
//   kPMC — directed per-edge tests with symmetric invalidation: u tests
//     each neighbour v individually; a healthy u reports v's true state, a
//     faulty u reports arbitrarily (regardless of v's state).
//   kBGM — PMC's asymmetric-invalidation variant: as kPMC, except a faulty
//     tester testing a *faulty* unit is forced to report 1. Hence any
//     0-outcome certifies the tested unit healthy no matter who tested it —
//     the property the BGM local-diagnosis fast path is built on.
// ---------------------------------------------------------------------------

enum class DiagnosisModel : std::uint8_t { kMMStar, kPMC, kBGM };

inline constexpr DiagnosisModel kAllDiagnosisModels[] = {
    DiagnosisModel::kMMStar, DiagnosisModel::kPMC, DiagnosisModel::kBGM};

// ---------------------------------------------------------------------------
// Name tables. to_string returns the canonical spelling; from_string accepts
// canonical and underscore spellings (plus the documented shorthands).
// ---------------------------------------------------------------------------

namespace detail {
inline std::string canonical_enum_name(const std::string& name) {
  std::string canon = name;
  std::replace(canon.begin(), canon.end(), '_', '-');
  return canon;
}
}  // namespace detail

[[nodiscard]] inline std::string to_string(ParentRule rule) {
  switch (rule) {
    case ParentRule::kLeastFirst:
      return "least-first";
    case ParentRule::kSpread:
      return "spread";
    case ParentRule::kLeastSync:
      return "least-sync";
    case ParentRule::kHashSpread:
      return "hash-spread";
  }
  return "?";
}

/// Named form of to_string(ParentRule) for call sites that also handle
/// other enums' names (CLI flags, repro files) and want to say which
/// mapping they mean.
[[nodiscard]] inline std::string parent_rule_to_string(ParentRule rule) {
  return to_string(rule);
}

/// Inverse of parent_rule_to_string (also accepts underscore variants such
/// as "least_first"). Throws std::invalid_argument on unknown names —
/// shared by the CLI's --rule flag and repro IO, mirroring
/// behavior_from_string.
[[nodiscard]] inline ParentRule parent_rule_from_string(
    const std::string& name) {
  const std::string canon = detail::canonical_enum_name(name);
  for (const ParentRule rule : kAllParentRules) {
    if (canon == to_string(rule)) return rule;
  }
  throw std::invalid_argument("unknown parent rule '" + name +
                              "' (expected least-first, spread, least-sync, "
                              "or hash-spread)");
}

[[nodiscard]] inline std::string to_string(DiagnosisModel model) {
  switch (model) {
    case DiagnosisModel::kMMStar:
      return "mm-star";
    case DiagnosisModel::kPMC:
      return "pmc";
    case DiagnosisModel::kBGM:
      return "bgm";
  }
  return "?";
}

[[nodiscard]] inline std::string diagnosis_model_to_string(
    DiagnosisModel model) {
  return to_string(model);
}

/// Inverse of diagnosis_model_to_string (also accepts the CLI shorthand
/// "mm" and the underscore variant "mm_star"). Throws std::invalid_argument
/// on unknown names — shared by the CLI's --model flag, repro IO and the
/// syndrome-file model header.
[[nodiscard]] inline DiagnosisModel diagnosis_model_from_string(
    const std::string& name) {
  const std::string canon = detail::canonical_enum_name(name);
  if (canon == "mm") return DiagnosisModel::kMMStar;
  for (const DiagnosisModel model : kAllDiagnosisModels) {
    if (canon == to_string(model)) return model;
  }
  throw std::invalid_argument("unknown diagnosis model '" + name +
                              "' (expected mm-star, pmc, or bgm)");
}

/// True for the models whose syndromes are directed per-arc outcomes
/// (DirectedSyndrome / DirectedOracle) rather than MM*'s comparator matrix.
[[nodiscard]] inline constexpr bool is_directed_model(
    DiagnosisModel model) noexcept {
  return model != DiagnosisModel::kMMStar;
}

}  // namespace mmdiag
