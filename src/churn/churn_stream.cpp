#include "churn/churn_stream.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "churn/recertify.hpp"
#include "util/rng.hpp"

namespace mmdiag {

namespace {

void append_nodes(std::string& out, const std::vector<Node>& nodes) {
  for (const Node f : nodes) {
    out += ' ';
    out += std::to_string(f);
  }
}

[[noreturn]] void parse_fail(std::size_t line_no, const std::string& what) {
  throw std::invalid_argument("churn stream line " + std::to_string(line_no) +
                              ": " + what);
}

[[nodiscard]] std::uint64_t parse_u64(const std::string& token,
                                      std::size_t line_no) {
  try {
    std::size_t pos = 0;
    const unsigned long long value = std::stoull(token, &pos);
    if (pos != token.size()) parse_fail(line_no, "bad integer '" + token + "'");
    return value;
  } catch (const std::invalid_argument&) {
    parse_fail(line_no, "bad integer '" + token + "'");
  } catch (const std::out_of_range&) {
    parse_fail(line_no, "integer out of range '" + token + "'");
  }
}

[[nodiscard]] Node parse_node(const std::string& token, std::size_t line_no) {
  const std::uint64_t value = parse_u64(token, line_no);
  if (value > 0xFFFFFFFFull) parse_fail(line_no, "node id too large");
  return static_cast<Node>(value);
}

}  // namespace

std::string format_churn_stream(const ChurnStream& stream) {
  std::string out = "mmdiag-churn v1\n";
  out += "spec " + stream.spec + "\n";
  out += "delta " + std::to_string(stream.delta) + "\n";
  out += "seed " + std::to_string(stream.seed) + "\n";
  for (const ChurnEvent& event : stream.events) {
    switch (event.kind) {
      case ChurnEvent::Kind::kTopology: {
        if (event.expect_error) out += '!';
        out += to_string(event.delta.op);
        out += ' ';
        out += std::to_string(event.delta.u);
        if (event.delta.op == ChurnOp::kRemoveEdge ||
            event.delta.op == ChurnOp::kRepairEdge) {
          out += ' ';
          out += std::to_string(event.delta.v);
        }
        out += '\n';
        break;
      }
      case ChurnEvent::Kind::kDiagnose:
        out += "diagnose";
        append_nodes(out, event.faults);
        out += '\n';
        break;
      case ChurnEvent::Kind::kDiagnoseDelta:
        out += "diagnose-delta";
        append_nodes(out, event.faults);
        out += '\n';
        break;
    }
  }
  out += "end\n";
  return out;
}

ChurnStream parse_churn_stream(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  ChurnStream stream;
  bool saw_magic = false;
  bool saw_end = false;
  while (std::getline(in, line)) {
    ++line_no;
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty() || line[0] == '#') continue;
    if (!saw_magic) {
      if (line != "mmdiag-churn v1") {
        parse_fail(line_no, "expected header 'mmdiag-churn v1'");
      }
      saw_magic = true;
      continue;
    }
    if (saw_end) parse_fail(line_no, "content after 'end'");
    if (line.rfind("spec ", 0) == 0) {
      stream.spec = line.substr(5);
      continue;
    }
    std::istringstream tokens(line);
    std::string keyword;
    tokens >> keyword;
    std::vector<std::string> args;
    for (std::string t; tokens >> t;) args.push_back(t);
    if (keyword == "end") {
      if (!args.empty()) parse_fail(line_no, "'end' takes no arguments");
      saw_end = true;
      continue;
    }
    if (keyword == "delta" || keyword == "seed") {
      if (args.size() != 1) parse_fail(line_no, "'" + keyword + "' takes one integer");
      const std::uint64_t value = parse_u64(args[0], line_no);
      if (keyword == "delta") {
        stream.delta = static_cast<unsigned>(value);
      } else {
        stream.seed = value;
      }
      continue;
    }
    ChurnEvent event;
    if (keyword == "diagnose" || keyword == "diagnose-delta") {
      event.kind = keyword == "diagnose" ? ChurnEvent::Kind::kDiagnose
                                         : ChurnEvent::Kind::kDiagnoseDelta;
      for (const std::string& a : args) {
        event.faults.push_back(parse_node(a, line_no));
      }
      stream.events.push_back(std::move(event));
      continue;
    }
    std::string op_name = keyword;
    if (!op_name.empty() && op_name[0] == '!') {
      event.expect_error = true;
      op_name = op_name.substr(1);
    }
    event.kind = ChurnEvent::Kind::kTopology;
    unsigned arity = 1;
    if (op_name == "remove-node") {
      event.delta.op = ChurnOp::kRemoveNode;
    } else if (op_name == "repair-node") {
      event.delta.op = ChurnOp::kRepairNode;
    } else if (op_name == "remove-edge") {
      event.delta.op = ChurnOp::kRemoveEdge;
      arity = 2;
    } else if (op_name == "repair-edge") {
      event.delta.op = ChurnOp::kRepairEdge;
      arity = 2;
    } else {
      parse_fail(line_no, "unknown event '" + keyword + "'");
    }
    if (args.size() != arity) {
      parse_fail(line_no, "'" + op_name + "' takes " + std::to_string(arity) +
                              " node id(s)");
    }
    event.delta.u = parse_node(args[0], line_no);
    if (arity == 2) event.delta.v = parse_node(args[1], line_no);
    stream.events.push_back(std::move(event));
  }
  if (!saw_magic) parse_fail(line_no, "empty stream");
  if (!saw_end) parse_fail(line_no, "missing 'end'");
  if (stream.spec.empty()) parse_fail(line_no, "missing 'spec'");
  return stream;
}

ChurnStream generate_churn_stream(DiagnosisEngine& engine,
                                  const ChurnStreamConfig& config) {
  const std::shared_ptr<const Calibration> cal =
      engine.calibration(config.spec, config.delta, ParentRule::kSpread);
  const std::shared_ptr<const Graph> graph = csr_graph(cal);
  const std::size_t n = graph->num_nodes();
  const unsigned bound = cal->delta();

  // Shadow state: every emitted (non-error) event is applied here so later
  // events stay legal against the evolving topology.
  TopologyOverlay shadow(*graph);
  // Only the member index is used; rule is irrelevant here.
  const ChurnRecertifier members(*graph, cal->partition.plan, bound,
                                 cal->rule());
  std::vector<std::pair<Node, Node>> removed_edges;
  std::vector<Node> removed_nodes;

  ChurnStream stream;
  stream.spec = config.spec;
  stream.delta = config.delta;
  stream.seed = config.seed;

  Rng rng(mix64(config.seed, 0x636875726eull /* "churn" */));

  auto pick_live = [&]() -> Node {
    if (shadow.live_count() == 0) return kNoNode;
    for (unsigned attempt = 0; attempt < 64; ++attempt) {
      const Node u = static_cast<Node>(rng.below(n));
      if (!shadow.node_removed(u)) return u;
    }
    for (Node u = 0; u < n; ++u) {
      if (!shadow.node_removed(u)) return u;
    }
    return kNoNode;
  };

  auto emit_topology = [&](const ChurnDelta& delta, bool expect_error) {
    ChurnEvent event;
    event.kind = ChurnEvent::Kind::kTopology;
    event.delta = delta;
    event.expect_error = expect_error;
    stream.events.push_back(event);
    if (!expect_error) shadow.apply(delta);
  };

  auto emit_remove_node = [&](Node u) {
    emit_topology({ChurnOp::kRemoveNode, u, 0}, false);
    removed_nodes.push_back(u);
  };
  auto emit_repair_node = [&](Node u) {
    emit_topology({ChurnOp::kRepairNode, u, 0}, false);
    removed_nodes.erase(
        std::find(removed_nodes.begin(), removed_nodes.end(), u));
  };

  std::vector<Node> last_faults;
  auto sample_faults = [&](std::size_t k) {
    std::vector<Node> faults;
    for (unsigned attempt = 0; attempt < 16 + 8 * k && faults.size() < k;
         ++attempt) {
      const Node u = pick_live();
      if (u == kNoNode) break;
      if (std::find(faults.begin(), faults.end(), u) == faults.end()) {
        faults.push_back(u);
      }
    }
    std::sort(faults.begin(), faults.end());
    return faults;
  };
  auto emit_diagnose = [&](std::vector<Node> faults) {
    ChurnEvent event;
    event.kind = ChurnEvent::Kind::kDiagnose;
    event.faults = std::move(faults);
    last_faults = event.faults;
    stream.events.push_back(std::move(event));
  };

  bool did_double_remove = false;
  bool did_bad_repairs = false;
  bool did_component_kill = false;

  while (stream.events.size() < config.events) {
    const std::size_t at = stream.events.size();
    // Hostile setpieces at deterministic points in the stream.
    if (config.hostile && !did_double_remove && at >= config.events / 5) {
      did_double_remove = true;
      const Node u = pick_live();
      if (u != kNoNode) {
        emit_remove_node(u);
        emit_topology({ChurnOp::kRemoveNode, u, 0}, true);  // double-remove
        continue;
      }
    }
    if (config.hostile && !did_bad_repairs && at >= (2 * config.events) / 5) {
      did_bad_repairs = true;
      const Node u = pick_live();
      if (u != kNoNode) {
        // Repair of a live node, then an out-of-range id, then repair of a
        // never-removed edge — all must be rejected without state change.
        emit_topology({ChurnOp::kRepairNode, u, 0}, true);
        emit_topology({ChurnOp::kRemoveNode, static_cast<Node>(n), 0}, true);
        if (graph->degree(u) > 0) {
          const Node v = graph->neighbor(u, rng.below(graph->degree(u)));
          if (!shadow.edge_removed(u, v)) {
            emit_topology({ChurnOp::kRepairEdge, u, v}, true);
          }
        }
        continue;
      }
    }
    if (config.hostile && !did_component_kill &&
        at >= (3 * config.events) / 5) {
      did_component_kill = true;
      // Remove an entire component, diagnose in the degraded state (the
      // emptied component must answer quiescent, the rest normally), then
      // repair it all.
      const std::uint32_t comp = members.num_components() - 1;
      std::vector<Node> killed;
      for (const Node m : members.component_members(comp)) {
        if (!shadow.node_removed(m)) {
          emit_remove_node(m);
          killed.push_back(m);
        }
      }
      emit_diagnose(sample_faults(rng.below(bound + 1)));
      for (const Node m : killed) emit_repair_node(m);
      continue;
    }

    const std::uint64_t roll = rng.below(100);
    if (roll < 25) {
      // Keep a healthy majority live so diagnosis stays interesting.
      if (shadow.live_count() * 4 >= n * 3) {
        const Node u = pick_live();
        if (u != kNoNode) emit_remove_node(u);
        continue;
      }
      if (!removed_nodes.empty()) {
        emit_repair_node(removed_nodes[rng.below(removed_nodes.size())]);
      }
    } else if (roll < 40) {
      if (!removed_nodes.empty()) {
        emit_repair_node(removed_nodes[rng.below(removed_nodes.size())]);
      }
    } else if (roll < 50) {
      const Node u = pick_live();
      if (u != kNoNode && graph->degree(u) > 0) {
        const Node v = graph->neighbor(u, rng.below(graph->degree(u)));
        if (!shadow.edge_removed(u, v)) {
          emit_topology({ChurnOp::kRemoveEdge, u, v}, false);
          removed_edges.emplace_back(u, v);
        }
      }
    } else if (roll < 55) {
      if (!removed_edges.empty()) {
        const std::size_t i = rng.below(removed_edges.size());
        emit_topology(
            {ChurnOp::kRepairEdge, removed_edges[i].first,
             removed_edges[i].second},
            false);
        removed_edges.erase(removed_edges.begin() +
                            static_cast<std::ptrdiff_t>(i));
      }
    } else if (roll < 80) {
      // Mostly within the bound; occasionally one beyond it.
      const std::size_t k = rng.below(bound + 1) + (rng.below(8) == 0 ? 1 : 0);
      emit_diagnose(sample_faults(k));
    } else {
      // Syndrome delta: usually flip one node relative to the previous
      // fault list; every third or so repeats it verbatim — an
      // unchanged-row request, the pure cache-hit path.
      std::vector<Node> faults = last_faults;
      if (rng.below(3) != 0) {
        const Node u = pick_live();
        if (u != kNoNode) {
          const auto it = std::find(faults.begin(), faults.end(), u);
          if (it != faults.end()) {
            faults.erase(it);
          } else if (faults.size() <= bound) {
            faults.push_back(u);
            std::sort(faults.begin(), faults.end());
          }
        }
      }
      ChurnEvent event;
      event.kind = ChurnEvent::Kind::kDiagnoseDelta;
      event.faults = std::move(faults);
      last_faults = event.faults;
      stream.events.push_back(std::move(event));
    }
  }
  return stream;
}

}  // namespace mmdiag
