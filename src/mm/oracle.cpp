#include "mm/oracle.hpp"

#include <string>

#include "mm/directed_oracle.hpp"

namespace mmdiag {

namespace {

std::string shape(std::size_t nodes, unsigned min_degree,
                  unsigned max_degree) {
  std::string out = std::to_string(nodes) + " nodes of degree " +
                    std::to_string(min_degree);
  if (max_degree != min_degree) out += ".." + std::to_string(max_degree);
  return out;
}

/// The one shape rule both oracle families are held to.
void require_shape(const char* who, const OracleShape& s, std::size_t nodes,
                   unsigned min_degree, unsigned max_degree) {
  if (s.nodes == nodes && s.min_degree == min_degree &&
      s.max_degree == max_degree) {
    return;
  }
  throw std::invalid_argument(
      std::string(who) + ": the oracle addresses a graph of " +
      shape(s.nodes, s.min_degree, s.max_degree) +
      ", but the solver's graph has " + shape(nodes, min_degree, max_degree));
}

}  // namespace

void require_oracle_shape(const char* who, const SyndromeOracle& oracle,
                          std::size_t nodes, unsigned min_degree,
                          unsigned max_degree) {
  if (!oracle.has_shape()) return;
  require_shape(who, oracle.shape(), nodes, min_degree, max_degree);
}

void require_oracle_shape(const char* who, const DirectedOracle& oracle,
                          std::size_t nodes, unsigned min_degree,
                          unsigned max_degree) {
  const Graph& g = oracle.graph();
  require_shape(who, OracleShape{g.num_nodes(), g.min_degree(), g.max_degree()},
                nodes, min_degree, max_degree);
}

}  // namespace mmdiag
