#include "topology/topology.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "graph/builder.hpp"

namespace mmdiag {

namespace {

// The most memory this process may hold: physical memory, capped by the
// address-space limit when one is set.
std::uint64_t memory_limit_bytes() {
  std::uint64_t limit = std::numeric_limits<std::uint64_t>::max();
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page_size = sysconf(_SC_PAGE_SIZE);
  if (pages > 0 && page_size > 0) {
    limit = static_cast<std::uint64_t>(pages) *
            static_cast<std::uint64_t>(page_size);
  }
  rlimit address_space{};
  if (getrlimit(RLIMIT_AS, &address_space) == 0 &&
      address_space.rlim_cur != RLIM_INFINITY) {
    limit = std::min<std::uint64_t>(limit, address_space.rlim_cur);
  }
  return limit;
}

}  // namespace

std::string Topology::spec() const {
  std::string out = info().family;
  for (const unsigned p : params()) {
    out += ' ';
    out += std::to_string(p);
  }
  return out;
}

Graph Topology::build_graph() const {
  const TopologyInfo ti = info();
  const std::uint64_t estimate =
      csr_memory_bytes_estimate(ti.num_nodes, ti.degree);
  const std::uint64_t limit = memory_limit_bytes();
  if (estimate > limit) {
    throw std::length_error(
        spec() + ": its CSR graph needs an estimated " +
        std::to_string(estimate) + " B, more than the " +
        std::to_string(limit) + " B of memory this process may use");
  }
  return build_graph_from_generator(
      static_cast<std::size_t>(ti.num_nodes),
      [this](Node u, std::vector<Node>& out) { neighbors(u, out); });
}

unsigned diagnosability_by_chang(std::uint64_t num_nodes, unsigned degree,
                                 unsigned connectivity) {
  if (degree == 0 || connectivity != degree) return 0;
  if (num_nodes < 2ULL * degree + 3ULL) return 0;
  return degree;
}

}  // namespace mmdiag
