#include "topology/kary_ncube.hpp"

#include <stdexcept>

namespace mmdiag {

KAryNCube::KAryNCube(unsigned n, unsigned k) : n_(n), k_(k), codec_(n, k) {
  if (n < 1) throw std::invalid_argument("KAryNCube: need n >= 1");
  if (k < 3) throw std::invalid_argument("KAryNCube: need k >= 3");
  if (codec_.count > (std::uint64_t{1} << 31)) {
    throw std::invalid_argument("KAryNCube: instance too large");
  }
}

bool KAryNCube::excluded_small_case() const {
  // The paper's Theorem 4 exclusion list, as (k, n) pairs.
  static constexpr std::pair<unsigned, unsigned> kExcluded[] = {
      {3, 2}, {3, 3}, {3, 4}, {4, 2}, {4, 3}, {5, 2}};
  for (const auto& [k, n] : kExcluded) {
    if (k == k_ && n == n_) return true;
  }
  return false;
}

TopologyInfo KAryNCube::info() const {
  TopologyInfo t;
  t.name = "Q^" + std::to_string(k_) + "_" + std::to_string(n_);
  t.family = "kary_ncube";
  t.num_nodes = codec_.count;
  t.degree = 2 * n_;
  t.connectivity = 2 * n_;
  t.diagnosability =
      (n_ >= 2 && !excluded_small_case())
          ? diagnosability_by_chang(t.num_nodes, t.degree, t.connectivity)
          : 0;
  return t;
}

void KAryNCube::neighbors(Node u, std::vector<Node>& out) const {
  out.clear();
  std::uint8_t d[64];
  codec_.unrank(u, d);
  std::uint64_t place = 1;
  const auto base = static_cast<std::int64_t>(u);
  for (unsigned i = 0; i < n_; ++i) {
    const auto digit = static_cast<std::int64_t>(d[i]);
    const std::int64_t up = (digit + 1) % k_;
    const std::int64_t down = (digit + k_ - 1) % k_;
    const auto p = static_cast<std::int64_t>(place);
    out.push_back(static_cast<Node>(base + (up - digit) * p));
    out.push_back(static_cast<Node>(base + (down - digit) * p));
    place *= k_;
  }
}

namespace {

// Writes the 2n ±1 (mod k) neighbours of u in dimension order (up, down per
// dimension), unsorted. Digits come straight off the rank by div/mod, so no
// codec state is needed.
unsigned raw_kary_neighbors(unsigned n, unsigned k, Node u, Node* out) {
  unsigned count = 0;
  std::uint64_t place = 1;
  std::uint64_t rest = u;
  const auto base = static_cast<std::int64_t>(u);
  for (unsigned i = 0; i < n; ++i) {
    const auto digit = static_cast<std::int64_t>(rest % k);
    rest /= k;
    const std::int64_t up = (digit + 1) % k;
    const std::int64_t down = (digit + k - 1) % k;
    const auto p = static_cast<std::int64_t>(place);
    out[count++] = static_cast<Node>(base + (up - digit) * p);
    out[count++] = static_cast<Node>(base + (down - digit) * p);
    place *= k;
  }
  return count;
}

}  // namespace

unsigned KAryNCube::sorted_neighbors_of(unsigned n, unsigned k, Node u,
                                        Node* out) {
  const unsigned count = raw_kary_neighbors(n, k, u, out);
  // Insertion sort: count = 2n <= 64, typically far smaller.
  for (unsigned i = 1; i < count; ++i) {
    const Node key = out[i];
    unsigned j = i;
    for (; j > 0 && out[j - 1] > key; --j) out[j] = out[j - 1];
    out[j] = key;
  }
  return count;
}

Node KAryNCube::neighbor_of(unsigned n, unsigned k, Node u, unsigned p) {
  Node adj[64];
  sorted_neighbors_of(n, k, u, adj);
  return adj[p];
}

int KAryNCube::position_of(unsigned n, unsigned k, Node u, Node v) {
  Node adj[64];
  const unsigned count = raw_kary_neighbors(n, k, u, adj);
  unsigned below = 0;
  bool found = false;
  for (unsigned i = 0; i < count; ++i) {
    below += adj[i] < v;
    found = found || adj[i] == v;
  }
  if (!found) return -1;
  return static_cast<int>(below);
}

unsigned KAryNCube::degree(Node /*u*/) const { return 2 * n_; }

unsigned KAryNCube::sorted_neighbors(Node u, Node* out) const {
  return sorted_neighbors_of(n_, k_, u, out);
}

Node KAryNCube::neighbor(Node u, unsigned p) const {
  return neighbor_of(n_, k_, u, p);
}

int KAryNCube::neighbor_position(Node u, Node v) const {
  return position_of(n_, k_, u, v);
}

std::string KAryNCube::node_label(Node u) const {
  std::uint8_t d[64];
  codec_.unrank(u, d);
  std::string s = "(";
  for (unsigned i = n_; i-- > 0;) {  // print highest coordinate first
    s += std::to_string(d[i]);
    if (i != 0) s += ",";
  }
  return s + ")";
}

std::vector<std::shared_ptr<const PartitionPlan>> KAryNCube::partition_plans()
    const {
  std::vector<std::shared_ptr<const PartitionPlan>> plans;
  for (unsigned free = 1; free < n_; ++free) {
    plans.push_back(std::make_shared<TuplePrefixPlan>(n_, k_, free));
  }
  return plans;
}

}  // namespace mmdiag
