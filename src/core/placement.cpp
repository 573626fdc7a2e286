#include "core/placement.h"

#include <stdexcept>

namespace socl::core {

Placement::Placement(int num_microservices, int num_nodes)
    : services_(num_microservices), nodes_(num_nodes) {
  if (num_microservices <= 0 || num_nodes <= 0) {
    throw std::invalid_argument("Placement: non-positive dimensions");
  }
  x_.assign(static_cast<std::size_t>(services_) *
                static_cast<std::size_t>(nodes_),
            0);
  instance_count_.assign(static_cast<std::size_t>(services_), 0);
}

void Placement::deploy(MsId m, NodeId k) {
  auto& cell = x_[idx(m, k)];
  if (cell == 0) {
    cell = 1;
    ++instance_count_[static_cast<std::size_t>(m)];
  }
}

void Placement::remove(MsId m, NodeId k) {
  auto& cell = x_[idx(m, k)];
  if (cell != 0) {
    cell = 0;
    --instance_count_[static_cast<std::size_t>(m)];
  }
}

int Placement::total_instances() const {
  int total = 0;
  for (int count : instance_count_) total += count;
  return total;
}

std::vector<NodeId> Placement::nodes_of(MsId m) const {
  std::vector<NodeId> nodes;
  for (NodeId k = 0; k < nodes_; ++k) {
    if (deployed(m, k)) nodes.push_back(k);
  }
  return nodes;
}

std::size_t Placement::nodes_of_into(MsId m, std::vector<NodeId>& out) const {
  out.clear();
  for (NodeId k = 0; k < nodes_; ++k) {
    if (deployed(m, k)) out.push_back(k);
  }
  return out.size();
}

bool Placement::same_nodes(MsId m, const Placement& other) const {
  if (other.services_ != services_ || other.nodes_ != nodes_) {
    throw std::invalid_argument("Placement::same_nodes: dimension mismatch");
  }
  const auto row = static_cast<std::ptrdiff_t>(idx(m, 0));
  return std::equal(x_.begin() + row, x_.begin() + row + nodes_,
                    other.x_.begin() + row);
}

double Placement::deployment_cost(const workload::AppCatalog& catalog) const {
  double total = 0.0;
  for (MsId m = 0; m < services_; ++m) {
    total += catalog.microservice(m).deploy_cost *
             static_cast<double>(instance_count(m));
  }
  return total;
}

double Placement::storage_used(const workload::AppCatalog& catalog,
                               NodeId k) const {
  double used = 0.0;
  for (MsId m = 0; m < services_; ++m) {
    if (deployed(m, k)) used += catalog.microservice(m).storage;
  }
  return used;
}

bool Placement::storage_feasible(const Scenario& scenario) const {
  for (NodeId k = 0; k < nodes_; ++k) {
    if (storage_used(scenario.catalog(), k) >
        scenario.network().node(k).storage_units + 1e-9) {
      return false;
    }
  }
  return true;
}

std::size_t Placement::idx(MsId m, NodeId k) const {
  if (m < 0 || m >= services_ || k < 0 || k >= nodes_) {
    throw std::out_of_range("Placement: bad index");
  }
  return static_cast<std::size_t>(m) * static_cast<std::size_t>(nodes_) +
         static_cast<std::size_t>(k);
}

Assignment::Assignment(const Scenario& scenario) {
  offset_.reserve(scenario.requests().size() + 1);
  offset_.push_back(0);
  std::size_t total = 0;
  for (const auto& request : scenario.requests()) {
    total += request.chain.size();
    offset_.push_back(total);
  }
  data_.assign(total, net::kInvalidNode);
}

bool Assignment::consistent_with(const Scenario& scenario,
                                 const Placement& placement) const {
  if (offset_.size() != scenario.requests().size() + 1) return false;
  for (std::size_t h = 0; h + 1 < offset_.size(); ++h) {
    const auto& request = scenario.requests()[h];
    const std::size_t begin = offset_[h];
    if (offset_[h + 1] - begin != request.chain.size()) return false;
    for (std::size_t pos = 0; pos < request.chain.size(); ++pos) {
      const NodeId k = data_[begin + pos];
      if (k == net::kInvalidNode) return false;
      if (!placement.deployed(request.chain[pos], k)) return false;
    }
  }
  return true;
}

}  // namespace socl::core
