#include "shard/shard_plan.h"

#include <numeric>
#include <stdexcept>

namespace socl::shard {

ShardPlan single_shard_plan(const core::Scenario& scenario) {
  ShardPlan plan;
  const int n = scenario.num_nodes();
  plan.shard_of.assign(static_cast<std::size_t>(n), 0);
  plan.nodes.emplace_back();
  plan.nodes[0].reserve(static_cast<std::size_t>(n));
  for (net::NodeId k = 0; k < n; ++k) plan.nodes[0].push_back(k);
  return plan;
}

ShardPlan plan_from_metros(const std::vector<int>& metro_of, int metros) {
  if (metros <= 0) {
    throw std::invalid_argument("plan_from_metros: metros <= 0");
  }
  ShardPlan plan;
  plan.shard_of = metro_of;
  plan.nodes.resize(static_cast<std::size_t>(metros));
  for (std::size_t k = 0; k < metro_of.size(); ++k) {
    const int m = metro_of[k];
    if (m < 0 || m >= metros) {
      throw std::invalid_argument("plan_from_metros: metro id out of range");
    }
    plan.nodes[static_cast<std::size_t>(m)].push_back(
        static_cast<net::NodeId>(k));
  }
  for (const auto& nodes : plan.nodes) {
    if (nodes.empty()) {
      throw std::invalid_argument("plan_from_metros: empty metro");
    }
  }
  return plan;
}

namespace {

std::vector<net::NodeId> node_inverse(const std::vector<net::NodeId>& nodes,
                                      int global_nodes) {
  std::vector<net::NodeId> inverse(static_cast<std::size_t>(global_nodes),
                                   net::kInvalidNode);
  for (std::size_t local = 0; local < nodes.size(); ++local) {
    inverse[static_cast<std::size_t>(nodes[local])] =
        static_cast<net::NodeId>(local);
  }
  return inverse;
}

/// Induced sub-network: nodes in ascending global id order, links in global
/// insertion order, rates copied verbatim (add_link_with_rate) so the BFS
/// tables and harmonic-mean virtual links of the sub-network reproduce the
/// global ones restricted to the shard. Per-node adjacency order is
/// preserved too — incident links arrive in global link-id order on both
/// sides — which keeps BFS tie-breaking identical.
net::EdgeNetwork induced_network(const net::EdgeNetwork& global,
                                 const std::vector<net::NodeId>& nodes,
                                 const std::vector<net::NodeId>& inverse) {
  net::EdgeNetwork sub(global.noise_w());
  for (const net::NodeId k : nodes) sub.add_node(global.node(k));
  for (std::size_t l = 0; l < global.num_links(); ++l) {
    const net::EdgeLink& link = global.link(static_cast<net::LinkId>(l));
    const net::NodeId a = inverse[static_cast<std::size_t>(link.a)];
    const net::NodeId b = inverse[static_cast<std::size_t>(link.b)];
    if (a == net::kInvalidNode || b == net::kInvalidNode) continue;
    sub.add_link_with_rate(a, b, link.rate_gbps);
  }
  return sub;
}

}  // namespace

ShardProblem::ShardProblem(const core::Scenario& global, const ShardPlan& plan,
                           int shard)
    : global_(&global),
      local_to_global_node_(plan.nodes.at(static_cast<std::size_t>(shard))),
      global_to_local_node_(
          node_inverse(local_to_global_node_, global.num_nodes())) {
  own_.emplace(induced_network(global.network(), local_to_global_node_,
                               global_to_local_node_),
               global.catalog(), localize(), global.constants());
}

ShardProblem::ShardProblem(const core::Scenario& global)
    : global_(&global),
      local_to_global_node_(static_cast<std::size_t>(global.num_nodes())),
      seen_epoch_(global.workload_epoch()) {
  std::iota(local_to_global_node_.begin(), local_to_global_node_.end(),
            net::NodeId{0});
}

void ShardProblem::set_constants(const core::ProblemConstants& constants) {
  if (!own_) {
    throw std::logic_error("ShardProblem: an alias is never priced");
  }
  own_->set_constants(constants);
}

std::vector<workload::UserRequest> ShardProblem::localize() {
  local_to_global_user_.clear();
  std::vector<workload::UserRequest> local;
  for (const auto& request : global_->requests()) {
    const net::NodeId attach =
        global_to_local_node_.at(static_cast<std::size_t>(request.attach_node));
    if (attach == net::kInvalidNode) continue;
    workload::UserRequest copy = request;
    copy.id = static_cast<int>(local_to_global_user_.size());
    copy.attach_node = attach;
    local_to_global_user_.push_back(request.id);
    local.push_back(std::move(copy));
  }
  return local;
}

bool ShardProblem::sync() {
  if (!own_) {
    const std::uint64_t epoch = global_->workload_epoch();
    const bool moved = epoch != seen_epoch_;
    seen_epoch_ = epoch;
    return moved;
  }
  const std::uint64_t before = own_->workload_epoch();
  // Membership changes are invisible to the scenario's positional
  // unchanged-workload check: localize() always hands it dense local ids
  // 0..n-1, so a user swap between shards (one leaves, an equal-tuple user
  // enters) can leave the local workload positionally identical while
  // local_to_global_user_ silently re-targets merge_assignment at different
  // global users. Compare the remap itself so any membership change flags
  // the shard as moved — both sides of a cross-shard move re-run their rung
  // and the merged assignment never bills a user to its old shard.
  const std::vector<int> members_before = local_to_global_user_;
  own_->set_requests(localize());
  return own_->workload_epoch() != before ||
         local_to_global_user_ != members_before;
}

double ShardProblem::min_feasible_spend() const {
  const core::Scenario& problem = scenario();
  std::vector<bool> used(
      static_cast<std::size_t>(problem.num_microservices()), false);
  for (const auto& request : problem.requests()) {
    for (const workload::MsId m : request.chain) {
      used[static_cast<std::size_t>(m)] = true;
    }
  }
  double spend = 0.0;
  for (workload::MsId m = 0; m < problem.num_microservices(); ++m) {
    if (used[static_cast<std::size_t>(m)]) {
      spend += problem.catalog().microservice(m).deploy_cost;
    }
  }
  return spend;
}

void ShardProblem::merge_placement(const core::Placement& local,
                                   core::Placement& global) const {
  for (workload::MsId m = 0; m < local.num_microservices(); ++m) {
    for (net::NodeId k = 0; k < local.num_nodes(); ++k) {
      if (local.deployed(m, k)) {
        global.deploy(m, to_global_node(k));
      }
    }
  }
}

void ShardProblem::merge_assignment(const core::Assignment& local,
                                    core::Assignment& global) const {
  std::vector<net::NodeId> route;
  for (int user = 0; user < local.num_users(); ++user) {
    const auto local_route = local.user_route(user);
    route.assign(local_route.begin(), local_route.end());
    for (net::NodeId& k : route) k = to_global_node(k);
    global.set_user_route(to_global_user(user), route);
  }
}

}  // namespace socl::shard
