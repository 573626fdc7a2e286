// Application catalog derived from the eshopOnContainers project of the
// "curated dataset of microservices-based systems" [23] used in the paper's
// evaluation (Section V-A). The catalog fixes the microservice inventory,
// their dependency edges, and the request-chain templates users draw from.
//
// Parameter ranges follow the paper: per-invocation compute in [1, 3] GFLOP,
// chain data flows in [1, 80] data units, per-instance deployment costs
// chosen so that 10-server scenarios land in the paper's 5000-8000 cost
// budget band.
#pragma once

#include <string>
#include <vector>

#include "workload/microservice.h"

namespace socl::workload {

/// A named request-flow template through the application's dependency graph.
struct ChainTemplate {
  std::string name;
  std::vector<MsId> chain;
  /// Relative popularity among generated user requests.
  double weight = 1.0;
};

/// Immutable application description.
class AppCatalog {
 public:
  AppCatalog(std::string name, std::vector<Microservice> microservices,
             std::vector<ChainTemplate> templates);

  const std::string& name() const { return name_; }
  const std::vector<Microservice>& microservices() const {
    return microservices_;
  }
  const Microservice& microservice(MsId m) const {
    return microservices_.at(static_cast<std::size_t>(m));
  }
  int num_microservices() const {
    return static_cast<int>(microservices_.size());
  }
  const std::vector<ChainTemplate>& templates() const { return templates_; }

  /// Total deployment cost of one instance of every microservice
  /// (Σ_i κ(m_i)); the budget bound of Algorithm 2 builds on it.
  double total_single_instance_cost() const;

 private:
  std::string name_;
  std::vector<Microservice> microservices_;
  std::vector<ChainTemplate> templates_;
};

/// The eshopOnContainers catalog used throughout the evaluation.
const AppCatalog& eshop_catalog();

/// Sock Shop (Weaveworks' microservices demo), another project catalogued
/// by the dataset [23]: front-end, user, catalogue, carts, orders, payment,
/// shipping, queue-master plus stores.
const AppCatalog& sock_shop_catalog();

/// Train Ticket (FudanSELab), the largest open benchmark in the dataset:
/// a 20-service subset covering the booking, payment and notification flows
/// with the longest chains (up to 9 services) — stresses chain routing.
const AppCatalog& train_ticket_catalog();

/// A small three-service catalog for unit tests and the quickstart example.
const AppCatalog& tiny_catalog();

/// All shipped catalogs by name ("eshop", "sockshop", "trainticket",
/// "tiny"); throws std::invalid_argument for unknown names.
const AppCatalog& catalog_by_name(const std::string& name);

}  // namespace socl::workload
