#include "workload/catalog.h"

#include <stdexcept>
#include <unordered_set>

namespace socl::workload {

AppCatalog::AppCatalog(std::string name,
                       std::vector<Microservice> microservices,
                       std::vector<ChainTemplate> templates)
    : name_(std::move(name)),
      microservices_(std::move(microservices)),
      templates_(std::move(templates)) {
  if (microservices_.empty()) {
    throw std::invalid_argument("AppCatalog: no microservices");
  }
  for (std::size_t i = 0; i < microservices_.size(); ++i) {
    microservices_[i].id = static_cast<MsId>(i);
  }
  for (const auto& tpl : templates_) {
    if (tpl.chain.empty()) {
      throw std::invalid_argument("AppCatalog: empty template " + tpl.name);
    }
    std::unordered_set<MsId> seen;
    for (MsId m : tpl.chain) {
      if (m < 0 || m >= num_microservices()) {
        throw std::invalid_argument("AppCatalog: bad id in template " +
                                    tpl.name);
      }
      if (!seen.insert(m).second) {
        throw std::invalid_argument("AppCatalog: repeated id in template " +
                                    tpl.name);
      }
    }
    if (tpl.weight <= 0.0) {
      throw std::invalid_argument("AppCatalog: non-positive weight in " +
                                  tpl.name);
    }
  }
}

double AppCatalog::total_single_instance_cost() const {
  double total = 0.0;
  for (const auto& ms : microservices_) total += ms.deploy_cost;
  return total;
}

const AppCatalog& eshop_catalog() {
  // Microservice inventory of eshopOnContainers. κ/φ/q are calibrated to the
  // paper's ranges: q ∈ [1, 3] GFLOP per invocation; the heavier backend
  // services carry larger install cost and storage than the thin gateways.
  //
  //  id  service
  //   0  web-bff        HTTP aggregator / API gateway
  //   1  identity-api   authentication & tokens
  //   2  catalog-api    product catalog
  //   3  basket-api     shopping basket (Redis-backed)
  //   4  ordering-api   order management
  //   5  payment-api    payment processing
  //   6  marketing-api  campaigns
  //   7  locations-api  geo-fencing for campaigns
  //   8  event-bus      integration-event broker (RabbitMQ)
  //   9  webhooks-api   outbound notifications
  //  10  ordering-bg    ordering background tasks (grace-period handling)
  //  11  signalr-hub    client push notifications
  static const AppCatalog catalog(
      "eshopOnContainers",
      {
          {kInvalidMs, "web-bff", 240.0, 1.0, 1.0},
          {kInvalidMs, "identity-api", 300.0, 1.0, 1.4},
          {kInvalidMs, "catalog-api", 380.0, 2.0, 2.2},
          {kInvalidMs, "basket-api", 300.0, 1.0, 1.6},
          {kInvalidMs, "ordering-api", 420.0, 2.0, 2.8},
          {kInvalidMs, "payment-api", 340.0, 1.0, 2.0},
          {kInvalidMs, "marketing-api", 300.0, 1.0, 1.8},
          {kInvalidMs, "locations-api", 260.0, 1.0, 1.2},
          {kInvalidMs, "event-bus", 280.0, 1.0, 1.0},
          {kInvalidMs, "webhooks-api", 260.0, 1.0, 1.3},
          {kInvalidMs, "ordering-bg", 320.0, 1.0, 2.4},
          {kInvalidMs, "signalr-hub", 240.0, 1.0, 1.1},
      },
      {
          {"browse", {0, 1, 2}, 3.0},
          {"search", {0, 2}, 2.0},
          {"basket-update", {0, 1, 3}, 2.0},
          {"checkout", {0, 1, 3, 4, 5}, 2.0},
          {"order-status", {0, 1, 4, 11}, 1.0},
          {"campaign", {0, 1, 6, 7}, 1.0},
          {"order-fulfilment", {4, 10, 8, 9}, 0.7},
          {"full-purchase", {0, 1, 2, 3, 4, 5, 8, 9}, 0.8},
      });
  return catalog;
}

const AppCatalog& sock_shop_catalog() {
  // Weaveworks Sock Shop services. Chains follow the demo's request flows:
  // browsing goes front-end -> catalogue; checkout fans through carts,
  // orders, payment and shipping; queue-master drains shipping events.
  //
  //  id  service
  //   0  front-end     3  carts        6  shipping
  //   1  user          4  orders       7  queue-master
  //   2  catalogue     5  payment      8  session-db (edge cache tier)
  static const AppCatalog catalog(
      "sock-shop",
      {
          {kInvalidMs, "front-end", 220.0, 1.0, 1.0},
          {kInvalidMs, "user", 280.0, 1.0, 1.3},
          {kInvalidMs, "catalogue", 320.0, 2.0, 1.8},
          {kInvalidMs, "carts", 300.0, 1.0, 1.5},
          {kInvalidMs, "orders", 400.0, 2.0, 2.6},
          {kInvalidMs, "payment", 340.0, 1.0, 1.9},
          {kInvalidMs, "shipping", 300.0, 1.0, 1.6},
          {kInvalidMs, "queue-master", 260.0, 1.0, 1.2},
          {kInvalidMs, "session-db", 240.0, 2.0, 1.1},
      },
      {
          {"browse", {0, 2}, 3.0},
          {"login", {0, 1, 8}, 1.5},
          {"cart-update", {0, 1, 3}, 2.0},
          {"checkout", {0, 1, 3, 4, 5, 6}, 1.5},
          {"ship-event", {4, 6, 7}, 0.8},
      });
  return catalog;
}

const AppCatalog& train_ticket_catalog() {
  // FudanSELab Train Ticket, 20-service subset. The booking flow is the
  // longest dependency chain shipped with the library (9 services),
  // matching the dataset's deep-chain characteristics.
  //
  //  id  service            id  service            id  service
  //   0  ui-gateway          7  order              14  notification
  //   1  auth                8  payment            15  consign
  //   2  user                9  inside-payment     16  route
  //   3  travel             10  cancel             17  price
  //   4  ticket-info        11  execute            18  assurance
  //   5  seat               12  security           19  contacts
  //   6  station            13  food
  static const AppCatalog catalog(
      "train-ticket",
      {
          {kInvalidMs, "ui-gateway", 200.0, 1.0, 1.0},
          {kInvalidMs, "auth", 260.0, 1.0, 1.2},
          {kInvalidMs, "user", 260.0, 1.0, 1.3},
          {kInvalidMs, "travel", 360.0, 2.0, 2.4},
          {kInvalidMs, "ticket-info", 300.0, 1.0, 1.8},
          {kInvalidMs, "seat", 300.0, 1.0, 1.7},
          {kInvalidMs, "station", 240.0, 1.0, 1.1},
          {kInvalidMs, "order", 400.0, 2.0, 2.8},
          {kInvalidMs, "payment", 340.0, 1.0, 2.0},
          {kInvalidMs, "inside-payment", 300.0, 1.0, 1.6},
          {kInvalidMs, "cancel", 280.0, 1.0, 1.5},
          {kInvalidMs, "execute", 300.0, 1.0, 1.7},
          {kInvalidMs, "security", 260.0, 1.0, 1.4},
          {kInvalidMs, "food", 260.0, 1.0, 1.3},
          {kInvalidMs, "notification", 220.0, 1.0, 1.0},
          {kInvalidMs, "consign", 260.0, 1.0, 1.4},
          {kInvalidMs, "route", 280.0, 1.0, 1.6},
          {kInvalidMs, "price", 240.0, 1.0, 1.2},
          {kInvalidMs, "assurance", 240.0, 1.0, 1.2},
          {kInvalidMs, "contacts", 240.0, 1.0, 1.1},
      },
      {
          {"search", {0, 3, 16, 17}, 3.0},
          {"ticket-detail", {0, 4, 6}, 2.0},
          {"book", {0, 1, 12, 19, 3, 5, 18, 7, 8}, 1.5},
          {"pay", {0, 1, 7, 8, 9, 14}, 1.2},
          {"cancel", {0, 1, 7, 10, 9, 14}, 0.8},
          {"boarding", {0, 1, 11, 7}, 0.8},
          {"food-order", {0, 1, 13, 6}, 0.6},
          {"consign", {0, 1, 15, 7}, 0.5},
          {"profile", {0, 1, 2, 19}, 0.8},
      });
  return catalog;
}

const AppCatalog& tiny_catalog() {
  static const AppCatalog catalog(
      "tiny",
      {
          {kInvalidMs, "frontend", 200.0, 1.0, 1.0},
          {kInvalidMs, "logic", 300.0, 1.0, 2.0},
          {kInvalidMs, "storage", 250.0, 2.0, 1.5},
      },
      {
          {"read", {0, 2}, 1.0},
          {"write", {0, 1, 2}, 1.0},
      });
  return catalog;
}

const AppCatalog& catalog_by_name(const std::string& name) {
  if (name == "eshop") return eshop_catalog();
  if (name == "sockshop") return sock_shop_catalog();
  if (name == "trainticket") return train_ticket_catalog();
  if (name == "tiny") return tiny_catalog();
  throw std::invalid_argument("catalog_by_name: unknown catalog " + name);
}

}  // namespace socl::workload
