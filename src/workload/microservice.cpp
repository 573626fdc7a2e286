#include "workload/microservice.h"

#include <stdexcept>

namespace socl::workload {


int UserRequest::position_of(MsId m) const {
  for (std::size_t pos = 0; pos < chain.size(); ++pos) {
    if (chain[pos] == m) return static_cast<int>(pos);
  }
  return -1;
}

void validate(const UserRequest& request, int num_microservices) {
  if (request.chain.empty()) {
    throw std::invalid_argument("UserRequest: empty chain");
  }
  if (request.edge_data.size() + 1 != request.chain.size()) {
    throw std::invalid_argument("UserRequest: edge_data/chain size mismatch");
  }
  // A microservice may appear multiple times in a chain (e.g. auth called
  // before and after a payment step); the layered routing DP handles
  // repeats natively, so only the id range is validated here.
  for (MsId m : request.chain) {
    if (m < 0 || m >= num_microservices) {
      throw std::invalid_argument("UserRequest: microservice id out of range");
    }
  }
  for (double r : request.edge_data) {
    if (r <= 0.0) throw std::invalid_argument("UserRequest: edge data <= 0");
  }
  if (request.data_in <= 0.0 || request.data_out <= 0.0) {
    throw std::invalid_argument("UserRequest: payload <= 0");
  }
  if (request.deadline <= 0.0) {
    throw std::invalid_argument("UserRequest: non-positive deadline");
  }
}

}  // namespace socl::workload
