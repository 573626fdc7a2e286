#include "workload/request_classes.h"

#include <bit>
#include <stdexcept>

namespace socl::workload {
namespace {

// One multiply per 64-bit field (FNV-1a's prime, applied a word at a time),
// then a xor-shift/multiply finaliser: a multiply only carries bits upward,
// so without it the low bits the probe mask keeps would ignore the high
// bits of every field.
constexpr std::uint64_t kMixOffset = 1469598103934665603ULL;
constexpr std::uint64_t kMixPrime = 1099511628211ULL;

std::uint64_t mix(std::uint64_t hash, std::uint64_t value) {
  return (hash ^ value) * kMixPrime;
}

std::uint64_t finalise(std::uint64_t hash) {
  hash ^= hash >> 33;
  hash *= 0xff51afd7ed558ccdULL;
  hash ^= hash >> 33;
  return hash;
}

/// Linear-probing table of class ids keyed by their fingerprints: a power-
/// of-two capacity held at load <= 1/2.
class ClassTable {
 public:
  /// The slot holding the class with fingerprint `fp` whose representative
  /// equals `request` exactly, or else the empty slot (-1) it belongs in.
  int& slot_for(std::uint64_t fp, const UserRequest& request,
                const std::vector<RequestClass>& classes,
                const std::vector<UserRequest>& requests) {
    for (std::size_t i = fp & mask_;; i = (i + 1) & mask_) {
      int& slot = slots_[i];
      if (slot < 0) return slot;
      const RequestClass& entry = classes[static_cast<std::size_t>(slot)];
      if (entry.fingerprint == fp &&
          same_request_class(
              requests[static_cast<std::size_t>(entry.representative)],
              request)) {
        return slot;
      }
    }
  }

  /// Doubles the capacity and re-inserts every class by its stored
  /// fingerprint once the classes fill more than half the slots.
  void fit(const std::vector<RequestClass>& classes) {
    if (2 * classes.size() <= slots_.size()) return;
    slots_.assign(2 * slots_.size(), -1);
    mask_ = slots_.size() - 1;
    for (std::size_t c = 0; c < classes.size(); ++c) {
      std::size_t i = classes[c].fingerprint & mask_;
      while (slots_[i] >= 0) i = (i + 1) & mask_;
      slots_[i] = static_cast<int>(c);
    }
  }

 private:
  static constexpr std::size_t kInitialSlots = 64;
  std::vector<int> slots_ = std::vector<int>(kInitialSlots, -1);
  std::size_t mask_ = kInitialSlots - 1;
};

}  // namespace

std::uint64_t request_fingerprint(const UserRequest& request) {
  std::uint64_t hash = kMixOffset;
  hash = mix(hash, static_cast<std::uint64_t>(request.attach_node));
  hash = mix(hash, static_cast<std::uint64_t>(request.chain.size()));
  for (MsId m : request.chain) hash = mix(hash, static_cast<std::uint64_t>(m));
  for (double volume : request.edge_data) {
    hash = mix(hash, std::bit_cast<std::uint64_t>(volume));
  }
  hash = mix(hash, std::bit_cast<std::uint64_t>(request.data_in));
  hash = mix(hash, std::bit_cast<std::uint64_t>(request.data_out));
  hash = mix(hash, std::bit_cast<std::uint64_t>(request.deadline));
  return finalise(hash);
}

bool same_request_class(const UserRequest& a, const UserRequest& b) {
  return a.attach_node == b.attach_node && a.chain == b.chain &&
         a.edge_data == b.edge_data && a.data_in == b.data_in &&
         a.data_out == b.data_out && a.deadline == b.deadline;
}

RequestClasses::RequestClasses(const std::vector<UserRequest>& requests)
    : num_users_(static_cast<int>(requests.size())) {
  class_of_.assign(requests.size(), -1);
  // Colliding fingerprints stay distinct classes: the table matches on the
  // fingerprint and then on exact field equality.
  ClassTable table;

  for (const auto& request : requests) {
    if (request.id < 0 ||
        static_cast<std::size_t>(request.id) >= requests.size() ||
        class_of_[static_cast<std::size_t>(request.id)] != -1) {
      throw std::invalid_argument(
          "RequestClasses: request ids must be dense and unique in "
          "[0, num_users)");
    }
    const std::uint64_t fp = request_fingerprint(request);
    int& slot = table.slot_for(fp, request, classes_, requests);
    int cls = slot;
    if (cls < 0) {
      cls = slot = static_cast<int>(classes_.size());
      RequestClass fresh;
      fresh.representative = request.id;
      fresh.fingerprint = fp;
      classes_.push_back(std::move(fresh));
      table.fit(classes_);  // may rehash: `slot` is not used past here
    }
    auto& entry = classes_[static_cast<std::size_t>(cls)];
    entry.members.push_back(request.id);
    entry.weight += 1.0;
    class_of_[static_cast<std::size_t>(request.id)] = cls;
  }

  // Inverted chain index. Class order is ascending by construction; a chain
  // may repeat a microservice, so skip ids already recorded for this class.
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const auto& chain =
        requests[static_cast<std::size_t>(classes_[c].representative)].chain;
    for (MsId m : chain) {
      const auto idx = static_cast<std::size_t>(m);
      if (idx >= classes_using_.size()) classes_using_.resize(idx + 1);
      auto& list = classes_using_[idx];
      if (list.empty() || list.back() != static_cast<int>(c)) {
        list.push_back(static_cast<int>(c));
      }
    }
  }
}

const std::vector<int> RequestClasses::kNoClasses;

void ClassDemandSoA::build(const RequestClasses& classes,
                           const std::vector<UserRequest>& requests) {
  const auto count = static_cast<std::size_t>(classes.num_classes());
  chain_offset.clear();
  chain.clear();
  edge_offset.clear();
  edge_data.clear();
  attach.clear();
  data_in.clear();
  data_out.clear();
  deadline.clear();
  weight.clear();
  representative.clear();
  chain_offset.reserve(count + 1);
  edge_offset.reserve(count + 1);
  attach.reserve(count);

  chain_offset.push_back(0);
  edge_offset.push_back(0);
  for (std::size_t c = 0; c < count; ++c) {
    const RequestClass& cls = classes.cls(static_cast<int>(c));
    const UserRequest& rep =
        requests.at(static_cast<std::size_t>(cls.representative));
    chain.insert(chain.end(), rep.chain.begin(), rep.chain.end());
    edge_data.insert(edge_data.end(), rep.edge_data.begin(),
                     rep.edge_data.end());
    chain_offset.push_back(static_cast<std::int32_t>(chain.size()));
    edge_offset.push_back(static_cast<std::int32_t>(edge_data.size()));
    attach.push_back(rep.attach_node);
    data_in.push_back(rep.data_in);
    data_out.push_back(rep.data_out);
    deadline.push_back(rep.deadline);
    weight.push_back(cls.weight);
    representative.push_back(cls.representative);
  }
}

std::size_t ClassDemandSoA::bytes() const {
  return chain_offset.capacity() * sizeof(std::int32_t) +
         chain.capacity() * sizeof(MsId) +
         edge_offset.capacity() * sizeof(std::int32_t) +
         edge_data.capacity() * sizeof(double) +
         attach.capacity() * sizeof(net::NodeId) +
         (data_in.capacity() + data_out.capacity() + deadline.capacity() +
          weight.capacity()) *
             sizeof(double) +
         representative.capacity() * sizeof(int);
}

std::vector<UserRequest> replicate_requests(
    const std::vector<UserRequest>& templates, int num_users) {
  if (templates.empty()) {
    throw std::invalid_argument("replicate_requests: empty template set");
  }
  std::vector<UserRequest> out;
  out.reserve(static_cast<std::size_t>(num_users));
  for (int h = 0; h < num_users; ++h) {
    UserRequest request =
        templates[static_cast<std::size_t>(h) % templates.size()];
    request.id = h;
    out.push_back(std::move(request));
  }
  return out;
}

}  // namespace socl::workload
