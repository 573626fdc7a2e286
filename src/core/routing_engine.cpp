#include "core/routing_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "obs/sink.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace socl::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

void RoutingCounters::merge(const RoutingCounters& other) {
  routes_computed += other.routes_computed;
  cache_hits += other.cache_hits;
  reroutes_avoided += other.reroutes_avoided;
  candidates_scored += other.candidates_scored;
  cache_refreshes += other.cache_refreshes;
  refresh_seconds += other.refresh_seconds;
  score_seconds += other.score_seconds;
  kernel.merge(other.kernel);
}

RoutingEngine::RoutingEngine(const Scenario& scenario, int threads)
    : scenario_(&scenario),
      kernel_(scenario),
      lanes_(std::min(util::shared_pool().size(),
                      threads > 0 ? static_cast<std::size_t>(threads)
                                  : util::shared_pool().size())),
      arenas_(lanes_) {
  rebuild_class_index();
}

void RoutingEngine::rebuild_class_index() {
  classes_of_.assign(static_cast<std::size_t>(scenario_->num_microservices()),
                     {});
  const auto& classes = scenario_->classes().classes();
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const auto& request = scenario_->request(classes[c].representative);
    for (const MsId m : request.chain) {
      auto& entries = classes_of_[static_cast<std::size_t>(m)];
      // Chain positions are visited in order, so a repeated microservice in
      // one chain would land adjacently — dedupe against the tail.
      if (entries.empty() || entries.back() != static_cast<int>(c)) {
        entries.push_back(static_cast<int>(c));
      }
    }
  }
  workload_epoch_seen_ = scenario_->workload_epoch();
}

RoutingEngine::SlotLease::SlotLease(RoutingEngine& engine) : engine_(&engine) {
  std::lock_guard<std::mutex> lock(engine.mutex_);
  for (auto& slot : engine.serial_slots_) {
    if (!slot->in_use) {
      slot->in_use = true;
      slot_ = slot.get();
      break;
    }
  }
  if (slot_ == nullptr) {
    engine.serial_slots_.push_back(std::make_unique<SerialSlot>());
    slot_ = engine.serial_slots_.back().get();
    slot_->in_use = true;
  }
}

RoutingEngine::SlotLease::~SlotLease() {
  std::lock_guard<std::mutex> lock(engine_->mutex_);
  slot_->in_use = false;
  engine_->counters_.merge(local_);
}

void RoutingEngine::merge_counters(const RoutingCounters& local) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.merge(local);
}

double RoutingEngine::combine(double cost, double total_latency) const {
  const auto& constants = scenario_->constants();
  return constants.lambda * cost +
         (1.0 - constants.lambda) * constants.latency_weight * total_latency;
}

void RoutingEngine::sync_workload() {
  // A mutated workload (regenerate_chains, mobility reattach) invalidates
  // the class partition, the per-microservice index, and the kernel's SoA
  // buffers; re-derive them here so no caller can score against a stale view.
  if (workload_epoch_seen_ != scenario_->workload_epoch()) {
    rebuild_class_index();
  }
  if (kernel_.sync()) ++counters_.kernel.rebuilds;
}

void RoutingEngine::refresh(const Placement& placement) {
  const obs::ScopedSpan span(sink_, obs::Phase::kRouting, "routing.refresh");
  util::WallTimer timer;
  sync_workload();
  const auto& classes = scenario_->classes().classes();
  const std::size_t n = classes.size();

  // Placement diff: a class's route is a pure function of the class and of
  // the node sets of its chain's microservices, so under the workload epoch
  // of the last refresh only the classes of services whose node set moved
  // can route differently. Everything else keeps its cached entry, which is
  // bitwise what re-routing it would produce.
  to_route_.clear();
  if (diff_valid_ && refreshed_workload_epoch_ == scenario_->workload_epoch()) {
    route_mark_.assign(n, 0);
    for (MsId m = 0; m < scenario_->num_microservices(); ++m) {
      if (placement.same_nodes(m, *refreshed_)) continue;
      for (const int c : classes_of_[static_cast<std::size_t>(m)]) {
        route_mark_[static_cast<std::size_t>(c)] = 1;
      }
    }
    for (std::size_t c = 0; c < n; ++c) {
      if (route_mark_[c] != 0) to_route_.push_back(static_cast<int>(c));
    }
  } else {
    cached_latency_.assign(n, kInf);
    cached_routes_.resize(n);
    for (std::size_t c = 0; c < n; ++c) to_route_.push_back(static_cast<int>(c));
  }
  // Invalid until this refresh completes: a refresh interrupted by an
  // exception leaves a partly re-routed cache that no diff may trust.
  diff_valid_ = false;

  const auto route_class = [&](std::size_t c, ScoreContext& ctx,
                               RouteResult& route) {
    const bool ok = kernel_.class_route(static_cast<int>(c), ctx.arena,
                                        ctx.counters.kernel, route);
    ++ctx.counters.routes_computed;
    cached_latency_[c] = ok ? route.total() : kInf;
    auto& cached = cached_routes_[c];
    if (ok) {
      cached.assign(route.nodes.begin(), route.nodes.end());
    } else {
      cached.clear();
    }
  };
  const std::size_t count = to_route_.size();
  // Small refreshes are not worth the dispatch: one lane runs inline. No
  // other entry point runs during a refresh, so lane arenas are free.
  const std::size_t lanes = count >= 64 ? lanes_ : 1;
  // One bind generation for the whole refresh: every worker binds its arena
  // to `placement` once and fast-paths on every later class it routes.
  const std::uint64_t gen = next_bind_gen();
  std::vector<RoutingCounters> worker_counters(lanes);
  std::vector<RouteResult> worker_routes(lanes);
  util::shared_pool().parallel_for_workers(
      count,
      [&](std::size_t worker, std::size_t i) {
        assert(worker < arenas_.size());
        ScoreContext ctx{worker_counters[worker], arenas_[worker]};
        kernel_.bind(ctx.arena, placement, gen);
        route_class(static_cast<std::size_t>(to_route_[i]), ctx,
                    worker_routes[worker]);
      },
      lanes);
  for (const auto& wc : worker_counters) merge_counters(wc);
  // Fixed-order serial reduction over every class: each class's latency is
  // a pure function of (class, placement), so summing by ascending class
  // index makes the total bit-identical to a full serial refresh at any
  // thread count, however many classes this refresh re-routed.
  cached_latency_sum_ = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    cached_latency_sum_ += classes[c].weight * cached_latency_[c];
  }
  if (refreshed_) {
    *refreshed_ = placement;
  } else {
    refreshed_.emplace(placement);
  }
  refreshed_workload_epoch_ = scenario_->workload_epoch();
  diff_valid_ = true;
  ++epoch_;
  ++counters_.cache_refreshes;
  counters_.refresh_seconds += timer.elapsed_seconds();
}

double RoutingEngine::objective_without(MsId m, NodeId k,
                                        const Placement& trial,
                                        ScoreContext& ctx) const {
  // An unroutable cached placement scores +inf for every neighbour reachable
  // by a removal; bail before the per-class deltas can turn inf into NaN.
  if (!std::isfinite(cached_latency_sum_)) return kInf;
  kernel_.bind(ctx.arena, trial, next_bind_gen());
  // Removing (m, k) can only affect classes whose current optimal route
  // sends some occurrence of m to k — everyone else's optimum is still
  // available in the smaller feasible set. This cuts removal scans by
  // roughly the replica count.
  double latency = cached_latency_sum_;
  for (const int c : classes_of_[static_cast<std::size_t>(m)]) {
    const auto& cls = scenario_->classes().cls(c);
    const auto& request = scenario_->request(cls.representative);
    const auto& route = cached_routes_[static_cast<std::size_t>(c)];
    bool affected = route.empty();
    if (!affected) {
      // Scan every chain position: a chain may visit m more than once, and
      // any occurrence routed to k invalidates the cached latency.
      for (std::size_t pos = 0; pos < request.chain.size(); ++pos) {
        if (request.chain[pos] == m && route[pos] == k) {
          affected = true;
          break;
        }
      }
    }
    if (!affected) {
      ++ctx.counters.reroutes_avoided;
      ++ctx.counters.cache_hits;
      continue;
    }
    const double rerouted =
        kernel_.class_cost(c, ctx.arena, ctx.counters.kernel);
    ++ctx.counters.routes_computed;
    if (rerouted == kInf) return kInf;
    latency +=
        cls.weight * (rerouted - cached_latency_[static_cast<std::size_t>(c)]);
  }
  return combine(trial.deployment_cost(scenario_->catalog()), latency);
}

double RoutingEngine::objective_with_change(const Placement& trial,
                                            MsId changed,
                                            ScoreContext& ctx) const {
  if (!std::isfinite(cached_latency_sum_)) return kInf;
  kernel_.bind(ctx.arena, trial, next_bind_gen());
  double latency = cached_latency_sum_;
  for (const int c : classes_of_[static_cast<std::size_t>(changed)]) {
    const auto& cls = scenario_->classes().cls(c);
    const double rerouted =
        kernel_.class_cost(c, ctx.arena, ctx.counters.kernel);
    ++ctx.counters.routes_computed;
    if (rerouted == kInf) return kInf;
    latency +=
        cls.weight * (rerouted - cached_latency_[static_cast<std::size_t>(c)]);
  }
  return combine(trial.deployment_cost(scenario_->catalog()), latency);
}

double RoutingEngine::objective_with_change(const Placement& trial,
                                            MsId changed) {
  SlotLease lease(*this);
  ScoreContext ctx = lease.context();
  return objective_with_change(trial, changed, ctx);
}

double RoutingEngine::full_objective(const Placement& placement,
                                     ScoreContext& ctx) const {
  kernel_.bind(ctx.arena, placement, next_bind_gen());
  double latency = 0.0;
  const auto& classes = scenario_->classes().classes();
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const double d = kernel_.class_cost(static_cast<int>(c), ctx.arena,
                                        ctx.counters.kernel);
    ++ctx.counters.routes_computed;
    if (d == kInf) return kInf;
    latency += classes[c].weight * d;
  }
  return combine(placement.deployment_cost(scenario_->catalog()), latency);
}

double RoutingEngine::full_objective(const Placement& placement) {
  SlotLease lease(*this);
  ScoreContext ctx = lease.context();
  return full_objective(placement, ctx);
}

bool RoutingEngine::any_deadline_violation(const Placement& placement) {
  SlotLease lease(*this);
  ScoreContext ctx = lease.context();
  kernel_.bind(ctx.arena, placement, next_bind_gen());
  const auto& classes = scenario_->classes().classes();
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const auto& request =
        scenario_->request(classes[c].representative);
    const double d = kernel_.class_cost(static_cast<int>(c), ctx.arena,
                                        ctx.counters.kernel);
    ++ctx.counters.routes_computed;
    // route_cost is +inf for unroutable classes, which trips the deadline.
    if (d > request.deadline + 1e-9) return true;
  }
  return false;
}

std::vector<double> RoutingEngine::score_candidates(
    std::size_t n,
    const std::function<double(std::size_t, ScoreContext&)>& score) {
  const obs::ScopedSpan span(sink_, obs::Phase::kRouting,
                             "routing.score_candidates");
  util::WallTimer timer;
  std::vector<double> results(n, kInf);
  RoutingCounters local;
  local.candidates_scored = static_cast<std::int64_t>(n);

  // Small batches are not worth the dispatch; the serial path leases a
  // checkout slot like the convenience entry points, so it never aliases a
  // fan-out worker's arena even when called concurrently.
  if (n < 8 || lanes_ == 1) {
    SlotLease lease(*this);
    ScoreContext ctx = lease.context();
    for (std::size_t i = 0; i < n; ++i) results[i] = score(i, ctx);
  } else {
    std::vector<RoutingCounters> worker_counters(lanes_);
    util::shared_pool().parallel_for_workers(
        n,
        [&](std::size_t worker, std::size_t i) {
          assert(worker < arenas_.size());
          ScoreContext ctx{worker_counters[worker], arenas_[worker]};
          results[i] = score(i, ctx);
        },
        lanes_);
    // Integer counters are summed, so the merge order cannot change totals.
    for (const auto& wc : worker_counters) local.merge(wc);
  }
  local.score_seconds = timer.elapsed_seconds();
  merge_counters(local);
  return results;
}

std::optional<Assignment> RoutingEngine::route_all(
    const Placement& placement) {
  const obs::ScopedSpan span(sink_, obs::Phase::kRouting, "routing.route_all");
  Assignment assignment(*scenario_);
  SlotLease lease(*this);
  ScoreContext ctx = lease.context();
  kernel_.bind(ctx.arena, placement, next_bind_gen());
  RouteResult routed;
  const auto& classes = scenario_->classes().classes();
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const bool ok = kernel_.class_route(static_cast<int>(c), ctx.arena,
                                        ctx.counters.kernel, routed);
    ++ctx.counters.routes_computed;
    if (!ok) return std::nullopt;
    for (const int member : classes[c].members) {
      assignment.set_user_route(member, routed.nodes);
    }
  }
  return assignment;
}

}  // namespace socl::core
