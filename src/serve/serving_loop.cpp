#include "serve/serving_loop.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/evaluator.h"
#include "net/failures.h"
#include "obs/sink.h"
#include "serverless/arrivals.h"
#include "util/table.h"
#include "util/timer.h"
#include "validate/validator.h"
#include "workload/request_gen.h"
#include "workload/trace.h"

namespace socl::serve {
namespace {

void fnv_mix(std::uint64_t& h, std::uint64_t value) {
  h ^= value;
  h *= 0x100000001B3ULL;
}

void fnv_mix(std::uint64_t& h, double value) {
  fnv_mix(h, std::bit_cast<std::uint64_t>(value));
}

/// num / den, or `otherwise` when nothing was counted (an idle slot or day).
double rate(std::int64_t num, std::int64_t den, double otherwise) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den)
                 : otherwise;
}

/// FNV-1a over everything the control plane sees as demand (the slot's
/// decision-independent trace identity).
std::uint64_t demand_fingerprint(
    const std::vector<workload::UserRequest>& requests) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const auto& request : requests) {
    fnv_mix(h, static_cast<std::uint64_t>(request.attach_node));
    fnv_mix(h, request.chain.size());
    for (const workload::MsId m : request.chain) {
      fnv_mix(h, static_cast<std::uint64_t>(m));
    }
    for (const double d : request.edge_data) fnv_mix(h, d);
    fnv_mix(h, request.data_in);
    fnv_mix(h, request.data_out);
    fnv_mix(h, request.deadline);
  }
  return h;
}

/// Scenario factory for the serving loop: the single-substrate path defers
/// to core::make_scenario verbatim; metros > 0 swaps the substrate for a
/// stitched multi-metro topology (same per-metro generator parameters, same
/// request-generation seed schedule) and reports the metro membership map.
core::Scenario make_serving_scenario(const ServingConfig& config,
                                     std::vector<int>& metro_of) {
  if (config.metros <= 0) {
    return core::make_scenario(config.scenario, config.seed);
  }
  net::MultiMetroConfig mm = config.multi_metro;
  mm.metros = config.metros;
  mm.metro = config.scenario.topology;
  mm.metro.num_nodes = config.scenario.num_nodes;
  net::MultiMetroTopology topo = net::make_multi_metro(mm, config.seed);
  metro_of = topo.metro_of;
  return core::make_scenario(std::move(topo.network), config.scenario,
                             config.seed);
}

/// The per-slot CSV series (deterministic columns only — no wall-clock).
util::Table csv_table(const ServingReport& report) {
  // The chaos columns are appended only on chaotic days: with chaos
  // disabled the CSV stays byte-identical to the pre-chaos serving CSV
  // (the no-chaos identity gate in bench_chaos pins this).
  std::vector<std::string> columns = {
      "slot", "mode", "classes", "recomputed", "carried",
      "moved_weight_frac", "objective", "deploy_cost",
      "mean_latency_s", "churn", "churn_cost", "prewarm_hits",
      "invocations", "requests", "slo_met", "cold_serves",
      "slo_attainment",
      "cold_start_rate", "intensity", "demand_fingerprint",
      "validator_violations", "full_reroute_matches"};
  if (report.chaos) {
    columns.insert(columns.end(),
                   {"failed_nodes", "failed_links", "users_rehomed",
                    "flash_multiplier", "substrate_changed"});
  }
  util::Table table(columns);
  for (const SlotReport& s : report.slots) {
    util::Table& row = table.row();
    row.integer(s.slot)
        .cell(slot_mode_name(s.mode))
        .integer(s.classes)
        .integer(s.classes_recomputed)
        .integer(s.classes_carried)
        .num(s.moved_weight_fraction, 6)
        .num(s.objective, 6)
        .num(s.deployment_cost, 3)
        .num(s.mean_latency_s, 6)
        .integer(s.placement_churn)
        .num(s.churn_cost, 3)
        .integer(s.prewarm_ahead_hits)
        .integer(s.invocations)
        .integer(s.requests_completed)
        .integer(s.slo_met)
        .integer(s.cold_serves)
        .num(s.slo_attainment, 6)
        .num(s.cold_start_rate, 6)
        .num(s.arrival_intensity, 6)
        .cell(std::to_string(s.demand_fingerprint))
        .integer(s.validator_violations)
        .integer(s.full_reroute_matches ? 1 : 0);
    if (report.chaos) {
      row.integer(s.failed_nodes)
          .integer(s.failed_links)
          .integer(s.users_rehomed)
          .num(s.flash_multiplier, 3)
          .integer(s.substrate_changed ? 1 : 0);
    }
  }
  return table;
}

}  // namespace

const char* slot_mode_name(SlotMode mode) {
  switch (mode) {
    case SlotMode::kCarried: return "carried";
    case SlotMode::kIncremental: return "incremental";
    case SlotMode::kReplan: return "replan";
  }
  return "replan";
}

double ServingReport::slo_attainment() const {
  return rate(slo_met, requests_completed, 1.0);
}

double ServingReport::cold_start_rate() const {
  return rate(cold_serves, invocations, 0.0);
}

double ServingReport::recompute_fraction() const {
  return rate(classes_recomputed, classes_total, 0.0);
}

double ServingReport::degraded_slo_attainment() const {
  return rate(degraded_slo_met, degraded_requests, 1.0);
}

void ServingReport::add(const SlotReport& slot, const SlotChaos* chaos_slot) {
  slots.push_back(slot);
  invocations += slot.invocations;
  requests_completed += slot.requests_completed;
  slo_met += slot.slo_met;
  cold_serves += slot.cold_serves;
  classes_total += slot.classes;
  classes_recomputed += slot.classes_recomputed;
  switch (slot.mode) {
    case SlotMode::kCarried: ++carried_slots; break;
    case SlotMode::kIncremental: ++incremental_slots; break;
    case SlotMode::kReplan: ++replans; break;
  }
  churn_instances += slot.placement_churn;
  churn_cost += slot.churn_cost;
  prewarm_ahead_hits += slot.prewarm_ahead_hits;
  shards_resolved += slot.shards_resolved;
  if (slot.repriced) ++reprices;
  control_s_total += slot.control_s;
  if (chaos_slot == nullptr) return;
  chaos_node_failures += chaos_slot->nodes_failed_now;
  chaos_link_failures += chaos_slot->links_failed_now;
  chaos_repairs +=
      chaos_slot->nodes_repaired_now + chaos_slot->links_repaired_now;
  chaos_users_rehomed += slot.users_rehomed;
  if (chaos_slot->flash_multiplier > 1.0) ++chaos_flash_slots;
  if (chaos_slot->degraded()) {
    ++chaos_degraded_slots;
    degraded_requests += slot.requests_completed;
    degraded_slo_met += slot.slo_met;
  }
}

std::string ServingReport::to_csv() const {
  return csv_table(*this).to_csv();
}

void ServingReport::write_csv(const std::string& path) const {
  csv_table(*this).write_csv(path);
}

std::string ServingReport::summary() const {
  std::ostringstream out;
  out << "slots=" << slots.size() << " (replan=" << replans
      << " incremental=" << incremental_slots << " carried=" << carried_slots
      << ")"
      << " classes=" << classes_total << " recomputed=" << classes_recomputed
      << " (fraction=" << recompute_fraction() << ")"
      << " invocations=" << invocations
      << " requests=" << requests_completed << " slo=" << slo_attainment()
      << " cold_rate=" << cold_start_rate() << " churn=" << churn_instances
      << " churn_cost=" << churn_cost
      << " prewarm_hits=" << prewarm_ahead_hits;
  if (shards_resolved > 0 || reprices > 0) {
    out << " shards_resolved=" << shards_resolved
        << " reprices=" << reprices;
  }
  if (chaos) {
    out << " | chaos: node_failures=" << chaos_node_failures
        << " link_failures=" << chaos_link_failures
        << " repairs=" << chaos_repairs
        << " rehomed=" << chaos_users_rehomed
        << " degraded_slots=" << chaos_degraded_slots
        << " flash_slots=" << chaos_flash_slots
        << " degraded_slo=" << degraded_slo_attainment();
  }
  return out.str();
}

ServingLoop::ServingLoop(ServingConfig config)
    : config_(std::move(config)),
      scenario_(make_serving_scenario(config_, metro_of_)),
      mobility_rng_(config_.seed ^ 0x6d0b111e57a75ULL),
      drift_rng_(config_.seed ^ 0xd21f7a57e5ULL),
      cross_metro_rng_(config_.seed ^ 0xc2055e7a11edULL),
      placement_(scenario_),
      previous_placement_(scenario_),
      assignment_(scenario_) {
  if (config_.cross_metro_prob > 0.0 && config_.metros <= 1) {
    throw std::invalid_argument(
        "ServingLoop: cross_metro_prob needs metros > 1");
  }
  if (config_.sharded && config_.metros < 1) {
    throw std::invalid_argument("ServingLoop: sharded mode needs metros >= 1");
  }
  templates_ = scenario_.requests();
  if (templates_.empty()) {
    throw std::invalid_argument("ServingLoop: empty template workload");
  }
  if (config_.population > 0 &&
      config_.population != static_cast<int>(templates_.size())) {
    scenario_.set_requests(
        workload::replicate_requests(templates_, config_.population));
  }

  rebuild_sharded();

  // The mobility model keeps the request generator's hotspot bias.
  util::Rng weight_rng(config_.seed ^ 0xabcdULL);
  weights_ = workload::attachment_weights(scenario_.network().num_nodes(),
                                          config_.scenario.requests,
                                          weight_rng);

  if (config_.metros > 1) {
    // Per-metro views of the hotspot weights: the cross-metro re-homing
    // process picks its target attach node from the destination metro's
    // slice of the same weight vector the intra-metro mobility uses.
    metro_nodes_.resize(static_cast<std::size_t>(config_.metros));
    metro_weights_.resize(static_cast<std::size_t>(config_.metros));
    for (net::NodeId k = 0; k < scenario_.num_nodes(); ++k) {
      const auto m = static_cast<std::size_t>(
          metro_of_[static_cast<std::size_t>(k)]);
      metro_nodes_[m].push_back(k);
      metro_weights_[m].push_back(weights_[static_cast<std::size_t>(k)]);
    }
  }

  // Diurnal + bursty day profile, normalised to mean 1 over the configured
  // slots so diurnal_amplitude scales deviation without changing the day's
  // total volume.
  const int per_hour = std::max(1, config_.slots_per_hour);
  const int hours = std::max(1, (config_.slots + per_hour - 1) / per_hour);
  auto series = workload::request_volume_series(hours, per_hour, 1.0,
                                                config_.seed ^ 0xda11ULL);
  const int n = std::min<int>(static_cast<int>(series.size()),
                              std::max(1, config_.slots));
  double mean = 0.0;
  for (int i = 0; i < n; ++i) mean += series[static_cast<std::size_t>(i)];
  mean = mean > 0.0 ? mean / n : 1.0;
  day_profile_.resize(series.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    const double rel = series[i] / mean - 1.0;
    day_profile_[i] = std::max(0.05, 1.0 + config_.diurnal_amplitude * rel);
  }

  const std::size_t cells =
      static_cast<std::size_t>(scenario_.num_microservices()) *
      static_cast<std::size_t>(scenario_.num_nodes());
  prewarm_snapshot_.assign(cells, 0);

  if (config_.chaos.enabled) {
    // Slot 1 must open healthy: the initial workload was generated on the
    // full substrate and advance_workload (which re-homes displaced users)
    // only runs from slot 2.
    config_.chaos.first_slot = std::max(2, config_.chaos.first_slot);
    healthy_network_ = std::make_unique<net::EdgeNetwork>(scenario_.network());
    chaos_ = std::make_unique<ChaosSchedule>(
        *healthy_network_, config_.chaos, config_.slots,
        config_.seed ^ 0xc4a05daaULL,
        metro_of_.empty() ? nullptr : &metro_of_);
    report_.chaos = true;
  }
  last_substrate_epoch_ = scenario_.substrate_epoch();
}

void ServingLoop::rebuild_sharded() {
  // Sharded, one shard per metro, coordinated through the global Eq. 5
  // budget; otherwise one shard aliasing scenario_. A fresh coordinator's
  // first step runs an implicit full solve with repriced = true — the
  // re-price the chaos lane requires on a sharded substrate change.
  shard::ShardedParams sp = config_.shard;
  sp.solver = config_.online.socl;
  sp.online = config_.online;
  sp.sink = config_.sink;
  sharded_ = std::make_unique<shard::ShardedSoCL>(
      scenario_,
      config_.sharded ? shard::plan_from_metros(metro_of_, config_.metros)
                      : shard::single_shard_plan(scenario_),
      sp);
}

double ServingLoop::slot_intensity(int slot) const {
  if (day_profile_.empty()) return 1.0;
  return day_profile_[static_cast<std::size_t>(slot - 1) %
                      day_profile_.size()];
}

int ServingLoop::advance_workload() {
  // Copy-assign into the population set_requests() handed back last slot:
  // each request's chain and edge data reuse their capacity, so ingest
  // allocates and frees nothing per user.
  std::vector<workload::UserRequest> requests = std::move(spare_requests_);
  requests = scenario_.requests();
  workload::mobility_step(scenario_.network(), requests, weights_,
                          config_.mobility, mobility_rng_);
  if (config_.cross_metro_prob > 0.0 && config_.metros > 1) {
    // Cross-metro re-homing: a commuter leaves its metro entirely and
    // re-attaches at a hotspot-weighted node of a uniformly-picked *other*
    // metro — the churn that moves users between shards. Every user
    // consumes the same RNG draws regardless of outcome (determinism, as
    // in the drift loop below).
    for (auto& request : requests) {
      const bool moves = cross_metro_rng_.bernoulli(config_.cross_metro_prob);
      const auto hop = static_cast<int>(cross_metro_rng_.index(
          static_cast<std::size_t>(config_.metros - 1)));
      const int current =
          metro_of_[static_cast<std::size_t>(request.attach_node)];
      const int target = hop >= current ? hop + 1 : hop;
      const std::size_t local = cross_metro_rng_.weighted_index(
          metro_weights_[static_cast<std::size_t>(target)]);
      if (!moves) continue;
      request.attach_node =
          metro_nodes_[static_cast<std::size_t>(target)][local];
    }
  }
  if (config_.drift_prob > 0.0 && templates_.size() > 1) {
    // Workload drift: a drifting user swaps to another template's demand
    // tuple but keeps its id and attachment, so the class count stays
    // bounded by templates × nodes however large the population. Every user
    // consumes the same RNG draws regardless of outcome (determinism).
    for (auto& request : requests) {
      const bool drifts = drift_rng_.bernoulli(config_.drift_prob);
      const std::size_t pick = drift_rng_.index(templates_.size());
      if (!drifts) continue;
      const workload::UserRequest& tmpl = templates_[pick];
      request.chain = tmpl.chain;
      request.edge_data = tmpl.edge_data;
      request.data_in = tmpl.data_in;
      request.data_out = tmpl.data_out;
      request.deadline = tmpl.deadline;
    }
  }
  if (config_.workload_hook) config_.workload_hook(slot_, requests);
  int rehomed = 0;
  if (chaos_ != nullptr) {
    // Re-home every degraded slot, not only on substrate changes: the
    // mobility/drift processes above can push users back onto a dead or
    // link-isolated station mid-outage. scenario_.network() is already the
    // slot's degraded substrate (the swap happens before advance_workload).
    const SlotChaos& slot_chaos = chaos_->slot(slot_);
    if (slot_chaos.degraded()) {
      rehomed = workload::reattach_users(
          scenario_.network(), slot_chaos.plan.failed_nodes, requests);
    }
  }
  spare_requests_ = scenario_.set_requests(std::move(requests));
  return rehomed;
}

bool ServingLoop::route_classes() {
  const workload::RequestClasses& classes = scenario_.classes();
  if (!route_kernel_) route_kernel_.emplace(scenario_, 0);
  route_kernel_->sync();
  route_kernel_->bind(route_arena_, placement_);
  core::KernelStats stats;
  core::RouteResult routed;
  assignment_ = core::Assignment(scenario_);
  latency_total_ = 0.0;
  for (int c = 0; c < classes.num_classes(); ++c) {
    const workload::RequestClass& cls = classes.cls(c);
    if (!route_kernel_->class_route(c, route_arena_, stats, routed)) {
      return false;
    }
    latency_total_ += routed.total() * cls.weight;
    for (const int member : cls.members) {
      assignment_.set_user_route(member, routed.nodes);
    }
  }
  return true;
}

SlotReport ServingLoop::step() {
  const obs::ScopedSpan span(config_.sink, obs::Phase::kServe, "serve.slot");
  const util::WallTimer control_timer;
  ++slot_;
  SlotReport report;
  report.slot = slot_;
  report.arrival_intensity = slot_intensity(slot_);
  SlotPlan plan;

  // Control plane, timed as SlotReport::control_s.
  ingest_chaos(report, plan);
  if (slot_ > 1) report.users_rehomed = advance_workload();
  diff_classes(report, plan);
  choose_rung(report, plan);
  if (plan.replan) replan(report, plan.periodic_replan);
  report.classes_carried = report.classes - report.classes_recomputed;
  settle_economics(report, plan);
  report.control_s = control_timer.elapsed_seconds();

  // Checks and data plane under the chosen placement.
  if (config_.cross_check) cross_check(report);
  const serverless::SoCLPrewarmPolicy policy(scenario_);
  serve_windows(report, plan, policy);
  roll_forward(policy);

  emit_metrics(report, plan.chaos);
  report_.add(report, plan.chaos);
  return report;
}

void ServingLoop::ingest_chaos(SlotReport& report, SlotPlan& plan) {
  if (chaos_ == nullptr) return;
  const SlotChaos& chaos_slot = chaos_->slot(slot_);
  plan.chaos = &chaos_slot;
  report.failed_nodes = static_cast<int>(chaos_slot.plan.failed_nodes.size());
  report.failed_links = static_cast<int>(chaos_slot.plan.failed_links.size());
  report.flash_multiplier = chaos_slot.flash_multiplier;
  // Flash crowds fold into the slot's arrival intensity: the DES windows
  // draw their rate from this multiplier.
  report.arrival_intensity *= chaos_slot.flash_multiplier;
  if (!chaos_slot.changed) return;
  // Failures/repairs landed: swap the substrate before the workload
  // advances, so mobility and re-homing see the links that actually exist.
  // A full repair restores the pristine network by copy — apply_failures
  // with an empty plan would drop the links' base parameters.
  scenario_.set_network(chaos_slot.plan.empty()
                            ? *healthy_network_
                            : net::apply_failures(*healthy_network_,
                                                  chaos_slot.plan));
  report.substrate_changed = true;
  // The per-metro coordinator priced its shards on the old substrate; a
  // fresh one re-prices globally (a backhaul cut isolates a metro). The
  // single-shard coordinator's alias sees the swap as a moved workload.
  if (config_.sharded) rebuild_sharded();
}

void ServingLoop::diff_classes(SlotReport& report, SlotPlan& plan) {
  plan.workload_changed =
      !have_previous_ || scenario_.workload_epoch() != last_epoch_;
  const workload::RequestClasses& classes = scenario_.classes();
  report.classes = classes.num_classes();
  report.demand_fingerprint = demand_fingerprint(scenario_.requests());
  plan.total_weight = std::max(1.0, classes.total_weight());

  // A class whose exact tuple was served last slot is unmoved; the moved
  // weight drives the replan trigger. An unchanged epoch moved nothing.
  if (!plan.workload_changed) return;
  decltype(tuples_) served;
  double moved_weight = 0.0;
  for (int c = 0; c < classes.num_classes(); ++c) {
    const workload::RequestClass& cls = classes.cls(c);
    const workload::UserRequest& tuple = scenario_.request(cls.representative);
    if (have_previous_ && !tuples_.contains(tuple)) {
      ++plan.moved;
      moved_weight += cls.weight;
    }
    served.insert(tuple);
  }
  tuples_ = std::move(served);
  report.moved_weight_fraction =
      have_previous_ ? moved_weight / plan.total_weight : 1.0;
  plan.weight_breach =
      moved_weight > config_.replan_weight_threshold * plan.total_weight;
}

void ServingLoop::choose_rung(SlotReport& report, SlotPlan& plan) {
  // A substrate change always forces the replan rung: the carried placement
  // was chosen for the old network (it may hold instances on a failed
  // node), and the tuple diff cannot see a link that vanished under an
  // unchanged demand tuple.
  plan.periodic_replan = config_.full_replan_period > 0 && slot_ > 1 &&
                         (slot_ - 1) % config_.full_replan_period == 0;
  plan.replan = !have_previous_ ||
                scenario_.substrate_epoch() != last_substrate_epoch_ ||
                plan.periodic_replan || plan.weight_breach;
  if (plan.replan) return;
  // Carried / incremental: the placement is carried. With an unchanged
  // workload epoch the previous slot's routes are still exact; otherwise
  // every class is re-routed under the carried placement, and a class that
  // is unroutable there means coverage was lost — fall through to a replan.
  if (plan.workload_changed && !route_classes()) {
    plan.replan = true;
    return;
  }
  report.mode = plan.moved == 0 ? SlotMode::kCarried : SlotMode::kIncremental;
  report.classes_recomputed = plan.moved;
}

void ServingLoop::replan(SlotReport& report, bool periodic) {
  // Only shards whose workload moved re-run their warm rung (periodic
  // replans force every rung). Only the merged *placement* is adopted: the
  // global routing below may cross the backhaul when that wins.
  shard::ShardedSoCL::StepReport shard_step = sharded_->step(periodic);
  if (config_.sharded) {
    report.shards_resolved = shard_step.shards_resolved;
    report.repriced = shard_step.repriced;
  }
  placement_ = std::move(shard_step.placement);
  if (!route_classes()) {
    throw std::runtime_error(
        "ServingLoop: slot unroutable even after a replan (slot " +
        std::to_string(slot_) + ")");
  }
  report.mode = SlotMode::kReplan;
  report.classes_recomputed = report.classes;
}

void ServingLoop::settle_economics(SlotReport& report, SlotPlan& plan) {
  // Slot economics from the routing pass (uniform across modes; it is
  // Evaluator::evaluate's class-major sum, so on replan slots it reproduces
  // the solver's own evaluation).
  report.deployment_cost = placement_.deployment_cost(scenario_.catalog());
  report.mean_latency_s = latency_total_ / plan.total_weight;
  const core::Evaluator evaluator(scenario_);
  report.objective = evaluator.combine(report.deployment_cost, latency_total_);
  if (!have_previous_) return;
  report.placement_churn =
      core::placement_churn(previous_placement_, placement_);
  plan.delta = core::placement_delta(previous_placement_, placement_);
  for (const auto& [m, k] : plan.delta.added) {
    (void)k;
    report.churn_cost += scenario_.catalog().microservice(m).deploy_cost;
  }
}

void ServingLoop::cross_check(SlotReport& report) const {
  // Re-route every class representative through the reference chain DP
  // (core::ChainRouter), an implementation independent of the live
  // kernel pass. Every user's assignment row must equal its class's
  // reference route, and the class-major latency total must equal the live
  // one bit for bit; the independent validator must then find no
  // constraint violation.
  const workload::RequestClasses& classes = scenario_.classes();
  const core::ChainRouter router(scenario_);
  core::RouteScratch scratch;
  core::RouteResult routed;
  double latency_total = 0.0;
  bool matches = true;
  for (int c = 0; c < classes.num_classes() && matches; ++c) {
    const workload::RequestClass& cls = classes.cls(c);
    matches = router.route_into(scenario_.request(cls.representative),
                                placement_, scratch, routed);
    for (std::size_t i = 0; matches && i < cls.members.size(); ++i) {
      const auto row = assignment_.user_route(cls.members[i]);
      matches = std::equal(row.begin(), row.end(), routed.nodes.begin(),
                           routed.nodes.end());
    }
    latency_total += routed.total() * cls.weight;
  }
  matches = matches && latency_total == latency_total_;
  report.full_reroute_matches = matches;
  if (!matches) {
    throw std::logic_error(
        "ServingLoop: assignment diverged from the reference class routes "
        "(slot " +
        std::to_string(slot_) + ")");
  }
  const validate::SolutionValidator validator(scenario_);
  report.validator_violations = static_cast<int>(
      validator.validate(placement_, assignment_).violations.size());
}

core::Placement ServingLoop::warm_pools(SlotReport& report,
                                        const SlotPlan& plan) const {
  // Instances the replan added boot cold unless the previous slot's quota
  // snapshot predicted them (prewarm-ahead): those join the carried set and
  // open warm, modelling warm-up commands issued before rollout.
  core::Placement carried = previous_placement_;
  const auto nodes = static_cast<std::size_t>(scenario_.num_nodes());
  for (const auto& [m, k] : plan.delta.added) {
    if (prewarm_snapshot_[static_cast<std::size_t>(m) * nodes +
                          static_cast<std::size_t>(k)] != 0) {
      carried.deploy(m, k);
      ++report.prewarm_ahead_hits;
    }
  }
  if (plan.chaos != nullptr && plan.chaos->degraded()) {
    // Container pools drain on dead nodes: nothing carried on a currently
    // failed node may open warm (and a repaired node's pool restarts cold
    // naturally — the previous slot's placement could not host anything
    // there while it was a husk).
    for (const net::NodeId k : plan.chaos->plan.failed_nodes) {
      for (workload::MsId m = 0; m < scenario_.num_microservices(); ++m) {
        if (carried.deployed(m, k)) carried.remove(m, k);
      }
    }
  }
  return carried;
}

void ServingLoop::serve_windows(SlotReport& report, const SlotPlan& plan,
                                const serverless::SoCLPrewarmPolicy& policy) {
  serverless::ArrivalConfig arrival_config = config_.arrivals;
  arrival_config.horizon_s = config_.slot_horizon_s;
  arrival_config.mean_rate =
      config_.arrivals.mean_rate * report.arrival_intensity;
  arrival_config.seed =
      config_.seed ^
      (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(slot_)));
  serverless::ServerlessConfig runtime_config = config_.runtime;
  if (runtime_config.sink == nullptr) runtime_config.sink = config_.sink;
  const serverless::ServerlessRuntime runtime(scenario_, runtime_config);
  const core::Placement carried = warm_pools(report, plan);

  // One DES window per arrival group. Sharded, each metro's control plane
  // simulates its own serverless pools over its residents' slice of the
  // global stream (the split preserves order and per-user streams); a rare
  // backhaul-crossing route invokes the remote instance under the caller
  // metro's pool, modelling per-region serverless scaling. Unsharded, every
  // user is in group 0. Group 0's seed is des_seed, so a one-group split
  // reproduces the whole stream's window verbatim.
  const int groups = config_.sharded ? std::max(1, config_.metros) : 1;
  std::vector<int> group_of(static_cast<std::size_t>(scenario_.num_users()),
                            0);
  for (int h = 0; groups > 1 && h < scenario_.num_users(); ++h) {
    group_of[static_cast<std::size_t>(h)] = metro_of_[
        static_cast<std::size_t>(scenario_.request(h).attach_node)];
  }
  const auto windows = serverless::split_arrivals(
      serverless::generate_arrivals(scenario_.num_users(), arrival_config,
                                    runtime_config.threads),
      group_of, groups);
  obs::ObsSink* const metro_sink = config_.sharded ? config_.sink : nullptr;
  const std::uint64_t des_seed = arrival_config.seed ^ 0x5E71E55ULL;
  for (std::size_t g = 0; g < windows.size(); ++g) {
    const auto metrics = runtime.run(
        placement_, assignment_, windows[g], policy,
        des_seed ^ (0xA24BAED4963EE407ULL * static_cast<std::uint64_t>(g)),
        have_previous_ ? &carried : nullptr);
    report.invocations += metrics.totals.invocations;
    report.cold_serves += metrics.totals.cold_serves;
    report.requests_completed +=
        static_cast<std::int64_t>(metrics.requests.size());
    for (const serverless::RequestOutcome& outcome : metrics.requests) {
      if (outcome.total_s() <= scenario_.request(outcome.user).deadline) {
        ++report.slo_met;
      }
    }
    if (metro_sink != nullptr && metrics.totals.invocations > 0) {
      metro_sink->observe(
          "socl.serve.shard.metro_cold_rate",
          rate(metrics.totals.cold_serves, metrics.totals.invocations, 0.0));
    }
  }
  report.slo_attainment = rate(report.slo_met, report.requests_completed, 1.0);
  report.cold_start_rate = rate(report.cold_serves, report.invocations, 0.0);
}

void ServingLoop::roll_forward(const serverless::SoCLPrewarmPolicy& policy) {
  // This slot's Alg. 2 quotas become next slot's pre-warm prediction.
  const auto nodes = static_cast<std::size_t>(scenario_.num_nodes());
  for (workload::MsId m = 0; m < scenario_.num_microservices(); ++m) {
    for (net::NodeId k = 0; k < scenario_.num_nodes(); ++k) {
      prewarm_snapshot_[static_cast<std::size_t>(m) * nodes +
                        static_cast<std::size_t>(k)] =
          policy.quota(m, k) > 0 ? 1 : 0;
    }
  }
  previous_placement_ = placement_;
  have_previous_ = true;
  last_epoch_ = scenario_.workload_epoch();
  last_substrate_epoch_ = scenario_.substrate_epoch();
}

void ServingLoop::emit_metrics(const SlotReport& report,
                               const SlotChaos* chaos_slot) {
  obs::ObsSink* const sink = config_.sink;
  if (sink == nullptr) return;
  if (chaos_slot != nullptr) {
    sink->add_counter("socl.chaos.node_failures", chaos_slot->nodes_failed_now);
    sink->add_counter("socl.chaos.link_failures", chaos_slot->links_failed_now);
    sink->add_counter("socl.chaos.repairs", chaos_slot->nodes_repaired_now +
                                                chaos_slot->links_repaired_now);
    sink->add_counter("socl.chaos.users_rehomed", report.users_rehomed);
    sink->add_counter("socl.chaos.degraded_slots",
                      chaos_slot->degraded() ? 1 : 0);
    sink->add_counter("socl.chaos.flash_slots",
                      chaos_slot->flash_multiplier > 1.0 ? 1 : 0);
    sink->set_gauge("socl.chaos.failed_nodes", report.failed_nodes);
    sink->set_gauge("socl.chaos.failed_links", report.failed_links);
    if (chaos_slot->degraded()) {
      sink->set_gauge("socl.chaos.degraded_slo_attainment",
                      report.slo_attainment);
    }
  }
  sink->add_counter("socl.serve.slots", 1);
  static constexpr const char* kRungCounters[] = {
      "socl.serve.carried_slots", "socl.serve.incremental_slots",
      "socl.serve.replans"};  // SlotMode order
  sink->add_counter(kRungCounters[static_cast<int>(report.mode)], 1);
  sink->add_counter("socl.serve.classes_total", report.classes);
  sink->add_counter("socl.serve.classes_recomputed",
                    report.classes_recomputed);
  sink->add_counter("socl.serve.classes_carried", report.classes_carried);
  sink->add_counter("socl.serve.invocations", report.invocations);
  sink->add_counter("socl.serve.requests", report.requests_completed);
  sink->add_counter("socl.serve.slo_met", report.slo_met);
  sink->add_counter("socl.serve.churn_instances", report.placement_churn);
  sink->add_counter("socl.serve.prewarm_ahead_hits",
                    report.prewarm_ahead_hits);
  sink->set_gauge("socl.serve.slo_attainment", report.slo_attainment);
  sink->set_gauge("socl.serve.cold_start_rate", report.cold_start_rate);
  sink->set_gauge("socl.serve.churn_cost", report.churn_cost);
  sink->set_gauge("socl.serve.objective", report.objective);
  if (config_.sharded) {
    sink->add_counter("socl.serve.shard.moved_shards", report.shards_resolved);
    sink->add_counter("socl.serve.shard.reprices", report.repriced ? 1 : 0);
  }
  sink->observe("socl.serve.control_latency_s", report.control_s);
}

ServingReport ServingLoop::run() {
  while (slot_ < config_.slots) step();
  return report_;
}

}  // namespace socl::serve
