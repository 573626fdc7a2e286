#include "shard/sharded_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "obs/sink.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace socl::shard {

namespace {

/// The price search stops when the complementary-slackness gap
/// μ·(K − spend)/|primal| of the accepted feasible iterate falls below this.
constexpr double kGapTolerance = 0.02;

/// λ' = (λ+μ)/(1+μ): a plain SoCL solve at λ' minimises the μ-priced
/// Lagrangian term (λ+μ)·cost + (1-λ)·w·lat, up to the factor 1+μ. The
/// budget stays the *global* K: priced iterations relax the per-shard
/// budget — the price, not a quota, drives spend down.
core::ProblemConstants priced_constants(const core::ProblemConstants& base,
                                        double price) {
  core::ProblemConstants priced = base;
  priced.lambda = (base.lambda + price) / (1.0 + price);
  return priced;
}

/// Trivially-feasible solution for a shard with no users: nothing deployed,
/// nothing to route. Also the pre-fill placeholder of the fan-out result
/// vectors (core::Solution has no default constructor).
core::Solution empty_solution(const core::Scenario& scenario) {
  core::Solution empty{core::Placement(scenario), std::nullopt, {}, 0.0, {}};
  empty.evaluation.routable = true;
  empty.evaluation.within_budget = true;
  empty.evaluation.storage_ok = true;
  return empty;
}

/// Shard-order sums over the per-shard solutions of one iterate.
struct IterateTotals {
  double spend = 0.0;
  double latency = 0.0;
  bool routable = true;
  bool storage_ok = true;

  /// True-λ objective λ·spend + (1−λ)·w·latency of the recombined iterate.
  double primal(const core::ProblemConstants& base) const {
    return base.lambda * spend +
           (1.0 - base.lambda) * base.latency_weight * latency;
  }
};

IterateTotals totals(const std::vector<core::Solution>& solutions) {
  IterateTotals sum;
  for (const core::Solution& solution : solutions) {
    sum.spend += solution.evaluation.deployment_cost;
    sum.latency += solution.evaluation.total_latency;
    sum.routable = sum.routable && solution.evaluation.routable;
    sum.storage_ok = sum.storage_ok && solution.evaluation.storage_ok;
  }
  return sum;
}

/// Complementary-slackness gap of a feasible iterate accepted at price μ:
/// primal − L(x, μ) = μ·(K − spend). Zero when the budget is slack (μ = 0)
/// or exactly exhausted; the convergence certificate of the price search.
double slackness_gap(double price, double spend, double budget,
                     double primal) {
  const double residual = price * (budget - spend);
  // A zero residual is exactly tight regardless of the primal: a free
  // budget (μ = 0) or an exhausted one certifies itself. Checking it first
  // keeps a zero-weight slot (primal 0, spend 0) at gap 0 instead of
  // 0/ε noise, and a K = 0 instance at gap 0 instead of a spurious miss.
  if (residual == 0.0) return 0.0;
  // A non-finite residual or primal (unroutable iterate leaking +inf in)
  // must read as "no certificate", never as NaN — NaN compares false
  // against the tolerance and would silently disable convergence forever.
  if (!std::isfinite(residual) || !std::isfinite(primal)) {
    return std::numeric_limits<double>::infinity();
  }
  return residual / std::max(std::abs(primal), 1e-12);
}

/// A plan with one shard holding every node is the global problem itself:
/// alias it instead of extracting a copy.
std::vector<ShardProblem> make_shards(const core::Scenario& global,
                                      const ShardPlan& plan) {
  std::vector<ShardProblem> shards;
  if (plan.num_shards() == 1 &&
      static_cast<int>(plan.nodes[0].size()) == global.num_nodes()) {
    shards.emplace_back(global);
    return shards;
  }
  shards.reserve(static_cast<std::size_t>(plan.num_shards()));
  for (int s = 0; s < plan.num_shards(); ++s) {
    shards.emplace_back(global, plan, s);  // shards without users too
  }
  return shards;
}

}  // namespace

double DualState::update(double spend, double budget) {
  const double denom = budget > 0.0 ? budget : 1.0;
  const double subgradient = (spend - budget) / denom;
  const double step = initial_step / (1.0 + static_cast<double>(iteration));
  ++iteration;
  price = std::max(0.0, price + step * subgradient);
  return price;
}

std::vector<double> negotiate_quotas(double budget,
                                     std::span<const double> floors,
                                     std::span<const double> demands) {
  if (floors.size() != demands.size()) {
    throw std::invalid_argument("negotiate_quotas: floors/demands mismatch");
  }
  const std::size_t shards = floors.size();
  std::vector<double> quotas(shards, 0.0);
  if (shards == 0) return quotas;

  double floor_sum = 0.0;
  for (const double f : floors) floor_sum += f;

  if (floor_sum > budget) {
    // Even one instance of every used microservice per shard exceeds the
    // budget: the instance is globally infeasible. Degrade to a
    // proportional scale-down so the quotas still sum to the budget.
    for (std::size_t s = 0; s < shards; ++s) {
      quotas[s] = floor_sum > 0.0 ? budget * floors[s] / floor_sum
                                  : budget / static_cast<double>(shards);
    }
    return quotas;
  }

  // Residual budget above the floors, split proportionally to each shard's
  // marginal demand (spend above its floor at the final price).
  const double residual = budget - floor_sum;
  double value_sum = 0.0;
  for (std::size_t s = 0; s < shards; ++s) {
    value_sum += std::max(demands[s] - floors[s], 0.0);
  }
  for (std::size_t s = 0; s < shards; ++s) {
    double share;
    if (value_sum > 0.0) {
      share = std::max(demands[s] - floors[s], 0.0) / value_sum;
    } else if (floor_sum > 0.0) {
      share = floors[s] / floor_sum;
    } else {
      share = 1.0 / static_cast<double>(shards);
    }
    quotas[s] = floors[s] + residual * share;
  }
  return quotas;
}

ShardedSoCL::ShardedSoCL(const core::Scenario& global, const ShardPlan& plan,
                         ShardedParams params)
    : global_(&global),
      params_(std::move(params)),
      shards_(make_shards(global, plan)) {
  if (static_cast<int>(plan.shard_of.size()) != global.num_nodes()) {
    throw std::invalid_argument("ShardedSoCL: plan does not cover the network");
  }
}

core::SoCLParams ShardedSoCL::shard_solver_params() const {
  core::SoCLParams params = params_.solver;
  if (params_.shard_threads > 0) {
    params.combination.threads = params_.shard_threads;
  }
  return params;
}

void ShardedSoCL::set_shard_constants(std::size_t s, double price,
                                      const std::vector<double>* quotas) {
  if (shards_[s].aliased()) return;
  const core::ProblemConstants& base = global_->constants();
  core::ProblemConstants constants =
      quotas != nullptr ? base : priced_constants(base, price);
  if (quotas != nullptr) constants.budget = (*quotas)[s];
  shards_[s].set_constants(constants);
}

void ShardedSoCL::solve_all_shards(double price,
                                   const std::vector<double>* quotas,
                                   std::vector<core::Solution>& out,
                                   std::vector<double>& solve_s) {
  const auto shards = shards_.size();
  out.clear();
  out.reserve(shards);
  for (const ShardProblem& shard : shards_) {
    out.push_back(empty_solution(shard.scenario()));
  }
  // Largest-first dispatch: the fan-out hands out shards in `order`, so the
  // heaviest shard starts first and a light one cannot leave it running
  // alone at the end of the iterate. Weights are the previous iterate's
  // per-shard solve times when this solve has one, class counts otherwise.
  // Results still land by shard index, so the order changes no output.
  std::vector<double> weight(shards, 0.0);
  const bool timed = solve_s.size() == shards;
  for (std::size_t s = 0; s < shards; ++s) {
    weight[s] = timed ? solve_s[s]
                      : static_cast<double>(
                            shards_[s].scenario().classes().num_classes());
  }
  std::vector<std::size_t> order(shards);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return weight[a] > weight[b];
                   });
  solve_s.assign(shards, 0.0);

  const core::SoCLParams shard_params = shard_solver_params();
  const auto solve_shard = [&](std::size_t i) {
    const std::size_t s = order[i];
    const ShardProblem& shard = shards_[s];
    if (shard.num_users() == 0) return;  // placeholder is the answer
    set_shard_constants(s, price, quotas);
    util::WallTimer timer;
    out[s] = core::SoCL(shard_params).solve(shard.scenario());
    solve_s[s] = timer.elapsed_seconds();
  };
  util::shared_pool().parallel_for(
      shards, solve_shard,
      static_cast<std::size_t>(std::max(0, params_.threads)));
  // Every per-shard solve of the price search and the quota fallback,
  // observed on the coordinator thread in shard order (shard_solve_s sees
  // only the accepted iterate's solves).
  if (params_.sink != nullptr) {
    for (std::size_t s = 0; s < shards; ++s) {
      if (shards_[s].num_users() == 0) continue;
      params_.sink->add_counter("socl.shard.iterate_solves", 1);
      params_.sink->observe("socl.shard.iterate_solve_s", solve_s[s]);
    }
  }
}

ShardedSolution ShardedSoCL::solve() {
  util::WallTimer timer;
  coordinate();
  ShardedSolution solution = recombine();
  release_assignments();
  solution.runtime_seconds = timer.elapsed_seconds();
  return solution;
}

void ShardedSoCL::coordinate() {
  util::WallTimer timer;
  const obs::ScopedSpan span(params_.sink, obs::Phase::kOther, "shard.solve");
  const core::ProblemConstants base = global_->constants();
  const double budget = base.budget;
  const int num_shards = static_cast<int>(shards_.size());

  double price = price_;  // re-prices resume from the frozen price
  // Restart the diminishing-step schedule at the resumed price: without
  // the reset a mid-day re-price would continue at initial_step/(1+t_old)
  // — near zero after a converged solve — and stall below the new
  // clearing price.
  dual_.initial_step = params_.initial_step;
  dual_.reset(price);
  price_trajectory_.clear();
  spend_trajectory_.clear();
  quotas_.reset();

  std::vector<core::Solution> iterate;
  std::vector<double> iterate_s;
  std::vector<core::Solution> accepted;
  std::vector<double> accepted_s;
  double best_primal = std::numeric_limits<double>::infinity();
  double accepted_price = price;
  double accepted_spend = 0.0;
  // Bracket around the clearing price: the largest price whose iterate
  // overspent, and the smallest whose iterate fit the budget.
  double infeasible_below = 0.0;
  double feasible_above = std::numeric_limits<double>::infinity();
  bool have_feasible = false;
  bool converged = false;
  int iterations = 0;
  // Why the price search ended, counted as socl.shard.stop.<reason>.
  const char* stop = "socl.shard.stop.cap";

  const int cap = std::max(1, params_.max_iterations);
  for (int t = 0; t < cap; ++t) {
    solve_all_shards(price, nullptr, iterate, iterate_s);
    ++iterations;

    const IterateTotals sum = totals(iterate);
    const double spend = sum.spend;
    // True-λ objective of this iterate. Exact for the recombined global
    // solution: per-shard routing equals global routing restricted to the
    // shard (single-gateway backhaul keeps intra-shard min-hop paths
    // inside the shard), so latencies add up with no cross terms.
    const double primal = sum.primal(base);
    price_trajectory_.push_back(price);
    spend_trajectory_.push_back(spend);

    // Eq. (6) gates acceptance like routability does: a shard has only its
    // own nodes to host replicas on (the unsharded solver can spill to any
    // metro), so a latency-greedy iterate can overflow per-node storage
    // even under budget. Raising μ pushes λ' toward cost-minimisation,
    // shedding replicas until the shard fits — the same price clears both
    // capacity constraints.
    const bool feasible = sum.routable && sum.storage_ok &&
                          spend <= budget + 1e-9 * std::max(1.0, budget);
    if (feasible) {
      feasible_above = std::min(feasible_above, price);
      if (primal < best_primal) {
        best_primal = primal;
        accepted.swap(iterate);  // the next iterate overwrites `iterate`
        accepted_s = iterate_s;
        accepted_price = price;
        accepted_spend = spend;
        have_feasible = true;
      }
    } else {
      infeasible_below = std::max(infeasible_below, price);
    }

    if (num_shards == 1) {
      // One shard has no coupling to coordinate: iteration 0 (price μ as
      // frozen, 0 on a first solve — exactly the unsharded SoCL solve) is
      // the answer, feasible or not, bit-identical to `SoCL::solve`.
      if (!have_feasible) {
        accepted = std::move(iterate);
        accepted_s = std::move(iterate_s);
        accepted_price = price;
      }
      converged = true;
      stop = "socl.shard.stop.single_shard";
      break;
    }
    if (have_feasible &&
        slackness_gap(accepted_price, accepted_spend, budget, best_primal) <=
            kGapTolerance) {
      converged = true;
      stop = "socl.shard.stop.certificate";
      break;
    }
    if (!have_feasible) {
      // Pre-bracket ascent: a subgradient step through the dual state with
      // a geometric floor layered on top. At latency-dominated scale spend
      // barely responds until λ' nears 1, so the price must be able to
      // cross orders of magnitude quickly. The spend is clamped at the
      // budget so an unroutable-but-underspending iterate never pulls μ
      // down mid-ascent.
      dual_.price = price;
      const double stepped = dual_.update(std::max(spend, budget), budget);
      price = std::max(stepped, 4.0 * price);
      if (price <= 0.0) {
        // Infeasible for a non-budget reason (storage overflow, unroutable
        // shard) while underspending at μ = 0: the budget subgradient is
        // zero and the geometric floor has nothing to grow, so kick the
        // ascent — λ' must still rise before shards shed replicas.
        price = 0.125 * params_.initial_step;
      }
    } else if (feasible_above - infeasible_below <=
               1e-3 * std::max(1.0, feasible_above)) {
      stop = "socl.shard.stop.bracket";
      break;  // bracket resolved; the remaining gap is spend granularity
    } else {
      price = 0.5 * (infeasible_below + feasible_above);
    }
  }

  obs::add_counter(params_.sink, stop, 1);

  bool fallback = false;
  if (!have_feasible && num_shards > 1) {
    // No priced iterate landed within the budget: negotiate hard quotas —
    // minimal feasible spend as the floor, residual split by marginal
    // demand at the final price — and re-solve at the true λ under them.
    fallback = true;
    std::vector<double> floors(shards_.size(), 0.0);
    std::vector<double> demands(shards_.size(), 0.0);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      floors[s] = shards_[s].min_feasible_spend();
      demands[s] = iterate[s].evaluation.deployment_cost;
    }
    quotas_ = negotiate_quotas(budget, floors, demands);
    solve_all_shards(0.0, &*quotas_, iterate, iterate_s);
    accepted = std::move(iterate);
    accepted_s = std::move(iterate_s);
    accepted_price = price;
    best_primal = totals(accepted).primal(base);
  } else if (!have_feasible) {
    best_primal = std::numeric_limits<double>::infinity();
  }

  current_ = std::move(accepted);
  current_solve_s_ = std::move(accepted_s);
  price_ = accepted_price;
  iterations_ = iterations;
  converged_ = converged;
  if (num_shards == 1) {
    duality_gap_ = 0.0;
  } else if (fallback || !have_feasible) {
    // A negotiated (or failed) solve carries no price certificate.
    duality_gap_ = std::numeric_limits<double>::infinity();
  } else {
    duality_gap_ =
        slackness_gap(accepted_price, accepted_spend, budget, best_primal);
  }
  const IterateTotals accepted_totals = totals(current_);
  spend_at_price_ = accepted_totals.spend;
  storage_ok_at_price_ = accepted_totals.storage_ok;
  solved_ = true;
  reseed_rungs();
  emit_metrics(timer.elapsed_seconds());
}

void ShardedSoCL::reseed_rungs() {
  if (online_rungs_.empty()) {
    core::OnlineParams rung = params_.online;
    rung.socl = shard_solver_params();
    online_rungs_.assign(shards_.size(), core::OnlineSoCL(rung));
  }
  // Each rung carries the coordinated solve's accepted placement as if one
  // slot had already produced it, so the next resolve_shard warm-starts
  // exactly where the price search left off.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    online_rungs_[s].adopt(current_[s].placement, /*slots_taken=*/1);
  }
}

void ShardedSoCL::resolve_shard(int s) {
  const auto i = static_cast<std::size_t>(s);
  ShardProblem& shard = shards_[i];
  if (shard.num_users() == 0) {
    current_[i] = empty_solution(shard.scenario());
    current_solve_s_[i] = 0.0;
    return;
  }
  set_shard_constants(i, price_, quotas_ ? &*quotas_ : nullptr);
  // Warm rung: repair + polish of the shard's carried placement at the
  // frozen price — the serving ladder's per-shard incremental rung.
  util::WallTimer timer;
  current_[i] = online_rungs_[i].step(shard.scenario());
  current_solve_s_[i] = timer.elapsed_seconds();
}

ShardedSoCL::StepReport ShardedSoCL::step(bool force_all) {
  std::vector<int> moved;
  for (int s = 0; s < num_shards(); ++s) {
    const bool shard_moved = shards_[static_cast<std::size_t>(s)].sync();
    if (shard_moved || force_all) moved.push_back(s);
  }
  if (!solved_) {
    obs::add_counter(params_.sink, "socl.shard.shards_resolved", num_shards());
    coordinate();
    release_assignments();
    return StepReport{num_shards(), true, merged_placement()};
  }

  for (const int s : moved) resolve_shard(s);
  const int resolved = static_cast<int>(moved.size());
  obs::add_counter(params_.sink, "socl.shard.shards_resolved", resolved);

  const double budget = global_->constants().budget;
  const IterateTotals sum = totals(current_);
  const double spend = sum.spend;
  // Degenerate-slot guards: the drift test normalises
  // by the budget, so K <= 0 (quota-driven instances price nothing) and
  // zero-weight slots (nothing deployed now AND nothing priced in — an
  // empty workload trough) must never force a spurious global re-price;
  // NaN spend (poisoned upstream eval) must read as a breach, not slip
  // through NaN's always-false comparisons.
  const double scale = std::max(1.0, std::abs(budget));
  const bool priceable = budget > 0.0;
  const bool quiet = spend == 0.0 && spend_at_price_ == 0.0;
  // A breach only warrants a re-price when the spend actually grew past
  // what the accepted solve priced in: when the coverage floors alone
  // exceed K (the quota fallback's best effort is already over budget),
  // re-solving an unchanged breach every slot is pure thrash — no price
  // can deploy less than one copy of each used microservice per shard.
  const bool breach =
      priceable &&
      (!std::isfinite(spend) || (spend > budget + 1e-9 * scale &&
                                 spend > spend_at_price_ + 1e-9 * scale));
  const bool drift =
      priceable && !quiet &&
      !(std::abs(spend - spend_at_price_) <= params_.reprice_threshold * scale);
  // A rung that overflowed its shard's storage (Eq. 6) needs a higher λ'
  // to shed replicas — re-price. Same thrash guard as the budget breach:
  // when even the accepted coordinated solve could not fit (fallback at an
  // infeasible instance), a re-solve of the unchanged breach is pure waste.
  const bool storage_breach = !sum.storage_ok && storage_ok_at_price_;
  const bool reprice = (breach || drift || storage_breach) && num_shards() > 1;
  if (reprice) {
    obs::add_counter(params_.sink, "socl.shard.reprices", 1);
    coordinate();
  } else {
    obs::add_counter(params_.sink, "socl.shard.incremental_steps", 1);
  }
  release_assignments();
  return StepReport{resolved, reprice, merged_placement()};
}

core::Placement ShardedSoCL::merged_placement() const {
  core::Placement placement(*global_);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].merge_placement(current_[s].placement, placement);
  }
  return placement;
}

void ShardedSoCL::release_assignments() {
  for (core::Solution& solution : current_) solution.assignment.reset();
}

ShardedSolution ShardedSoCL::recombine() const {
  ShardedSolution solution{.placement = merged_placement()};
  const double budget = global_->constants().budget;

  bool all_routable = true;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const core::Solution& shard_solution = current_[s];
    if (shards_[s].num_users() > 0 && !shard_solution.assignment) {
      all_routable = false;
    }
    solution.shard_spend.push_back(shard_solution.evaluation.deployment_cost);
    solution.shard_solve_s.push_back(current_solve_s_[s]);
    solution.spend += shard_solution.evaluation.deployment_cost;
  }

  if (all_routable) {
    core::Assignment assignment(*global_);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (shards_[s].num_users() == 0) continue;
      shards_[s].merge_assignment(*current_[s].assignment, assignment);
    }
    solution.assignment = std::move(assignment);
    solution.evaluation = core::Evaluator(*global_).evaluate(
        solution.placement, *solution.assignment);
  } else {
    // At least one shard is unroutable; report the placement-side facts
    // without a global routing pass (which could cross shard boundaries
    // and mask the failure).
    solution.evaluation.routable = false;
    solution.evaluation.deployment_cost =
        solution.placement.deployment_cost(global_->catalog());
    solution.evaluation.total_latency =
        std::numeric_limits<double>::infinity();
    solution.evaluation.objective = std::numeric_limits<double>::infinity();
    solution.evaluation.within_budget =
        solution.evaluation.deployment_cost <= budget;
    solution.evaluation.storage_ok =
        solution.placement.storage_feasible(*global_);
  }

  solution.shards = num_shards();
  solution.iterations = iterations_;
  solution.converged = converged_;
  solution.used_quota_fallback = quotas_.has_value();
  solution.price = price_;
  solution.duality_gap = duality_gap_;
  solution.budget = budget;
  solution.price_trajectory = price_trajectory_;
  solution.spend_trajectory = spend_trajectory_;
  return solution;
}

void ShardedSoCL::emit_metrics(double runtime_seconds) const {
  obs::ObsSink* const sink = params_.sink;
  if (sink == nullptr) return;
  sink->add_counter("socl.shard.solves", 1);
  sink->set_gauge("socl.shard.shards", static_cast<double>(num_shards()));
  sink->set_gauge("socl.shard.iterations", static_cast<double>(iterations_));
  sink->set_gauge("socl.shard.duality_gap", duality_gap_);
  sink->set_gauge("socl.shard.price", price_);
  sink->set_gauge("socl.shard.spend", spend_at_price_);
  sink->set_gauge("socl.shard.budget", global_->constants().budget);
  sink->set_gauge("socl.shard.converged", converged_ ? 1.0 : 0.0);
  sink->add_counter("socl.shard.quota_fallbacks", quotas_ ? 1 : 0);
  for (const double price : price_trajectory_) {
    sink->observe("socl.shard.price_step", price);
  }
  for (const double solve_s : current_solve_s_) {
    sink->observe("socl.shard.shard_solve_s", solve_s);
  }
  sink->observe("socl.shard.solve_s", runtime_seconds);
}

}  // namespace socl::shard
