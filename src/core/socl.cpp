#include "core/socl.h"

#include "core/storage_planning.h"
#include "obs/sink.h"
#include "util/timer.h"

namespace socl::core {

Partitioning single_group_partitioning(const Scenario& scenario) {
  Partitioning partitioning;
  partitioning.per_ms.resize(
      static_cast<std::size_t>(scenario.num_microservices()));
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    const auto& demand = scenario.demand_nodes(m);
    if (!demand.empty()) {
      partitioning.per_ms[static_cast<std::size_t>(m)].groups.push_back(
          demand);
    }
  }
  return partitioning;
}

Solution SoCL::solve(const Scenario& scenario) const {
  util::WallTimer timer;
  obs::ObsSink* const sink = params_.sink;
  const obs::ScopedSpan solve_span(sink, obs::Phase::kOther, "socl.solve");

  // Stage 1: region-based initial partition.
  Partitioning partitioning = [&] {
    const obs::ScopedSpan span(sink, obs::Phase::kPartition, "partition");
    return params_.use_partition
               ? initial_partition(scenario, params_.partition)
               : single_group_partitioning(scenario);
  }();

  // Stage 2: budget-bounded instance pre-provisioning.
  PreprovisionConfig pre_config = params_.preprovision;
  if (!params_.use_preprovision) pre_config.use_quota = false;
  Preprovisioning pre = [&] {
    const obs::ScopedSpan span(sink, obs::Phase::kPreprovision,
                               "preprovision");
    return preprovision(scenario, partitioning, pre_config);
  }();

  // Stage 3: multi-scale combination with storage planning and roll-back.
  CombinationConfig combination_config = params_.combination;
  if (combination_config.sink == nullptr) combination_config.sink = sink;
  Combiner combiner(scenario, partitioning, combination_config);
  CombinationStats stats;
  Placement placement = combiner.run(pre, &stats);

  // Final storage pass: the combination stage plans storage per move, but a
  // disabled planner or an all-quota pre-provisioning can leave overloads.
  if (params_.combination.use_storage_planning) {
    plan_storage(scenario, placement, sink);
  }

  Solution solution{placement, std::nullopt, {}, 0.0, stats};
  const Evaluator evaluator(scenario);
  // Final exact routing goes through the combiner's engine so its warmed
  // scratch buffers are reused and the pass lands in the routing counters.
  solution.assignment = combiner.engine().route_all(placement);
  solution.evaluation =
      solution.assignment
          ? evaluator.evaluate(placement, *solution.assignment)
          : evaluator.evaluate(placement);
  solution.combination_stats.routing = combiner.engine().counters();
  solution.runtime_seconds = timer.elapsed_seconds();

  if (sink != nullptr) {
    const RoutingCounters& routing = solution.combination_stats.routing;
    sink->add_counter("socl.core.solves", 1);
    sink->observe("socl.core.solve_s", solution.runtime_seconds);
    sink->set_gauge("socl.core.objective", solution.evaluation.objective);
    sink->set_gauge("socl.core.deployment_cost",
                    solution.evaluation.deployment_cost);
    sink->set_gauge("socl.core.total_latency",
                    solution.evaluation.total_latency);
    sink->set_gauge("socl.core.instances",
                    static_cast<double>(placement.total_instances()));
    sink->add_counter("socl.routing.routes_computed", routing.routes_computed);
    sink->add_counter("socl.routing.cache_hits", routing.cache_hits);
    sink->add_counter("socl.routing.reroutes_avoided",
                      routing.reroutes_avoided);
    sink->add_counter("socl.routing.candidates_scored",
                      routing.candidates_scored);
    sink->add_counter("socl.routing.cache_refreshes", routing.cache_refreshes);
    sink->observe("socl.routing.refresh_s", routing.refresh_seconds);
    sink->observe("socl.routing.score_s", routing.score_seconds);
    const RoutingEngine& engine = combiner.engine();
    sink->add_counter("socl.kernel.costs", routing.kernel.costs);
    sink->add_counter("socl.kernel.lanes", routing.kernel.lanes);
    sink->add_counter("socl.kernel.memo_hits", routing.kernel.memo_hits);
    sink->add_counter("socl.kernel.memo_misses", routing.kernel.memo_misses);
    sink->add_counter("socl.kernel.rebuilds", routing.kernel.rebuilds);
    sink->add_counter("socl.kernel.cost_memo_hits",
                      routing.kernel.cost_memo_hits);
    sink->set_gauge("socl.kernel.soa_bytes",
                    static_cast<double>(engine.kernel().soa_bytes()));
    sink->set_gauge("socl.kernel.delay_tables",
                    engine.kernel().delay_tables_enabled() ? 1.0 : 0.0);
    const auto& classes = scenario.classes();
    sink->set_gauge("socl.scale.users",
                    static_cast<double>(classes.num_users()));
    sink->set_gauge("socl.scale.classes",
                    static_cast<double>(classes.num_classes()));
    sink->set_gauge("socl.scale.compression", classes.compression_ratio());
  }
  if (params_.post_solve_hook) {
    params_.post_solve_hook(scenario, solution, sink);
  }
  return solution;
}

}  // namespace socl::core
