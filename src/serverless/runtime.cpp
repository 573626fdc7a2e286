#include "serverless/runtime.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <queue>
#include <stdexcept>

#include "obs/sink.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace socl::serverless {
namespace {

enum class EventKind : int {
  kArrival = 0,
  kStageArrive = 1,
  kStageDone = 2,
  kContainerReady = 3,
  kContainerExpire = 4,
  kPolicyTick = 5,
  kRequestDone = 6,
};

struct Event {
  double time = 0.0;
  /// Push sequence number; ties on `time` break FIFO so the processing
  /// order is a pure function of the push order.
  std::uint64_t order = 0;
  EventKind kind = EventKind::kArrival;
  int a = -1;
  int b = -1;
  int c = -1;
};

struct EventLater {
  bool operator()(const Event& x, const Event& y) const {
    if (x.time != y.time) return x.time > y.time;
    return x.order > y.order;
  }
};

/// Counter-keyed stream derivation (SplitMix64 finishes the mixing inside
/// the Rng constructor): pure in (seed, a, b, c), so draws do not depend on
/// event-processing history.
std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                  std::uint64_t c = 0) {
  std::uint64_t h = seed;
  h ^= 0x9E3779B97F4A7C15ULL * (a + 1);
  h ^= 0xBF58476D1CE4E5B9ULL * (b + 1);
  h ^= 0x94D049BB133111EBULL * (c + 1);
  return h;
}

/// Log-normal draw with the requested *mean* (not median).
double lognormal_mean(util::Rng& rng, double mean, double sigma) {
  if (mean <= 0.0) return 0.0;
  if (sigma <= 0.0) return mean;
  return std::exp(rng.normal(std::log(mean) - 0.5 * sigma * sigma, sigma));
}

enum class ContainerState : std::uint8_t { kStarting, kWarm, kExpired };

struct Container {
  double ready_at = 0.0;
  double cold_duration = 0.0;
  int busy = 0;
  /// Idle-period token: bumped whenever the container picks up work, which
  /// invalidates the expiry event scheduled for the previous idle period.
  int gen = 0;
  ContainerState state = ContainerState::kWarm;
};

struct Pending {
  int job = -1;
  double since = 0.0;
};

struct Pool {
  NodeId node = net::kInvalidNode;
  MsId ms = workload::kInvalidMs;
  std::vector<Container> containers;
  std::deque<Pending> queue;
  int live = 0;      ///< starting + warm containers
  int starting = 0;
  int busy_slots = 0;
  int boots = 0;  ///< boot counter, keys the cold-start RNG stream
};

/// Static per-user dispatch data (pure function of scenario + assignment).
struct UserRoute {
  std::vector<int> pool;
  std::vector<double> transfer_in;  ///< into position p (p==0: d_in)
  std::vector<double> proc_base;    ///< q(m)/c(v_k) at the assigned node
  double d_out = 0.0;
};

struct Job {
  /// Index of the job's user in the window's distinct arriving users (and
  /// so into their route tables).
  int route = -1;
  int seq = 0;
  std::size_t pos = 0;
  double arrival = 0.0;
  double queue_s = 0.0;
  double cold_s = 0.0;
  double transfer_s = 0.0;
  double proc_s = 0.0;
};

}  // namespace

double RuntimeMetrics::mean_latency_s() const {
  if (requests.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : requests) sum += r.total_s();
  return sum / static_cast<double>(requests.size());
}

double RuntimeMetrics::mean_cold_s() const {
  if (requests.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : requests) sum += r.cold_s;
  return sum / static_cast<double>(requests.size());
}

ServerlessRuntime::ServerlessRuntime(const core::Scenario& scenario,
                                     ServerlessConfig config,
                                     util::ThreadPool* pool)
    : scenario_(&scenario), config_(config), pool_(pool) {
  if (config_.concurrency < 1 || config_.max_containers_per_pool < 1) {
    throw std::invalid_argument(
        "ServerlessRuntime: concurrency and pool capacity must be >= 1");
  }
  if (config_.cold_start_mean_s < 0.0 || config_.keep_alive_s < 0.0 ||
      config_.series_bins < 0) {
    throw std::invalid_argument("ServerlessRuntime: negative parameter");
  }
}

RuntimeMetrics ServerlessRuntime::run(
    const core::Placement& placement, const core::Assignment& assignment,
    std::span<const Arrival> arrivals, const ScalingPolicy& policy,
    std::uint64_t seed, const core::Placement* carried,
    std::vector<EventRecord>* event_log) const {
  const obs::ScopedSpan run_span(config_.sink, obs::Phase::kServerless,
                                 "serverless.run");
  const auto& scenario = *scenario_;
  const auto& catalog = scenario.catalog();
  const auto& network = scenario.network();
  const auto& vlinks = scenario.vlinks();
  const int nodes = scenario.num_nodes();
  const int num_ms = scenario.num_microservices();
  const int cap = config_.max_containers_per_pool;
  const int concurrency = config_.concurrency;

  // ---- Pools for every deployed instance ----
  const auto slot = [nodes](MsId m, NodeId k) {
    return static_cast<std::size_t>(m) * static_cast<std::size_t>(nodes) +
           static_cast<std::size_t>(k);
  };
  std::vector<int> pool_of(
      static_cast<std::size_t>(num_ms) * static_cast<std::size_t>(nodes), -1);
  std::vector<Pool> pools;
  for (MsId m = 0; m < num_ms; ++m) {
    for (NodeId k = 0; k < nodes; ++k) {
      if (!placement.deployed(m, k)) continue;
      pool_of[slot(m, k)] = static_cast<int>(pools.size());
      Pool pool;
      pool.node = k;
      pool.ms = m;
      pools.push_back(std::move(pool));
    }
  }

  // ---- Every user's assignment must use deployed pools ----
  // Checked over the whole population (not only this window's arrivals) so
  // that a bad assignment fails the same way whichever users happen to
  // arrive. Lookups only: no allocation, no transfer or compute arithmetic.
  const auto& requests = scenario.requests();
  for (const auto& request : requests) {
    for (std::size_t pos = 0; pos < request.chain.size(); ++pos) {
      const NodeId k = assignment.node_for(request.id, static_cast<int>(pos));
      if (k < 0 || k >= nodes || pool_of[slot(request.chain[pos], k)] < 0) {
        throw std::invalid_argument(
            "ServerlessRuntime: assignment uses an undeployed instance");
      }
    }
  }

  // ---- The window's distinct arriving users, and one job per arrival ----
  std::vector<int> route_users;
  route_users.reserve(arrivals.size());
  double previous_time = -std::numeric_limits<double>::infinity();
  for (const auto& arrival : arrivals) {
    if (arrival.user < 0 ||
        static_cast<std::size_t>(arrival.user) >= requests.size()) {
      throw std::invalid_argument("ServerlessRuntime: arrival user id");
    }
    // The event loop merges the stream instead of heaping it, and the last
    // arrival bounds the policy ticks: both need it sorted (NaN never is).
    if (!(arrival.time_s >= previous_time)) {
      throw std::invalid_argument(
          "ServerlessRuntime: arrivals not sorted by time");
    }
    previous_time = arrival.time_s;
    route_users.push_back(arrival.user);
  }
  std::sort(route_users.begin(), route_users.end());
  route_users.erase(std::unique(route_users.begin(), route_users.end()),
                    route_users.end());
  std::vector<Job> jobs;
  jobs.reserve(arrivals.size());
  for (const auto& arrival : arrivals) {
    Job job;
    job.route = static_cast<int>(
        std::lower_bound(route_users.begin(), route_users.end(),
                         arrival.user) -
        route_users.begin());
    job.seq = arrival.seq;
    job.arrival = arrival.time_s;
    jobs.push_back(job);
  }

  // ---- Static route tables for arriving users (pure; fans out) ----
  std::vector<UserRoute> routes(route_users.size());
  const auto build_route = [&](std::size_t r) {
    const auto& request = requests[static_cast<std::size_t>(route_users[r])];
    UserRoute& route = routes[r];
    const std::size_t len = request.chain.size();
    route.pool.resize(len);
    route.transfer_in.resize(len);
    route.proc_base.resize(len);
    NodeId prev = request.attach_node;
    for (std::size_t pos = 0; pos < len; ++pos) {
      const NodeId k = assignment.node_for(request.id, static_cast<int>(pos));
      const MsId m = request.chain[pos];
      route.pool[pos] = pool_of[slot(m, k)];
      const double data =
          pos == 0 ? request.data_in : request.edge_data[pos - 1];
      route.transfer_in[pos] = vlinks.transfer_time(data, prev, k);
      route.proc_base[pos] = catalog.microservice(m).compute_gflop /
                             network.node(k).compute_gflops;
      prev = k;
    }
    route.d_out = vlinks.transfer_time(
        request.data_out, prev,
        assignment.node_for(request.id, 0));
  };
  if (pool_ != nullptr && routes.size() > 1) {
    pool_->parallel_for(routes.size(), build_route);
  } else {
    for (std::size_t r = 0; r < routes.size(); ++r) build_route(r);
  }
  const auto route_of = [&](const Job& job) -> const UserRoute& {
    return routes[static_cast<std::size_t>(job.route)];
  };
  const auto user_of = [&](const Job& job) {
    return route_users[static_cast<std::size_t>(job.route)];
  };

  RuntimeMetrics metrics;
  RuntimeTotals& totals = metrics.totals;

  // ---- Event queue ----
  std::priority_queue<Event, std::vector<Event>, EventLater> eq;
  std::uint64_t order = 0;
  const auto push = [&](double t, EventKind kind, int a = -1, int b = -1,
                        int c = -1) {
    eq.push(Event{t, order++, kind, a, b, c});
  };

  int live_total = 0;
  std::int64_t live_slots = 0;  ///< live containers × concurrency
  std::int64_t busy_total = 0;

  // ---- Time series ----
  const double horizon =
      arrivals.empty() ? 0.0 : arrivals[arrivals.size() - 1].time_s;
  const bool series = config_.series_bins > 0 && horizon > 0.0;
  const double bin_s =
      series ? horizon / static_cast<double>(config_.series_bins) : 0.0;
  std::vector<double> busy_time, live_time;
  std::vector<std::int64_t> bin_invocations, bin_cold;
  if (series) {
    const auto n = static_cast<std::size_t>(config_.series_bins);
    busy_time.assign(n, 0.0);
    live_time.assign(n, 0.0);
    bin_invocations.assign(n, 0);
    bin_cold.assign(n, 0);
  }
  const auto series_bin = [&](double t) {
    return std::min<std::size_t>(
        static_cast<std::size_t>(std::max(0.0, t / bin_s)),
        static_cast<std::size_t>(config_.series_bins) - 1);
  };
  const auto integrate = [&](double from, double to) {
    if (!series || to <= from) return;
    // Split the interval across bins; time past the horizon lands in the
    // last bin.
    while (from < to) {
      const std::size_t b = series_bin(from);
      const double bin_end =
          b + 1 == static_cast<std::size_t>(config_.series_bins)
              ? to
              : std::min(to, static_cast<double>(b + 1) * bin_s);
      const double dt = bin_end - from;
      busy_time[b] += static_cast<double>(busy_total) * dt;
      live_time[b] += static_cast<double>(live_slots) * dt;
      from = bin_end;
    }
  };

  // ---- Container lifecycle helpers ----
  const auto schedule_expire = [&](int pi, int ci, double now) {
    Pool& pool = pools[static_cast<std::size_t>(pi)];
    Container& c = pool.containers[static_cast<std::size_t>(ci)];
    util::Rng rng(mix(seed ^ 0x6B656570ULL, static_cast<std::uint64_t>(pi),
                      static_cast<std::uint64_t>(ci),
                      static_cast<std::uint64_t>(c.gen)));
    const double life = config_.keep_alive_s <= 0.0
                            ? 0.0
                            : lognormal_mean(rng, config_.keep_alive_s,
                                             config_.keep_alive_sigma);
    push(now + life, EventKind::kContainerExpire, pi, ci, c.gen);
  };

  const auto boot = [&](int pi, double now, bool prewarm) {
    Pool& pool = pools[static_cast<std::size_t>(pi)];
    if (pool.live >= cap) return false;
    util::Rng rng(mix(seed ^ 0xC01D5A17ULL, static_cast<std::uint64_t>(pi),
                      static_cast<std::uint64_t>(pool.boots)));
    const double cold = lognormal_mean(rng, config_.cold_start_mean_s,
                                       config_.cold_start_sigma);
    ++pool.boots;
    const int ci = static_cast<int>(pool.containers.size());
    Container c;
    c.ready_at = now + cold;
    c.cold_duration = cold;
    c.state = ContainerState::kStarting;
    pool.containers.push_back(c);
    ++pool.live;
    ++pool.starting;
    ++live_total;
    live_slots += concurrency;
    totals.peak_live = std::max(totals.peak_live, live_total);
    ++(prewarm ? totals.prewarm_boots : totals.demand_boots);
    push(c.ready_at, EventKind::kContainerReady, pi, ci);
    return true;
  };

  const auto add_warm = [&](int pi) {
    Pool& pool = pools[static_cast<std::size_t>(pi)];
    if (pool.live >= cap) return;
    const int ci = static_cast<int>(pool.containers.size());
    pool.containers.push_back(Container{});
    ++pool.live;
    ++live_total;
    live_slots += concurrency;
    totals.peak_live = std::max(totals.peak_live, live_total);
    ++totals.initial_warm;
    schedule_expire(pi, ci, 0.0);
  };

  const auto start_service = [&](int pi, int ci, int ji, double now,
                                 double since, bool immediate) {
    Pool& pool = pools[static_cast<std::size_t>(pi)];
    Container& c = pool.containers[static_cast<std::size_t>(ci)];
    if (c.busy == 0) ++c.gen;  // cancel the idle-period expiry
    ++c.busy;
    ++pool.busy_slots;
    ++busy_total;
    Job& job = jobs[static_cast<std::size_t>(ji)];
    ++totals.invocations;
    bool cold_serve = false;
    if (immediate) {
      ++totals.warm_hits;
    } else {
      const double wait = now - since;
      const double cold_part =
          c.ready_at > since ? std::min(wait, c.ready_at - since) : 0.0;
      job.cold_s += cold_part;
      job.queue_s += wait - cold_part;
      cold_serve = cold_part > 0.0;
      ++(cold_serve ? totals.cold_serves : totals.queue_serves);
    }
    if (series) {
      const std::size_t b = series_bin(now);
      ++bin_invocations[b];
      if (cold_serve) ++bin_cold[b];
    }
    double proc = route_of(job).proc_base[job.pos];
    if (config_.proc_jitter_sigma > 0.0) {
      util::Rng rng(mix(seed ^ 0x9D0C3551ULL,
                        static_cast<std::uint64_t>(user_of(job)),
                        static_cast<std::uint64_t>(job.seq),
                        static_cast<std::uint64_t>(job.pos)));
      proc *= lognormal_mean(rng, 1.0, config_.proc_jitter_sigma);
    }
    job.proc_s += proc;
    push(now + proc, EventKind::kStageDone, ji, pi, ci);
  };

  const auto find_free = [&](const Pool& pool) {
    for (std::size_t ci = 0; ci < pool.containers.size(); ++ci) {
      const Container& c = pool.containers[ci];
      if (c.state == ContainerState::kWarm && c.busy < concurrency) {
        return static_cast<int>(ci);
      }
    }
    return -1;
  };

  const auto drain = [&](int pi, int ci, double now) {
    Pool& pool = pools[static_cast<std::size_t>(pi)];
    Container& c = pool.containers[static_cast<std::size_t>(ci)];
    while (!pool.queue.empty() && c.state == ContainerState::kWarm &&
           c.busy < concurrency) {
      const Pending pending = pool.queue.front();
      pool.queue.pop_front();
      start_service(pi, ci, pending.job, now, pending.since,
                    /*immediate=*/false);
    }
  };

  // ---- Initial pool state ----
  // Steady-state windows (carried == nullptr) open with the policy's warm
  // set for free. With a carried placement, only surviving instances keep a
  // warm container across the boundary; churned-in instances must boot at
  // rollout (paying real cold starts on the requests that hit them early).
  for (std::size_t pi = 0; pi < pools.size(); ++pi) {
    const Pool& pool = pools[pi];
    int want = std::clamp(
        policy.initial_warm(scenario, placement, pool.node, pool.ms), 0, cap);
    const bool carried_warm =
        carried == nullptr || (pool.ms < carried->num_microservices() &&
                               pool.node < carried->num_nodes() &&
                               carried->deployed(pool.ms, pool.node));
    if (carried_warm) {
      if (carried != nullptr) want = std::max(want, 1);
      for (int i = 0; i < want; ++i) add_warm(static_cast<int>(pi));
    } else {
      for (int i = 0; i < want; ++i) {
        if (!boot(static_cast<int>(pi), 0.0, /*prewarm=*/true)) break;
      }
    }
  }

  // ---- Seed events: arrivals and policy ticks ----
  // Arrivals stay out of the heap, so it holds only in-flight events, not
  // the window's whole stream: the event loop merges the sorted stream with
  // it. Arrival i keeps the push order it would have had heaped
  // (first_arrival + i), so every time tie breaks as if it were heaped.
  const std::uint64_t first_arrival = order;
  order += arrivals.size();
  if (config_.policy_tick_s > 0.0) {
    for (double t = config_.policy_tick_s; t <= horizon;
         t += config_.policy_tick_s) {
      push(t, EventKind::kPolicyTick);
    }
  }

  // ---- Event loop ----
  std::size_t next_arrival = 0;
  const auto arrival_next = [&] {
    if (next_arrival == arrivals.size()) return false;
    if (eq.empty()) return true;
    const double t = arrivals[next_arrival].time_s;
    const Event& top = eq.top();
    return t < top.time ||
           (t == top.time && first_arrival + next_arrival < top.order);
  };
  double t_prev = 0.0;
  while (next_arrival < arrivals.size() || !eq.empty()) {
    Event event;
    if (arrival_next()) {
      event = Event{arrivals[next_arrival].time_s, first_arrival + next_arrival,
                    EventKind::kArrival, static_cast<int>(next_arrival)};
      ++next_arrival;
    } else {
      event = eq.top();
      eq.pop();
    }
    const double now = event.time;
    integrate(t_prev, now);
    t_prev = now;
    if (event_log != nullptr) {
      event_log->push_back(EventRecord{now, static_cast<int>(event.kind),
                                       event.a, event.b, event.c});
    }

    switch (event.kind) {
      case EventKind::kArrival: {
        const int ji = event.a;
        Job& job = jobs[static_cast<std::size_t>(ji)];
        job.pos = 0;
        const double d_in = route_of(job).transfer_in[0];
        job.transfer_s += d_in;
        push(now + d_in, EventKind::kStageArrive, ji, 0);
        break;
      }
      case EventKind::kStageArrive: {
        const int ji = event.a;
        Job& job = jobs[static_cast<std::size_t>(ji)];
        job.pos = static_cast<std::size_t>(event.b);
        const int pi = route_of(job).pool[job.pos];
        Pool& pool = pools[static_cast<std::size_t>(pi)];
        const int ci = find_free(pool);
        if (ci >= 0) {
          start_service(pi, ci, ji, now, now, /*immediate=*/true);
        } else {
          pool.queue.push_back(Pending{ji, now});
          PoolView view;
          view.node = pool.node;
          view.ms = pool.ms;
          view.warm = pool.live - pool.starting;
          view.starting = pool.starting;
          view.busy_slots = pool.busy_slots;
          view.queue_len = static_cast<int>(pool.queue.size());
          view.concurrency = concurrency;
          view.capacity = cap;
          int want = policy.on_demand_miss(view);
          // Liveness: an empty pool with a queue-only policy would strand
          // the request forever; the platform always runs the function.
          if (want <= 0 && pool.live == 0) want = 1;
          for (int i = 0; i < want; ++i) {
            if (!boot(pi, now, /*prewarm=*/false)) break;
          }
        }
        break;
      }
      case EventKind::kStageDone: {
        const int ji = event.a;
        const int pi = event.b;
        const int ci = event.c;
        Pool& pool = pools[static_cast<std::size_t>(pi)];
        Container& c = pool.containers[static_cast<std::size_t>(ci)];
        --c.busy;
        --pool.busy_slots;
        --busy_total;
        drain(pi, ci, now);
        if (c.busy == 0 && c.state == ContainerState::kWarm) {
          schedule_expire(pi, ci, now);
        }
        Job& job = jobs[static_cast<std::size_t>(ji)];
        const auto& route = route_of(job);
        if (job.pos + 1 < route.pool.size()) {
          const double tr = route.transfer_in[job.pos + 1];
          job.transfer_s += tr;
          push(now + tr, EventKind::kStageArrive, ji,
               static_cast<int>(job.pos + 1));
        } else {
          job.transfer_s += route.d_out;
          push(now + route.d_out, EventKind::kRequestDone, ji);
        }
        break;
      }
      case EventKind::kContainerReady: {
        const int pi = event.a;
        const int ci = event.b;
        Pool& pool = pools[static_cast<std::size_t>(pi)];
        Container& c = pool.containers[static_cast<std::size_t>(ci)];
        c.state = ContainerState::kWarm;
        --pool.starting;
        drain(pi, ci, now);
        if (c.busy == 0) schedule_expire(pi, ci, now);
        break;
      }
      case EventKind::kContainerExpire: {
        const int pi = event.a;
        const int ci = event.b;
        Pool& pool = pools[static_cast<std::size_t>(pi)];
        Container& c = pool.containers[static_cast<std::size_t>(ci)];
        if (c.state == ContainerState::kWarm && c.busy == 0 &&
            c.gen == event.c) {
          c.state = ContainerState::kExpired;
          --pool.live;
          --live_total;
          live_slots -= concurrency;
          ++totals.expirations;
        }
        break;
      }
      case EventKind::kPolicyTick: {
        for (std::size_t pi = 0; pi < pools.size(); ++pi) {
          const Pool& pool = pools[pi];
          const int floor =
              std::min(policy.warm_floor(scenario, pool.node, pool.ms), cap);
          for (int have = pool.live; have < floor; ++have) {
            if (!boot(static_cast<int>(pi), now, /*prewarm=*/true)) break;
          }
        }
        break;
      }
      case EventKind::kRequestDone: {
        const Job& job = jobs[static_cast<std::size_t>(event.a)];
        RequestOutcome outcome;
        outcome.user = user_of(job);
        outcome.seq = job.seq;
        outcome.arrival_s = job.arrival;
        outcome.finish_s = now;
        outcome.queue_s = job.queue_s;
        outcome.cold_s = job.cold_s;
        outcome.transfer_s = job.transfer_s;
        outcome.proc_s = job.proc_s;
        metrics.requests.push_back(outcome);
        break;
      }
    }
  }

  if (series) {
    metrics.series_bin_s = bin_s;
    metrics.cold_rate.resize(static_cast<std::size_t>(config_.series_bins));
    metrics.pool_utilisation.resize(
        static_cast<std::size_t>(config_.series_bins));
    for (std::size_t b = 0; b < metrics.cold_rate.size(); ++b) {
      metrics.cold_rate[b] =
          bin_invocations[b] > 0
              ? static_cast<double>(bin_cold[b]) /
                    static_cast<double>(bin_invocations[b])
              : 0.0;
      metrics.pool_utilisation[b] =
          live_time[b] > 0.0 ? busy_time[b] / live_time[b] : 0.0;
    }
  }

  if (config_.sink != nullptr) {
    obs::ObsSink* const sink = config_.sink;
    sink->add_counter("socl.serverless.runs", 1);
    sink->add_counter("socl.serverless.invocations", totals.invocations);
    sink->add_counter("socl.serverless.warm_hits", totals.warm_hits);
    sink->add_counter("socl.serverless.cold_serves", totals.cold_serves);
    sink->add_counter("socl.serverless.queue_serves", totals.queue_serves);
    sink->add_counter("socl.serverless.demand_boots", totals.demand_boots);
    sink->add_counter("socl.serverless.prewarm_boots", totals.prewarm_boots);
    sink->add_counter("socl.serverless.expirations", totals.expirations);
    sink->set_gauge("socl.serverless.peak_live",
                    static_cast<double>(totals.peak_live));
    for (const RequestOutcome& outcome : metrics.requests) {
      sink->observe("socl.serverless.request_total_s", outcome.total_s());
      sink->observe("socl.serverless.request_queue_s", outcome.queue_s);
      sink->observe("socl.serverless.request_cold_s", outcome.cold_s);
    }
  }
  return metrics;
}

}  // namespace socl::serverless
