#include "core/score_kernel.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <utility>

namespace socl::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Delay-table policy. A class's table stripes (d_in row, d_out matrix,
// per-edge V×V matrices) are cold on first touch, so each read can cost a
// cache miss; the on-the-fly alternative is one division on the small,
// always-hot rate matrix. A wide DP reads each per-edge stripe
// prev-width × cur-width times and amortises the misses; a narrow one
// (late-combination placements with one or two instances per layer) is
// faster dividing in registers. Both sources produce identical bits — the
// tables are filled by the same transfer_time calls — so the threshold is a
// pure wall-time policy on gather_layers' max_pair.
constexpr std::size_t kTableStripeReads = 16;

// Class-cost memo sizing: about eight slots per class (rounded up to a power
// of two so the slot is the top bits of the hash), capped at a byte budget per
// arena. A smaller table only costs hits, never correctness.
constexpr std::size_t kMemoSlotsPerClass = 8;
constexpr std::size_t kMemoBudgetBytes = 16u << 20;

// Source of ScoreKernel::build_id_: unique across every kernel of the
// process, so an arena can tell builds apart without holding a pointer.
std::atomic<std::uint64_t> g_next_build_id{1};

// Class word of an empty memo slot (no class id takes this value).
constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};

// Multiplicative (Fibonacci) hashing: the memo slot is the top bits of a
// running product over the key words, folded once more at the end (the
// plain product left node masks that differ only in their low positions
// crowding a few slots). The hash only picks a slot; equality is always
// decided on the full key.
constexpr std::uint64_t kHashMultiplier = 0x9E3779B97F4A7C15ULL;

}  // namespace

ScoreKernel::ScoreKernel(const Scenario& scenario,
                         std::size_t delay_table_budget_bytes)
    : scenario_(&scenario),
      num_nodes_(static_cast<std::size_t>(scenario.num_nodes())),
      delay_table_budget_(delay_table_budget_bytes),
      mask_words_((num_nodes_ + 63) / 64) {
  rebuild();
}

bool ScoreKernel::sync() {
  if (epoch_seen_ == scenario_->workload_epoch()) return false;
  rebuild();
  return true;
}

void ScoreKernel::rebuild() {
  // The compute table is rebuilt too: Scenario::set_network bumps the
  // workload epoch, and a failed node's compute_gflops changes with it.
  const auto& catalog = scenario_->catalog();
  const auto& network = scenario_->network();
  const auto services =
      static_cast<std::size_t>(scenario_->num_microservices());
  compute_.resize(services * num_nodes_);
  for (std::size_t m = 0; m < services; ++m) {
    const double gflop =
        catalog.microservice(static_cast<MsId>(m)).compute_gflop;
    for (std::size_t k = 0; k < num_nodes_; ++k) {
      compute_[m * num_nodes_ + k] =
          gflop / network.node(static_cast<NodeId>(k)).compute_gflops;
    }
  }
  soa_.build(scenario_->classes(), scenario_->requests());
  const auto count = static_cast<std::size_t>(soa_.num_classes());
  const std::size_t v2 = num_nodes_ * num_nodes_;
  const std::size_t edges = soa_.edge_data.size();
  const std::size_t table_bytes =
      sizeof(double) * (count * num_nodes_ + count * v2 + edges * v2);
  use_tables_ = table_bytes <= delay_table_budget_;
  if (use_tables_) {
    const auto& vlinks = scenario_->vlinks();
    din_.resize(count * num_nodes_);
    dout_.resize(count * v2);
    edge_delay_.resize(edges * v2);
    for (std::size_t c = 0; c < count; ++c) {
      const NodeId attach = soa_.attach[c];
      const double in = soa_.data_in[c];
      const double out = soa_.data_out[c];
      for (std::size_t v = 0; v < num_nodes_; ++v) {
        din_[c * num_nodes_ + v] =
            vlinks.transfer_time_fast(in, attach, static_cast<NodeId>(v));
      }
      double* dout_table = &dout_[c * v2];
      for (std::size_t vd = 0; vd < num_nodes_; ++vd) {
        for (std::size_t vs = 0; vs < num_nodes_; ++vs) {
          dout_table[vd * num_nodes_ + vs] = vlinks.transfer_time_fast(
              out, static_cast<NodeId>(vd), static_cast<NodeId>(vs));
        }
      }
      const auto first_edge = static_cast<std::size_t>(soa_.edge_offset[c]);
      const auto last_edge = static_cast<std::size_t>(soa_.edge_offset[c + 1]);
      for (std::size_t e = first_edge; e < last_edge; ++e) {
        const double data = soa_.edge_data[e];
        double* table = &edge_delay_[e * v2];
        for (std::size_t p = 0; p < num_nodes_; ++p) {
          for (std::size_t k = 0; k < num_nodes_; ++k) {
            table[p * num_nodes_ + k] = vlinks.transfer_time_fast(
                data, static_cast<NodeId>(p), static_cast<NodeId>(k));
          }
        }
      }
    }
  } else {
    din_.clear();
    dout_.clear();
    edge_delay_.clear();
  }

  std::size_t longest = 0;
  for (int c = 0; c < soa_.num_classes(); ++c) {
    longest = std::max(longest, soa_.chain_length(c));
  }
  memo_stride_ = 2 + (longest * num_nodes_ + 63) / 64;
  memo_slots_ = std::bit_ceil(std::max<std::size_t>(count, 1) *
                              kMemoSlotsPerClass);
  while (memo_slots_ > 4 &&
         memo_slots_ * memo_stride_ * sizeof(std::uint64_t) >
             kMemoBudgetBytes) {
    memo_slots_ /= 2;
  }
  memo_shift_ = 65 - static_cast<unsigned>(std::countr_zero(memo_slots_));
  build_id_ = g_next_build_id.fetch_add(1, std::memory_order_relaxed);
  epoch_seen_ = scenario_->workload_epoch();
}

std::size_t ScoreKernel::soa_bytes() const {
  return soa_.bytes() + sizeof(double) * (compute_.capacity() +
                                          din_.capacity() + dout_.capacity() +
                                          edge_delay_.capacity());
}

void ScoreKernel::bind(Arena& arena, const Placement& placement) const {
  // Gen 0 is never handed out by the routing engine, so a forced bind can
  // never be mistaken for a memoized one.
  arena.bound = &placement;
  arena.bound_gen = 0;
  ++arena.stamp;
  const auto services = static_cast<std::size_t>(scenario_->num_microservices());
  if (arena.ms_nodes.size() < services) {
    arena.ms_nodes.resize(services);
    arena.ms_stamp.resize(services, 0);
  }
  if (arena.ms_mask.size() < services * mask_words_) {
    arena.ms_mask.resize(services * mask_words_);
  }
}

void ScoreKernel::bind(Arena& arena, const Placement& placement,
                       std::uint64_t gen) const {
  if (arena.bound == &placement && arena.bound_gen == gen && gen != 0) return;
  bind(arena, placement);
  arena.bound_gen = gen;
}

bool ScoreKernel::gather_layers(int c, std::size_t len, Arena& arena,
                                KernelStats& stats,
                                std::size_t& max_pair) const {
  if (arena.layers.size() < len) arena.layers.resize(len);
  const auto begin = static_cast<std::size_t>(
      soa_.chain_offset[static_cast<std::size_t>(c)]);
  max_pair = 1;
  std::size_t prev_width = 1;
  for (std::size_t pos = 0; pos < len; ++pos) {
    const auto m = static_cast<std::size_t>(soa_.chain[begin + pos]);
    auto& nodes = arena.ms_nodes[m];
    if (arena.ms_stamp[m] != arena.stamp) {
      arena.bound->nodes_of_into(static_cast<MsId>(m), nodes);
      arena.ms_stamp[m] = arena.stamp;
      std::uint64_t* mask = &arena.ms_mask[m * mask_words_];
      std::fill(mask, mask + mask_words_, 0);
      for (const NodeId k : nodes) {
        const auto bit = static_cast<std::size_t>(k);
        mask[bit / 64] |= std::uint64_t{1} << (bit % 64);
      }
      ++stats.memo_misses;
    } else {
      ++stats.memo_hits;
    }
    // Mirror fill_layers: fail on the first empty layer.
    if (nodes.empty()) return false;
    arena.layers[pos] = &nodes;
    if (pos > 0) max_pair = std::max(max_pair, prev_width * nodes.size());
    prev_width = nodes.size();
  }
  return true;
}

template <bool kTables>
ScoreKernel::BatchBest ScoreKernel::batch_dp(int c, std::size_t len,
                                             Arena& arena,
                                             KernelStats& stats) const {
  const auto& vlinks = scenario_->vlinks();
  const std::size_t v = num_nodes_;
  const std::size_t v2 = v * v;
  const auto cls = static_cast<std::size_t>(c);
  const auto begin = static_cast<std::size_t>(soa_.chain_offset[cls]);
  const auto first_edge = static_cast<std::size_t>(soa_.edge_offset[cls]);

  const std::vector<NodeId>& first = *arena.layers[0];
  const std::size_t lanes = first.size();
  stats.lanes += static_cast<std::int64_t>(lanes);

  // Size the two ping-pong buffers once for the whole DP (max layer width ×
  // lanes) so the per-position loop runs over raw pointers with no resize
  // checks — at near-final placements layers hold one or two candidates and
  // the vector bookkeeping would otherwise rival the arithmetic.
  std::size_t max_width = lanes;
  for (std::size_t pos = 1; pos < len; ++pos) {
    max_width = std::max(max_width, arena.layers[pos]->size());
  }
  if (arena.dp.size() < max_width * lanes) arena.dp.resize(max_width * lanes);
  if (arena.next.size() < max_width * lanes) {
    arena.next.resize(max_width * lanes);
  }
  double* dp = arena.dp.data();
  double* nxt = arena.next.data();

  // Lane s conditions the DP on v_s = first[s]. The first layer is fixed to
  // v_s per lane, so the init matrix is the compute-time diagonal (first
  // layers are unique ascending node ids: candidate index == lane index).
  {
    const double* compute_row =
        &compute_[static_cast<std::size_t>(soa_.chain[begin]) * v];
    for (std::size_t i = 0; i < lanes * lanes; ++i) dp[i] = kInf;
    for (std::size_t s = 0; s < lanes; ++s) {
      dp[s * lanes + s] = compute_row[static_cast<std::size_t>(first[s])];
    }
  }

  for (std::size_t pos = 1; pos < len; ++pos) {
    const std::vector<NodeId>& prev = *arena.layers[pos - 1];
    const std::vector<NodeId>& cur = *arena.layers[pos];
    const double data = soa_.edge_data[first_edge + pos - 1];
    const double* compute_row =
        &compute_[static_cast<std::size_t>(soa_.chain[begin + pos]) * v];
    const double* edge_table =
        kTables ? &edge_delay_[(first_edge + pos - 1) * v2] : nullptr;
    for (std::size_t ci = 0; ci < cur.size(); ++ci) {
      const NodeId k = cur[ci];
      const double compute = compute_row[static_cast<std::size_t>(k)];
      double* __restrict nrow = &nxt[ci * lanes];
      // gather_layers guarantees non-empty layers, so p == 0 always exists:
      // writing it directly replaces the +inf fill pass (min(+inf, cand) ==
      // cand bitwise, including the all-dead-lane cand == +inf case).
      for (std::size_t p = 0; p < prev.size(); ++p) {
        // One transfer-time division shared by all S lanes — the legacy
        // loop recomputes it per conditioning.
        const double transfer =
            kTables ? edge_table[static_cast<std::size_t>(prev[p]) * v +
                                 static_cast<std::size_t>(k)]
                    : vlinks.transfer_time_fast(data, prev[p], k);
        const double* __restrict prow = &dp[p * lanes];
        // Same expression order as the legacy DP ((dp + transfer) +
        // compute), so each lane's value is bit-identical. The branchless
        // select matches the legacy strict-< update for every non-NaN pair,
        // and dead lanes carry +inf, never NaN (no subtraction), so the
        // compiler is free to emit vminpd here.
        if (p == 0) {
          for (std::size_t s = 0; s < lanes; ++s) {
            nrow[s] = prow[s] + transfer + compute;
          }
        } else {
          for (std::size_t s = 0; s < lanes; ++s) {
            const double cand = prow[s] + transfer + compute;
            nrow[s] = cand < nrow[s] ? cand : nrow[s];
          }
        }
      }
    }
    std::swap(dp, nxt);
  }

  // Terminal scan in the legacy argmin order: conditioning-outer (skipping
  // unreachable-d_in lanes exactly like the legacy `continue`), terminal
  // candidate inner, strict <. The surviving (s, c) pair is therefore the
  // same lexicographically-first global minimum the legacy loop keeps.
  const std::vector<NodeId>& last = *arena.layers[len - 1];
  const double* din_row = kTables ? &din_[cls * v] : nullptr;
  const double* dout_table = kTables ? &dout_[cls * v2] : nullptr;
  BatchBest best{kInf, 0, 0};
  for (std::size_t s = 0; s < lanes; ++s) {
    const NodeId v_s = first[s];
    const double d_in =
        kTables ? din_row[static_cast<std::size_t>(v_s)]
                : vlinks.transfer_time_fast(soa_.data_in[cls], soa_.attach[cls],
                                       v_s);
    if (d_in == kInf) continue;
    for (std::size_t ci = 0; ci < last.size(); ++ci) {
      const double lane = dp[ci * lanes + s];
      if (lane == kInf) continue;
      const NodeId v_d = last[ci];
      const double d_out =
          kTables ? dout_table[static_cast<std::size_t>(v_d) * v +
                               static_cast<std::size_t>(v_s)]
                  : vlinks.transfer_time_fast(soa_.data_out[cls], v_d, v_s);
      const double total = d_in + lane + d_out;
      if (total < best.total) {
        best.total = total;
        best.s = s;
        best.c = ci;
      }
    }
  }
  return best;
}

template <bool kTables>
double ScoreKernel::singleton_total(int c, std::size_t len,
                                    Arena& arena) const {
  const auto& vlinks = scenario_->vlinks();
  const std::size_t v = num_nodes_;
  const std::size_t v2 = v * v;
  const auto cls = static_cast<std::size_t>(c);
  const auto begin = static_cast<std::size_t>(soa_.chain_offset[cls]);
  const auto first_edge = static_cast<std::size_t>(soa_.edge_offset[cls]);
  const NodeId v_s = (*arena.layers[0])[0];
  // Same expression order as batch_dp with one lane and one candidate per
  // layer: init `compute`, transition `(dp + transfer) + compute`, terminal
  // `(d_in + dp) + d_out`. Unroutable legs accumulate to the same +inf the
  // batch terminal scan would return (no subtraction, so never NaN).
  NodeId prev = v_s;
  double dp = compute_[static_cast<std::size_t>(soa_.chain[begin]) * v +
                       static_cast<std::size_t>(v_s)];
  for (std::size_t pos = 1; pos < len; ++pos) {
    const NodeId k = (*arena.layers[pos])[0];
    const double transfer =
        kTables ? edge_delay_[(first_edge + pos - 1) * v2 +
                              static_cast<std::size_t>(prev) * v +
                              static_cast<std::size_t>(k)]
                : vlinks.transfer_time_fast(soa_.edge_data[first_edge + pos - 1],
                                       prev, k);
    dp = dp + transfer +
         compute_[static_cast<std::size_t>(soa_.chain[begin + pos]) * v +
                  static_cast<std::size_t>(k)];
    prev = k;
  }
  const double d_in =
      kTables ? din_[cls * v + static_cast<std::size_t>(v_s)]
              : vlinks.transfer_time_fast(soa_.data_in[cls], soa_.attach[cls], v_s);
  const double d_out =
      kTables ? dout_[cls * v2 + static_cast<std::size_t>(prev) * v +
                      static_cast<std::size_t>(v_s)]
              : vlinks.transfer_time_fast(soa_.data_out[cls], prev, v_s);
  return d_in + dp + d_out;
}

template <bool kTables>
double ScoreKernel::single_lane_total(int c, std::size_t len,
                                      Arena& arena) const {
  const auto& vlinks = scenario_->vlinks();
  const std::size_t v = num_nodes_;
  const std::size_t v2 = v * v;
  const auto cls = static_cast<std::size_t>(c);
  const auto begin = static_cast<std::size_t>(soa_.chain_offset[cls]);
  const auto first_edge = static_cast<std::size_t>(soa_.edge_offset[cls]);
  const NodeId v_s = (*arena.layers[0])[0];

  std::size_t max_width = 1;
  for (std::size_t pos = 1; pos < len; ++pos) {
    max_width = std::max(max_width, arena.layers[pos]->size());
  }
  if (arena.dp.size() < max_width) arena.dp.resize(max_width);
  if (arena.next.size() < max_width) arena.next.resize(max_width);
  double* dp = arena.dp.data();
  double* nxt = arena.next.data();

  dp[0] = compute_[static_cast<std::size_t>(soa_.chain[begin]) * v +
                   static_cast<std::size_t>(v_s)];
  for (std::size_t pos = 1; pos < len; ++pos) {
    const std::vector<NodeId>& prev = *arena.layers[pos - 1];
    const std::vector<NodeId>& cur = *arena.layers[pos];
    const double data = soa_.edge_data[first_edge + pos - 1];
    const double* compute_row =
        &compute_[static_cast<std::size_t>(soa_.chain[begin + pos]) * v];
    const double* edge_table =
        kTables ? &edge_delay_[(first_edge + pos - 1) * v2] : nullptr;
    // Candidate-outer/predecessor-inner with p == 0 writing directly and
    // p > 0 doing the branchless strict-< select — batch_dp's loop with the
    // lane dimension collapsed, so every value matches it bitwise.
    for (std::size_t ci = 0; ci < cur.size(); ++ci) {
      const NodeId k = cur[ci];
      const double compute = compute_row[static_cast<std::size_t>(k)];
      for (std::size_t p = 0; p < prev.size(); ++p) {
        const double transfer =
            kTables ? edge_table[static_cast<std::size_t>(prev[p]) * v +
                                 static_cast<std::size_t>(k)]
                    : vlinks.transfer_time_fast(data, prev[p], k);
        const double cand = dp[p] + transfer + compute;
        if (p == 0) {
          nxt[ci] = cand;
        } else {
          nxt[ci] = cand < nxt[ci] ? cand : nxt[ci];
        }
      }
    }
    std::swap(dp, nxt);
  }

  // Terminal scan of the single lane: batch_dp's lane-outer loop with one
  // iteration (same d_in skip, same strict-< candidate argmin).
  const double d_in =
      kTables
          ? din_[cls * v + static_cast<std::size_t>(v_s)]
          : vlinks.transfer_time_fast(soa_.data_in[cls], soa_.attach[cls], v_s);
  if (d_in == kInf) return kInf;
  const std::vector<NodeId>& last = *arena.layers[len - 1];
  double best = kInf;
  for (std::size_t ci = 0; ci < last.size(); ++ci) {
    const double lane = dp[ci];
    if (lane == kInf) continue;
    const double d_out =
        kTables ? dout_[cls * v2 + static_cast<std::size_t>(last[ci]) * v +
                        static_cast<std::size_t>(v_s)]
                : vlinks.transfer_time_fast(soa_.data_out[cls], last[ci], v_s);
    const double total = d_in + lane + d_out;
    if (total < best) best = total;
  }
  return best;
}

void ScoreKernel::reset_cost_memo(Arena& arena) const {
  arena.memo.resize(memo_slots_ * memo_stride_);
  for (std::size_t slot = 0; slot < memo_slots_; ++slot) {
    arena.memo[slot * memo_stride_] = kEmptySlot;
  }
  arena.probe.resize(memo_stride_);
  arena.memo_owner = build_id_;
}

double ScoreKernel::class_cost(int c, Arena& arena, KernelStats& stats) const {
  ++stats.costs;
  const std::size_t len = soa_.chain_length(c);
  std::size_t max_pair = 1;
  if (!gather_layers(c, len, arena, stats, max_pair)) return kInf;
  if (arena.memo_owner != build_id_) reset_cost_memo(arena);

  // The key: the class id plus the node mask of every chain position,
  // packed back to back at V bits each. The layers, and with them the DP
  // variant and every operand, are a function of that key, so a stored
  // total is exactly what the DP would return.
  const auto begin = static_cast<std::size_t>(
      soa_.chain_offset[static_cast<std::size_t>(c)]);
  const std::size_t words = (len * num_nodes_ + 63) / 64;
  std::uint64_t* probe = arena.probe.data();
  std::fill(probe, probe + words, 0);
  std::size_t bit = 0;
  for (std::size_t pos = 0; pos < len; ++pos) {
    const std::uint64_t* mask =
        &arena.ms_mask[static_cast<std::size_t>(soa_.chain[begin + pos]) *
                       mask_words_];
    for (std::size_t w = 0; w < mask_words_; ++w) {
      const std::size_t width = std::min<std::size_t>(64, num_nodes_ - 64 * w);
      const std::size_t shift = bit % 64;
      probe[bit / 64] |= mask[w] << shift;
      if (shift + width > 64) probe[bit / 64 + 1] |= mask[w] >> (64 - shift);
      bit += width;
    }
  }
  std::uint64_t hash = (static_cast<std::uint64_t>(c) + 1) * kHashMultiplier;
  for (std::size_t w = 0; w < words; ++w) {
    hash = (hash ^ probe[w]) * kHashMultiplier;
  }
  hash = (hash ^ (hash >> 32)) * kHashMultiplier;

  // Two-way buckets, most recently used way first: two keys that hash to
  // one bucket no longer evict each other on every alternation.
  const auto c_word = static_cast<std::uint64_t>(c);
  std::uint64_t* front =
      arena.memo.data() + (hash >> memo_shift_) * 2 * memo_stride_;
  std::uint64_t* back = front + memo_stride_;
  for (std::uint64_t* slot : {front, back}) {
    if (slot[0] == c_word && std::equal(probe, probe + words, slot + 2)) {
      ++stats.cost_memo_hits;
      stats.lanes += static_cast<std::int64_t>(arena.layers[0]->size());
      const double total = std::bit_cast<double>(slot[1]);
      if (slot == back) std::swap_ranges(front, back, back);
      return total;
    }
  }
  const double total = dp_total(c, len, max_pair, arena, stats);
  std::copy(front, back, back);
  front[0] = c_word;
  front[1] = std::bit_cast<std::uint64_t>(total);
  std::copy(probe, probe + words, front + 2);
  return total;
}

double ScoreKernel::dp_total(int c, std::size_t len, std::size_t max_pair,
                             Arena& arena, KernelStats& stats) const {
  if (arena.layers[0]->size() == 1) {
    stats.lanes += 1;
    if (max_pair == 1) {
      // Every layer is a singleton: one value per table stripe, always
      // cheaper to divide.
      return singleton_total<false>(c, len, arena);
    }
    return use_tables_ && max_pair >= kTableStripeReads
               ? single_lane_total<true>(c, len, arena)
               : single_lane_total<false>(c, len, arena);
  }
  return (use_tables_ && max_pair >= kTableStripeReads
              ? batch_dp<true>(c, len, arena, stats)
              : batch_dp<false>(c, len, arena, stats))
      .total;
}

bool ScoreKernel::class_route(int c, Arena& arena, KernelStats& stats,
                              RouteResult& out) const {
  ++stats.costs;
  const std::size_t len = soa_.chain_length(c);
  std::size_t max_pair = 1;
  if (!gather_layers(c, len, arena, stats, max_pair)) return false;
  if (arena.layers[0]->size() == 1 && max_pair == 1) {
    stats.lanes += 1;
    const double total = singleton_total<false>(c, len, arena);
    // The one-candidate terminal scan keeps a best iff its total is finite,
    // so +inf here is exactly the legacy unroutable verdict.
    if (total == kInf) return false;
    if (arena.route.size() < len) arena.route.resize(len);
    for (std::size_t pos = 0; pos < len; ++pos) {
      arena.route[pos] = (*arena.layers[pos])[0];
    }
    fill_breakdown<false>(c, len, arena, out);
    return true;
  }
  if (use_tables_ && max_pair >= kTableStripeReads) {
    // The batch DP just walked the same stripes, so the reconstruction's
    // table reads stay cache-hot.
    const BatchBest best = batch_dp<true>(c, len, arena, stats);
    if (best.total == kInf) return false;
    rebuild_route<true>(c, len, best, arena, out);
  } else {
    const BatchBest best = batch_dp<false>(c, len, arena, stats);
    if (best.total == kInf) return false;
    rebuild_route<false>(c, len, best, arena, out);
  }
  return true;
}

template <bool kTables>
void ScoreKernel::rebuild_route(int c, std::size_t len, const BatchBest& best,
                                Arena& arena, RouteResult& out) const {
  // Re-run the winning conditioning with back-pointers, replicating the
  // legacy single-conditioning DP verbatim (same skip rules, same strict-<
  // first-argmin back-pointer choice), then recompute the breakdown from the
  // chosen nodes exactly as ChainRouter::route does. Off the hot path: only
  // refresh/route_all reconstruct, candidate scoring never does. The delay
  // tables hold exactly the values transfer_time would return (they are
  // filled by calling it), so reading them here keeps the bits.
  const auto& vlinks = scenario_->vlinks();
  const std::size_t v = num_nodes_;
  const std::size_t v2 = v * v;
  const auto begin = static_cast<std::size_t>(
      soa_.chain_offset[static_cast<std::size_t>(c)]);
  const auto first_edge = static_cast<std::size_t>(
      soa_.edge_offset[static_cast<std::size_t>(c)]);
  const std::vector<NodeId>& first = *arena.layers[0];

  auto& dp = arena.dp1;
  auto& nxt = arena.next1;
  if (arena.back.size() < len * v) arena.back.resize(len * v);
  dp.assign(first.size(), kInf);
  dp[best.s] = compute_[static_cast<std::size_t>(soa_.chain[begin]) * v +
                        static_cast<std::size_t>(first[best.s])];
  for (std::size_t pos = 1; pos < len; ++pos) {
    const std::vector<NodeId>& prev = *arena.layers[pos - 1];
    const std::vector<NodeId>& cur = *arena.layers[pos];
    const double data = soa_.edge_data[first_edge + pos - 1];
    const double* compute_row =
        &compute_[static_cast<std::size_t>(soa_.chain[begin + pos]) * v];
    const double* edge_table =
        kTables ? &edge_delay_[(first_edge + pos - 1) * v2] : nullptr;
    std::int32_t* back = &arena.back[pos * v];
    nxt.assign(cur.size(), kInf);
    for (std::size_t ci = 0; ci < cur.size(); ++ci) {
      back[ci] = -1;
      const double compute = compute_row[static_cast<std::size_t>(cur[ci])];
      for (std::size_t p = 0; p < prev.size(); ++p) {
        if (dp[p] == kInf) continue;
        const double transfer =
            kTables ? edge_table[static_cast<std::size_t>(prev[p]) * v +
                                 static_cast<std::size_t>(cur[ci])]
                    : vlinks.transfer_time_fast(data, prev[p], cur[ci]);
        const double cand = dp[p] + transfer + compute;
        if (cand < nxt[ci]) {
          nxt[ci] = cand;
          back[ci] = static_cast<std::int32_t>(p);
        }
      }
    }
    dp.swap(nxt);
  }

  if (arena.route.size() < len) arena.route.resize(len);
  std::size_t cursor = best.c;
  for (std::size_t pos = len; pos-- > 0;) {
    arena.route[pos] = (*arena.layers[pos])[cursor];
    if (pos > 0) {
      cursor = static_cast<std::size_t>(arena.back[pos * v + cursor]);
    }
  }

  fill_breakdown<kTables>(c, len, arena, out);
}

template <bool kTables>
void ScoreKernel::fill_breakdown(int c, std::size_t len, Arena& arena,
                                 RouteResult& out) const {
  const auto& vlinks = scenario_->vlinks();
  const std::size_t v = num_nodes_;
  const std::size_t v2 = v * v;
  const auto cls = static_cast<std::size_t>(c);
  const auto begin = static_cast<std::size_t>(soa_.chain_offset[cls]);
  const auto first_edge = static_cast<std::size_t>(soa_.edge_offset[cls]);

  out.nodes.assign(arena.route.begin(),
                   arena.route.begin() + static_cast<long>(len));
  out.d_in =
      kTables
          ? din_[cls * v + static_cast<std::size_t>(out.nodes.front())]
          : vlinks.transfer_time_fast(soa_.data_in[cls], soa_.attach[cls],
                                 out.nodes.front());
  out.compute = 0.0;
  out.transfer = 0.0;
  for (std::size_t pos = 0; pos < len; ++pos) {
    out.compute += compute_[static_cast<std::size_t>(soa_.chain[begin + pos]) *
                                v +
                            static_cast<std::size_t>(out.nodes[pos])];
    if (pos > 0) {
      out.transfer +=
          kTables
              ? edge_delay_[(first_edge + pos - 1) * v2 +
                            static_cast<std::size_t>(out.nodes[pos - 1]) * v +
                            static_cast<std::size_t>(out.nodes[pos])]
              : vlinks.transfer_time_fast(soa_.edge_data[first_edge + pos - 1],
                                     out.nodes[pos - 1], out.nodes[pos]);
    }
  }
  out.d_out =
      kTables
          ? dout_[cls * v2 +
                  static_cast<std::size_t>(out.nodes.back()) * v +
                  static_cast<std::size_t>(out.nodes.front())]
          : vlinks.transfer_time_fast(soa_.data_out[cls], out.nodes.back(),
                                 out.nodes.front());
}

}  // namespace socl::core
