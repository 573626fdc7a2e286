#include "core/fuzzy_ahp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace socl::core {

TriFuzzy fuzzy_equal() { return {1.0, 1.0, 1.0}; }
TriFuzzy fuzzy_moderate() { return {2.0, 3.0, 4.0}; }
TriFuzzy fuzzy_strong() { return {4.0, 5.0, 6.0}; }

std::vector<double> buckley_weights(
    const std::vector<std::vector<TriFuzzy>>& comparison) {
  const std::size_t n = comparison.size();
  if (n == 0) throw std::invalid_argument("buckley_weights: empty matrix");
  for (const auto& row : comparison) {
    if (row.size() != n) {
      throw std::invalid_argument("buckley_weights: non-square matrix");
    }
  }
  // Fuzzy geometric mean per row: r_i = (Π_j a_ij)^{1/n}, component-wise.
  std::vector<TriFuzzy> geo(n);
  for (std::size_t i = 0; i < n; ++i) {
    double pl = 1.0, pm = 1.0, pu = 1.0;
    for (std::size_t j = 0; j < n; ++j) {
      pl *= comparison[i][j].l;
      pm *= comparison[i][j].m;
      pu *= comparison[i][j].u;
    }
    const double inv_n = 1.0 / static_cast<double>(n);
    geo[i] = {std::pow(pl, inv_n), std::pow(pm, inv_n), std::pow(pu, inv_n)};
  }
  // Fuzzy weights w_i = r_i ⊗ (Σ r)^{-1}; note the l/u swap in the inverse.
  double sum_l = 0.0, sum_m = 0.0, sum_u = 0.0;
  for (const auto& g : geo) {
    sum_l += g.l;
    sum_m += g.m;
    sum_u += g.u;
  }
  std::vector<double> weights(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const TriFuzzy w{geo[i].l / sum_u, geo[i].m / sum_m, geo[i].u / sum_l};
    weights[i] = w.crisp();
    total += weights[i];
  }
  for (auto& w : weights) w /= total;
  return weights;
}

std::vector<double> fuzzy_ahp_scores(
    const std::vector<std::vector<double>>& values,
    const std::vector<double>& weights,
    const std::vector<CriterionKind>& kinds) {
  if (weights.size() != kinds.size()) {
    throw std::invalid_argument("fuzzy_ahp_scores: weights/kinds mismatch");
  }
  const std::size_t criteria = weights.size();
  for (const auto& row : values) {
    if (row.size() != criteria) {
      throw std::invalid_argument("fuzzy_ahp_scores: row width mismatch");
    }
  }
  const std::size_t n = values.size();
  std::vector<double> scores(n, 0.0);
  if (n == 0) return scores;

  for (std::size_t c = 0; c < criteria; ++c) {
    double lo = values[0][c], hi = values[0][c];
    for (std::size_t i = 1; i < n; ++i) {
      lo = std::min(lo, values[i][c]);
      hi = std::max(hi, values[i][c]);
    }
    const double span = hi - lo;
    for (std::size_t i = 0; i < n; ++i) {
      double normalised =
          span <= 0.0 ? 0.5 : (values[i][c] - lo) / span;
      if (kinds[c] == CriterionKind::kCost) normalised = 1.0 - normalised;
      scores[i] += weights[c] * normalised;
    }
  }
  return scores;
}

}  // namespace socl::core
