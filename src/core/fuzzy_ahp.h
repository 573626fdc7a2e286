// Fuzzy Analytic Hierarchy Process (FuzzyAHP) used by Algorithm 5 to rank
// the importance ρ of keeping a microservice instance on a node.
//
// Criteria weights come from a triangular-fuzzy pairwise comparison matrix
// defuzzified with Buckley's geometric-mean method; alternatives are scored
// by the weighted sum of min-max normalised criterion values (cost criteria
// are inverted so that "higher score = more important to keep").
#pragma once

#include <cstddef>
#include <vector>

namespace socl::core {

/// Triangular fuzzy number (l <= m <= u).
struct TriFuzzy {
  double l = 1.0;
  double m = 1.0;
  double u = 1.0;

  TriFuzzy reciprocal() const { return {1.0 / u, 1.0 / m, 1.0 / l}; }
  /// Centroid defuzzification.
  double crisp() const { return (l + m + u) / 3.0; }
};

/// Linguistic scale helpers (Saaty-style fuzzy scale).
TriFuzzy fuzzy_equal();         // (1, 1, 1)
TriFuzzy fuzzy_moderate();      // (2, 3, 4): row moderately more important
TriFuzzy fuzzy_strong();        // (4, 5, 6)

/// Buckley geometric-mean weights of a square fuzzy comparison matrix.
/// The returned crisp weights sum to 1. Throws on non-square input.
std::vector<double> buckley_weights(
    const std::vector<std::vector<TriFuzzy>>& comparison);

enum class CriterionKind { kBenefit, kCost };

/// Scores alternatives (rows of `values`) against weighted criteria.
/// Each criterion column is min-max normalised; cost criteria inverted.
/// Returns one score per alternative in [0, 1].
std::vector<double> fuzzy_ahp_scores(
    const std::vector<std::vector<double>>& values,
    const std::vector<double>& weights,
    const std::vector<CriterionKind>& kinds);

}  // namespace socl::core
