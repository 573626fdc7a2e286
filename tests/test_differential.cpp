// Differential fuzzing of heuristic vs exact vs MIP (DESIGN.md §4f).
// Deterministic: a failure prints the offending seed; reproduce it with
// `fuzz_differential --seed N --verbose` (EXPERIMENTS.md).
#include "validate/differential.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

namespace socl::validate {
namespace {

int fuzz_cases_from_env(int fallback) {
  if (const char* env = std::getenv("SOCL_FUZZ_CASES")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return fallback;
}

TEST(DifferentialFuzz, SeededScenariosAgreeAcrossSolvers) {
  FuzzOptions options;
  options.cases = fuzz_cases_from_env(200);
  options.exact_time_limit_s = 5.0;
  options.mip_time_limit_s = 5.0;
  const FuzzSummary summary = run_differential_fuzz(options);
  EXPECT_EQ(summary.cases_run, options.cases);
  EXPECT_TRUE(summary.ok()) << summary.summary();
  // The generator must actually exercise the cross-solver legs, not just
  // produce degenerate instances that skip them.
  EXPECT_GT(summary.mip_checked, 0) << summary.summary();
  EXPECT_LT(summary.exact_skipped, summary.cases_run) << summary.summary();
}

// The kernel lane (DESIGN.md §4h): on every seeded instance the SoA
// scoring kernel's class costs, routes and breakdowns — on the solved
// placement and on random ones, unroutable classes included — and the
// kernel-scored engine's objectives must be bit-identical to their
// ChainRouter oracle, including after a chain-shrinking workload mutation
// against warmed arenas.
TEST(DifferentialFuzz, KernelLaneBitIdenticalToChainRouter) {
  FuzzOptions options;
  options.cases = fuzz_cases_from_env(200);
  const FuzzSummary summary = run_kernel_differential_fuzz(options);
  EXPECT_EQ(summary.cases_run, options.cases);
  EXPECT_TRUE(summary.ok()) << summary.summary();
}

TEST(DifferentialFuzz, CaseIsDeterministicInSeed) {
  const FuzzOptions options;
  const CaseResult a = run_differential_case(42, options);
  const CaseResult b = run_differential_case(42, options);
  EXPECT_EQ(a.description, b.description);
  EXPECT_EQ(a.heuristic_objective, b.heuristic_objective);
  EXPECT_EQ(a.exact_objective, b.exact_objective);
  EXPECT_EQ(a.agreed, b.agreed);
}

TEST(DifferentialFuzz, GeneratorCoversDeclaredShapes) {
  std::set<std::string> shapes;
  bool saw_geometric = false, saw_disconnected = false;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const FuzzCase fuzz_case = make_fuzz_case(seed);
    shapes.insert(fuzz_case.description);
    saw_geometric |=
        fuzz_case.description.find("geometric") != std::string::npos;
    saw_disconnected |=
        fuzz_case.description.find("disconnected") != std::string::npos;
    EXPECT_LE(fuzz_case.scenario->num_nodes(), 6);
    EXPECT_LE(fuzz_case.scenario->num_microservices(), 5);
  }
  EXPECT_TRUE(saw_geometric);
  EXPECT_TRUE(saw_disconnected);
  EXPECT_GT(shapes.size(), 50u);  // descriptions are effectively unique
}

TEST(DifferentialFuzz, GeneratorProducesRepeatedMicroserviceChains) {
  bool saw_repeat = false;
  for (std::uint64_t seed = 1; seed <= 60 && !saw_repeat; ++seed) {
    const FuzzCase fuzz_case = make_fuzz_case(seed);
    for (const auto& request : fuzz_case.scenario->requests()) {
      std::set<workload::MsId> unique(request.chain.begin(),
                                      request.chain.end());
      if (unique.size() < request.chain.size()) saw_repeat = true;
    }
  }
  EXPECT_TRUE(saw_repeat);
}

}  // namespace
}  // namespace socl::validate
