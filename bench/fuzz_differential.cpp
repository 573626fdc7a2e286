// Standalone driver for the differential fuzz harness (DESIGN.md §4f).
//
// CI runs it across the seed range; on a disagreement it prints the seed and
// the per-invariant diagnosis and exits non-zero. Reproduce a single failure
// with `fuzz_differential --seed N --verbose` (EXPERIMENTS.md "Reproducing a
// fuzz failure").
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "validate/differential.h"

namespace {

void usage(const char* argv0) {
  std::cout
      << "usage: " << argv0 << " [options]\n"
      << "  --cases N        seeds to run (default 200)\n"
      << "  --base-seed N    first seed (default 1)\n"
      << "  --seed N         run exactly one seed (same as --cases 1 "
         "--base-seed N)\n"
      << "  --no-mip         skip the MIP cross-check leg\n"
      << "  --kernel         run the kernel-vs-ChainRouter lane instead\n"
         "                   of the solver cross-checks (DESIGN.md 4h)\n"
      << "  --exact-limit S  exact-solver time limit per case, seconds "
         "(default 10)\n"
      << "  --verbose        print one line per case\n";
}

}  // namespace

int main(int argc, char** argv) {
  socl::validate::FuzzOptions options;
  bool kernel_lane = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--cases") {
      options.cases = std::atoi(next_value("--cases"));
    } else if (arg == "--base-seed") {
      options.base_seed =
          std::strtoull(next_value("--base-seed"), nullptr, 10);
    } else if (arg == "--seed") {
      options.base_seed = std::strtoull(next_value("--seed"), nullptr, 10);
      options.cases = 1;
      options.verbose = true;
    } else if (arg == "--no-mip") {
      options.run_mip = false;
    } else if (arg == "--kernel") {
      kernel_lane = true;
    } else if (arg == "--exact-limit") {
      options.exact_time_limit_s = std::atof(next_value("--exact-limit"));
      options.mip_time_limit_s = options.exact_time_limit_s;
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::cerr << "unknown option " << arg << "\n";
      usage(argv[0]);
      return 2;
    }
  }
  if (options.cases <= 0) {
    std::cerr << "--cases must be positive\n";
    return 2;
  }

  const auto summary =
      kernel_lane ? socl::validate::run_kernel_differential_fuzz(options)
                  : socl::validate::run_differential_fuzz(options);
  std::cout << summary.summary() << "\n";
  if (!summary.ok()) {
    std::cerr << "DIFFERENTIAL FUZZ FAILED: " << summary.disagreements
              << " disagreement(s); rerun a seed with "
              << (kernel_lane ? "--kernel " : "") << "--seed N --verbose\n";
    return 1;
  }
  return 0;
}
