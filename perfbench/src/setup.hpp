// What every workload shares: run arguments, model preparation (part of
// each workload's set-up time), provenance, and small parallel helpers for
// input generation.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "perfbench/src/report.hpp"
#include "src/hog/params.hpp"
#include "src/svm/linear_svm.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string commit = "unknown";    ///< source revision, from run.py
  std::string env_cleared = "none";  ///< overrides run.py removed
};

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 3;

/// Hard cap on a run's measuring time, whatever the minimum sample count
/// asks for, so a run always ends within the harness's limit.
inline constexpr double kMaxMeasureSeconds = 120.0;

struct Model {
  pdet::hog::HogParams hog;
  pdet::svm::LinearModel svm;
};

/// multiscale_street's detector: 300 positive / 600 negative windows.
Model street_model();
/// das_fleet's serving model: 250 / 500 windows.
Model fleet_model();
/// das_uhd's detector: 250 / 500 windows plus one hard-negative pass.
Model uhd_model();

/// Provenance every result carries: host, build, source revision, the
/// resolved score backend, the seed and the generated inputs' hash.
void add_provenance(Result& result, const RunArgs& args,
                    std::uint64_t inputs_hash);

/// Run fn(0..count-1) on up to `threads` threads (input generation only).
void parallel_for(int count, int threads, const std::function<void(int)>& fn);

/// Workload-specific seed stream derived from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
