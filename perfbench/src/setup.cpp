#include "perfbench/src/setup.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "src/core/bootstrap.hpp"
#include "src/core/pedestrian_detector.hpp"
#include "src/dataset/builder.hpp"
#include "src/score/backend.hpp"

namespace perfbench {
namespace {

Model trained(std::uint64_t seed, int positives, int negatives,
              bool bootstrap) {
  pdet::core::PedestrianDetector detector;
  const pdet::dataset::WindowSet windows =
      pdet::dataset::make_window_set(seed, positives, negatives);
  detector.train(windows);
  if (bootstrap) {
    pdet::core::BootstrapOptions options;
    options.negative_scenes = 4;
    options.max_hard_negatives = 250;
    pdet::core::bootstrap_hard_negatives(detector, windows, options);
  }
  return Model{detector.config().hog, detector.model()};
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

Model street_model() { return trained(5150, 300, 600, false); }
Model fleet_model() { return trained(616, 250, 500, false); }
Model uhd_model() { return trained(616, 250, 500, true); }

void add_provenance(Result& result, const RunArgs& args,
                    std::uint64_t inputs_hash) {
  auto& p = result.provenance;
  p.emplace_back("workload", args.workload);
  p.emplace_back("seed", std::to_string(args.seed));
  p.emplace_back("inputs_hash", hex64(inputs_hash));
  p.emplace_back("score_backend",
                 pdet::score::to_string(
                     pdet::score::resolve(pdet::score::BackendKind::kAuto)));
  p.emplace_back("cpu", cpu_model());
  p.emplace_back("nproc", std::to_string(std::thread::hardware_concurrency()));
  p.emplace_back("compiler", PERFBENCH_COMPILER);
  p.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
  p.emplace_back("commit", args.commit);
  p.emplace_back("env_cleared", args.env_cleared);
}

void parallel_for(int count, int threads, const std::function<void(int)>& fn) {
  std::atomic<int> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (int i = next++; i < count; i = next++) fn(i);
    });
  }
  for (std::thread& th : pool) th.join();
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
