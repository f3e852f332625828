// One run's result: what the workload measured and checked, printed as a
// human-readable block followed by the single JSON line the harness reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;  ///< observations behind the value
  std::string note;         ///< e.g. which percentile a tail is
};

/// Attempted and failed operations of one phase of a workload.
struct Phase {
  std::string name;
  long long attempted = 0;
  long long failed = 0;
  std::string detail;
};

struct Result {
  std::string workload;
  bool trace = false;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> check_failures;  ///< empty = outputs correct
  std::vector<Phase> phases;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::pair<std::string, std::string>> provenance;
  std::vector<std::string> reference;  ///< printed, never a metric

  bool correct() const { return check_failures.empty(); }
  void fail(std::string why) { check_failures.push_back(std::move(why)); }
  void e2e(std::string name, std::string unit, double value,
           std::size_t samples, std::string note = {});
  void layer(std::string name, std::string unit, double value,
             std::size_t samples, std::string note = {});
};

/// The end-to-end metrics every workload derives the same way: p50 and the
/// workload's fixed tail of `latency_ms` (a tail the sample cannot support
/// fails an untraced run), the median set-up, and the memory the system
/// under test added (peak RSS minus the RSS after input generation).
void add_latency_setup_memory(Result& result,
                              const std::vector<double>& latency_ms,
                              double tail_pct, const std::string& what,
                              const std::vector<double>& setup_s,
                              std::size_t peak_rss, std::size_t baseline_rss);

/// Frames per second of busy time in a closed loop.
double closed_loop_fps(const std::vector<double>& latency_ms);

/// Names (and units) of the metrics a run reports: every end-to-end metric
/// untraced, every per-layer metric traced. BENCHMARK.json lists the same.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Fill per-layer metrics the workload does not exercise with 0 (noted
/// "n/a") so every traced run reports the full list, and flag any metric
/// the workload reported that is not in the list.
void complete_layers(Result& result);

/// Print the report and, last, the JSON line. Returns the process exit
/// code: 0 when the outputs are correct, 2 when a check failed.
int emit(Result& result);

}  // namespace perfbench
