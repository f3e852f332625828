#include "perfbench/src/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "perfbench/src/stats.hpp"
#include "src/util/strings.hpp"

namespace perfbench {
namespace {

using NameList = std::vector<std::pair<std::string, std::string>>;

NameList make_per_layer() {
  NameList l = {
      {"imgproc.gradient_ms", "ms"},
      {"imgproc.gradient_ns_px", "ns"},
      {"hog.histogram_ms", "ms"},
      {"hog.block_norm_ms", "ms"},
      {"hog.feature_scale_ms", "ms"},
      {"hog.gather_ms", "ms"},
      {"score.score_ms", "ms"},
      {"score.windows", "count"},
      {"score.batches", "count"},
      {"score.batch_fill", "ratio"},
      {"detect.nms_ms", "ms"},
      {"detect.engine_ms", "ms"},
      {"detect.engine_other_ms", "ms"},
      {"detect.workspace_mb", "MB"},
      {"detect.tracker_ms", "ms"},
      {"guard.gate_ms", "ms"},
      {"runtime.queue_wait_ms_p50", "ms"},
      {"runtime.queue_wait_ms_p90", "ms"},
      {"runtime.engine_ms", "ms"},
      {"runtime.deliver_ms", "ms"},
  };
  for (const char* phase : {"nominal", "overload"}) {
    for (const char* count :
         {"ok", "degraded", "dropped_queue", "dropped_deadline", "errors"}) {
      l.emplace_back(std::string("runtime.") + phase + "." + count, "count");
    }
    l.emplace_back(std::string("runtime.") + phase + ".ok_share", "ratio");
  }
  const NameList rest = {
      {"net.client_submit_ms", "ms"},
      {"net.service_send_ms", "ms"},
      {"net.codec_ms", "ms"},
      {"util.crc32_mb_s", "MB/s"},
      {"net.results_missed", "count"},
      {"fleet.wire_router_ms", "ms"},
      {"fleet.shard0.frames_forwarded", "count"},
      {"fleet.shard1.frames_forwarded", "count"},
      {"fleet.shard_skew", "ratio"},
      {"tile.frame_ms", "ms"},
      {"tile.fresh_share", "ratio"},
      {"tile.tile_ms_p50", "ms"},
      {"tile.slowest_tile_ms", "ms"},
      {"tile.parallel_efficiency", "ratio"},
      {"tile.roi_select_ms", "ms"},
      {"tile.max_age", "frames"},
      {"gen.late_ms_p95", "ms"},
      {"trace.overhead_pct", "%"},
  };
  l.insert(l.end(), rest.begin(), rest.end());
  return l;
}

bool listed(const NameList& list, const std::string& name) {
  return std::any_of(list.begin(), list.end(),
                     [&](const auto& e) { return e.first == name; });
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.4f %-6s n=%-6zu %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.c_str());
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void Result::e2e(std::string name, std::string unit, double value,
                 std::size_t samples, std::string note) {
  end_to_end.push_back(Metric{std::move(name), std::move(unit), value,
                              samples, std::move(note)});
}

void Result::layer(std::string name, std::string unit, double value,
                   std::size_t samples, std::string note) {
  per_layer.push_back(Metric{std::move(name), std::move(unit), value, samples,
                             std::move(note)});
}

void add_latency_setup_memory(Result& result,
                              const std::vector<double>& latency_ms,
                              double tail_pct, const std::string& what,
                              const std::vector<double>& setup_s,
                              std::size_t peak_rss, std::size_t baseline_rss) {
  const std::size_t n = latency_ms.size();
  result.e2e("latency_ms_p50", "ms", median(latency_ms), n, what);
  const auto tail_ms = tail(latency_ms, tail_pct);
  if (!tail_ms && !result.trace) {
    result.fail(pdet::util::format("too few samples for the p%.0f tail",
                                   tail_pct));
  }
  result.e2e("latency_ms_tail", "ms", tail_ms.value_or(0.0), n,
             pdet::util::format("p%.0f %s, %zu beyond", tail_pct,
                                what.c_str(), samples_beyond(n, tail_pct)));
  result.e2e("setup_s", "s", median(setup_s), setup_s.size(),
             "median of set-ups");
  result.e2e("mem_mb", "MB",
             static_cast<double>(peak_rss - std::min(peak_rss, baseline_rss)) /
                 1e6,
             1, "peak RSS minus RSS after input generation");
}

double closed_loop_fps(const std::vector<double>& latency_ms) {
  double busy_ms = 0.0;
  for (const double ms : latency_ms) busy_ms += ms;
  return busy_ms > 0.0 ? 1e3 * static_cast<double>(latency_ms.size()) / busy_ms
                       : 0.0;
}

const NameList& end_to_end_metrics() {
  static const NameList list = {{"fps", "1/s"},
                                {"latency_ms_p50", "ms"},
                                {"latency_ms_tail", "ms"},
                                {"setup_s", "s"},
                                {"mem_mb", "MB"}};
  return list;
}

const NameList& per_layer_metrics() {
  static const NameList list = make_per_layer();
  return list;
}

void complete_layers(Result& result) {
  for (const Metric& m : result.per_layer) {
    if (!listed(per_layer_metrics(), m.name)) {
      result.fail("unlisted per-layer metric " + m.name);
    }
  }
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it =
        std::find_if(result.per_layer.begin(), result.per_layer.end(),
                     [&](const Metric& m) { return m.name == name; });
    if (it != result.per_layer.end()) {
      ordered.push_back(*it);
    } else {
      ordered.push_back(Metric{name, unit, 0.0, 0, "n/a: layer idle here"});
    }
  }
  result.per_layer = std::move(ordered);
}

int emit(Result& result) {
  if (result.attempted < 1) result.fail("no operation was attempted");
  const NameList& want =
      result.trace ? per_layer_metrics() : end_to_end_metrics();
  std::vector<Metric>& have = result.trace ? result.per_layer
                                           : result.end_to_end;
  for (const auto& [name, unit] : want) {
    const auto it = std::find_if(have.begin(), have.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it == have.end()) {
      result.fail("metric " + name + " was not measured");
      have.push_back(Metric{name, unit, 0.0, 0, "missing"});
    } else if (!std::isfinite(it->value)) {
      result.fail("metric " + name + " is not finite");
      it->value = 0.0;
    }
  }

  std::printf("\n== perfbench %s (%s run) ==\n", result.workload.c_str(),
              result.trace ? "traced" : "untraced");
  for (const auto& [key, value] : result.provenance) {
    std::printf("  %-16s %s\n", key.c_str(), value.c_str());
  }
  for (const Phase& p : result.phases) {
    std::printf("  phase %-10s attempted %lld failed %lld %s\n",
                p.name.c_str(), p.attempted, p.failed, p.detail.c_str());
  }
  if (result.trace) {
    print_metrics("per-layer:", result.per_layer);
  } else {
    print_metrics("end-to-end:", result.end_to_end);
  }
  for (const std::string& line : result.reference) {
    std::printf("  reference: %s\n", line.c_str());
  }
  const std::size_t shown = std::min<std::size_t>(result.check_failures.size(), 10);
  for (std::size_t i = 0; i < shown; ++i) {
    std::printf("  CHECK FAILED: %s\n", result.check_failures[i].c_str());
  }
  if (result.check_failures.size() > shown) {
    std::printf("  ... and %zu more failed checks\n",
                result.check_failures.size() - shown);
  }

  std::string prov = "{";
  for (const auto& [key, value] : result.provenance) {
    if (prov.size() > 1) prov += ", ";
    prov += "\"" + json_escape(key) + "\": \"" + json_escape(value) + "\"";
  }
  prov += "}";
  std::printf("provenance %s\n", prov.c_str());

  std::string metrics = "{";
  for (const auto& [name, unit] : want) {
    const auto it = std::find_if(have.begin(), have.end(),
                                 [&](const Metric& m) { return m.name == name; });
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", it->value);
    if (metrics.size() > 1) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
               unit + "\"}";
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              result.correct() ? "true" : "false",
              std::max(result.attempted, 1LL), result.failed,
              metrics.c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 2;
}

}  // namespace perfbench
