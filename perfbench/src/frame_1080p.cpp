// frame_1080p: the paper's frame format through one warm DetectionEngine.
//
// Closed loop, one client, one thread. Distinct seeded 1920x1080 street
// frames are cycled through DetectionEngine::process with the
// multiscale_street ladder (scales 1.0/1.4/2.0, kFeature) and the engine's
// default options, so the imgproc/hog/score chain does nearly all the work.
#include <algorithm>
#include <memory>
#include <vector>

#include "perfbench/src/check.hpp"
#include "perfbench/src/stages.hpp"
#include "perfbench/src/stats.hpp"
#include "perfbench/src/workloads.hpp"
#include "src/dataset/multistream.hpp"
#include "src/detect/engine.hpp"
#include "src/hwsim/timing.hpp"
#include "src/util/strings.hpp"

namespace perfbench {
namespace {

using pdet::detect::Detection;

constexpr int kDistinctFrames = 8;
constexpr double kTailPct = 75.0;
/// Every frame does the same work, so the spread of frame times is the
/// host's: on a shared 4-core VM the speed of an identical frame drifts
/// 360-550 ms over tens of seconds, differently on each CPU. The loop steps
/// across CPUs (CpuRotation) and runs at least this many frames to average
/// that drift.
constexpr std::size_t kMinFrames = 60;
constexpr int kTraceFrames = 8;

pdet::detect::MultiscaleOptions street_ladder() {
  pdet::detect::MultiscaleOptions options;
  options.scales = {1.0, 1.4, 2.0};
  options.strategy = pdet::detect::PyramidStrategy::kFeature;
  options.scan.threshold = -0.1f;
  return options;
}

/// The paper's fixed-function budget for the same frame: extractor at one
/// pixel per cycle, classifier sweeps for its two scales, at 125 MHz.
void add_hwsim_reference(Result& result) {
  const pdet::hwsim::TimingModel model(
      pdet::hwsim::timing_config_for_frame(1920, 1080));
  const double hz = model.config().clock_hz;
  const double extractor_ms =
      1e3 * static_cast<double>(model.extractor_frame_cycles()) / hz;
  const double classifier_ms =
      1e3 *
      static_cast<double>(model.classifier_frame_cycles_at_scale(1.0) +
                          model.classifier_frame_cycles_at_scale(2.0)) /
      hz;
  result.reference.push_back(pdet::util::format(
      "hwsim 1920x1080 two scales @125 MHz: extractor %.3f ms (beside "
      "imgproc+hog rows), classifier %.3f ms (beside gather+score rows), "
      "frame latency %.3f ms",
      extractor_ms, classifier_ms, model.frame_latency_ms()));
}

}  // namespace

Result run_frame_1080p(const RunArgs& args) {
  Result result;
  result.workload = args.workload;
  result.trace = args.trace;
  const pdet::detect::MultiscaleOptions options = street_ladder();

  // Inputs: the MultiStreamSource world rendered at 2x its 960x540 base.
  pdet::dataset::MultiStreamOptions source_options;
  source_options.scene.width = 960;
  source_options.scene.height = 540;
  source_options.scene.camera.focal_px = 1000.0;
  source_options.min_pedestrians = 1;
  source_options.max_pedestrians = 3;
  source_options.render_scale = 2.0;
  const pdet::dataset::MultiStreamSource source(mix_seed(args.seed, 1080),
                                                source_options);
  std::vector<pdet::imgproc::ImageF> frames(kDistinctFrames);
  parallel_for(kDistinctFrames, 4,
               [&](int k) { frames[static_cast<std::size_t>(k)] =
                                source.frame(0, k).image; });
  InputHash hash;
  for (const auto& f : frames) {
    if (f.width() != 1920 || f.height() != 1080) {
      result.fail("generated frame is not 1920x1080");
    }
    hash.add_values(f.pixels());
  }
  add_provenance(result, args, hash.value());

  // Set-up: model preparation, engine construction and one warm-up frame.
  const std::size_t baseline_rss = current_rss_bytes();
  RssSampler sampler;
  std::vector<double> setup_s;
  Model model;
  std::unique_ptr<pdet::detect::DetectionEngine> engine;
  for (int r = 0; r < kSetupRepeats; ++r) {
    engine.reset();
    const auto t0 = Clock::now();
    model = street_model();
    engine = std::make_unique<pdet::detect::DetectionEngine>();
    engine->process(frames[0], model.hog, model.svm, options);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }

  // Measured loop.
  const std::size_t min_frames =
      args.trace ? static_cast<std::size_t>(kTraceFrames)
                 : std::max(kMinFrames, samples_needed(kTailPct));
  const double seconds = args.trace ? 0.0 : args.seconds;
  std::vector<double> latency_ms;
  std::vector<std::vector<Detection>> outputs;
  {
    CpuRotation rotation;  // restores the CPU mask when the loop ends
    const auto start = Clock::now();
    for (std::size_t i = 0;; ++i) {
      const double elapsed = ms_between(start, Clock::now()) / 1e3;
      if ((i >= min_frames && elapsed >= seconds) ||
          elapsed >= kMaxMeasureSeconds) {
        break;
      }
      const auto& frame = frames[i % kDistinctFrames];
      rotation.step();
      const auto t0 = Clock::now();
      const auto& res = engine->process(frame, model.hog, model.svm, options);
      const auto t1 = Clock::now();
      latency_ms.push_back(ms_between(t0, t1));
      outputs.push_back(res.detections);
    }
  }
  const std::size_t peak_rss = sampler.stop();

  // Traced phase: the same engine call, then the stage replay beside it.
  StageTotals stages;
  std::vector<double> traced_ms;
  if (args.trace) {
    StageReplay replay;
    for (int j = 0; j < kTraceFrames; ++j) {
      const auto& frame = frames[static_cast<std::size_t>(j % kDistinctFrames)];
      const auto t0 = Clock::now();
      const auto& res = engine->process(frame, model.hog, model.svm, options);
      traced_ms.push_back(ms_between(t0, Clock::now()));
      const std::vector<Detection> engine_boxes = res.detections;
      const auto& replayed =
          replay.run(frame, model.hog, model.svm, options, stages);
      std::string why;
      if (!same_boxes(replayed, engine_boxes, &why)) {
        result.fail("stage replay diverged from the engine: " + why);
      }
    }
  }

  // Output check against the scalar reference path, outside all timing.
  std::vector<std::vector<Detection>> reference(kDistinctFrames);
  parallel_for(kDistinctFrames, 4, [&](int k) {
    StageReplay scalar(pdet::score::BackendKind::kScalar);
    StageTotals unused;
    reference[static_cast<std::size_t>(k)] = scalar.run(
        frames[static_cast<std::size_t>(k)], model.hog, model.svm, options,
        unused);
  });
  long long failed = 0;
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    std::string why;
    if (!same_boxes(outputs[i], reference[i % kDistinctFrames], &why)) {
      if (failed == 0) {
        result.fail(pdet::util::format("frame %zu: %s", i, why.c_str()));
      }
      ++failed;
    }
  }
  result.attempted = static_cast<long long>(outputs.size());
  result.failed = failed;
  result.phases.push_back(Phase{"closed", result.attempted, failed,
                                "one warm engine, frames cycled"});

  result.e2e("fps", "1/s", closed_loop_fps(latency_ms), latency_ms.size());
  add_latency_setup_memory(result, latency_ms, kTailPct, "per call", setup_s,
                           peak_rss, baseline_rss);

  if (args.trace) {
    const double frames_traced = static_cast<double>(traced_ms.size());
    const double engine_ms = mean(traced_ms);
    const double per = 1.0 / frames_traced;
    result.layer("imgproc.gradient_ms", "ms", stages.gradient_ms * per,
                 traced_ms.size());
    result.layer("imgproc.gradient_ns_px", "ns",
                 1e6 * stages.gradient_ms / static_cast<double>(stages.pixels),
                 traced_ms.size());
    result.layer("hog.histogram_ms", "ms", stages.histogram_ms() * per,
                 traced_ms.size(), "cell grid minus gradient");
    result.layer("hog.block_norm_ms", "ms", stages.block_norm_ms * per,
                 traced_ms.size());
    result.layer("hog.feature_scale_ms", "ms", stages.feature_scale_ms * per,
                 traced_ms.size());
    result.layer("hog.gather_ms", "ms", stages.gather_ms * per,
                 traced_ms.size());
    result.layer("score.score_ms", "ms", stages.score_ms * per,
                 traced_ms.size());
    result.layer("score.windows", "count",
                 static_cast<double>(stages.windows) * per, traced_ms.size(),
                 "per frame");
    result.layer("score.batches", "count",
                 static_cast<double>(stages.batches) * per, traced_ms.size(),
                 "per frame");
    result.layer("score.batch_fill", "ratio",
                 static_cast<double>(stages.windows) / stages.batch_capacity,
                 static_cast<std::size_t>(stages.batches));
    result.layer("detect.nms_ms", "ms", stages.nms_ms * per,
                 traced_ms.size());
    result.layer("detect.engine_ms", "ms", engine_ms, traced_ms.size(),
                 "traced engine frame");
    result.layer("detect.engine_other_ms", "ms",
                 engine_ms - stages.replayed_ms() * per, traced_ms.size(),
                 "engine frame minus replayed stages");
    result.layer("detect.workspace_mb", "MB",
                 static_cast<double>(engine->stats().alloc_bytes) / 1e6, 1);
    result.layer("trace.overhead_pct", "%",
                 100.0 * (median(traced_ms) / median(latency_ms) - 1.0),
                 traced_ms.size(), "traced vs untraced engine p50");
    add_hwsim_reference(result);
  }
  complete_layers(result);
  return result;
}

}  // namespace perfbench
