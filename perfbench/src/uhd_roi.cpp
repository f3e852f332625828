// uhd_roi: a 3840x2160 approach through the tiled engine with ROI scheduling.
//
// Closed loop, one stream, four tile lanes, with the das_uhd defaults: a 4x4
// tile plan, the RoiScheduler at deadline rung 2 (forced tiles only: hot,
// stale, one cold per frame), a tracker feeding the scheduler, and the
// 1.0/1.26/1.59/2.0 ladder. After one full warm-up pass most tiles are
// served from their caches, and the slowest lane sets each frame's time.
//
// The approach is rendered once as a short sequence and played forward and
// back, so a run of any length sees smooth motion without holding more than
// kDistinctFrames UHD frames (stored 8-bit, expanded to float before each
// frame's timer starts).
#include <algorithm>
#include <memory>
#include <vector>

#include "perfbench/src/check.hpp"
#include "perfbench/src/stages.hpp"
#include "perfbench/src/stats.hpp"
#include "perfbench/src/workloads.hpp"
#include "src/dataset/scene.hpp"
#include "src/detect/engine.hpp"
#include "src/detect/tracker.hpp"
#include "src/imgproc/convert.hpp"
#include "src/tile/engine.hpp"
#include "src/tile/roi.hpp"
#include "src/util/strings.hpp"

namespace perfbench {
namespace {

using pdet::detect::Detection;

constexpr int kDistinctFrames = 10;
constexpr int kLanes = 4;
constexpr int kRung = 2;
constexpr double kTailPct = 75.0;
constexpr std::size_t kCheckedFrames = 8;  ///< replayed through the reference
constexpr int kTraceFrames = 6;

pdet::detect::MultiscaleOptions uhd_ladder() {
  pdet::detect::MultiscaleOptions options;
  options.scales = {1.0, 1.26, 1.59, 2.0};
  options.scan.threshold = -0.15f;
  return options;
}

/// Sequence position of run frame i: 0, 1, .., K-1, K-2, .., 1, 0, 1, ..
int pingpong(std::size_t i) {
  const std::size_t period = 2 * kDistinctFrames - 2;
  const std::size_t p = i % period;
  return static_cast<int>(p < kDistinctFrames ? p : period - p);
}

struct Inputs {
  std::vector<pdet::imgproc::ImageU8> frames;
  std::vector<pdet::dataset::GroundTruthBox> truth;
};

Inputs render_inputs(std::uint64_t seed) {
  pdet::dataset::ApproachOptions options;
  options.scene.width = 3840;
  options.scene.height = 2160;
  options.scene.camera.focal_px = 7000.0;
  options.start_distance_m = 90.0;
  options.closing_speed_mps = 54.0 / 3.6;
  options.fps = 10.0;
  options.min_distance_m = 45.0;
  // Chunks of the sequence render in parallel; each chunk is the same
  // static world (same seed) starting further along the approach.
  constexpr int kChunk = 3;
  const double step_m = options.closing_speed_mps / options.fps;
  Inputs in;
  in.frames.resize(kDistinctFrames);
  in.truth.resize(kDistinctFrames);
  const int chunks = (kDistinctFrames + kChunk - 1) / kChunk;
  parallel_for(chunks, 2, [&](int c) {
    pdet::dataset::ApproachOptions o = options;
    o.start_distance_m = options.start_distance_m - c * kChunk * step_m;
    o.frames = std::min(kChunk, kDistinctFrames - c * kChunk);
    const auto scenes = pdet::dataset::render_approach_sequence(seed, o);
    for (std::size_t k = 0; k < scenes.size(); ++k) {
      const std::size_t f = static_cast<std::size_t>(c * kChunk) + k;
      in.frames[f] = pdet::imgproc::to_u8(scenes[k].image);
      in.truth[f] = scenes[k].truth.front();
    }
  });
  return in;
}

void expand(const pdet::imgproc::ImageU8& src, pdet::imgproc::ImageF& dst) {
  dst.reset(src.width(), src.height());
  const auto in = src.pixels();
  const auto out = dst.pixels();
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = static_cast<float>(in[i]) / 255.0f;
  }
}

/// The per-frame pipeline das_uhd runs: predict, plan, detect, track.
struct Pipeline {
  pdet::tile::TileEngine engine;
  pdet::tile::RoiScheduler roi;
  pdet::detect::Tracker tracker;
  std::vector<Detection> predicted;
  std::vector<int> selection;

  explicit Pipeline(pdet::tile::TileEngineOptions options)
      : engine(std::move(options)) {}
};

pdet::tile::TileEngineOptions lane_options() {
  pdet::tile::TileEngineOptions options;
  options.threads = kLanes;
  return options;
}

struct FrameRecord {
  int position = 0;  ///< index into the distinct frames
  std::vector<int> selection;
  std::vector<Detection> detections;
  int max_age = 0;
  int fresh = 0;
  bool hot_stale = false;  ///< a tile a prediction touched was not fresh
  bool truth_tracked = false;
  bool truth_fresh = false;
};

}  // namespace

Result run_uhd_roi(const RunArgs& args) {
  Result result;
  result.workload = args.workload;
  result.trace = args.trace;
  const pdet::detect::MultiscaleOptions options = uhd_ladder();
  const pdet::tile::RoiOptions roi_options;

  const Inputs inputs = render_inputs(mix_seed(args.seed, 2160));
  InputHash hash;
  for (const auto& f : inputs.frames) hash.add_values(f.pixels());
  add_provenance(result, args, hash.value());
  pdet::imgproc::ImageF frame;

  const std::size_t baseline_rss = current_rss_bytes();
  RssSampler sampler;
  std::vector<double> setup_s;
  Model model;
  std::unique_ptr<Pipeline> pipe;
  for (int r = 0; r < kSetupRepeats; ++r) {
    pipe.reset();
    expand(inputs.frames[0], frame);
    const auto t0 = Clock::now();
    model = uhd_model();
    pipe = std::make_unique<Pipeline>(lane_options());
    // Warm-up: one full pass builds the plan and fills every tile cache.
    const auto& res = pipe->engine.process(frame, model.hog, model.svm, options);
    pipe->tracker.update(res.detections);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  const int tiles = pipe->engine.plan().tile_count();
  const int budget = pdet::tile::RoiScheduler::rung_budget(tiles, kRung);

  std::vector<FrameRecord> records;
  std::vector<double> latency_ms;
  auto run_frame = [&](std::size_t i, double* select_ms, double* detect_ms,
                       double* track_ms) {
    FrameRecord rec;
    rec.position = pingpong(i);
    expand(inputs.frames[static_cast<std::size_t>(rec.position)], frame);
    Pipeline& p = *pipe;
    const auto t0 = Clock::now();
    p.tracker.predict_boxes(1, p.predicted);
    p.roi.plan_frame(p.engine.plan(), p.engine.ages(), p.predicted, budget,
                     p.selection);
    const auto t1 = Clock::now();
    const auto& res =
        p.engine.process(frame, model.hog, model.svm, options, &p.selection);
    const auto t2 = Clock::now();
    p.tracker.update(res.detections);
    const auto t3 = Clock::now();
    latency_ms.push_back(ms_between(t0, t3));
    if (select_ms != nullptr) {
      *select_ms = ms_between(t0, t1);
      *detect_ms = ms_between(t1, t2);
      *track_ms = ms_between(t2, t3);
    }
    rec.selection = p.selection;
    rec.detections = res.detections;
    rec.max_age = res.max_age;
    rec.fresh = res.tiles_detected;
    // Scheduler contract: every tile a prediction touches ran fresh.
    for (int t = 0; t < tiles; ++t) {
      if (p.roi.is_hot(p.engine.plan(), t, p.predicted) &&
          !std::binary_search(rec.selection.begin(), rec.selection.end(), t)) {
        rec.hot_stale = true;
      }
    }
    // The pedestrian's own tile, whenever the tracker is following it.
    const auto& truth = inputs.truth[static_cast<std::size_t>(rec.position)];
    Detection truth_box;
    truth_box.x = truth.x;
    truth_box.y = truth.y;
    truth_box.width = truth.width;
    truth_box.height = truth.height;
    for (const Detection& d : p.predicted) {
      if (pdet::detect::iou(d, truth_box) > 0.3) rec.truth_tracked = true;
    }
    if (rec.truth_tracked) {
      const auto& plan = p.engine.plan();
      const int owner = plan.owner_of(
          std::clamp(truth.x + truth.width / 2, 0, plan.frame_width() - 1),
          std::clamp(truth.y + truth.height / 2, 0, plan.frame_height() - 1));
      rec.truth_fresh = std::binary_search(rec.selection.begin(),
                                           rec.selection.end(), owner);
    }
    records.push_back(std::move(rec));
  };

  const std::size_t min_frames =
      args.trace ? static_cast<std::size_t>(kTraceFrames)
                 : samples_needed(kTailPct);
  const double seconds = args.trace ? 0.0 : args.seconds;
  const auto start = Clock::now();
  for (std::size_t i = 1;; ++i) {
    const double elapsed = ms_between(start, Clock::now()) / 1e3;
    if ((records.size() >= min_frames && elapsed >= seconds) ||
        elapsed >= kMaxMeasureSeconds) {
      break;
    }
    run_frame(i, nullptr, nullptr, nullptr);
  }
  const std::size_t untraced_frames = records.size();
  const std::vector<double> untraced_ms = latency_ms;
  const std::size_t peak_rss = sampler.stop();

  // Traced phase: the pipeline's own steps timed apart, then every fresh
  // tile's crop timed alone through one warm engine (the tiles are near
  // equal in size, so one workspace fits them all) and replayed stage by
  // stage.
  StageTotals stages;
  std::vector<double> select_ms, detect_ms, track_ms, tile_ms, slowest_ms,
      tile_engine_ms, merge_nms_ms;
  if (args.trace) {
    StageReplay replay;
    pdet::detect::DetectionEngine tile_engine;
    pdet::detect::MultiscaleOptions tile_options = options;
    tile_options.run_nms = false;
    pdet::imgproc::ImageF crop;
    const auto& plan = pipe->engine.plan();
    for (int j = 0; j < kTraceFrames; ++j) {
      double s = 0.0, d = 0.0, t = 0.0;
      run_frame(untraced_frames + 1 + static_cast<std::size_t>(j), &s, &d, &t);
      select_ms.push_back(s);
      detect_ms.push_back(d);
      track_ms.push_back(t);
      // The cross-tile merge's NMS, replayed on the engine's own raw boxes.
      const std::vector<Detection> raw = pipe->engine.last_result().raw;
      std::vector<Detection> scratch, kept;
      const auto n0 = Clock::now();
      pdet::detect::nms_into(raw, options.nms_iou, scratch, kept);
      merge_nms_ms.push_back(ms_between(n0, Clock::now()));
      double slowest = 0.0, frame_tiles_ms = 0.0;
      for (const int index : records.back().selection) {
        const auto& g = plan.tile(index);
        frame.crop_into(g.x, g.y, g.w, g.h, crop);
        if (tile_engine.stats().frames == 0) {
          tile_engine.process(crop, model.hog, model.svm, tile_options);
        }
        const auto t0 = Clock::now();
        const auto& res =
            tile_engine.process(crop, model.hog, model.svm, tile_options);
        const double ms = ms_between(t0, Clock::now());
        tile_ms.push_back(ms);
        slowest = std::max(slowest, ms);
        frame_tiles_ms += ms;
        const std::vector<Detection> engine_raw = res.raw;
        const auto& replayed =
            replay.run(crop, model.hog, model.svm, tile_options, stages);
        std::string why;
        if (!same_boxes(replayed, engine_raw, &why)) {
          result.fail("stage replay diverged on a tile: " + why);
        }
      }
      slowest_ms.push_back(slowest);
      tile_engine_ms.push_back(frame_tiles_ms);
    }
  }

  // Output checks, outside all timing: staleness and hot tiles on every
  // frame, and the first frames' boxes against the scalar reference.
  std::vector<bool> bad(records.size(), false);
  auto fail_frame = [&](std::size_t i, const std::string& why) {
    result.fail(pdet::util::format("frame %zu: %s", i, why.c_str()));
    bad[i] = true;
  };
  int tracked = 0, truth_fresh = 0, fresh_total = 0, max_age = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const FrameRecord& rec = records[i];
    max_age = std::max(max_age, rec.max_age);
    fresh_total += rec.fresh;
    if (rec.max_age > roi_options.max_age) {
      fail_frame(i, pdet::util::format("tile age %d > bound %d", rec.max_age,
                                       roi_options.max_age));
    }
    if (rec.hot_stale) fail_frame(i, "a hot tile was not fresh");
    if (rec.truth_tracked) {
      ++tracked;
      if (rec.truth_fresh) {
        ++truth_fresh;
      } else {
        fail_frame(i, "the pedestrian's tile was not fresh");
      }
    }
  }
  {
    // Reference: each fresh tile's crop through the scalar stage replay,
    // kept where its anchor lies in the tile's core, cached otherwise, and
    // merged by one NMS, the way TileEngine composes tiles.
    const auto& plan = pipe->engine.plan();
    pdet::detect::MultiscaleOptions tile_options = options;
    tile_options.run_nms = false;
    std::vector<std::vector<Detection>> owned(static_cast<std::size_t>(tiles));
    auto refresh = [&](const std::vector<int>& selection) {
      parallel_for(static_cast<int>(selection.size()), 4, [&](int j) {
        const auto& g = plan.tile(selection[static_cast<std::size_t>(j)]);
        const pdet::imgproc::ImageF crop = frame.crop(g.x, g.y, g.w, g.h);
        StageReplay scalar(pdet::score::BackendKind::kScalar);
        StageTotals unused;
        auto& out = owned[static_cast<std::size_t>(g.index)];
        out.clear();
        for (Detection d :
             scalar.run(crop, model.hog, model.svm, tile_options, unused)) {
          d.x += g.x;
          d.y += g.y;
          if (d.x >= g.core_x && d.x < g.core_x + g.core_w &&
              d.y >= g.core_y && d.y < g.core_y + g.core_h) {
            out.push_back(d);
          }
        }
      });
    };
    std::vector<int> all(static_cast<std::size_t>(tiles));
    for (int t = 0; t < tiles; ++t) all[static_cast<std::size_t>(t)] = t;
    expand(inputs.frames[0], frame);
    refresh(all);
    const std::size_t n = std::min(kCheckedFrames, records.size());
    std::vector<Detection> merged, scratch, want;
    for (std::size_t i = 0; i < n; ++i) {
      expand(inputs.frames[static_cast<std::size_t>(records[i].position)],
             frame);
      refresh(records[i].selection);
      merged.clear();
      for (const auto& o : owned) merged.insert(merged.end(), o.begin(), o.end());
      pdet::detect::nms_into(merged, options.nms_iou, scratch, want);
      std::string why;
      if (!same_boxes(records[i].detections, want, &why)) fail_frame(i, why);
    }
    result.phases.push_back(Phase{"reference", static_cast<long long>(n), 0,
                                  "frames recomposed from scalar tile replays"});
  }
  const auto failed = static_cast<long long>(std::count(bad.begin(), bad.end(), true));
  result.attempted = static_cast<long long>(records.size());
  result.failed = failed;
  result.phases.insert(
      result.phases.begin(),
      Phase{"closed", result.attempted, failed,
            pdet::util::format("ROI rung %d, %d/%d tracked frames had the "
                               "pedestrian's tile fresh",
                               kRung, truth_fresh, tracked)});

  result.e2e("fps", "1/s", closed_loop_fps(untraced_ms), untraced_ms.size());
  add_latency_setup_memory(result, untraced_ms, kTailPct,
                           "predict + plan + detect + track", setup_s,
                           peak_rss, baseline_rss);

  if (args.trace) {
    const std::size_t nt = detect_ms.size();
    const double per = 1.0 / static_cast<double>(nt);
    result.layer("tile.frame_ms", "ms", mean(detect_ms), nt,
                 "TileEngine::process");
    result.layer("tile.fresh_share", "ratio",
                 static_cast<double>(fresh_total) /
                     static_cast<double>(records.size() * tiles),
                 records.size());
    result.layer("tile.tile_ms_p50", "ms", median(tile_ms), tile_ms.size(),
                 "fresh tile alone through a warm engine");
    result.layer("tile.slowest_tile_ms", "ms", median(slowest_ms), nt,
                 "median over frames of the slowest fresh tile");
    double tiles_sum = 0.0, frames_sum = 0.0;
    for (const double ms : tile_ms) tiles_sum += ms;
    for (const double ms : detect_ms) frames_sum += ms;
    result.layer("tile.parallel_efficiency", "ratio",
                 tiles_sum / (kLanes * frames_sum), nt,
                 "sum of fresh tile ms / (lanes x frame ms)");
    result.layer("tile.roi_select_ms", "ms", mean(select_ms), nt,
                 "predict + RoiScheduler::plan_frame");
    result.layer("tile.max_age", "frames", max_age, records.size());
    result.layer("detect.tracker_ms", "ms", mean(track_ms), nt);
    result.layer("detect.nms_ms", "ms", mean(merge_nms_ms), nt,
                 "cross-tile merge NMS");
    result.layer("imgproc.gradient_ms", "ms", stages.gradient_ms * per, nt,
                 "fresh tiles, per frame");
    result.layer("imgproc.gradient_ns_px", "ns",
                 stages.pixels > 0 ? 1e6 * stages.gradient_ms /
                                         static_cast<double>(stages.pixels)
                                   : 0.0,
                 nt);
    result.layer("hog.histogram_ms", "ms", stages.histogram_ms() * per, nt);
    result.layer("hog.block_norm_ms", "ms", stages.block_norm_ms * per, nt);
    result.layer("hog.feature_scale_ms", "ms", stages.feature_scale_ms * per,
                 nt);
    result.layer("hog.gather_ms", "ms", stages.gather_ms * per, nt);
    result.layer("score.score_ms", "ms", stages.score_ms * per, nt);
    result.layer("score.windows", "count",
                 static_cast<double>(stages.windows) * per, nt, "per frame");
    result.layer("score.batches", "count",
                 static_cast<double>(stages.batches) * per, nt, "per frame");
    result.layer("score.batch_fill", "ratio",
                 stages.batch_capacity > 0.0
                     ? static_cast<double>(stages.windows) / stages.batch_capacity
                     : 0.0,
                 static_cast<std::size_t>(stages.batches));
    result.layer("detect.engine_ms", "ms", mean(tile_engine_ms), nt,
                 "fresh tiles' engine time, per frame");
    result.layer("detect.engine_other_ms", "ms",
                 mean(tile_engine_ms) - stages.replayed_ms() * per, nt,
                 "tile engine time minus replayed stages");
    result.layer("detect.workspace_mb", "MB",
                 static_cast<double>(pipe->engine.stats().alloc_bytes) / 1e6,
                 static_cast<std::size_t>(tiles), "all tile engines");
    // Cost per fresh tile, traced frames against untraced ones.
    int traced_fresh = 0, untraced_fresh = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
      (i < untraced_frames ? untraced_fresh : traced_fresh) += records[i].fresh;
    }
    double untraced_sum = 0.0;
    for (const double ms : untraced_ms) untraced_sum += ms;
    double traced_sum = 0.0;
    for (std::size_t j = 0; j < nt; ++j) {
      traced_sum += select_ms[j] + detect_ms[j] + track_ms[j];
    }
    result.layer("trace.overhead_pct", "%",
                 100.0 * ((traced_sum / traced_fresh) /
                              (untraced_sum / untraced_fresh) -
                          1.0),
                 nt, "frame ms per fresh tile, traced vs untraced");
  }
  complete_layers(result);
  return result;
}

}  // namespace perfbench
