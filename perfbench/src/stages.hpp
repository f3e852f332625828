// Per-layer timing from outside the program: replays one frame's detection
// chain stage by stage through the layers' public functions, with a timer
// around each call, the way DetectionEngine::process composes them for the
// kFeature pyramid:
//
//   imgproc::compute_gradients_into      -> imgproc.gradient
//   hog::compute_cell_grid_into          -> hog.histogram (minus gradient)
//   hog::downscale_cell_grid_into        -> hog.feature_scale
//   hog::normalize_cells_into            -> hog.block_norm
//   hog::extract_window into ScoreBatch  -> hog.gather
//   score::ScoringBackend::score         -> score.score
//   detect::nms_into                     -> detect.nms
//
// The replay's boxes are compared with the engine's, so a replay that has
// drifted from what the engine does is caught rather than timed. Pinned to
// the scalar scorer, the same replay is the output checks' reference: a
// scalar path composed from the stage functions alone, independent of how
// the engine orchestrates them.
#pragma once

#include <memory>
#include <vector>

#include "src/detect/multiscale.hpp"
#include "src/hog/block_grid.hpp"
#include "src/hog/cell_grid.hpp"
#include "src/imgproc/gradient.hpp"
#include "src/score/backend.hpp"

namespace perfbench {

/// Stage times (ms) and counts, summed over the frames replayed.
struct StageTotals {
  double gradient_ms = 0.0;
  double cell_grid_ms = 0.0;  ///< gradient + histogram, as the engine calls it
  double feature_scale_ms = 0.0;
  double block_norm_ms = 0.0;
  double gather_ms = 0.0;
  double score_ms = 0.0;
  double nms_ms = 0.0;
  long long pixels = 0;
  long long windows = 0;
  long long batches = 0;
  double batch_capacity = 0.0;  ///< summed capacity of the batches scored

  double histogram_ms() const { return cell_grid_ms - gradient_ms; }
  /// Sum of the stage rows (gradient counted once).
  double replayed_ms() const {
    return cell_grid_ms + feature_scale_ms + block_norm_ms + gather_ms +
           score_ms + nms_ms;
  }
};

class StageReplay {
 public:
  /// Scores through `kind` (kAuto: what the engine's default resolves to).
  explicit StageReplay(
      pdet::score::BackendKind kind = pdet::score::BackendKind::kAuto);

  /// Replay the engine's kFeature chain on `frame`, adding stage times to
  /// `totals`. Returns the post-NMS boxes (raw boxes when run_nms is off).
  const std::vector<pdet::detect::Detection>& run(
      const pdet::imgproc::ImageF& frame, const pdet::hog::HogParams& params,
      const pdet::svm::LinearModel& model,
      const pdet::detect::MultiscaleOptions& options, StageTotals& totals);

 private:
  struct Level {
    pdet::hog::CellGrid cells;
    pdet::hog::BlockGrid blocks;
  };

  std::unique_ptr<pdet::score::ScoringBackend> backend_;
  pdet::imgproc::GradientField grad_;
  pdet::hog::CellGrid base_cells_;
  std::vector<Level> levels_;
  std::vector<float> block_scratch_;
  pdet::score::ScoreBatch batch_;
  std::vector<pdet::detect::Detection> raw_;
  std::vector<pdet::detect::Detection> nms_scratch_;
  std::vector<pdet::detect::Detection> out_;
};

}  // namespace perfbench
