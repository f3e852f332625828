#include "perfbench/src/stages.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "perfbench/src/stats.hpp"
#include "src/hog/descriptor.hpp"
#include "src/hog/feature_scale.hpp"

namespace perfbench {

using pdet::detect::Detection;

StageReplay::StageReplay(pdet::score::BackendKind kind)
    : backend_(pdet::score::make_backend(kind)) {}

const std::vector<Detection>& StageReplay::run(
    const pdet::imgproc::ImageF& frame, const pdet::hog::HogParams& params,
    const pdet::svm::LinearModel& model,
    const pdet::detect::MultiscaleOptions& options, StageTotals& totals) {
  if (options.strategy != pdet::detect::PyramidStrategy::kFeature) {
    throw std::invalid_argument("stage replay covers the kFeature pyramid");
  }
  auto t0 = Clock::now();
  pdet::imgproc::compute_gradients_into(frame, params.gradient_op, grad_);
  auto t1 = Clock::now();
  totals.gradient_ms += ms_between(t0, t1);
  totals.pixels += static_cast<long long>(frame.width()) * frame.height();

  t0 = Clock::now();
  pdet::hog::compute_cell_grid_into(frame, params, grad_, base_cells_);
  t1 = Clock::now();
  totals.cell_grid_ms += ms_between(t0, t1);

  if (levels_.size() < options.scales.size()) {
    levels_.resize(options.scales.size());
  }
  raw_.clear();
  for (std::size_t li = 0; li < options.scales.size(); ++li) {
    const double s = options.scales[li];
    Level& level = levels_[li];
    const pdet::hog::CellGrid* cells = &base_cells_;
    if (s != 1.0) {
      t0 = Clock::now();
      pdet::hog::downscale_cell_grid_into(base_cells_, s,
                                          options.feature_interp, level.cells);
      t1 = Clock::now();
      totals.feature_scale_ms += ms_between(t0, t1);
      cells = &level.cells;
    }
    if (cells->cells_x() < params.cells_per_window_x() ||
        cells->cells_y() < params.cells_per_window_y()) {
      continue;  // the engine drops such a level too
    }
    t0 = Clock::now();
    pdet::hog::normalize_cells_into(*cells, params, block_scratch_,
                                    level.blocks);
    t1 = Clock::now();
    totals.block_norm_ms += ms_between(t0, t1);

    // Gather and score in batches, in the order scan_level_into uses.
    batch_.configure(static_cast<std::size_t>(params.descriptor_size()),
                     pdet::score::kDefaultBatchCapacity);
    const int nx = pdet::hog::window_positions_x(level.blocks, params);
    const int ny = pdet::hog::window_positions_y(level.blocks, params);
    const int stride = options.scan.cell_stride;
    int cx = 0;
    int cy = 0;
    while (nx > 0 && cy < ny) {
      t0 = Clock::now();
      while (cy < ny && !batch_.full()) {
        const std::uint64_t tag =
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy))
             << 32) |
            static_cast<std::uint32_t>(cx);
        pdet::hog::extract_window(level.blocks, params, cx, cy,
                                  batch_.push(tag));
        cx += stride;
        if (cx >= nx) {
          cx = 0;
          cy += stride;
        }
      }
      t1 = Clock::now();
      totals.gather_ms += ms_between(t0, t1);
      backend_->score(model, batch_);
      const auto t2 = Clock::now();
      totals.score_ms += ms_between(t1, t2);
      totals.windows += static_cast<long long>(batch_.size());
      totals.batches += 1;
      totals.batch_capacity += static_cast<double>(batch_.capacity());
      for (std::size_t i = 0; i < batch_.size(); ++i) {
        const float score = batch_.score(i);
        if (score <= options.scan.threshold) continue;
        const std::uint64_t tag = batch_.tag(i);
        Detection d;
        d.x = static_cast<int>(std::lround(
            static_cast<int>(tag & 0xffffffffu) * params.cell_size * s));
        d.y = static_cast<int>(
            std::lround(static_cast<int>(tag >> 32) * params.cell_size * s));
        d.width = static_cast<int>(std::lround(params.window_width * s));
        d.height = static_cast<int>(std::lround(params.window_height * s));
        d.score = score;
        d.scale = s;
        raw_.push_back(d);
      }
      batch_.clear();
    }
  }

  if (!options.run_nms) return raw_;
  t0 = Clock::now();
  pdet::detect::nms_into(raw_, options.nms_iou, nms_scratch_, out_);
  t1 = Clock::now();
  totals.nms_ms += ms_between(t0, t1);
  return out_;
}

}  // namespace perfbench
