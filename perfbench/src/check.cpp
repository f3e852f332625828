#include "perfbench/src/check.hpp"

#include <cmath>
#include <cstdio>

namespace perfbench {

bool same_boxes(std::span<const pdet::detect::Detection> got,
                std::span<const pdet::detect::Detection> want,
                std::string* why) {
  char buf[256];
  if (got.size() != want.size()) {
    std::snprintf(buf, sizeof buf, "%zu boxes, reference has %zu",
                  got.size(), want.size());
    if (why != nullptr) *why = buf;
    return false;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto& g = got[i];
    const auto& w = want[i];
    const bool box = g.x == w.x && g.y == w.y && g.width == w.width &&
                     g.height == w.height && g.scale == w.scale;
    const bool score = std::fabs(g.score - w.score) <= kScoreTolerance;
    if (!box || !score) {
      std::snprintf(buf, sizeof buf,
                    "box %zu is (%d,%d %dx%d s%.3f %.4f), reference "
                    "(%d,%d %dx%d s%.3f %.4f)",
                    i, g.x, g.y, g.width, g.height, g.scale,
                    static_cast<double>(g.score), w.x, w.y, w.width,
                    w.height, w.scale, static_cast<double>(w.score));
      if (why != nullptr) *why = buf;
      return false;
    }
  }
  return true;
}

bool DeliveryLog::on_result(std::uint64_t tag) {
  if (have_last_ && tag <= last_) {
    violated_ = true;
    return false;
  }
  skipped_ += have_last_ ? tag - last_ - 1 : tag;
  have_last_ = true;
  last_ = tag;
  ++received_;
  return true;
}

std::uint64_t DeliveryLog::unanswered(std::uint64_t submitted) const {
  const std::uint64_t covered = have_last_ ? last_ + 1 : 0;
  return submitted > covered ? submitted - covered : 0;
}

}  // namespace perfbench
