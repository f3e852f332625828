// Output checks. Each returns false with a reason the run prints, and each
// has a test in tests/selftest.cpp that feeds it a perturbed result.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "src/detect/detection.hpp"

namespace perfbench {

/// Score tolerance of the box check: boxes must be identical (position,
/// size, pyramid scale); scores may differ by this much, which admits the
/// bounded-ULP batch scorer and nothing a wrong kernel would produce.
inline constexpr float kScoreTolerance = 1e-3f;

/// Identical post-NMS boxes in identical order; scores within tolerance.
bool same_boxes(std::span<const pdet::detect::Detection> got,
                std::span<const pdet::detect::Detection> want,
                std::string* why);

/// Exactly-once, in-order delivery of one camera's results. Tags are the
/// client's per-connection frame numbers 0..submitted-1. A result must
/// carry a tag above every earlier one (a repeat or a step back is a
/// violation); a skipped tag is a frame shed on the way (counted).
class DeliveryLog {
 public:
  /// Record a received result; false (and violated()) on a repeat or
  /// reorder.
  bool on_result(std::uint64_t tag);
  /// After the run: tags never answered, neither received nor skipped
  /// over by a later result (frames still missing at the end).
  std::uint64_t unanswered(std::uint64_t submitted) const;
  std::uint64_t received() const { return received_; }
  std::uint64_t skipped() const { return skipped_; }
  bool violated() const { return violated_; }

 private:
  bool have_last_ = false;
  std::uint64_t last_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t skipped_ = 0;
  bool violated_ = false;
};

}  // namespace perfbench
