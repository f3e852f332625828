// The benchmark's workloads (README.md says why each exists).
#pragma once

#include "perfbench/src/report.hpp"
#include "perfbench/src/setup.hpp"

namespace perfbench {

Result run_frame_1080p(const RunArgs& args);
Result run_cameras_fleet(const RunArgs& args);
Result run_uhd_roi(const RunArgs& args);

}  // namespace perfbench
