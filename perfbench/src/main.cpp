// perfbench: one workload, one seed, one result.
//
//   perfbench --workload frame_1080p|cameras_fleet|uhd_roi --seed N
//             --seconds S --trace 0|1 [--commit REV] [--env-cleared LIST]
//
// run.py builds this binary and runs it with the program's environment
// overrides removed; see README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <malloc.h>
#include <string>

#include "perfbench/src/workloads.hpp"
#include "src/util/logging.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload frame_1080p|cameras_fleet|"
               "uhd_roi --seed N --seconds S --trace 0|1 [--commit REV] "
               "[--env-cleared LIST]\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = value != "0";
      } else if (key == "--commit") {
        args.commit = value;
      } else if (key == "--env-cleared") {
        args.env_cleared = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0.0) return usage();
  pdet::util::set_default_log_level(pdet::util::LogLevel::kWarn);
  // A fixed mmap threshold (glibc otherwise raises it after large frees) so
  // large buffers come from and return to the OS, and mem_mb reads what is
  // live rather than what input generation left in the heap.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);

  try {
    perfbench::Result result;
    if (args.workload == "frame_1080p") {
      result = perfbench::run_frame_1080p(args);
    } else if (args.workload == "cameras_fleet") {
      result = perfbench::run_cameras_fleet(args);
    } else if (args.workload == "uhd_roi") {
      result = perfbench::run_uhd_roi(args);
    } else {
      return usage();
    }
    return perfbench::emit(result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
