#include "perfbench/src/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sched.h>
#include <unistd.h>

namespace perfbench {

std::size_t samples_beyond(std::size_t n, double pct) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(static_cast<double>(n) * pct / 100.0 - 1e-9));
  return n > rank ? n - rank : 0;
}

std::size_t samples_needed(double pct) {
  std::size_t n = kMinBeyond;
  while (samples_beyond(n, pct) < kMinBeyond) ++n;
  return n;
}

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = pct / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::optional<double> tail(const std::vector<double>& values, double pct) {
  if (samples_beyond(values.size(), pct) < kMinBeyond) return std::nullopt;
  return percentile(values, pct);
}

OpenLoopSchedule::OpenLoopSchedule(Clock::time_point start, double rate_hz,
                                   double offset_s)
    : start_(start), rate_hz_(rate_hz), offset_s_(offset_s) {}

Clock::time_point OpenLoopSchedule::due(std::int64_t index) const {
  const double s = offset_s_ + static_cast<double>(index) / rate_hz_;
  return start_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(s));
}

std::int64_t OpenLoopSchedule::frames_before(Clock::time_point end) const {
  const double window =
      std::chrono::duration<double>(end - start_).count() - offset_s_;
  if (window <= 0.0) return 0;
  return static_cast<std::int64_t>(std::ceil(window * rate_hz_ - 1e-9));
}

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t all;
  CPU_ZERO(&all);
  for (const int cpu : cpus_) CPU_SET(cpu, &all);
  sched_setaffinity(0, sizeof all, &all);
}

void CpuRotation::step() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_], &one);
  sched_setaffinity(0, sizeof one, &one);
  next_ = (next_ + 1) % cpus_.size();
}

std::size_t current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages_total = 0;
  std::size_t pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return pages_resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

RssSampler::RssSampler() {
  peak_ = current_rss_bytes();
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_acquire)) {
      const std::size_t rss = current_rss_bytes();
      if (rss > peak_.load(std::memory_order_relaxed)) peak_ = rss;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
}

RssSampler::~RssSampler() { stop(); }

std::size_t RssSampler::stop() {
  if (thread_.joinable()) {
    stop_ = true;
    thread_.join();
    const std::size_t rss = current_rss_bytes();
    if (rss > peak_.load()) peak_ = rss;
  }
  return peak_.load();
}

void InputHash::add(std::span<const std::uint8_t> bytes) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, 8);
    h_ = (h_ ^ word) * kPrime;
  }
  for (; i < bytes.size(); ++i) h_ = (h_ ^ bytes[i]) * kPrime;
}

}  // namespace perfbench
