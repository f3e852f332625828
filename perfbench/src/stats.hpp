// Sample statistics, open-loop pacing and process probes for the benchmark.
//
// Tails follow one rule: a percentile is reported only when at least
// kMinBeyond samples lie beyond it, so a tail is never read off a handful of
// frames. Workloads fix the percentile they report and size their runs to
// support it; tail() refuses (returns nullopt) when a run came up short.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Samples a tail needs beyond it before it may be reported.
inline constexpr std::size_t kMinBeyond = 10;

/// Samples of `n` that lie beyond the `pct` percentile (nearest rank).
std::size_t samples_beyond(std::size_t n, double pct);

/// Smallest sample count whose `pct` percentile has kMinBeyond beyond it.
std::size_t samples_needed(double pct);

/// Percentile by linear interpolation between closest ranks (no support
/// check; use for medians of small sets and for per-layer summaries).
double percentile(std::vector<double> values, double pct);

double median(std::vector<double> values);
double mean(std::span<const double> values);

/// The `pct` percentile, or nullopt when the sample cannot support it.
std::optional<double> tail(const std::vector<double>& values, double pct);

/// Fixed-rate open-loop schedule: frame i is due at
/// start + offset + i / rate. Latency is measured from the due time, so a
/// stall that delays later sends is charged to every frame it delays.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(Clock::time_point start, double rate_hz, double offset_s);
  Clock::time_point due(std::int64_t index) const;
  /// Frames due strictly before `end` (the phase's submission window).
  std::int64_t frames_before(Clock::time_point end) const;
  double rate_hz() const { return rate_hz_; }

 private:
  Clock::time_point start_;
  double rate_hz_;
  double offset_s_;
};

/// How late the generator sent a frame: send start minus due, never below 0.
inline double lateness_ms(Clock::time_point due, Clock::time_point sent) {
  const double late = ms_between(due, sent);
  return late > 0.0 ? late : 0.0;
}

/// Moves the calling thread to the next CPU of the process's allowed set on
/// each step() and restores the original mask on destruction. On a shared
/// host the contention on each CPU drifts over tens of seconds; a
/// single-threaded loop left on one CPU samples one CPU's luck for the
/// whole run, while stepping before every frame samples all of them, as the
/// multi-threaded workloads do.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void step();

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Resident set size of this process, bytes.
std::size_t current_rss_bytes();

/// Polls the resident set size on its own thread and keeps the peak, so the
/// memory the system under test adds can be read as peak minus a baseline
/// taken before it was built.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stops sampling and returns the peak seen, bytes.
  std::size_t stop();

 private:
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> peak_{0};
  std::thread thread_;
};

/// 64-bit FNV-1a over 8-byte words (tail bytes folded singly): the input
/// fingerprint printed with every result, so equal seeds show equal inputs.
class InputHash {
 public:
  void add(std::span<const std::uint8_t> bytes);
  template <typename T>
  void add_values(std::span<const T> values) {
    add(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(values.data()),
        values.size_bytes()));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
