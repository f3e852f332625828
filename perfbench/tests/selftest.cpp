// Tests of the benchmark's own helpers and checks:
//
//   python3 perfbench/run.py --selftest
//
// The output checks are fed perturbed results and must reject them, so a
// passing benchmark run means the gate was able to fail.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/src/check.hpp"
#include "perfbench/src/stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void test_percentiles() {
  using namespace perfbench;
  expect(samples_needed(50.0) == 20, "median needs 20 samples");
  expect(samples_needed(75.0) == 40, "p75 needs 40 samples");
  expect(samples_needed(90.0) == 100, "p90 needs 100 samples");
  expect(samples_needed(99.0) == 1000, "p99 needs 1000 samples");
  expect(samples_beyond(100, 90.0) == 10, "10 of 100 lie beyond p90");
  expect(samples_beyond(99, 90.0) == 9 && samples_beyond(99, 75.0) == 24,
         "99 samples support p75, not p90");
  expect(!tail(ramp(99), 90.0).has_value(), "p90 of 99 samples is refused");
  const auto p90 = tail(ramp(100), 90.0);
  expect(p90.has_value() && *p90 > 90.0 && *p90 < 91.0, "p90 of 1..100");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of three");
  expect(median({4.0, 1.0, 2.0, 3.0}) == 2.5, "median interpolates");
}

void test_open_loop() {
  using namespace perfbench;
  const auto t0 = Clock::time_point{} + std::chrono::seconds(100);
  const OpenLoopSchedule s(t0, 4.0, 0.125);
  expect(ms_between(t0, s.due(0)) == 125.0, "first frame due at the offset");
  expect(ms_between(t0, s.due(2)) == 625.0, "frames due every 1/rate");
  expect(s.frames_before(t0 + std::chrono::seconds(1)) == 4,
         "four frames due in the first second");
  expect(s.frames_before(t0 + std::chrono::milliseconds(125)) == 0,
         "the window end is exclusive");
  // Latency runs from the due time: a frame sent 30 ms late and answered
  // 50 ms after sending took 80 ms.
  const auto due = s.due(1);
  const auto sent = due + std::chrono::milliseconds(30);
  expect(lateness_ms(due, sent) == 30.0, "lateness is send minus due");
  expect(lateness_ms(sent, due) == 0.0, "an early send is not late");
  expect(ms_between(due, sent + std::chrono::milliseconds(50)) == 80.0,
         "latency counts the generator's delay");
}

void test_box_check() {
  using perfbench::same_boxes;
  using pdet::detect::Detection;
  std::vector<Detection> want(2);
  want[0] = Detection{16, 24, 64, 128, 0.75f, 1.0};
  want[1] = Detection{160, 40, 90, 179, 0.25f, 1.4};
  std::string why;
  expect(same_boxes(want, want, &why), "identical boxes pass");

  auto shifted = want;
  shifted[1].x += 1;
  expect(!same_boxes(shifted, want, &why), "a box moved by 1 px fails");
  auto rescaled = want;
  rescaled[0].scale = 2.0;
  expect(!same_boxes(rescaled, want, &why), "a box from another level fails");
  auto rescored = want;
  rescored[0].score += 0.01f;
  expect(!same_boxes(rescored, want, &why), "a score off by 0.01 fails");
  auto ulp = want;
  ulp[0].score += 1e-6f;
  expect(same_boxes(ulp, want, &why), "a score within tolerance passes");
  auto missing = want;
  missing.pop_back();
  expect(!same_boxes(missing, want, &why), "a missing box fails");
  auto swapped = std::vector<Detection>{want[1], want[0]};
  expect(!same_boxes(swapped, want, &why), "boxes out of order fail");
}

void test_delivery() {
  perfbench::DeliveryLog log;
  expect(log.on_result(0) && log.on_result(1) && log.on_result(3),
         "increasing tags are accepted");
  expect(log.skipped() == 1, "a skipped tag is counted as shed");
  expect(log.unanswered(6) == 2, "tags past the last result are unanswered");
  expect(!log.on_result(3), "a repeated tag is a violation");
  expect(log.violated(), "the violation sticks");
  perfbench::DeliveryLog reorder;
  reorder.on_result(2);
  expect(!reorder.on_result(1), "a tag going backwards is a violation");
}

void test_hash() {
  const std::vector<float> a = {0.25f, 0.5f, 0.75f};
  std::vector<float> b = a;
  perfbench::InputHash ha, hb;
  ha.add_values(std::span<const float>(a));
  hb.add_values(std::span<const float>(b));
  expect(ha.value() == hb.value(), "equal inputs hash equal");
  b[2] = 0.7500001f;
  perfbench::InputHash hc;
  hc.add_values(std::span<const float>(b));
  expect(ha.value() != hc.value(), "a changed pixel changes the hash");
}

}  // namespace

int main() {
  test_percentiles();
  test_open_loop();
  test_box_check();
  test_delivery();
  test_hash();
  std::printf("%s: %d failure%s\n", failures == 0 ? "PASS" : "FAIL", failures,
              failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}
