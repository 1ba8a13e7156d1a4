#include "sim/lane_profiler.h"

#include <algorithm>

namespace prism::sim {

void LaneProfiler::add_lane_run(int lane, Time begin, Time end,
                                std::uint64_t events, std::uint64_t busy_ns) {
  const auto i = static_cast<std::size_t>(lane);
  if (i >= lanes_.size()) lanes_.resize(i + 1);
  LaneTotals& t = lanes_[i];
  // A lane's runs follow one another, so until the capture has covered
  // any simulated time, it begins where this run does.
  if (t.sim_ns == 0) t.sim_begin = begin;
  t.events += events;
  t.sim_ns += end > begin ? end - begin : 0;
  t.busy_ns += busy_ns;
}

void LaneProfiler::add_worker_run(int worker, std::uint64_t wall_ns,
                                  std::uint64_t busy_ns,
                                  std::uint64_t barrier_wait_ns) {
  const auto i = static_cast<std::size_t>(worker);
  if (i >= workers_.size()) workers_.resize(i + 1);
  WorkerTotals& t = workers_[i];
  t.wall_ns += wall_ns;
  t.busy_ns += busy_ns;
  t.barrier_wait_ns += barrier_wait_ns;
}

namespace {

double max_over_mean(const std::vector<LaneProfiler::LaneTotals>& lanes,
                     std::uint64_t LaneProfiler::LaneTotals::* field) {
  std::uint64_t max = 0;
  std::uint64_t sum = 0;
  std::size_t active = 0;
  for (const auto& t : lanes) {
    // A lane that never ran an event is not part of the load.
    if (t.events == 0) continue;
    const std::uint64_t v = t.*field;
    ++active;
    sum += v;
    if (v > max) max = v;
  }
  if (active == 0 || sum == 0) return 0.0;
  const double mean = static_cast<double>(sum) / static_cast<double>(active);
  return static_cast<double>(max) / mean;
}

}  // namespace

double LaneProfiler::busy_imbalance() const noexcept {
  return max_over_mean(lanes_, &LaneTotals::busy_ns);
}

double LaneProfiler::event_imbalance() const noexcept {
  return max_over_mean(lanes_, &LaneTotals::events);
}

void LaneProfiler::reset() {
  std::fill(lanes_.begin(), lanes_.end(), LaneTotals{});
  std::fill(workers_.begin(), workers_.end(), WorkerTotals{});
}

}  // namespace prism::sim
