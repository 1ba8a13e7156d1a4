#include "reference.h"

#include <barrier>
#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

constexpr std::size_t kTableWords = (1u << 20) / sizeof(std::uint64_t);
constexpr std::uint32_t kHeapEntries = 1024;
constexpr int kRounds = 2'000;
constexpr int kEventsPerRound = 50;

using Entry = std::pair<std::uint64_t, std::uint32_t>;
using Heap = std::priority_queue<Entry, std::vector<Entry>, std::greater<>>;

volatile std::uint64_t g_sink = 0;

/// One thread's share: kRounds rounds of kEventsPerRound heap events,
/// meeting the other threads at `sync` after every round. Allocates
/// nothing (each pop is followed by a push), so it cannot throw.
template <typename Sync>
std::uint64_t reference_work(Heap& heap, std::vector<std::uint64_t>& table,
                             std::uint64_t seed, Sync& sync) {
  std::uint64_t x = 88172645463325252ULL ^ seed;
  std::uint64_t acc = 0;
  for (int r = 0; r < kRounds; ++r) {
    for (int n = 0; n < kEventsPerRound; ++n) {
      const Entry e = heap.top();
      heap.pop();
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::uint64_t& slot = table[(x ^ e.second) % kTableWords];
      acc += slot;
      slot += e.first;
      heap.push({e.first + 1 + (x & 1023), e.second});
    }
    sync();
  }
  return acc;
}

}  // namespace

double reference_loop_seconds(int threads) {
  if (threads < 1) threads = 1;
  const auto n = static_cast<std::size_t>(threads);
  // Allocated and touched once, before any timing: the tables stay
  // resident for the life of the process (a constant part of its peak
  // RSS), and page faults are not what the loop measures.
  static std::vector<std::vector<std::uint64_t>> tables;
  while (tables.size() < n) tables.emplace_back(kTableWords, 1);
  std::vector<Heap> heaps(n);
  for (Heap& h : heaps) {
    for (std::uint32_t i = 0; i < kHeapEntries; ++i) h.push({i, i});
  }
  std::vector<std::uint64_t> acc(n, 0);
  std::barrier<> round(threads);
  const auto sync = [&round, threads] {
    if (threads > 1) round.arrive_and_wait();
  };

  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> helpers;
    for (std::size_t k = 1; k < n; ++k) {
      helpers.emplace_back([&heaps, &acc, &sync, k] {
        acc[k] = reference_work(heaps[k], tables[k], k, sync);
      });
    }
    acc[0] = reference_work(heaps[0], tables[0], 0, sync);
  }  // joins the helpers
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const std::uint64_t a : acc) g_sink = g_sink + a;
  return s;
}

double reference_seconds(int threads) {
  constexpr double kQuiet[] = {0.010, 0.026, 0.030, 0.035};
  return kQuiet[threads < 1 ? 0 : threads > 4 ? 3 : threads - 1];
}

}  // namespace perfbench
