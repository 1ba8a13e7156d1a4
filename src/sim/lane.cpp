#include "sim/lane.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "sim/lane_profiler.h"

namespace prism::sim {

namespace {

std::uint64_t ns_between(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

}  // namespace

/// The helper threads of a multi-worker run (workers 1..n; the caller is
/// worker 0). They park on a condition variable between runs, so a run
/// starts no thread and each helper's thread-local pools stay warm.
class LaneSet::Helpers {
 public:
  explicit Helpers(int helpers) {
    threads_.reserve(static_cast<std::size_t>(helpers));
    try {
      for (int w = 1; w <= helpers; ++w) {
        threads_.emplace_back([this, w] { loop(w); });
      }
    } catch (...) {
      stop();  // the threads already started would otherwise never exit
      throw;
    }
  }

  ~Helpers() { stop(); }

  Helpers(const Helpers&) = delete;
  Helpers& operator=(const Helpers&) = delete;

  /// Workers including the caller.
  int workers() const noexcept {
    return static_cast<int>(threads_.size()) + 1;
  }

  /// Runs job(w) on every helper w while the caller runs job(0), and
  /// returns once all of them have finished.
  template <typename Job>
  void run(const Job& job) {
    {
      const std::lock_guard<std::mutex> lock(m_);
      fn_ = [](const void* j, int w) { (*static_cast<const Job*>(j))(w); };
      job_ = &job;
      running_ = threads_.size();
      ++generation_;
    }
    start_.notify_all();
    job(0);
    std::unique_lock<std::mutex> lock(m_);
    done_.wait(lock, [this] { return running_ == 0; });
  }

 private:
  /// Wakes every helper to exit, and joins them.
  void stop() noexcept {
    {
      const std::lock_guard<std::mutex> lock(m_);
      stop_ = true;
    }
    start_.notify_all();
    threads_.clear();  // joins
  }

  void loop(int w) {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(m_);
    for (;;) {
      start_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      void (*const fn)(const void*, int) = fn_;
      const void* const job = job_;
      lock.unlock();
      fn(job, w);
      lock.lock();
      if (--running_ == 0) done_.notify_one();
    }
  }

  std::mutex m_;
  std::condition_variable start_;  ///< a run began, or stop
  std::condition_variable done_;   ///< the last helper finished
  // Guarded by m_.
  std::uint64_t generation_ = 0;  ///< runs started
  std::size_t running_ = 0;       ///< helpers still in this run
  bool stop_ = false;
  void (*fn_)(const void*, int) = nullptr;
  const void* job_ = nullptr;
  // Last: joined before the members above are destroyed.
  std::vector<std::jthread> threads_;
};

LaneSet::LaneSet(std::vector<Simulator*> lanes) {
  if (lanes.empty()) {
    throw std::invalid_argument("LaneSet: need at least one lane");
  }
  lanes_ = std::vector<Lane>(lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    if (lanes[i] == nullptr) {
      throw std::invalid_argument("LaneSet: null lane");
    }
    lanes_[i].sim = lanes[i];
  }
  runs_.resize(lanes_.size());
}

LaneSet::~LaneSet() = default;

void LaneSet::run_lane(Lane& l, Time deadline, bool profiled) {
  l.error = nullptr;
  l.begin = l.sim->now();
  const std::uint64_t events0 = l.sim->events_executed();
  const Clock::time_point t0 = profiled ? Clock::now() : Clock::time_point{};
  try {
    l.sim->run_until(deadline);
  } catch (...) {
    l.error = std::current_exception();
  }
  l.busy_ns = profiled ? ns_between(t0, Clock::now()) : 0;
  l.events = l.sim->events_executed() - events0;
}

void LaneSet::run_until(Time deadline, int threads) {
  const std::size_t n = lanes_.size();
  const int workers =
      static_cast<int>(std::min<std::size_t>(threads < 1 ? 1 : threads, n));
  LaneProfiler* const prof = profiler_;
  const bool profiled = prof != nullptr;
  const Clock::time_point start =
      profiled ? Clock::now() : Clock::time_point{};
  // Worker w runs lanes w, w + W, w + 2W, ... — always the same ones for
  // a given W, so a lane's buffers stay in one worker's thread-local
  // pools from run to run.
  const auto work = [&](int w) {
    WorkerRun& r = runs_[static_cast<std::size_t>(w)];
    r.busy_ns = 0;
    for (auto i = static_cast<std::size_t>(w); i < n;
         i += static_cast<std::size_t>(workers)) {
      run_lane(lanes_[i], deadline, profiled);
      r.busy_ns += lanes_[i].busy_ns;
    }
    if (profiled) r.done = Clock::now();
  };
  if (workers == 1) {
    work(0);
  } else {
    if (helpers_ == nullptr || helpers_->workers() != workers) {
      helpers_.reset();  // join the old helpers before starting new ones
      helpers_ = std::make_unique<Helpers>(workers - 1);
    }
    helpers_->run(work);  // the one join
  }

  if (profiled) {
    const Clock::time_point end = Clock::now();
    for (int w = 0; w < workers; ++w) {
      const WorkerRun& r = runs_[static_cast<std::size_t>(w)];
      prof->add_worker_run(w, ns_between(start, end), r.busy_ns,
                           ns_between(r.done, end));
    }
    for (std::size_t i = 0; i < n; ++i) {
      Lane& l = lanes_[i];
      prof->add_lane_run(static_cast<int>(i), l.begin, l.sim->now(), l.events,
                         l.busy_ns);
    }
  }
  for (const Lane& l : lanes_) {
    if (l.error) std::rethrow_exception(l.error);
  }
}

std::uint64_t LaneSet::events_executed() const {
  std::uint64_t total = 0;
  for (const Lane& l : lanes_) total += l.sim->events_executed();
  return total;
}

std::size_t LaneSet::pending_events() const {
  std::size_t total = 0;
  for (const Lane& l : lanes_) total += l.sim->pending_events();
  return total;
}

}  // namespace prism::sim
