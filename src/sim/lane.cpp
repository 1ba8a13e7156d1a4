#include "sim/lane.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "sim/lane_profiler.h"

namespace prism::sim {

/// One connected component of the link graph and its window loop's
/// state. Only the worker running the component touches it, and it is
/// cache-line aligned so two components never share a line.
struct alignas(64) LaneSet::Component {
  struct Link {
    std::size_t peer = 0;  ///< member index
    Duration propagation = 0;
  };

  /// Computes every member's window horizon from `next`.
  void compute_window(Time deadline);

  std::vector<int> lanes;                ///< member lanes, ascending
  std::vector<std::vector<Link>> links;  ///< [member]
  // Per member, indexed like `lanes`.
  std::vector<Time> next;  ///< earliest pending event, or kMaxTime
  std::vector<Time> release;
  std::vector<Time> window_end;
  std::vector<std::uint32_t> drained;  ///< arrivals moved, sampled windows
  std::uint64_t windows = 0;           ///< windows of the current run
  std::exception_ptr error;            ///< thrown by an event this run
};

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

void LaneSet::Component::compute_window(Time deadline) {
  if (lanes.size() == 2) {
    // A pair (the Testbed, and every Cluster pair): the release-time
    // fixpoint collapses to a closed form. This runs once per window, so
    // the shortcut is worth it.
    const Duration p = links[0][0].propagation;
    for (std::size_t i = 0; i < 2; ++i) {
      const Time ni = next[i];
      const Time nj = next[1 - i];
      const Time via = ni >= kMaxTime - p - 1 ? kMaxTime : ni + p + 1;
      const Time rj = nj < via ? nj : via;
      window_end[i] = rj >= kMaxTime - p ? deadline
                      : rj + p > deadline ? deadline
                                          : rj + p;
    }
    return;
  }
  // Release times: the earliest instant each member could execute
  // anything this window — its next pending event, or a wake-up by a
  // message it has not received yet (possibly a multi-hop chain within
  // the window), which cannot beat release(neighbor) + serialization +
  // propagation.
  release = next;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      for (const Link& l : links[i]) {
        const Time rj = release[l.peer];
        const Time via = rj >= kMaxTime - l.propagation - 1
                             ? kMaxTime
                             : rj + l.propagation + 1;
        if (via < release[i]) {
          release[i] = via;
          changed = true;
        }
      }
    }
  }
  // Horizons: nothing from neighbor j can arrive at or before release(j)
  // + propagation, so member i may run through that instant inclusive.
  // The window still makes progress because the member holding the
  // earliest event has release == that event <= its horizon.
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    Time w = kMaxTime;
    for (const Link& l : links[i]) {
      const Time rj = release[l.peer];
      const Time horizon =
          rj >= kMaxTime - l.propagation ? kMaxTime : rj + l.propagation;
      if (horizon < w) w = horizon;
    }
    window_end[i] = w > deadline ? deadline : w;
  }
}

LaneSet::LaneSet(int lanes) {
  if (lanes < 1) {
    throw std::invalid_argument("LaneSet: need at least one lane");
  }
  lanes_ = std::vector<Lane>(static_cast<std::size_t>(lanes));
}

LaneSet::~LaneSet() = default;

void LaneSet::register_link(int a, int b, Duration propagation) {
  if (a < 0 || a >= num_lanes() || b < 0 || b >= num_lanes()) {
    throw std::out_of_range("LaneSet::register_link: bad lane index");
  }
  if (propagation < 0) {
    throw std::invalid_argument(
        "LaneSet::register_link: negative propagation");
  }
  if (a == b) return;  // a lane needs no handoff to itself
  if (propagation < lookahead_) lookahead_ = propagation;
  auto add = [this](int from, int to, Duration prop) {
    auto& nbs = lanes_[static_cast<std::size_t>(from)].neighbors;
    for (Neighbor& nb : nbs) {
      if (nb.lane == to) {
        // Parallel wires between the same lane pair: the shortest delay
        // bounds how early a message can arrive.
        if (prop < nb.propagation) nb.propagation = prop;
        return;
      }
    }
    nbs.push_back(Neighbor{to, prop});
  };
  add(a, b, propagation);
  add(b, a, propagation);
  components_stale_ = true;
}

void LaneSet::build_components() {
  components_.clear();
  const std::size_t n = lanes_.size();
  std::vector<std::size_t> component_of(n, n);  // n = not yet assigned
  std::vector<std::size_t> member(n, 0);
  for (std::size_t root = 0; root < n; ++root) {
    if (component_of[root] != n) continue;
    const std::size_t id = components_.size();
    auto c = std::make_unique<Component>();
    component_of[root] = id;
    c->lanes.push_back(static_cast<int>(root));
    for (std::size_t k = 0; k < c->lanes.size(); ++k) {
      const Lane& l = lanes_[static_cast<std::size_t>(c->lanes[k])];
      for (const Neighbor& nb : l.neighbors) {
        const auto j = static_cast<std::size_t>(nb.lane);
        if (component_of[j] == n) {
          component_of[j] = id;
          c->lanes.push_back(nb.lane);
        }
      }
    }
    std::sort(c->lanes.begin(), c->lanes.end());
    const std::size_t m = c->lanes.size();
    for (std::size_t k = 0; k < m; ++k) {
      member[static_cast<std::size_t>(c->lanes[k])] = k;
    }
    c->links.resize(m);
    for (std::size_t k = 0; k < m; ++k) {
      const Lane& l = lanes_[static_cast<std::size_t>(c->lanes[k])];
      for (const Neighbor& nb : l.neighbors) {
        c->links[k].push_back(Component::Link{
            member[static_cast<std::size_t>(nb.lane)], nb.propagation});
      }
    }
    c->next.assign(m, kMaxTime);
    c->release.assign(m, kMaxTime);
    c->window_end.assign(m, 0);
    c->drained.assign(m, 0);
    components_.push_back(std::move(c));
  }
  runs_.assign(components_.size(), WorkerRun{});
  components_stale_ = false;
}

void LaneSet::post(int src, int dst, Time at, EventFn fn) {
  assert(src >= 0 && src < num_lanes() && dst >= 0 && dst < num_lanes());
  assert(src != dst && "same-lane events schedule directly");
  Lane& from = lanes_[static_cast<std::size_t>(src)];
  Lane& to = lanes_[static_cast<std::size_t>(dst)];
#ifndef NDEBUG
  // Conservative-window safety: the horizons assume every message lands
  // strictly after the sender's clock plus the link's propagation delay
  // (the Wire's >= 1ns serialization provides the strict part).
  {
    bool found = false;
    for (const Neighbor& nb : from.neighbors) {
      if (nb.lane == dst) {
        assert(at > from.sim.now() + nb.propagation &&
               "cross-lane post inside the conservative window");
        found = true;
        break;
      }
    }
    assert(found && "cross-lane post without a registered link");
  }
#endif
  to.inbox.push_back(
      Message{at, static_cast<std::uint32_t>(src), from.posted++,
              std::move(fn)});
  ++to.received;
  if (to.inbox.size() > to.high_water) to.high_water = to.inbox.size();
}

std::size_t LaneSet::drain_inbox(Lane& l) {
  std::vector<Message>& in = l.inbox;
  const std::size_t n = in.size();
  if (n == 0) return 0;
  // (arrival, src lane, per-src sequence) is a total order, so the
  // destination queue receives the same schedule however the sources'
  // windows were ordered.
  std::sort(in.begin(), in.end(), [](const Message& x, const Message& y) {
    if (x.at != y.at) return x.at < y.at;
    if (x.src != y.src) return x.src < y.src;
    return x.seq < y.seq;
  });
  for (Message& m : in) {
    assert(m.at > l.sim.now() && "cross-lane arrival in the lane's past");
    l.sim.schedule_at(m.at, std::move(m.fn));
  }
  in.clear();
  return n;
}

void LaneSet::run_component(Component& c, Time deadline) {
  c.windows = 0;
  // Profiling reads the clock only on sampled windows (1 in
  // sample_every()); an unsampled window pays the sampling check. The
  // readings observe the schedule without influencing it, so profiled
  // runs stay byte-identical to unprofiled ones.
  LaneProfiler* const prof = profiler_;
  const std::uint64_t sample_every =
      prof != nullptr ? prof->sample_every() : 1;
  using ProfClock = std::chrono::steady_clock;
  const std::size_t m = c.lanes.size();
  // A lone lane has no links, so no window: it free-runs below.
  while (m > 1) {
    // Keyed on the component's own window counter, so the sampled
    // windows are the same at any thread count.
    const bool sample = prof != nullptr && c.windows % sample_every == 0;
    // Window edge: move arrivals into the lanes' queues and read each
    // lane's earliest pending event.
    Time t_min = kMaxTime;
    for (std::size_t k = 0; k < m; ++k) {
      Lane& l = lanes_[static_cast<std::size_t>(c.lanes[k])];
      const std::size_t drained = drain_inbox(l);
      if (sample) c.drained[k] = static_cast<std::uint32_t>(drained);
      const Time t =
          l.sim.pending_events() == 0 ? kMaxTime : l.sim.next_event_time();
      c.next[k] = t;
      if (t < t_min) t_min = t;
    }
    if (t_min == kMaxTime || t_min > deadline) break;
    c.compute_window(deadline);
    ++c.windows;
    // Each member runs every event up to and including its own horizon;
    // arrivals it produces land strictly beyond the receiver's. A member
    // with nothing inside its horizon sits the window out without even
    // touching its clock — safe, because arrivals always land beyond the
    // horizon that was current when they were sent.
    for (std::size_t k = 0; k < m; ++k) {
      const Time w = c.window_end[k];
      if (c.next[k] > w) continue;
      Simulator& s = lanes_[static_cast<std::size_t>(c.lanes[k])].sim;
      if (w <= s.now()) continue;
      if (!sample) {
        s.run_until(w);
        continue;
      }
      const Time start = s.now();
      const std::uint64_t ev0 = s.events_executed();
      const ProfClock::time_point e0 = ProfClock::now();
      s.run_until(w);
      const ProfClock::time_point e1 = ProfClock::now();
      prof->record_lane_sample(
          c.windows, c.lanes[k], start, w, s.events_executed() - ev0,
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(e1 - e0)
                  .count()),
          c.drained[k]);
    }
  }
  // Settle: clocks advance to the deadline, and a lone lane runs its
  // entire schedule here.
  for (int i : c.lanes) {
    lanes_[static_cast<std::size_t>(i)].sim.run_until(deadline);
  }
}

void LaneSet::run_until(Time deadline, int threads) {
  if (components_stale_) build_components();
  const std::size_t n = components_.size();
  const int workers =
      static_cast<int>(std::min<std::size_t>(threads < 1 ? 1 : threads, n));
  LaneProfiler* const prof = profiler_;
  if (prof != nullptr) begin_profiled_run(workers);

  // Per-worker wall-clock totals, read by the profiler after the join.
  using Clock = std::chrono::steady_clock;
  const auto ns = [](Clock::time_point a, Clock::time_point b) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  };
  const Clock::time_point start = prof != nullptr ? Clock::now()
                                                  : Clock::time_point{};
  // Worker w runs components w, w + W, w + 2W, ... — always the same
  // ones for a given W, so a component's buffers stay in one worker's
  // thread-local pools from run to run.
  const auto work = [&](int w) {
    WorkerRun& r = runs_[static_cast<std::size_t>(w)];
    r = WorkerRun{};
    for (auto id = static_cast<std::size_t>(w); id < n;
         id += static_cast<std::size_t>(workers)) {
      Component& c = *components_[id];
      c.error = nullptr;
      const Clock::time_point t0 =
          prof != nullptr ? Clock::now() : Clock::time_point{};
      try {
        run_component(c, deadline);
      } catch (...) {
        c.error = std::current_exception();
      }
      if (prof != nullptr) r.busy_ns += ns(t0, Clock::now());
      r.windows += c.windows;
    }
    if (prof != nullptr) r.done = Clock::now();
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

  windows_ = 0;
  for (const auto& c : components_) windows_ += c->windows;
  if (prof != nullptr) {
    const Clock::time_point end = Clock::now();
    for (int w = 0; w < workers; ++w) {
      const WorkerRun& r = runs_[static_cast<std::size_t>(w)];
      prof->add_worker_run(w, ns(start, end), r.busy_ns, ns(r.done, end),
                           r.windows);
    }
    finish_profiled_run();
  }
  for (const auto& c : components_) {
    if (c->error) std::rethrow_exception(c->error);
  }
}

void LaneSet::begin_profiled_run(int workers) {
  profiler_->begin_run(num_lanes(), workers);
  const std::size_t n = lanes_.size();
  run_events0_.resize(n);
  run_sim0_.resize(n);
  run_msgs0_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    run_events0_[i] = lanes_[i].sim.events_executed();
    run_sim0_[i] = lanes_[i].sim.now();
    run_msgs0_[i] = lanes_[i].received;
  }
  run_messages0_ = messages_posted();
}

void LaneSet::finish_profiled_run() {
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const Lane& l = lanes_[i];
    profiler_->add_lane_run_totals(
        static_cast<int>(i), l.sim.events_executed() - run_events0_[i],
        l.sim.now() > run_sim0_[i] ? l.sim.now() - run_sim0_[i] : 0,
        l.received - run_msgs0_[i],
        static_cast<std::uint32_t>(std::min<std::size_t>(
            l.high_water, std::numeric_limits<std::uint32_t>::max())));
  }
  profiler_->end_run(windows_, messages_posted() - run_messages0_);
}

void LaneSet::set_profiler(LaneProfiler* profiler) noexcept {
  profiler_ = profiler;
}

std::uint64_t LaneSet::events_executed() const {
  std::uint64_t total = 0;
  for (const Lane& l : lanes_) total += l.sim.events_executed();
  return total;
}

std::size_t LaneSet::pending_events() const {
  std::size_t total = 0;
  for (const Lane& l : lanes_) total += l.sim.pending_events();
  return total;
}

std::uint64_t LaneSet::messages_posted() const {
  std::uint64_t total = 0;
  for (const Lane& l : lanes_) total += l.received;
  return total;
}

}  // namespace prism::sim
