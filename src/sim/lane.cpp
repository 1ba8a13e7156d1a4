#include "sim/lane.h"

#include <algorithm>
#include <barrier>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "sim/lane_profiler.h"

namespace prism::sim {

LaneSet::LaneSet(int lanes) {
  if (lanes < 1) {
    throw std::invalid_argument("LaneSet: need at least one lane");
  }
  lanes_.reserve(static_cast<std::size_t>(lanes));
  mailboxes_.resize(static_cast<std::size_t>(lanes));
  post_seq_.assign(static_cast<std::size_t>(lanes), 0);
  linked_.assign(static_cast<std::size_t>(lanes), 0);
  neighbors_.resize(static_cast<std::size_t>(lanes));
  next_time_.assign(static_cast<std::size_t>(lanes), kMaxTime);
  release_.assign(static_cast<std::size_t>(lanes), kMaxTime);
  window_end_.assign(static_cast<std::size_t>(lanes), 0);
  drained_msgs_.assign(static_cast<std::size_t>(lanes), 0);
  for (int i = 0; i < lanes; ++i) {
    lanes_.push_back(std::make_unique<Simulator>());
    mailboxes_[static_cast<std::size_t>(i)].from.resize(
        static_cast<std::size_t>(lanes));
  }
}

void LaneSet::register_link(int a, int b, Duration propagation) {
  if (a < 0 || a >= num_lanes() || b < 0 || b >= num_lanes()) {
    throw std::out_of_range("LaneSet::register_link: bad lane index");
  }
  if (propagation < 0) {
    throw std::invalid_argument(
        "LaneSet::register_link: negative propagation");
  }
  if (a == b) return;  // a lane needs no handoff to itself
  for (auto [src, dst] : {std::pair{a, b}, std::pair{b, a}}) {
    auto& q = mailboxes_[static_cast<std::size_t>(dst)]
                  .from[static_cast<std::size_t>(src)];
    if (q == nullptr) q = std::make_unique<SpscQueue<Message>>();
  }
  linked_[static_cast<std::size_t>(a)] = 1;
  linked_[static_cast<std::size_t>(b)] = 1;
  if (propagation < lookahead_) lookahead_ = propagation;
  auto add = [this](int from, int to, Duration prop) {
    auto& nbs = neighbors_[static_cast<std::size_t>(from)];
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
  pairwise_ = pairwise_ &&
              neighbors_[static_cast<std::size_t>(a)].size() <= 1 &&
              neighbors_[static_cast<std::size_t>(b)].size() <= 1;
}

void LaneSet::post(int src, int dst, Time at, EventFn fn) {
  assert(src >= 0 && src < num_lanes() && dst >= 0 && dst < num_lanes());
  assert(src != dst && "same-lane events schedule directly");
#ifndef NDEBUG
  // Conservative-window safety: the horizons assume every message lands
  // strictly after the sender's clock plus the link's propagation delay
  // (the Wire's >= 1ns serialization provides the strict part).
  {
    bool found = false;
    for (const Neighbor& nb : neighbors_[static_cast<std::size_t>(src)]) {
      if (nb.lane == dst) {
        assert(at > lane(src).now() + nb.propagation &&
               "cross-lane post inside the conservative window");
        found = true;
        break;
      }
    }
    assert(found && "cross-lane post without a registered link");
  }
#endif
  Message m;
  m.at = at;
  m.src = static_cast<std::uint32_t>(src);
  m.seq = post_seq_[static_cast<std::size_t>(src)]++;
  m.fn = std::move(fn);
  mailboxes_[static_cast<std::size_t>(dst)]
      .from[static_cast<std::size_t>(src)]
      ->push(std::move(m));
}

std::size_t LaneSet::drain_inboxes(int dst) {
  Mailbox& mb = mailboxes_[static_cast<std::size_t>(dst)];
  mb.scratch.clear();
  // Messages only travel over registered links (post() asserts it), and
  // only those have an inbox.
  for (const Neighbor& nb : neighbors_[static_cast<std::size_t>(dst)]) {
    mb.from[static_cast<std::size_t>(nb.lane)]->drain_into(mb.scratch);
  }
  const std::size_t drained = mb.scratch.size();
  if (mb.scratch.empty()) return drained;
  // (arrival, src lane, per-src sequence) is a total order, so the
  // destination queue receives an identical schedule at any thread count.
  std::sort(mb.scratch.begin(), mb.scratch.end(),
            [](const Message& x, const Message& y) {
              if (x.at != y.at) return x.at < y.at;
              if (x.src != y.src) return x.src < y.src;
              return x.seq < y.seq;
            });
  Simulator& sim = lane(dst);
  for (Message& m : mb.scratch) {
    assert(m.at > sim.now() && "cross-lane arrival in the lane's past");
    sim.schedule_at(m.at, std::move(m.fn));
  }
  mb.scratch.clear();
  return drained;
}

void LaneSet::compute_window(Time deadline) {
  Time t_min = kMaxTime;
  // The critical lane: the one whose next pending event bounds the
  // release-time fixpoint from below this round (ties -> lowest index).
  // Every other lane's window ultimately derives from it, so it is the
  // round's pace-setter — the profiler's critical-path attribution.
  int critical = -1;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (linked_[i] && next_time_[i] < t_min) {
      t_min = next_time_[i];
      critical = static_cast<int>(i);
    }
  }
  if (t_min == kMaxTime || t_min > deadline) {
    done_ = true;
    return;
  }
  // Release times: the earliest instant each lane could execute
  // anything this round — its next pending event, or a wake-up by a
  // message it has not received yet (possibly a multi-hop chain within
  // the round), which cannot beat release(neighbor) + serialization
  // + propagation. When every lane has exactly one peer (the Testbed
  // and every pair Cluster), the fixpoint collapses to a closed form
  // per pair; this runs once per window, so the shortcut is worth it.
  if (pairwise_) {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (!linked_[i]) continue;
      const Neighbor& nb = neighbors_[i][0];
      const Time ni = next_time_[i];
      const Time nj = next_time_[static_cast<std::size_t>(nb.lane)];
      const Time via = ni >= kMaxTime - nb.propagation - 1
                           ? kMaxTime
                           : ni + nb.propagation + 1;
      const Time rj = nj < via ? nj : via;
      window_end_[i] = rj >= kMaxTime - nb.propagation ? deadline
                       : rj + nb.propagation > deadline
                           ? deadline
                           : rj + nb.propagation;
    }
    ++windows_;
    if (profiler_ != nullptr) profiler_->record_window(windows_, critical);
    return;
  }
  release_ = next_time_;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (!linked_[i]) continue;
      for (const Neighbor& nb : neighbors_[i]) {
        const Time rj = release_[static_cast<std::size_t>(nb.lane)];
        const Time via = rj >= kMaxTime - nb.propagation - 1
                             ? kMaxTime
                             : rj + nb.propagation + 1;
        if (via < release_[i]) {
          release_[i] = via;
          changed = true;
        }
      }
    }
  }
  // Per-lane horizons: nothing from neighbor j can arrive at or before
  // release(j) + propagation, so lane i may run through that instant
  // inclusive. Lanes with disjoint neighborhoods advance independently;
  // the round still makes progress because the lane holding t_min has
  // release == t_min <= horizon, so its earliest event always executes.
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (!linked_[i]) continue;
    Time w = kMaxTime;
    for (const Neighbor& nb : neighbors_[i]) {
      const Time rj = release_[static_cast<std::size_t>(nb.lane)];
      const Time horizon =
          rj >= kMaxTime - nb.propagation ? kMaxTime : rj + nb.propagation;
      if (horizon < w) w = horizon;
    }
    window_end_[i] = w > deadline ? deadline : w;
  }
  ++windows_;
  if (profiler_ != nullptr) profiler_->record_window(windows_, critical);
}

template <typename Barrier>
void LaneSet::worker_loop(int worker, int threads, Time deadline,
                          Barrier& barrier) {
  const int n = num_lanes();
  // Profiling instruments the loop with steady_clock reads; detached
  // (prof == nullptr, always the case under -DPRISM_TELEMETRY=OFF) the
  // loop pays one predictable branch per phase. Clock reads and record
  // stores are sampled (1 in sample_every() rounds) because rounds are
  // often shorter than the six clockgettime calls full timing costs;
  // an unsampled round pays only the sampling check — the exact totals
  // come from counters the engine maintains anyway, snapshotted in
  // begin/finish_profiled_run(). All readings observe the schedule
  // without influencing it, so profiled runs stay byte-identical to
  // unprofiled ones.
  LaneProfiler* const prof = profiler_;
  const std::uint64_t sample_every =
      prof != nullptr ? prof->sample_every() : 1;
  using ProfClock = std::chrono::steady_clock;
  const auto prof_ns = [](ProfClock::time_point a,
                          ProfClock::time_point b) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
            .count());
  };
  while (true) {
    // Sampling decision for the upcoming round. windows_ still holds the
    // previous round's number here (the completion step that increments
    // it runs at the next barrier), but every worker passed the same
    // barrier to get here, so all see the same value and sample the same
    // rounds — the decision is schedule-deterministic, not timing-based.
    const bool sample =
        prof != nullptr && (windows_ % sample_every) == 0;
    ProfClock::time_point round_start{};
    if (sample) round_start = ProfClock::now();
    // Drain phase: every inbox is quiescent (producers parked since the
    // previous barrier), so the consumer empties it and reports the
    // lane's earliest pending event for the window computation.
    for (int i = worker; i < n; i += threads) {
      if (!linked_[static_cast<std::size_t>(i)]) continue;
      const std::size_t drained = drain_inboxes(i);
      if (sample) {
        drained_msgs_[static_cast<std::size_t>(i)] =
            static_cast<std::uint32_t>(drained);
      }
      Simulator& s = lane(i);
      next_time_[static_cast<std::size_t>(i)] =
          s.pending_events() == 0 ? kMaxTime : s.next_event_time();
    }
    ProfClock::time_point bar0{};
    if (sample) bar0 = ProfClock::now();
    barrier.arrive_and_wait();  // completion: compute_window / done_
    std::uint64_t barrier_wait_ns = 0;
    std::uint64_t busy_ns = 0;
    if (sample) {
      const ProfClock::time_point t = ProfClock::now();
      barrier_wait_ns = prof_ns(bar0, t);
      // Drain work is busy time; the window between round_start and bar0
      // was all drains for this worker's lanes.
      busy_ns = prof_ns(round_start, bar0);
    }
    if (done_) break;
    const std::uint64_t round = windows_;  // set by the completion step
    // Execute phase: each linked lane runs every event up to and
    // including its own horizon; arrivals it produces land strictly
    // beyond the receiver's. A lane with nothing inside its horizon
    // sits the round out without even touching its clock — safe,
    // because arrivals always land beyond the horizon that was current
    // when they were sent, so a stale clock never sees one in its past.
    for (int i = worker; i < n; i += threads) {
      if (!linked_[static_cast<std::size_t>(i)]) continue;
      const Time w = window_end_[static_cast<std::size_t>(i)];
      if (next_time_[static_cast<std::size_t>(i)] <= w) {
        Simulator& s = lane(i);
        if (w > s.now()) {
          if (sample) {
            const Time start = s.now();
            const std::uint64_t ev0 = s.events_executed();
            const ProfClock::time_point e0 = ProfClock::now();
            s.run_until(w);
            const ProfClock::time_point e1 = ProfClock::now();
            const std::uint64_t lane_busy = prof_ns(e0, e1);
            busy_ns += lane_busy;
            prof->record_lane_sample(
                round, i, worker, start, w, s.events_executed() - ev0,
                lane_busy, drained_msgs_[static_cast<std::size_t>(i)]);
          } else {
            s.run_until(w);
          }
        }
      }
    }
    ProfClock::time_point bar1{};
    if (sample) bar1 = ProfClock::now();
    barrier.arrive_and_wait();  // completion: no-op (phase toggle)
    if (sample) {
      const ProfClock::time_point round_end = ProfClock::now();
      barrier_wait_ns += prof_ns(bar1, round_end);
      prof->record_worker_round(round, worker,
                                prof_ns(round_start, round_end),
                                barrier_wait_ns, busy_ns);
    }
  }
  // Settle: clocks advance to the deadline, and link-less lanes (which
  // neither send nor receive) free-run their entire schedule here.
  for (int i = worker; i < n; i += threads) {
    lane(i).run_until(deadline);
  }
}

void LaneSet::run_until(Time deadline, int threads) {
  if (threads < 1) threads = 1;
  if (threads > num_lanes()) threads = num_lanes();
  std::fill(next_time_.begin(), next_time_.end(), kMaxTime);
  done_ = false;
  completion_is_window_ = true;
  windows_ = 0;
  if (profiler_ != nullptr) profiler_->begin_run(num_lanes(), threads);
  begin_profiled_run();

  if (threads == 1) {
    // Serial fast path: the same phase sequence, but the "barrier" is a
    // direct call — a single-participant std::barrier still pays two
    // atomic round-trips per window, which is measurable at millions of
    // windows per run.
    struct SerialBarrier {
      LaneSet& set;
      Time deadline;
      void arrive_and_wait() noexcept {
        if (set.completion_is_window_) set.compute_window(deadline);
        set.completion_is_window_ = !set.completion_is_window_;
      }
    } serial{*this, deadline};
    worker_loop(0, 1, deadline, serial);
    finish_profiled_run();
    return;
  }

  auto completion = [this, deadline]() noexcept {
    if (completion_is_window_) compute_window(deadline);
    completion_is_window_ = !completion_is_window_;
  };
  std::barrier<decltype(completion)> barrier(threads, completion);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads - 1));
  for (int w = 1; w < threads; ++w) {
    workers.emplace_back([this, w, threads, deadline, &barrier] {
      worker_loop(w, threads, deadline, barrier);
    });
  }
  worker_loop(0, threads, deadline, barrier);
  for (std::thread& t : workers) t.join();
  finish_profiled_run();
}

void LaneSet::begin_profiled_run() {
  if (profiler_ == nullptr) return;
  const std::size_t n = lanes_.size();
  run_events0_.resize(n);
  run_sim0_.resize(n);
  run_msgs0_.resize(n);
  run_spills0_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int li = static_cast<int>(i);
    run_events0_[i] = lanes_[i]->events_executed();
    run_sim0_[i] = lanes_[i]->now();
    run_msgs0_[i] = lane_inbox_pushed(li);
    run_spills0_[i] = lane_inbox_spills(li);
  }
  run_messages0_ = messages_posted();
}

void LaneSet::finish_profiled_run() {
  if (profiler_ == nullptr) return;
  for (int i = 0; i < num_lanes(); ++i) {
    const std::size_t si = static_cast<std::size_t>(i);
    const Simulator& s = *lanes_[si];
    const std::size_t hw = lane_inbox_high_water(i);
    profiler_->add_lane_run_totals(
        i, s.events_executed() - run_events0_[si],
        s.now() > run_sim0_[si] ? s.now() - run_sim0_[si] : 0,
        lane_inbox_pushed(i) - run_msgs0_[si],
        static_cast<std::uint32_t>(std::min<std::size_t>(
            hw, std::numeric_limits<std::uint32_t>::max())),
        lane_inbox_spills(i) - run_spills0_[si]);
  }
  profiler_->end_run(messages_posted() - run_messages0_);
}

void LaneSet::set_profiler(LaneProfiler* profiler) noexcept {
#if PRISM_TELEMETRY_ENABLED
  profiler_ = profiler;
#else
  // Telemetry compiled out: the engine stays unprofiled (and pays no
  // branch — profiler_ is never non-null).
  (void)profiler;
#endif
}

std::uint64_t LaneSet::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& l : lanes_) total += l->events_executed();
  return total;
}

std::size_t LaneSet::pending_events() const {
  std::size_t total = 0;
  for (const auto& l : lanes_) total += l->pending_events();
  return total;
}

std::uint64_t LaneSet::messages_posted() const {
  std::uint64_t total = 0;
  for (int i = 0; i < num_lanes(); ++i) total += lane_inbox_pushed(i);
  return total;
}

std::uint64_t LaneSet::inbox_spills() const {
  std::uint64_t total = 0;
  for (int i = 0; i < num_lanes(); ++i) total += lane_inbox_spills(i);
  return total;
}

std::uint64_t LaneSet::lane_inbox_spills(int dst) const {
  std::uint64_t total = 0;
  for (const auto& q : mailboxes_[static_cast<std::size_t>(dst)].from) {
    if (q != nullptr) total += q->spill_count();
  }
  return total;
}

std::uint64_t LaneSet::lane_inbox_pushed(int dst) const {
  std::uint64_t total = 0;
  for (const auto& q : mailboxes_[static_cast<std::size_t>(dst)].from) {
    if (q != nullptr) total += q->pushed_count();
  }
  return total;
}

std::size_t LaneSet::lane_inbox_high_water(int dst) const {
  std::size_t max = 0;
  for (const auto& q : mailboxes_[static_cast<std::size_t>(dst)].from) {
    if (q != nullptr) max = std::max(max, q->high_water());
  }
  return max;
}

}  // namespace prism::sim
