#include "kernel/net_rx_engine.h"

#include <stdexcept>

#include "kernel/overload.h"

namespace prism::kernel {

NetRxEngine::NetRxEngine(sim::Simulator& sim, Cpu& cpu,
                         const CostModel& cost, NapiMode mode)
    : sim_(sim), cpu_(cpu), cost_(cost), mode_(mode), track_(cpu.id()) {}

void NetRxEngine::set_mode(NapiMode mode) {
  if (!idle()) {
    throw std::logic_error(
        "NetRxEngine::set_mode: engine must be idle to switch modes");
  }
  mode_ = mode;
}

void NetRxEngine::set_span_tracer(telemetry::SpanTracer* tracer,
                                  int track) {
  tracer_ = tracer;
  track_ = track;
  if (tracer_ != nullptr) {
    softirq_span_name_ = tracer_->intern("net_rx_action");
  }
}

void NetRxEngine::bind_telemetry(telemetry::Registry& reg,
                                 const std::string& prefix) {
  reg.add(prefix + "softirqs", softirqs_);
  reg.add(prefix + "polls", polls_);
  reg.add(prefix + "packets", packets_);
  reg.add(prefix + "time_squeeze", time_squeezes_);
  reg.add(prefix + "budget_squeeze", budget_squeezes_);
  reg.add(prefix + "time_budget_squeeze", time_budget_squeezes_);
  reg.add(prefix + "ksoftirqd_runs", ksoftirqd_runs_);
  reg.add(prefix + "requeues", requeues_);
  reg.add(prefix + "prism_head_inserts", head_inserts_);
}

void NetRxEngine::napi_schedule(NapiStruct& napi, bool high) {
  if (mode_ == NapiMode::kVanilla) {
    // Vanilla: new devices always go to the tail of the global list;
    // an already-scheduled device is left where it is.
    if (!napi.scheduled) {
      napi.scheduled = true;
      global_list_.push_back(&napi);
    }
  } else {
    // PRISM: head insertion for devices receiving high-priority packets;
    // a device already in the list is *moved* to the head (paper §III-A).
    // The prism-queues ablation keeps the single list but never inserts
    // at the head.
    const bool head = high && mode_ != NapiMode::kPrismQueues;
    if (!napi.scheduled) {
      napi.scheduled = true;
      if (head) {
        global_list_.push_front(&napi);
        head_inserts_.inc();
      } else {
        global_list_.push_back(&napi);
      }
    } else if (head) {
      for (std::size_t i = 0; i < global_list_.size(); ++i) {
        if (global_list_[i] != &napi) continue;
        global_list_.erase(i);
        global_list_.push_front(&napi);
        head_inserts_.inc();
        break;
      }
      // If the device is not in the list it is being polled right now;
      // the post-poll requeue (has_high_pending -> head) handles it.
    }
  }
  if (!in_softirq_) raise_softirq();
}

void NetRxEngine::raise_softirq() {
  if (softirq_pending_) return;
  softirq_pending_ = true;
  cpu_.run_softirq([this] { return entry_chunk(); });
}

void NetRxEngine::schedule_ksoftirqd() {
  if (ksoftirqd_scheduled_) return;
  ksoftirqd_scheduled_ = true;
  ++ksoftirqd_deferrals_;
  cpu_.run_task_fn([this] { return ksoftirqd_chunk(); });
}

sim::Duration NetRxEngine::ksoftirqd_chunk() {
  ksoftirqd_scheduled_ = false;
  // An IRQ-raised softirq pass ran (or is about to run) since the
  // deferral: leave the work to it — ksoftirqd only mops up what the
  // softirq path left behind.
  if (in_softirq_ || softirq_pending_ || global_list_.empty()) return 0;
  ksoftirqd_ctx_ = true;
  ksoftirqd_runs_.inc();
  return entry_chunk();
}

sim::Duration NetRxEngine::entry_chunk() {
  softirq_pending_ = false;
  in_softirq_ = true;
  softirq_started_ = sim_.now();
  softirqs_.inc();
  budget_ = cost_.napi_budget;
  if (mode_ == NapiMode::kVanilla) {
    // Fig. 2 line 8: move the global POLL_LIST onto the local list. This
    // is the lock-free handoff whose synchronization delay PRISM removes.
    while (!global_list_.empty()) {
      local_list_.push_back(global_list_.front());
      global_list_.pop_front();
    }
  }
  // A ksoftirqd pass queues its polls at task priority so IRQ top-halves
  // and freshly raised softirqs preempt it at chunk boundaries.
  if (ksoftirqd_ctx_) {
    cpu_.run_task_fn([this] { return poll_chunk(); });
  } else {
    cpu_.run_softirq([this] { return poll_chunk(); });
  }
  if (tracer_ != nullptr) {
    tracer_->span(track_, softirq_span_name_, sim_.now(),
                  cost_.softirq_entry);
  }
  return cost_.softirq_entry;
}

sim::Duration NetRxEngine::poll_chunk() {
  auto& list =
      mode_ == NapiMode::kVanilla ? local_list_ : global_list_;
  if (list.empty()) {
    finish_softirq(false);
    return 0;
  }
  NapiStruct* dev = list.front();
  list.pop_front();

  const sim::Time poll_start = sim_.now();
  const PollOutcome out = dev->poll(cost_.napi_batch_size, poll_start);
  budget_ -= out.processed;
  polls_.inc();
  if (governor_ != nullptr) governor_->note_poll();
  packets_.inc(static_cast<std::uint64_t>(out.processed));

  if (mode_ == NapiMode::kVanilla) {
    // Fig. 2 lines 16-17: a device with remaining packets is appended to
    // the *global* list — it will not be polled again until the next
    // net_rx_action invocation, which is what interleaves batches.
    if (out.has_more) {
      global_list_.push_back(dev);
      requeues_.inc();
    } else {
      dev->scheduled = false;
      dev->on_complete();
    }
  } else {
    // Fig. 7 lines 13-16: requeue by pending priority.
    if (dev->has_high_pending() && mode_ != NapiMode::kPrismQueues) {
      global_list_.push_front(dev);
      requeues_.inc();
      head_inserts_.inc();
    } else if (dev->has_pending()) {
      global_list_.push_back(dev);
      requeues_.inc();
    } else {
      dev->scheduled = false;
      dev->on_complete();
    }
  }

  if (trace_ != nullptr) trace_poll(dev, out.processed);
  if (tracer_ != nullptr) {
    tracer_->span(track_, tracer_->intern(dev->name()), poll_start,
                  out.cost, static_cast<std::uint32_t>(out.processed),
                  static_cast<std::uint32_t>(out.cost));
  }

  auto& cur = mode_ == NapiMode::kVanilla ? local_list_ : global_list_;
  const bool budget_out = budget_ <= 0;
  const bool time_out =
      sim_.now() + out.cost - softirq_started_ >= cost_.netdev_budget_usecs;
  if (budget_out || time_out || cur.empty()) {
    bool squeezed = false;
    if ((budget_out || time_out) && !cur.empty()) {
      // Work remained but a budget ran out — what softnet_stat's
      // time_squeeze column counts (the kernel lumps both causes into
      // one column; the split is kept for diagnosis).
      squeezed = true;
      time_squeezes_.inc();
      (budget_out ? budget_squeezes_ : time_budget_squeezes_).inc();
    }
    finish_softirq(squeezed);
  } else if (ksoftirqd_ctx_) {
    cpu_.run_task_fn([this] { return poll_chunk(); });
  } else {
    cpu_.run_softirq([this] { return poll_chunk(); });
  }
  return out.cost;
}

void NetRxEngine::finish_softirq(bool squeezed) {
  in_softirq_ = false;
  ksoftirqd_ctx_ = false;
  if (mode_ == NapiMode::kVanilla) {
    // Fig. 2 lines 21-22: remaining local devices keep precedence — the
    // global list is appended after them, then everything moves back to
    // the global list. Pushing the local devices onto the global head in
    // reverse order does both in one pass.
    for (std::size_t i = local_list_.size(); i-- > 0;) {
      global_list_.push_front(local_list_[i]);
    }
    local_list_.clear();
  }
  if (governor_ != nullptr) {
    governor_->note_softirq_end(squeezed, global_list_.size());
  }
  if (!global_list_.empty()) {
    // A squeezed pass defers its remainder to ksoftirqd instead of
    // re-raising — the kernel's starvation avoidance. A pass that ended
    // for another reason (device re-armed mid-finish) re-raises.
    if (squeezed && ksoftirqd_enabled_) {
      schedule_ksoftirqd();
    } else {
      raise_softirq();
    }
  }
}

void NetRxEngine::trace_poll(NapiStruct* dev, int processed) {
  trace_scratch_.clear();
  for (std::size_t i = 0; i < local_list_.size(); ++i) {
    trace_scratch_.push_back(trace_->intern(local_list_[i]->name()));
  }
  for (std::size_t i = 0; i < global_list_.size(); ++i) {
    trace_scratch_.push_back(trace_->intern(global_list_[i]->name()));
  }
  trace_->on_poll_ids(sim_.now(), trace_->intern(dev->name()),
                      trace_scratch_.data(), trace_scratch_.size(),
                      processed);
}

}  // namespace prism::kernel
