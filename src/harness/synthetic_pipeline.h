// Synthetic multi-stage packet pipeline.
//
// An engine-level harness that models an N-stage reception pipeline (the
// container overlay's {eth, br, veth} is N=3; NFV chains, which the paper
// names as the other multi-stage target, can be longer) without the
// protocol machinery: a source napi standing in for the NIC ring, N-1
// queue-backed stages, and a delivery sink recording completion instants.
// Unit tests assert the paper's Fig. 6 polling orders on it; the ablation
// benches sweep batch size, budget, and stage count with it.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kernel/cost_model.h"
#include "kernel/cpu.h"
#include "kernel/napi.h"
#include "kernel/net_rx_engine.h"
#include "kernel/skb.h"
#include "kernel/stage_transition.h"
#include "sim/simulator.h"
#include "telemetry/span_tracer.h"

namespace prism::harness {

/// A packet delivery recorded by the pipeline sink.
struct SyntheticDelivery {
  sim::Time at = 0;
  bool high = false;
};

/// Queue-backed stage with a fixed per-packet cost that forwards into the
/// next napi (via the real StageTransition) or records a delivery.
class SyntheticStage final : public kernel::PacketStage {
 public:
  SyntheticStage(std::string name, sim::Duration per_packet,
                 kernel::StageTransition& transition,
                 std::vector<SyntheticDelivery>& sink)
      : name_(std::move(name)),
        per_packet_(per_packet),
        transition_(transition),
        sink_(sink) {}

  void set_next(kernel::QueueNapi* next) { next_ = next; }

  sim::Duration process_one(kernel::SkbPtr skb, sim::Time at,
                            double cost_multiplier) override {
    auto cost = static_cast<sim::Duration>(
        static_cast<double>(per_packet_) * cost_multiplier);
    if (next_ != nullptr) {
      cost += transition_.transit(std::move(skb), at + cost, *next_,
                                  cost_multiplier);
    } else {
      sink_.push_back(SyntheticDelivery{at + cost, skb->high_priority()});
    }
    return cost;
  }

  const std::string& name() const override { return name_; }

 private:
  std::string name_;
  sim::Duration per_packet_;
  kernel::StageTransition& transition_;
  std::vector<SyntheticDelivery>& sink_;
  kernel::QueueNapi* next_ = nullptr;
};

/// NIC-ring-like napi: a counter of pending frames materialized as skbs
/// on poll. Like a real ring it has no priority differentiation — the
/// paper's stage-1 limitation (§IV-D) — so has_high_pending() is always
/// false even when the packets it produces are high priority.
class SyntheticSource final : public kernel::NapiStruct {
 public:
  SyntheticSource(std::string name, const kernel::CostModel& cost,
                  kernel::StageTransition& transition,
                  kernel::QueueNapi& next, bool high_packets)
      : NapiStruct(std::move(name)),
        cost_(cost),
        transition_(transition),
        next_(next),
        high_(high_packets) {}

  int pending = 0;
  int completes = 0;

  kernel::PollOutcome poll(int batch, sim::Time start) override {
    kernel::PollOutcome out;
    out.cost = cost_.napi_poll_overhead;
    while (out.processed < batch && pending > 0) {
      --pending;
      auto skb = kernel::alloc_skb();
      skb->priority = high_ ? 1 : 0;
      skb->ts.nic_rx = start;
      sim::Duration c = cost_.nic_stage_per_packet;
      c += transition_.transit(std::move(skb), start + out.cost + c,
                               next_);
      out.cost += c;
      ++out.processed;
    }
    out.has_more = pending > 0;
    return out;
  }

  bool has_pending() const override { return pending > 0; }
  bool has_high_pending() const override { return false; }
  void on_complete() override { ++completes; }

 private:
  const kernel::CostModel& cost_;
  kernel::StageTransition& transition_;
  kernel::QueueNapi& next_;
  bool high_;
};

/// Assembled N-stage pipeline on one CPU: source -> stage2 .. stageN ->
/// sink. Stage names follow the overlay convention for N=3
/// ({eth, br, veth}); longer pipelines get s2, s3, ...
class SyntheticPipeline {
 public:
  /// `stages` >= 2 (the source counts as stage 1).
  explicit SyntheticPipeline(kernel::NapiMode mode, int stages = 3,
                             kernel::CostModel cost_model = {})
      : cost(cost_model),
        cpu(sim, cost, 0),
        engine(sim, cpu, cost, mode),
        transition(engine, cost) {
    const int queue_stages = stages - 1;
    for (int i = 0; i < queue_stages; ++i) {
      std::string name;
      if (stages == 3) {
        name = i == 0 ? "br" : "veth";
      } else {
        name = "s" + std::to_string(i + 2);
      }
      const sim::Duration per_packet =
          i + 1 == queue_stages ? cost.backlog_stage_per_packet
                                : cost.bridge_stage_per_packet;
      stages_.push_back(std::make_unique<SyntheticStage>(
          name, per_packet, transition, deliveries));
      napis_.push_back(
          std::make_unique<kernel::QueueNapi>(name, *stages_[static_cast<
              std::size_t>(i)], cost));
    }
    for (int i = 0; i + 1 < queue_stages; ++i) {
      stages_[static_cast<std::size_t>(i)]->set_next(
          napis_[static_cast<std::size_t>(i) + 1].get());
    }
    source = std::make_unique<SyntheticSource>(
        stages == 3 ? "eth" : "s1", cost, transition, *napis_.front(),
        /*high_packets=*/false);
    source_high = std::make_unique<SyntheticSource>(
        stages == 3 ? "eth" : "s1", cost, transition, *napis_.front(),
        /*high_packets=*/true);
    engine.set_span_tracer(&trace, 0);
  }

  /// Feeds `n` frames into the chosen source and schedules it (the IRQ
  /// top-half equivalent).
  void feed(SyntheticSource& src, int n) {
    src.pending += n;
    engine.napi_schedule(src, false);
  }

  kernel::QueueNapi& stage_napi(std::size_t i) { return *napis_[i]; }
  std::size_t stage_count() const { return napis_.size() + 1; }

  kernel::CostModel cost;
  sim::Simulator sim;
  kernel::Cpu cpu;
  kernel::NetRxEngine engine;
  kernel::StageTransition transition;
  std::vector<SyntheticDelivery> deliveries;
  std::unique_ptr<SyntheticSource> source;       ///< low-priority packets
  std::unique_ptr<SyntheticSource> source_high;  ///< high-priority packets
  /// The engine's timeline on track 0; trace.polls(0) reads the poll
  /// order.
  telemetry::SpanTracer trace;

 private:
  std::vector<std::unique_ptr<SyntheticStage>> stages_;
  std::vector<std::unique_ptr<kernel::QueueNapi>> napis_;
};

}  // namespace prism::harness
