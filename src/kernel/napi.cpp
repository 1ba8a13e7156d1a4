#include "kernel/napi.h"

#include <utility>

namespace prism::kernel {

const char* to_string(NapiMode mode) noexcept {
  switch (mode) {
    case NapiMode::kVanilla:
      return "vanilla";
    case NapiMode::kPrismBatch:
      return "prism-batch";
    case NapiMode::kPrismSync:
      return "prism-sync";
    case NapiMode::kPrismQueues:
      return "prism-queues";
  }
  return "?";
}

PollOutcome QueueNapi::poll(int batch, sim::Time start) {
  PollOutcome out;
  out.cost = cost_.napi_poll_overhead;
  // Queue selection happens once per poll (Fig. 7 line 24), generalized
  // to multiple levels: the highest non-empty priority queue is drained
  // for this batch. Vanilla never fills levels above 0, so it always
  // takes the low branch.
  const int level = highest_pending();
  if (level < 0) {
    out.has_more = false;
    return out;
  }
  auto& q = queues[static_cast<std::size_t>(level)];
  const double mult = cost_.depth_multiplier(q.size());
  while (out.processed < batch && !q.empty()) {
    SkbPtr skb = std::move(q.front());
    q.pop_front();
    if (skb->traced) {
      probe_->stage_dequeue(*skb, probe_stage_, start + out.cost);
    }
    out.cost += stage_.process_one(std::move(skb), start + out.cost, mult);
    ++out.processed;
  }
  out.has_more = has_pending();
  return out;
}

}  // namespace prism::kernel
