#include "kernel/overload.h"

#include "net/flow.h"
#include "telemetry/json_writer.h"

namespace prism::kernel {

namespace {

/// Flow hash of the skb for the limiter's bucket selection: the cached
/// parse when present (the backlog path always has one), the byte-level
/// extractor otherwise, bucket 0 for unclassifiable frames (they still
/// participate in the history so a flood of garbage is itself a flow).
std::uint64_t flow_hash_of(const Skb& skb) {
  if (skb.parsed) {
    return std::hash<net::FiveTuple>{}(net::flow_of(*skb.parsed));
  }
  if (const auto flow = net::fast_flow(skb.buf.bytes())) {
    return std::hash<net::FiveTuple>{}(*flow);
  }
  return 0;
}

}  // namespace

AdmissionPolicy::Verdict BacklogAdmission::admit(const Skb& skb, int level,
                                                 std::size_t qlen,
                                                 std::size_t limit) {
  if (governor_ != nullptr) governor_->note_enqueue(qlen);
  if (!cfg_.enabled || level > 0) return Verdict::kAdmit;
  if (cfg_.flow_limit &&
      limiter_.should_drop(flow_hash_of(skb), qlen, limit)) {
    return Verdict::kFlowLimit;
  }
  if (qlen + headroom_ >= limit) {
    ++sheds_;
    return Verdict::kShed;
  }
  return Verdict::kAdmit;
}

void OverloadGovernor::transition(State to, const char* cause) {
  const State from = state_;
  if (from == to) return;
  state_ = to;
  t_state_->set(static_cast<std::int64_t>(to));
  const Transition t{sim_.now(), from, to, cause};
  if (log_.size() < cfg_.max_transitions) {
    log_.push_back(t);
  } else {
    ++log_dropped_;
  }
  if (transition_observer_) transition_observer_(t);
  if (to == State::kOverloaded && from == State::kNormal) {
    ++entries_;
    t_entries_->inc();
    if (moderation_hook_) moderation_hook_(true);
  } else if (to == State::kNormal) {
    ++exits_;
    t_exits_->inc();
    if (moderation_hook_) moderation_hook_(false);
  }
}

const char* to_string(OverloadGovernor::State s) noexcept {
  switch (s) {
    case OverloadGovernor::State::kNormal:
      return "normal";
    case OverloadGovernor::State::kOverloaded:
      return "overloaded";
    case OverloadGovernor::State::kLivelocked:
      return "livelocked";
  }
  return "?";
}

std::string overload_json(
    const OverloadGovernor& gov,
    const std::vector<const BacklogAdmission*>& cpus) {
  const OverloadConfig& cfg = gov.config();
  telemetry::JsonWriter w;
  w.begin_object();
  w.member("enabled", cfg.enabled);
  w.member("state", to_string(gov.state()));
  w.key("watermarks").begin_object();
  w.member("enter_depth", static_cast<std::uint64_t>(gov.enter_depth()));
  w.member("exit_depth", static_cast<std::uint64_t>(gov.exit_depth()));
  w.member("squeeze_enter_streak", cfg.squeeze_enter_streak);
  w.member("residency_enter_streak", cfg.residency_enter_streak);
  w.member("livelock_polls", cfg.livelock_polls);
  w.end_object();
  w.member("entries", gov.entries());
  w.member("exits", gov.exits());
  w.member("livelocks", gov.livelocks());
  w.key("per_cpu").begin_array();
  for (const BacklogAdmission* adm : cpus) {
    w.begin_object();
    w.member("flow_limit_count",
             adm != nullptr ? adm->flow_limit_count() : 0);
    w.member("shed_count", adm != nullptr ? adm->shed_count() : 0);
    w.end_object();
  }
  w.end_array();
  w.key("transitions").begin_array();
  for (const auto& t : gov.transitions()) {
    w.begin_object();
    w.member("at", static_cast<std::int64_t>(t.at));
    w.member("from", to_string(t.from));
    w.member("to", to_string(t.to));
    w.member("cause", t.cause);
    w.end_object();
  }
  w.end_array();
  w.member("transitions_dropped", gov.transitions_dropped());
  w.end_object();
  return w.take();
}

}  // namespace prism::kernel
