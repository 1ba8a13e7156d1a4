#include "harness/churn.h"

#include <stdexcept>

namespace prism::harness {

void ChurnOrchestrator::register_container(int pair, int idx,
                                           overlay::Netns& ns) {
  auto& row = slots_.at(static_cast<std::size_t>(pair));
  const auto i = static_cast<std::size_t>(idx);
  if (row.size() <= i) row.resize(i + 1, nullptr);
  row[i] = &ns;
}

void ChurnOrchestrator::run_until(sim::Time deadline, int threads) {
  const auto& events = plan_.events();
  while (next_ < events.size() && events[next_].at <= deadline) {
    const fault::ChurnEvent& e = events[next_];
    // Barrier: every lane stops at exactly e.at before the control plane
    // mutates hosts. run_until to the same instant twice (coincident
    // events) is a no-op round.
    cluster_.run_until(e.at, threads);
    apply(e);
    ++next_;
  }
  cluster_.run_until(deadline, threads);
}

void ChurnOrchestrator::apply(const fault::ChurnEvent& e) {
  overlay::Netns* ns =
      slots_.at(static_cast<std::size_t>(e.pair))
          .at(static_cast<std::size_t>(e.container));
  if (ns == nullptr) {
    throw std::logic_error("ChurnOrchestrator: event for unregistered slot");
  }
  overlay::OverlayNetwork& overlay = cluster_.pair(e.pair).overlay();
  switch (e.kind) {
    case fault::ChurnKind::kStop: {
      overlay.stop_container(*ns, plan_.config().drain);
      if (on_stopped) on_stopped(e.pair, e.container, *ns, e.at);
      break;
    }
    case fault::ChurnKind::kRestart: {
      overlay::Netns& fresh = overlay.restart_container(*ns);
      slots_[static_cast<std::size_t>(e.pair)]
            [static_cast<std::size_t>(e.container)] = &fresh;
      if (on_restarted) on_restarted(e.pair, e.container, fresh, e.at);
      break;
    }
    case fault::ChurnKind::kMigrate: {
      kernel::Host& src = overlay.host_of(*ns);
      kernel::Host& dst = (&src == &cluster_.server(e.pair))
                              ? cluster_.client(e.pair)
                              : cluster_.server(e.pair);
      overlay::Netns& fresh =
          overlay.migrate_container(*ns, dst, plan_.config().drain);
      slots_[static_cast<std::size_t>(e.pair)]
            [static_cast<std::size_t>(e.container)] = &fresh;
      if (on_migrated) on_migrated(e.pair, e.container, fresh, e.at);
      break;
    }
  }
}

}  // namespace prism::harness
