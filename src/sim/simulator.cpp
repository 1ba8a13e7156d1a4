#include "sim/simulator.h"

namespace prism::sim {

void Simulator::run() {
  stopped_ = false;
  while (!queue_.empty() && !stopped_) {
    now_ = queue_.next_time();
    queue_.run_next();
    ++executed_;
  }
}

void Simulator::run_until(Time deadline) {
  stopped_ = false;
  while (!queue_.empty() && !stopped_ && queue_.next_time() <= deadline) {
    now_ = queue_.next_time();
    queue_.run_next();
    ++executed_;
  }
  if (now_ < deadline && !stopped_) now_ = deadline;
}

}  // namespace prism::sim
