// AnomalyBank convergence detector: note_disruption() arms a per-class
// watch; the first fully post-disruption SLO window with p99 back under
// the target records a recovery, and a watch that never recovers fires
// kConvergenceTimeout exactly once.
#include <gtest/gtest.h>

#include "sim/time.h"
#include "telemetry/anomaly.h"

namespace prism::telemetry {
namespace {

constexpr sim::Duration kSlo = sim::microseconds(100);
constexpr sim::Duration kWindow = sim::milliseconds(1);
constexpr sim::Duration kDeadline = sim::milliseconds(10);

AnomalyBank armed_bank() {
  AnomalyBank bank;
  AnomalyConfig cfg;
  cfg.slo_p99_ns = kSlo;
  cfg.slo_window_ns = kWindow;
  cfg.convergence_deadline_ns = kDeadline;
  bank.arm(cfg);
  return bank;
}

/// Closes the window containing `from` by delivering one sample past its
/// end (windows are judged at close, when the next delivery arrives).
void fill_window(AnomalyBank& bank, int level, sim::Time start,
                 sim::Duration e2e, int samples = 8) {
  for (int i = 0; i < samples; ++i) {
    bank.on_delivery(level, e2e, start + i * (kWindow / samples));
  }
}

TEST(ConvergenceTest, RecoveryRecordedOnFirstCompliantWindow) {
  AnomalyBank bank = armed_bank();
  const sim::Time t0 = sim::milliseconds(5);
  bank.note_disruption(2, t0);
  EXPECT_TRUE(bank.convergence_watch_armed(2));

  // First post-disruption window: p99 over the target — no recovery.
  fill_window(bank, 2, t0, kSlo * 3);
  // Second window compliant; judged when a later delivery closes it.
  fill_window(bank, 2, t0 + kWindow, kSlo / 2);
  bank.on_delivery(2, kSlo / 2, t0 + 2 * kWindow + 1);

  EXPECT_FALSE(bank.convergence_watch_armed(2));
  ASSERT_EQ(bank.recoveries().size(), 1u);
  const auto& r = bank.recoveries()[0];
  EXPECT_EQ(r.level, 2);
  EXPECT_EQ(r.disrupted_at, t0);
  // Recovery stamps the close of the compliant window.
  EXPECT_EQ(r.recovered_at, t0 + 2 * kWindow);
  EXPECT_EQ(bank.fired(AnomalyKind::kConvergenceTimeout), 0u);
}

TEST(ConvergenceTest, PreDisruptionSamplesNeverSatisfyTheWatch) {
  AnomalyBank bank = armed_bank();
  // A healthy window is in flight when the disruption hits: it must not
  // count as the recovery even though its p99 is compliant.
  fill_window(bank, 2, 0, kSlo / 2);
  const sim::Time t0 = kWindow / 2;
  bank.note_disruption(2, t0);
  // note_disruption restarted the window at t0; closing the restarted
  // window with compliant samples IS a valid recovery.
  fill_window(bank, 2, t0, kSlo / 2);
  bank.on_delivery(2, kSlo / 2, t0 + kWindow + 1);
  ASSERT_EQ(bank.recoveries().size(), 1u);
  EXPECT_GE(bank.recoveries()[0].recovered_at, t0 + kWindow);
}

TEST(ConvergenceTest, TimeoutFiresOnceAndDisarms) {
  AnomalyBank bank = armed_bank();
  const sim::Time t0 = sim::milliseconds(1);
  bank.note_disruption(1, t0);

  // Every window breaches until past the deadline.
  sim::Time t = t0;
  while (t < t0 + kDeadline + 3 * kWindow) {
    bank.on_delivery(1, kSlo * 5, t);
    t += kWindow / 4;
  }
  EXPECT_EQ(bank.fired(AnomalyKind::kConvergenceTimeout), 1u);
  EXPECT_FALSE(bank.convergence_watch_armed(1));

  // Further breaching deliveries never re-fire a disarmed watch.
  bank.on_delivery(1, kSlo * 5, t + kWindow);
  EXPECT_EQ(bank.fired(AnomalyKind::kConvergenceTimeout), 1u);

  // The finding carries the measured exceedance and the deadline.
  bool found = false;
  for (const auto& f : bank.findings()) {
    if (f.kind == AnomalyKind::kConvergenceTimeout) {
      found = true;
      EXPECT_EQ(f.level, 1);
      EXPECT_GT(f.value, static_cast<double>(kDeadline));
      EXPECT_EQ(f.threshold, static_cast<double>(kDeadline));
    }
  }
  EXPECT_TRUE(found);
}

TEST(ConvergenceTest, RearmRestartsTheClock) {
  AnomalyBank bank = armed_bank();
  const sim::Time t0 = sim::milliseconds(1);
  bank.note_disruption(2, t0);
  // Second disruption before convergence: the clock restarts, so a
  // delivery past t0's deadline but inside t1's does not time out.
  const sim::Time t1 = t0 + kDeadline - kWindow;
  bank.note_disruption(2, t1);
  bank.on_delivery(2, kSlo * 5, t0 + kDeadline + kWindow);
  EXPECT_EQ(bank.fired(AnomalyKind::kConvergenceTimeout), 0u);
  EXPECT_TRUE(bank.convergence_watch_armed(2));

  // And the recovery reports the second disruption time.
  const sim::Time w = t0 + kDeadline + 2 * kWindow;
  fill_window(bank, 2, w, kSlo / 2);
  bank.on_delivery(2, kSlo / 2, w + kWindow + 1);
  ASSERT_EQ(bank.recoveries().size(), 1u);
  EXPECT_EQ(bank.recoveries()[0].disrupted_at, t1);
}

TEST(ConvergenceTest, DetectorOffWhenDeadlineOrTargetUnset) {
  // deadline == 0: note_disruption is a no-op.
  {
    AnomalyBank bank;
    AnomalyConfig cfg;
    cfg.slo_p99_ns = kSlo;
    bank.arm(cfg);
    bank.note_disruption(2, 1000);
    EXPECT_FALSE(bank.convergence_watch_armed(2));
  }
  // slo target == 0: no p99 target to recover to — also off.
  {
    AnomalyBank bank;
    AnomalyConfig cfg;
    cfg.convergence_deadline_ns = kDeadline;
    bank.arm(cfg);
    bank.note_disruption(2, 1000);
    EXPECT_FALSE(bank.convergence_watch_armed(2));
  }
}

TEST(ConvergenceTest, ResetClearsWatchesAndRecoveries) {
  AnomalyBank bank = armed_bank();
  bank.note_disruption(2, 1000);
  fill_window(bank, 2, 1000, kSlo / 2);
  bank.on_delivery(2, kSlo / 2, 1000 + kWindow + 1);
  ASSERT_EQ(bank.recoveries().size(), 1u);
  bank.note_disruption(3, 2000);
  bank.reset();
  EXPECT_TRUE(bank.recoveries().empty());
  EXPECT_FALSE(bank.convergence_watch_armed(3));
}

}  // namespace
}  // namespace prism::telemetry
