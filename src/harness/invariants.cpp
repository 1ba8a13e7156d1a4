#include "harness/invariants.h"

#include <cstdio>
#include <cstdlib>

#include "kernel/host.h"
#include "kernel/overload.h"
#include "kernel/skb_pool.h"
#include "sim/pool.h"
#include "telemetry/anomaly.h"

namespace prism::harness {

namespace {

int g_failures = 0;

std::string difference(std::uint64_t after, std::uint64_t before) {
  return std::to_string(static_cast<std::int64_t>(after - before));
}

}  // namespace

void check(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::printf("FAIL: %s\n", what.c_str());
}

int failures() noexcept { return g_failures; }

PoolBaseline PoolBaseline::capture() {
  const auto& s = kernel::SkbPool::instance().stats();
  const auto& b = sim::BufferPool::instance().stats();
  return {s.acquired - s.released - s.discarded,
          b.acquired - b.released - b.discarded};
}

void check_no_pool_leak(const PoolBaseline& before, const std::string& tag) {
  const PoolBaseline after = PoolBaseline::capture();
  check(after.skb_outstanding == before.skb_outstanding,
        tag + ": skb pool leak (" +
            difference(after.skb_outstanding, before.skb_outstanding) +
            " outstanding)");
  check(after.buf_outstanding == before.buf_outstanding,
        tag + ": buffer pool leak (" +
            difference(after.buf_outstanding, before.buf_outstanding) +
            " outstanding)");
}

void Conservation::add_host(const kernel::Host& host) {
  const fault::FaultLayer& layer = host.faults();
  for (int cls = 0; cls < fault::kNumFaultClasses; ++cls) {
    const auto c = static_cast<std::size_t>(cls);
    duplicates[c] += layer.plan.duplicates_for_class(cls);
    dropped[c] += layer.drops.class_total(cls);
  }
}

void Conservation::check_classes(const std::string& tag, int classes) const {
  for (int cls = 0; cls < classes; ++cls) {
    const auto c = static_cast<std::size_t>(cls);
    const std::uint64_t injected = sent[c] + duplicates[c];
    const std::uint64_t accounted = delivered[c] + dropped[c];
    check(injected == accounted,
          tag + ": class " + std::to_string(cls) + " conservation " +
              std::to_string(injected) + " != " + std::to_string(accounted));
  }
}

void Conservation::check_total(const std::string& tag) const {
  const std::uint64_t injected = sum(sent) + sum(duplicates);
  const std::uint64_t accounted = sum(delivered) + sum(dropped);
  check(injected == accounted,
        tag + ": total conservation " + std::to_string(injected) +
            " != " + std::to_string(accounted));
}

std::uint64_t Conservation::sum(const PerClass& v) noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t n : v) total += n;
  return total;
}

void check_governor_recovered(const kernel::OverloadGovernor& governor,
                              const std::string& tag) {
  check(governor.entries() == governor.exits(),
        tag + ": overload entries " + std::to_string(governor.entries()) +
            " != exits " + std::to_string(governor.exits()));
  check(governor.state() == kernel::OverloadGovernor::State::kNormal,
        tag + ": governor did not recover to normal");
}

std::string proc_snapshot(kernel::Host& host,
                          std::initializer_list<std::string_view> paths) {
  std::string s;
  for (const std::string_view path : paths) {
    s += host.proc().read(path);
    s += '\n';
  }
  return s;
}

void export_anomaly_trace(const telemetry::AnomalyBank& bank) {
  const char* path = std::getenv("PRISM_ANOMALY_TRACE_OUT");
  if (path == nullptr) return;
  const bool written = telemetry::export_anomaly_trace_file(bank, path);
  check(written, std::string("cannot write anomaly trace ") + path);
  if (written) {
    std::printf("wrote %s (%llu findings)\n", path,
                static_cast<unsigned long long>(bank.findings().size()));
  }
}

}  // namespace prism::harness
