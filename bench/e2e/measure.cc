#include "bench/e2e/measure.h"

#include <algorithm>
#include <atomic>
#include <limits>

namespace mbq::bench::e2e {

namespace {

// Far beyond any engine's capacity: a million requests fit in the first
// microsecond of the schedule.
constexpr double kClosedLoopRate = 1e12;

}  // namespace

uint64_t NextPerThreadId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void LagClock::SleepUntilNanos(uint64_t deadline_nanos) {
  inner_->SleepUntilNanos(deadline_nanos > spin_nanos_
                              ? deadline_nanos - spin_nanos_
                              : 0);
  uint64_t now = inner_->NowNanos();
  while (now < deadline_nanos) now = inner_->NowNanos();
  lags_.Local().Record(now - deadline_nanos);
}

driver::LatencyHistogram LagClock::SendLagNanos() const {
  driver::LatencyHistogram all;
  lags_.ForEach([&all](const driver::LatencyHistogram& h) { all.Merge(h); });
  return all;
}

driver::DriverOptions ClosedLoop(uint32_t clients, uint64_t requests) {
  driver::DriverOptions options;
  options.rate_qps = kClosedLoopRate;
  options.clients = clients;
  options.duration_seconds = 0;  // bounded by the request count alone
  options.max_requests = requests;
  options.arrival = driver::Arrival::kUniform;
  return options;
}

double QuantileWithErrors(const driver::LatencyHistogram& ok, uint64_t errors,
                          double q) {
  const double successes = static_cast<double>(ok.count());
  const double rank = std::clamp(q, 0.0, 1.0) * (successes + errors);
  if (rank > successes) return std::numeric_limits<double>::infinity();
  return successes == 0 ? 0 : ok.Quantile(rank / successes);
}

}  // namespace mbq::bench::e2e
