#ifndef MBQ_BENCH_E2E_MEASURE_H_
#define MBQ_BENCH_E2E_MEASURE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bench/driver.h"
#include "bench/hist.h"
#include "util/lock_rank.h"
#include "util/thread_annotations.h"

namespace mbq::bench::e2e {

/// A fresh id per PerThread instance (never 0).
uint64_t NextPerThreadId();

/// One T per calling thread, so the driver's client threads record
/// without sharing anything. A thread's T is created on its first
/// Local() call; later calls take no lock.
template <typename T>
class PerThread {
 public:
  PerThread() : id_(NextPerThreadId()) {}

  T& Local() {
    // One slot per thread and per T; the owner id tells this instance
    // from an earlier one the thread used.
    thread_local uint64_t owner = 0;
    thread_local T* local = nullptr;
    if (owner != id_) {
      util::ScopedLock lock(mu_);
      items_.push_back(std::make_unique<T>());
      local = items_.back().get();
      owner = id_;
    }
    return *local;
  }

  /// Visits every thread's T. The threads must be done calling Local().
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    util::ScopedLock lock(mu_);
    for (const std::unique_ptr<T>& item : items_) fn(*item);
  }

 private:
  const uint64_t id_;
  mutable util::RankedMutex mu_{util::LockRank::kDriver,
                                "bench.e2e.per_thread"};
  std::vector<std::unique_ptr<T>> items_ MBQ_GUARDED_BY(mu_);
};

/// The clock handed to LoadDriver for an open-loop phase. It sleeps on
/// `inner` until `spin_nanos` short of each send time and spins the
/// rest, so the host's wake-up jitter stays out of the measured latency,
/// and it records every request's send lag: how far past its intended
/// send time the driver issued it. The lag is the head-of-line wait of a
/// client whose previous request overran.
class LagClock final : public driver::DriverClock {
 public:
  /// `inner` is borrowed. With `spin_nanos` 0 each deadline goes to
  /// `inner` whole, as a fake clock needs.
  LagClock(driver::DriverClock* inner, uint64_t spin_nanos)
      : inner_(inner), spin_nanos_(spin_nanos) {}

  uint64_t NowNanos() override { return inner_->NowNanos(); }
  void SleepUntilNanos(uint64_t deadline_nanos) override;

  /// Nanoseconds; call once LoadDriver::Run has returned.
  driver::LatencyHistogram SendLagNanos() const;

 private:
  driver::DriverClock* inner_;
  const uint64_t spin_nanos_;
  PerThread<driver::LatencyHistogram> lags_;
};

/// LoadDriver options for a closed loop: `requests` calls split across
/// `clients`, each client sending its next call as soon as the previous
/// one returns. A uniform schedule at a rate no engine reaches puts every
/// intended send time at the phase start, so no client ever waits: the
/// driver's existing pacing, with nothing to pace. Only
/// the report's counts and wall time mean anything: its latencies run
/// from the phase start.
driver::DriverOptions ClosedLoop(uint32_t clients, uint64_t requests);

/// The `q` quantile over the successes in `ok` plus `errors` failed
/// requests ranked above every success; +infinity once the rank falls
/// among the failures. Failing the slow requests therefore never makes
/// a tail percentile look better.
double QuantileWithErrors(const driver::LatencyHistogram& ok, uint64_t errors,
                          double q);

}  // namespace mbq::bench::e2e

#endif  // MBQ_BENCH_E2E_MEASURE_H_
