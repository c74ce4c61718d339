#ifndef MBQ_BENCH_E2E_TRACE_H_
#define MBQ_BENCH_E2E_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/e2e/measure.h"
#include "bench/hist.h"
#include "core/engine.h"

namespace mbq::bench::e2e {

/// One timed interval of the traced run. A traced request is a single
/// root span (depth 0): the engine call, or WritableEngine::Commit for a
/// write. The set-up spans share request 0, with `setup` as their root.
struct Span {
  const char* name = "";  ///< static
  uint64_t request = 0;
  uint64_t start_nanos = 0;  ///< steady clock
  uint64_t end_nanos = 0;
  uint32_t thread = 0;
  uint32_t depth = 0;
};

/// Steady-clock nanoseconds, the time base of every span.
uint64_t SpanNowNanos();

/// The traced run's timing decorator. It forwards every MicroblogEngine
/// method to `inner`, and hands out a WritableEngine wrapper whose Commit
/// it forwards the same way. Of each calling thread's calls, every other
/// one is traced: kept as a span. The rest are only timed, so
/// `bench.trace_overhead_frac` compares the two halves under the same
/// load. Only public engine calls are timed; nothing inside the program
/// changes.
class TimedEngine final : public core::MicroblogEngine {
 public:
  /// `inner` is borrowed and must outlive the decorator.
  explicit TimedEngine(core::MicroblogEngine* inner);
  ~TimedEngine() override;

  /// What the calling threads recorded; call once they are done.
  struct Totals {
    std::vector<Span> spans;                ///< traced calls
    driver::LatencyHistogram traced_nanos;  ///< their durations
    driver::LatencyHistogram plain_nanos;   ///< the untraced calls
  };
  Totals Collect() const;

  std::string name() const override;
  Result<core::ValueRows> SelectUsersByFollowerCount(
      int64_t threshold) override;
  Result<core::ValueRows> FolloweesOf(int64_t uid) override;
  Result<core::ValueRows> TweetsOfFollowees(int64_t uid) override;
  Result<core::ValueRows> HashtagsUsedByFollowees(int64_t uid) override;
  Result<core::ValueRows> TopCoMentionedUsers(int64_t uid, int64_t n) override;
  Result<core::ValueRows> TopCoOccurringHashtags(const std::string& tag,
                                                 int64_t n) override;
  Result<core::ValueRows> RecommendFolloweesOfFollowees(int64_t uid,
                                                        int64_t n) override;
  Result<core::ValueRows> RecommendFollowersOfFollowees(int64_t uid,
                                                        int64_t n) override;
  Result<core::ValueRows> CurrentInfluence(int64_t uid, int64_t n) override;
  Result<core::ValueRows> PotentialInfluence(int64_t uid, int64_t n) override;
  Result<int64_t> ShortestPathLength(int64_t uid_a, int64_t uid_b,
                                     uint32_t max_hops) override;
  Status DropCaches() override;
  void SetThreads(uint32_t threads, exec::ThreadPool* pool) override;
  core::WritableEngine* AsWritable() override;

 private:
  class TimedWritable;
  struct ThreadLog {
    uint32_t thread = 0;  ///< 1-based trace thread id; 0 until first call
    uint64_t calls = 0;
    std::vector<Span> spans;
    driver::LatencyHistogram traced_nanos;
    driver::LatencyHistogram plain_nanos;
  };

  /// Runs `call`, tracing or timing it as described above.
  template <typename Call>
  auto Time(const char* name, Call&& call);

  core::MicroblogEngine* inner_;
  std::unique_ptr<TimedWritable> writable_;
  PerThread<ThreadLog> logs_;
  std::atomic<uint32_t> threads_{0};
};

/// Chrome trace_event JSON ("X" complete events, microsecond timestamps
/// relative to `origin_nanos`, which must not exceed any span's start) —
/// opens in Perfetto or chrome://tracing.
std::string ChromeTraceJson(const std::vector<Span>& spans,
                            uint64_t origin_nanos);

}  // namespace mbq::bench::e2e

#endif  // MBQ_BENCH_E2E_TRACE_H_
