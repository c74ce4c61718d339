#include "bench/e2e/trace.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "store/delta/write_batch.h"

namespace mbq::bench::e2e {

uint64_t SpanNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

template <typename Call>
auto TimedEngine::Time(const char* name, Call&& call) {
  ThreadLog& log = logs_.Local();
  if (log.thread == 0) log.thread = threads_.fetch_add(1) + 1;
  const uint64_t seq = log.calls++;
  const uint64_t start = SpanNowNanos();
  auto result = call();
  const uint64_t end = SpanNowNanos();
  if (seq % 2 == 0) {
    log.traced_nanos.Record(end - start);
    log.spans.push_back(Span{name, uint64_t{log.thread} << 40 | seq, start,
                             end, log.thread, 0});
  } else {
    log.plain_nanos.Record(end - start);
  }
  return result;
}

class TimedEngine::TimedWritable final : public core::WritableEngine {
 public:
  TimedWritable(TimedEngine* outer, core::WritableEngine* inner)
      : outer_(outer), inner_(inner) {}

  Status Commit(store::WriteBatch batch) override {
    return outer_->Time("WritableEngine::Commit", [&] {
      return inner_->Commit(std::move(batch));
    });
  }
  store::SnapshotRegistry& snapshots() override { return inner_->snapshots(); }
  const store::DeltaStore& delta() const override { return inner_->delta(); }
  const store::Wal* wal() const override { return inner_->wal(); }
  int64_t next_tid() const override { return inner_->next_tid(); }

 private:
  TimedEngine* outer_;
  core::WritableEngine* inner_;
};

TimedEngine::TimedEngine(core::MicroblogEngine* inner) : inner_(inner) {
  if (core::WritableEngine* w = inner_->AsWritable()) {
    writable_ = std::make_unique<TimedWritable>(this, w);
  }
}

TimedEngine::~TimedEngine() = default;

TimedEngine::Totals TimedEngine::Collect() const {
  Totals totals;
  logs_.ForEach([&totals](const ThreadLog& log) {
    totals.spans.insert(totals.spans.end(), log.spans.begin(),
                        log.spans.end());
    totals.traced_nanos.Merge(log.traced_nanos);
    totals.plain_nanos.Merge(log.plain_nanos);
  });
  return totals;
}

std::string TimedEngine::name() const { return inner_->name(); }

Result<core::ValueRows> TimedEngine::SelectUsersByFollowerCount(
    int64_t threshold) {
  return Time("SelectUsersByFollowerCount",
              [&] { return inner_->SelectUsersByFollowerCount(threshold); });
}

Result<core::ValueRows> TimedEngine::FolloweesOf(int64_t uid) {
  return Time("FolloweesOf", [&] { return inner_->FolloweesOf(uid); });
}

Result<core::ValueRows> TimedEngine::TweetsOfFollowees(int64_t uid) {
  return Time("TweetsOfFollowees",
              [&] { return inner_->TweetsOfFollowees(uid); });
}

Result<core::ValueRows> TimedEngine::HashtagsUsedByFollowees(int64_t uid) {
  return Time("HashtagsUsedByFollowees",
              [&] { return inner_->HashtagsUsedByFollowees(uid); });
}

Result<core::ValueRows> TimedEngine::TopCoMentionedUsers(int64_t uid,
                                                         int64_t n) {
  return Time("TopCoMentionedUsers",
              [&] { return inner_->TopCoMentionedUsers(uid, n); });
}

Result<core::ValueRows> TimedEngine::TopCoOccurringHashtags(
    const std::string& tag, int64_t n) {
  return Time("TopCoOccurringHashtags",
              [&] { return inner_->TopCoOccurringHashtags(tag, n); });
}

Result<core::ValueRows> TimedEngine::RecommendFolloweesOfFollowees(int64_t uid,
                                                                   int64_t n) {
  return Time("RecommendFolloweesOfFollowees",
              [&] { return inner_->RecommendFolloweesOfFollowees(uid, n); });
}

Result<core::ValueRows> TimedEngine::RecommendFollowersOfFollowees(int64_t uid,
                                                                   int64_t n) {
  return Time("RecommendFollowersOfFollowees",
              [&] { return inner_->RecommendFollowersOfFollowees(uid, n); });
}

Result<core::ValueRows> TimedEngine::CurrentInfluence(int64_t uid, int64_t n) {
  return Time("CurrentInfluence",
              [&] { return inner_->CurrentInfluence(uid, n); });
}

Result<core::ValueRows> TimedEngine::PotentialInfluence(int64_t uid,
                                                        int64_t n) {
  return Time("PotentialInfluence",
              [&] { return inner_->PotentialInfluence(uid, n); });
}

Result<int64_t> TimedEngine::ShortestPathLength(int64_t uid_a, int64_t uid_b,
                                                uint32_t max_hops) {
  return Time("ShortestPathLength", [&] {
    return inner_->ShortestPathLength(uid_a, uid_b, max_hops);
  });
}

Status TimedEngine::DropCaches() { return inner_->DropCaches(); }

void TimedEngine::SetThreads(uint32_t threads, exec::ThreadPool* pool) {
  inner_->SetThreads(threads, pool);
}

core::WritableEngine* TimedEngine::AsWritable() { return writable_.get(); }

std::string ChromeTraceJson(const std::vector<Span>& spans,
                            uint64_t origin_nanos) {
  std::string out = "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  char buf[320];
  bool first = true;
  for (const Span& s : spans) {
    // Names are method names or set-up phases: no JSON escaping needed.
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"request\": %llu, \"depth\": %u}}",
                  first ? "" : ",", s.name, s.thread,
                  static_cast<double>(s.start_nanos - origin_nanos) / 1e3,
                  static_cast<double>(s.end_nanos - s.start_nanos) / 1e3,
                  static_cast<unsigned long long>(s.request), s.depth);
    out += buf;
    first = false;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace mbq::bench::e2e
