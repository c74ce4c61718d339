#include "core/write_path.h"

#include <chrono>

#include "obs/metrics.h"

namespace mbq::core {

namespace {

struct WriteMetrics {
  obs::Counter* commits;
  obs::Counter* ops;
  obs::Counter* post_tweet;
  obs::Counter* follow;
  obs::Counter* unfollow;
  obs::Counter* add_mention;
  obs::Counter* commit_errors;
  obs::Counter* replayed_batches;
  obs::Histogram* commit_micros;

  static WriteMetrics& Get() {
    static WriteMetrics m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
      WriteMetrics m;
      m.commits = r.GetCounter("write.commits", "batches",
                               "write batches committed");
      m.ops = r.GetCounter("write.ops", "ops",
                           "ops inside committed write batches");
      m.post_tweet = r.GetCounter("write.ops.post_tweet", "ops",
                                  "post_tweet ops committed");
      m.follow =
          r.GetCounter("write.ops.follow", "ops", "follow ops committed");
      m.unfollow =
          r.GetCounter("write.ops.unfollow", "ops", "unfollow ops committed");
      m.add_mention = r.GetCounter("write.ops.add_mention", "ops",
                                   "add_mention ops committed");
      m.commit_errors = r.GetCounter(
          "write.commit_errors", "batches",
          "batches whose base-store apply or WAL append failed");
      m.replayed_batches = r.GetCounter(
          "write.replayed_batches", "batches",
          "batches re-applied from the WAL at engine open");
      m.commit_micros = r.GetHistogram(
          "write.commit_micros", "us",
          "wall time per committed batch, apply through durability");
      return m;
    }();
    return m;
  }
};

void CountOps(const store::WriteBatch& batch) {
  WriteMetrics& m = WriteMetrics::Get();
  m.ops->Inc(batch.size());
  for (const store::WriteOp& op : batch.ops()) {
    switch (op.kind) {
      case store::WriteOpKind::kPostTweet: m.post_tweet->Inc(); break;
      case store::WriteOpKind::kFollow: m.follow->Inc(); break;
      case store::WriteOpKind::kUnfollow: m.unfollow->Inc(); break;
      case store::WriteOpKind::kAddMention: m.add_mention->Inc(); break;
      // The update stream's kinds count in write.ops only.
      case store::WriteOpKind::kNewUser:
      case store::WriteOpKind::kTagTweet:
      case store::WriteOpKind::kRetweetOf: break;
    }
  }
}

}  // namespace

void EngineWriter::AdvancePastTids(const store::WriteBatch& batch) {
  for (const store::WriteOp& op : batch.ops()) {
    if (op.kind != store::WriteOpKind::kPostTweet) continue;
    int64_t next = next_tid_.load(std::memory_order_relaxed);
    while (op.b >= next &&
           !next_tid_.compare_exchange_weak(next, op.b + 1,
                                            std::memory_order_relaxed)) {
    }
  }
}

Result<std::unique_ptr<EngineWriter>> EngineWriter::Open(
    const store::WalOptions& wal, int64_t tid_floor, ApplyFn apply) {
  std::unique_ptr<EngineWriter> writer(
      new EngineWriter(std::move(apply), tid_floor));
  if (wal.dir.empty()) return writer;

  store::WalRecovery recovery;
  MBQ_ASSIGN_OR_RETURN(writer->wal_, store::Wal::Open(wal, &recovery));

  // Replay: re-apply every recovered batch under the same commit protocol
  // (minus re-logging — the records are already on disk), so after open
  // the engine answers queries byte-identically to the pre-crash state.
  uint64_t seq = 0;
  for (store::WriteBatch& batch : recovery.batches) {
    ++seq;
    auto guard = writer->snapshots_.BeginCommit();
    MBQ_RETURN_IF_ERROR(writer->apply_(batch));
    writer->delta_.Count(batch, seq);
    writer->AdvancePastTids(batch);
  }
  WriteMetrics::Get().replayed_batches->Inc(recovery.records);
  return writer;
}

Status EngineWriter::Commit(store::WriteBatch batch) {
  if (batch.empty()) return Status::OK();
  auto start = std::chrono::steady_clock::now();

  // Fresh tweet ids are assigned before logging so the WAL record carries
  // the concrete id and replay regenerates the identical graph.
  for (store::WriteOp& op : batch.mutable_ops()) {
    if (op.kind == store::WriteOpKind::kPostTweet && op.b == 0) {
      op.b = next_tid_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  AdvancePastTids(batch);

  uint64_t seq = 0;
  {
    auto guard = snapshots_.BeginCommit();
    Status applied = apply_(batch);
    if (!applied.ok()) {
      // Not logged, not counted: replay will never see this batch.
      // The nodestore apply rolls its transaction back; the bitmap
      // store applies in place, Sparksee-style, so a mid-batch failure
      // there can leave a prefix applied (documented in docs/WRITES.md).
      WriteMetrics::Get().commit_errors->Inc();
      return applied;
    }
    if (wal_ != nullptr) {
      auto staged = wal_->Stage(batch);
      if (!staged.ok()) {
        WriteMetrics::Get().commit_errors->Inc();
        return staged.status();
      }
      seq = *staged;
    }
    delta_.Count(batch, seq);
  }
  // The batch is visible; durability can batch across committers.
  if (wal_ != nullptr) {
    Status durable = wal_->WaitDurable(seq);
    if (!durable.ok()) {
      WriteMetrics::Get().commit_errors->Inc();
      return durable;
    }
  }

  WriteMetrics::Get().commits->Inc();
  CountOps(batch);
  auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  WriteMetrics::Get().commit_micros->Record(
      static_cast<uint64_t>(elapsed.count()));
  return Status::OK();
}

// --------------------------------------------- WritableEngine conveniences

Status WritableEngine::PostTweet(int64_t uid, std::string text) {
  store::WriteBatch batch;
  batch.PostTweet(uid, std::move(text));
  return Commit(std::move(batch));
}

Status WritableEngine::Follow(int64_t src_uid, int64_t dst_uid) {
  store::WriteBatch batch;
  batch.Follow(src_uid, dst_uid);
  return Commit(std::move(batch));
}

Status WritableEngine::Unfollow(int64_t src_uid, int64_t dst_uid) {
  store::WriteBatch batch;
  batch.Unfollow(src_uid, dst_uid);
  return Commit(std::move(batch));
}

Status WritableEngine::AddMention(int64_t tid, int64_t uid) {
  store::WriteBatch batch;
  batch.AddMention(tid, uid);
  return Commit(std::move(batch));
}

}  // namespace mbq::core
