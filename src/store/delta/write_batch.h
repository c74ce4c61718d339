#ifndef MBQ_STORE_DELTA_WRITE_BATCH_H_
#define MBQ_STORE_DELTA_WRITE_BATCH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace mbq::store {

/// One logical microblog write. The kinds mirror the live side of the
/// Table 2 surface (post a tweet, follow/unfollow, mention) plus the
/// three the update stream adds (new user, hashtag, retweet) rather than
/// raw record edits, so a single op stays meaningful across both store
/// backends and across the WAL: the same encoded op replays into the
/// record store and the bitmap store and produces the same graph. WAL
/// records persist these values, so they are append-only (pinned in
/// scripts/rpc_wire.lock).
enum class WriteOpKind : uint8_t {
  kPostTweet = 1,   ///< a = poster uid, b = tweet id (kUnassignedTid
                    ///< until the commit path assigns one)
  kFollow = 2,      ///< a = follower uid, b = followee uid
  kUnfollow = 3,    ///< a = follower uid, b = followee uid (tombstone)
  kAddMention = 4,  ///< a = tweet id, b = mentioned uid
  kNewUser = 5,     ///< a = the new user's uid
  kTagTweet = 6,    ///< a = tweet id, text = hashtag (created on first use)
  kRetweetOf = 7,   ///< a = retweeting tweet id, b = original tweet id
};

/// The tweet id of a kPostTweet op that asks the commit path for a fresh
/// one. No tweet has it, so a tid the caller chose (0 included) commits
/// as given or fails like any other write; Cypher refuses a negative tid.
inline constexpr int64_t kUnassignedTid = -1;

struct WriteOp {
  WriteOpKind kind = WriteOpKind::kFollow;
  int64_t a = 0;
  int64_t b = 0;
  std::string text;  ///< tweet text (kPostTweet) or hashtag (kTagTweet)

  bool operator==(const WriteOp& other) const {
    return kind == other.kind && a == other.a && b == other.b &&
           text == other.text;
  }
  bool operator!=(const WriteOp& other) const { return !(*this == other); }
};

/// The unit of change for the live write path. Single typed calls, group
/// commit and the update stream share this one value type:
/// `PostTweet(uid)` builds a one-op batch, a load driver can pack many
/// ops, twitter::UpdateStream emits whole batches, and the WAL logs the
/// encoded batch either way — there is exactly one commit path.
class WriteBatch {
 public:
  WriteBatch& PostTweet(int64_t uid, std::string text = std::string()) {
    ops_.push_back(
        {WriteOpKind::kPostTweet, uid, kUnassignedTid, std::move(text)});
    return *this;
  }
  WriteBatch& Follow(int64_t src_uid, int64_t dst_uid) {
    ops_.push_back({WriteOpKind::kFollow, src_uid, dst_uid, {}});
    return *this;
  }
  WriteBatch& Unfollow(int64_t src_uid, int64_t dst_uid) {
    ops_.push_back({WriteOpKind::kUnfollow, src_uid, dst_uid, {}});
    return *this;
  }
  WriteBatch& AddMention(int64_t tid, int64_t uid) {
    ops_.push_back({WriteOpKind::kAddMention, tid, uid, {}});
    return *this;
  }
  void Append(WriteOp op) { ops_.push_back(std::move(op)); }

  bool empty() const { return ops_.empty(); }
  size_t size() const { return ops_.size(); }
  const std::vector<WriteOp>& ops() const { return ops_; }
  /// The commit path patches unassigned tweet ids in place.
  std::vector<WriteOp>& mutable_ops() { return ops_; }
  void clear() { ops_.clear(); }

  bool operator==(const WriteBatch& other) const {
    return ops_ == other.ops_;
  }

 private:
  std::vector<WriteOp> ops_;
};

/// Binary batch codec shared by the WAL and the (reserved) kWriteBatch
/// RPC frame: [u32 op count] then per op [u8 kind][i64 a][i64 b]
/// [u32 text len][text bytes], all little-endian fixed width.
void EncodeWriteBatch(const WriteBatch& batch, std::string* out);
Result<WriteBatch> DecodeWriteBatch(std::string_view in);

}  // namespace mbq::store

#endif  // MBQ_STORE_DELTA_WRITE_BATCH_H_
