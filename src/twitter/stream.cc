#include "twitter/stream.h"

#include <algorithm>

namespace mbq::twitter {

UpdateStream::UpdateStream(const Dataset& base, StreamMix mix, uint64_t seed)
    : mix_(mix),
      rng_(seed),
      user_popularity_(std::max<uint64_t>(1, base.users.size()), 0.9),
      next_uid_(static_cast<int64_t>(base.users.size())),
      next_tid_(static_cast<int64_t>(base.tweets.size())),
      num_hashtags_(static_cast<int64_t>(base.hashtags.size())) {
  // Track every existing follow edge (no double-follows), and seed the
  // unfollow pool with a sample of them.
  for (const auto& [src, dst] : base.follows) {
    follow_keys_.insert((static_cast<uint64_t>(src) << 32) |
                        static_cast<uint32_t>(dst));
  }
  size_t sample = std::min<size_t>(base.follows.size(), 50000);
  for (size_t i = 0; i < sample && !base.follows.empty(); ++i) {
    live_follows_.push_back(
        base.follows[rng_.NextBounded(base.follows.size())]);
  }
  std::sort(live_follows_.begin(), live_follows_.end());
  live_follows_.erase(
      std::unique(live_follows_.begin(), live_follows_.end()),
      live_follows_.end());
}

int64_t UpdateStream::PickUser() {
  // Popularity-skewed among the founding population, uniform among the
  // newcomers the stream itself created.
  if (next_uid_ > static_cast<int64_t>(user_popularity_.n()) &&
      rng_.NextBool(0.3)) {
    return rng_.NextInRange(static_cast<int64_t>(user_popularity_.n()),
                            next_uid_ - 1);
  }
  return static_cast<int64_t>(user_popularity_.Sample(rng_));
}

int64_t UpdateStream::PickTweet() {
  // Recency-biased: microblog interactions target fresh content.
  int64_t window = std::min<int64_t>(next_tid_, 5000);
  return next_tid_ - 1 - rng_.NextInRange(0, window - 1);
}

void UpdateStream::Next(store::WriteBatch* batch) {
  using store::WriteOpKind;
  double total = mix_.new_user + mix_.new_follow + mix_.unfollow +
                 mix_.new_tweet + mix_.new_mention + mix_.new_tag +
                 mix_.new_retweet;
  double roll = rng_.NextDouble() * total;

  auto take = [&roll](double weight) {
    if (roll < weight) return true;
    roll -= weight;
    return false;
  };
  auto post_tweet = [&] {
    int64_t tid = next_tid_++;
    batch->Append({WriteOpKind::kPostTweet, PickUser(), tid,
                   "live tweet " + std::to_string(tid)});
  };

  // Degenerate stream states fall through to safe event kinds.
  bool have_tweets = next_tid_ > 0;
  bool have_live_follows = !live_follows_.empty();

  if (take(mix_.new_user)) {
    batch->Append({WriteOpKind::kNewUser, next_uid_++, 0, {}});
    return;
  }
  if (take(mix_.new_follow)) {
    // Retry a bounded number of times to find a fresh (src, dst) pair;
    // degrade to a tweet if the neighbourhood is saturated.
    for (int attempt = 0; attempt < 16; ++attempt) {
      int64_t src = PickUser();
      int64_t dst = PickUser();
      if (src == dst) continue;
      uint64_t key = (static_cast<uint64_t>(src) << 32) |
                     static_cast<uint32_t>(dst);
      if (!follow_keys_.insert(key).second) continue;
      batch->Append({WriteOpKind::kFollow, src, dst, {}});
      live_follows_.push_back({src, dst});
      return;
    }
    post_tweet();
    return;
  }
  if (take(mix_.unfollow) && have_live_follows) {
    size_t pick = rng_.NextBounded(live_follows_.size());
    auto [src, dst] = live_follows_[pick];
    batch->Append({WriteOpKind::kUnfollow, src, dst, {}});
    live_follows_[pick] = live_follows_.back();
    live_follows_.pop_back();
    follow_keys_.erase((static_cast<uint64_t>(src) << 32) |
                       static_cast<uint32_t>(dst));
    return;
  }
  if (take(mix_.new_tweet) || !have_tweets) {
    post_tweet();
    return;
  }
  if (take(mix_.new_mention)) {
    int64_t tid = PickTweet();
    batch->Append({WriteOpKind::kAddMention, tid, PickUser(), {}});
    return;
  }
  if (take(mix_.new_tag)) {
    int64_t tid = PickTweet();
    batch->Append({WriteOpKind::kTagTweet, tid, 0,
                   "stream_tag" + std::to_string(rng_.NextBounded(
                                      std::max<int64_t>(8, num_hashtags_)))});
    return;
  }
  // A retweet (also the fallthrough tail of the distribution): a new
  // tweet, then its retweets edge to the original.
  int64_t tid = next_tid_++;
  int64_t orig_tid = PickTweet() % std::max<int64_t>(1, tid);
  if (orig_tid < 0) orig_tid = 0;
  batch->Append({WriteOpKind::kPostTweet, PickUser(), tid,
                 "rt " + std::to_string(tid)});
  batch->Append({WriteOpKind::kRetweetOf, tid, orig_tid, {}});
}

store::WriteBatch UpdateStream::Take(size_t n) {
  store::WriteBatch batch;
  for (size_t i = 0; i < n; ++i) Next(&batch);
  return batch;
}

}  // namespace mbq::twitter
