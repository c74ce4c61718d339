#ifndef MBQ_TWITTER_STREAM_H_
#define MBQ_TWITTER_STREAM_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "store/delta/write_batch.h"
#include "twitter/dataset.h"
#include "util/rng.h"

namespace mbq::twitter {

/// Relative frequency of each event kind per generated event.
struct StreamMix {
  double new_user = 0.02;
  double new_follow = 0.45;
  double unfollow = 0.03;
  double new_tweet = 0.30;
  double new_mention = 0.12;
  double new_tag = 0.06;
  double new_retweet = 0.02;
};

/// Generates a deterministic, referentially consistent update stream on
/// top of an existing dataset. The paper's future work asks to "simulate
/// the true real-time nature of microblogs" by generating the graph
/// on-the-fly with new incoming users, tweets and follow relationships;
/// this is that stream, written in the live write path's own vocabulary
/// (store::WriteBatch) so it commits through WritableEngine::Commit like
/// any other write. Every follow/mention references a user that exists
/// at that point of the stream, every tweet-scoped op a tweet that
/// exists, and every unfollow an edge that is present. Tweet ids are
/// pre-assigned from one past `base`'s tweets (the stream tracks its own
/// tid space, so it extends an engine that has committed no other
/// tweets), and a retweet is a kPostTweet followed by a kRetweetOf on the
/// same tid.
class UpdateStream {
 public:
  /// Events extend `base` (its users/tweets/hashtags seed the id space).
  UpdateStream(const Dataset& base, StreamMix mix, uint64_t seed);

  /// The next `n` events as one batch: one op per event, two for a
  /// retweet.
  store::WriteBatch Take(size_t n);

  int64_t num_users() const { return next_uid_; }
  int64_t num_tweets() const { return next_tid_; }

 private:
  /// Appends the next event's ops to `batch`.
  void Next(store::WriteBatch* batch);
  int64_t PickUser();
  int64_t PickTweet();

  StreamMix mix_;
  Rng rng_;
  ZipfSampler user_popularity_;
  int64_t next_uid_;
  int64_t next_tid_;
  int64_t num_hashtags_;
  /// Live follow edges eligible for unfollow (sampled reservoir).
  std::vector<std::pair<int64_t, int64_t>> live_follows_;
  /// Every follow edge in existence — a user cannot follow twice, so
  /// kFollow ops never duplicate an existing edge.
  std::unordered_set<uint64_t> follow_keys_;
};

}  // namespace mbq::twitter

#endif  // MBQ_TWITTER_STREAM_H_
