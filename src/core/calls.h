#ifndef MBQ_CORE_CALLS_H_
#define MBQ_CORE_CALLS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "rpc/messages.h"
#include "twitter/dataset.h"
#include "util/rng.h"

namespace mbq::core {

/// The Table 2 workload as data: every MicroblogEngine call named by an
/// enum so drivers, verifiers and tests can dispatch calls built at
/// runtime (from a workload-mix file, an RPC, a random stream) without
/// a switch at every call site.
enum class CallKind {
  kSelectUsers,          ///< Q1.1 SelectUsersByFollowerCount(threshold)
  kFollowees,            ///< Q2.1 FolloweesOf(a)
  kTweetsOfFollowees,    ///< Q2.2 TweetsOfFollowees(a)
  kHashtagsOfFollowees,  ///< Q2.3 HashtagsUsedByFollowees(a)
  kTopCoMentioned,       ///< Q3.1 TopCoMentionedUsers(a, n)
  kTopCoTags,            ///< Q3.2 TopCoOccurringHashtags(tag, n)
  kRecFollowees,         ///< Q4.1 RecommendFolloweesOfFollowees(a, n)
  kRecFollowers,         ///< Q4.2 RecommendFollowersOfFollowees(a, n)
  kCurrentInfluence,     ///< Q5.1 CurrentInfluence(a, n)
  kPotentialInfluence,   ///< Q5.2 PotentialInfluence(a, n)
  kShortestPath,         ///< Q6.1 ShortestPathLength(a, b, max_hops)

  // The live half of the surface (docs/WRITES.md), dispatched through
  // MicroblogEngine::AsWritable(); NotImplemented on read-only engines.
  kPostTweet,            ///< W1.1 PostTweet(a)           — a = poster uid
  kFollow,               ///< W2.1 Follow(a, b)           — a follows b
  kUnfollow,             ///< W2.2 Unfollow(a, b)         — a unfollows b
  kAddMention,           ///< W3.1 AddMention(a, b)       — tweet a mentions b
};

/// "Q1.1" .. "Q6.1" (the paper's names) and "W1.1" .. "W3.1" (the live
/// write extension).
const char* CallKindName(CallKind kind);

/// True for the write kinds (kPostTweet..kAddMention). Write calls
/// mutate engine state, so their outcomes are not comparable across runs
/// the way read digests are — agreement harnesses compare the *reads*
/// issued after identical write streams instead.
bool IsWriteCall(CallKind kind);

/// One fully parameterized call, ready to run on any engine.
struct CallSpec {
  CallKind kind = CallKind::kFollowees;
  int64_t a = 0;           ///< primary uid (write kinds: see CallKind docs)
  int64_t b = 0;           ///< second uid (kShortestPath, kFollow/kUnfollow,
                           ///< kAddMention)
  int64_t n = 10;          ///< top-n limit
  int64_t threshold = 0;   ///< kSelectUsers
  uint32_t max_hops = 3;   ///< kShortestPath bound
  std::string tag;         ///< kTopCoTags
  std::string text;        ///< kPostTweet tweet text (may be empty)
};

/// Compact display form, e.g. "Q2.1(a=17)" — for error messages and
/// divergence reports.
std::string CallSpecToString(const CallSpec& spec);

/// What a dispatched call produced, reduced to a comparable summary:
/// the row count and an order-insensitive digest of the full result
/// (rows are canonicalized with SortRows before hashing). Two engines
/// agree on a call iff their outcomes compare equal.
struct CallOutcome {
  uint64_t rows = 0;
  uint64_t digest = 0;

  bool operator==(const CallOutcome& other) const {
    return rows == other.rows && digest == other.digest;
  }
  bool operator!=(const CallOutcome& other) const {
    return !(*this == other);
  }
};

/// Runs `spec` on `engine` and returns its rows as the engine produced
/// them (unsorted). This is the one switch over the call kinds. The
/// scalar kShortestPath answers one row holding the path length. Write
/// calls route through engine.AsWritable() — NotImplemented when the
/// engine is read-only — and answer no rows: the ids a write assigns are
/// allocation-order dependent, so returning them would make identical
/// logical streams compare unequal. RunCall opens no trace context of
/// its own: the engine's call span is the ingress, a child of the current
/// context or a fresh root.
Result<ValueRows> RunCall(MicroblogEngine& engine, const CallSpec& spec);

/// RunCall, reduced to its CallOutcome.
Result<CallOutcome> DispatchCall(MicroblogEngine& engine,
                                 const CallSpec& spec);

/// The kCall frame asking a shard to run `spec`, which must be a read
/// kind: call value kind + 1, and only the fields docs/CLUSTER.md assigns
/// to that call (the rest encode as zero).
rpc::Frame EncodeCallSpec(const CallSpec& spec);

/// The read call a kCall frame carries. Each body field lands in every
/// CallSpec field it can mean (uid in `a` and `threshold`, arg in `b` and
/// `n`); RunCall reads only the ones the kind uses. Corruption on a
/// malformed body or a call value outside 1–11.
Result<CallSpec> DecodeCallSpec(const rpc::Frame& frame);

/// One call kind's tally in a Verify run. A call on which both engines
/// fail with the same status code counts as agreed, and also in
/// `errors`, so a sweep that expects every call to succeed can assert
/// that tally is zero.
struct VerifyTally {
  uint64_t agreed = 0;
  uint64_t total = 0;
  uint64_t errors = 0;
};

/// The first call on which the two engines disagreed: the spec, both
/// statuses, and both row sets in SortRows order (empty on error).
struct Divergence {
  CallSpec spec;
  Status reference_status;
  Status target_status;
  ValueRows reference_rows;
  ValueRows target_rows;
};

/// What Verify found: per-kind tallies for the kinds `specs` drew, and
/// the first divergence, if any.
struct VerifyReport {
  std::map<CallKind, VerifyTally> kinds;
  std::optional<Divergence> first_divergence;

  bool ok() const { return !first_divergence.has_value(); }
  /// The tallies summed over every kind.
  VerifyTally Total() const;
};

/// The differential oracle: runs every spec, in order, on `reference`
/// and then on `target`, and compares the sorted rows. Write specs run
/// on both sides too, so every later read sees the same committed
/// prefix. Runs all specs even after a divergence, so the tallies cover
/// the whole stream.
VerifyReport Verify(MicroblogEngine& reference, MicroblogEngine& target,
                    const std::vector<CallSpec>& specs);

/// One-line form of a divergence for reports: the spec, both statuses
/// and row counts, and the first few rows only one side returned.
std::string DivergenceToString(const Divergence& divergence);

/// Parameter generators over a generated twitter dataset: the sampling
/// side of an open-loop workload. Uids are drawn either uniformly or
/// Zipf-skewed towards well-followed users (social-graph read traffic
/// concentrates on popular accounts); hashtags likewise by usage rank.
/// All draws flow through the caller's Rng so request streams are
/// reproducible from a seed.
class ParamUniverse {
 public:
  explicit ParamUniverse(const twitter::Dataset& dataset);

  int64_t num_users() const {
    return static_cast<int64_t>(uids_by_rank_.size());
  }
  bool has_tags() const { return !tags_by_rank_.empty(); }
  bool has_tweets() const { return !tids_.empty(); }

  /// A uid; `zipf` skews towards high follower counts.
  int64_t SampleUid(Rng& rng, bool zipf) const;
  /// Two distinct uids (a == b is remapped: the engines' shortest-path
  /// surfaces disagree about zero-length paths by design, see
  /// docs/BENCHMARKS.md).
  std::pair<int64_t, int64_t> SampleUidPair(Rng& rng, bool zipf) const;
  /// A hashtag; `zipf` skews towards heavily used tags. Empty string
  /// when the dataset has no hashtags.
  std::string SampleTag(Rng& rng, bool zipf) const;
  /// A follower-count threshold that selects roughly the top decile of
  /// users — a Q1.1 parameter with a stable result cardinality across
  /// dataset scales.
  int64_t FollowerThreshold() const { return follower_threshold_; }
  /// A bulk-loaded tweet id, uniform (mention writes target existing
  /// tweets); -1 when the dataset has no tweets.
  int64_t SampleTid(Rng& rng) const;

 private:
  std::vector<int64_t> uids_by_rank_;      // rank 0 = most followers
  std::vector<std::string> tags_by_rank_;  // rank 0 = most used
  std::vector<int64_t> tids_;              // bulk-loaded tweet ids
  std::optional<ZipfSampler> uid_zipf_;
  std::optional<ZipfSampler> tag_zipf_;
  int64_t follower_threshold_ = 0;
};

}  // namespace mbq::core

#endif  // MBQ_CORE_CALLS_H_
