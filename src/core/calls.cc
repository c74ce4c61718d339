#include "core/calls.h"

#include <algorithm>

#include "core/workload.h"
#include "util/logging.h"

namespace mbq::core {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t MixHash(uint64_t h, uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
  return h;
}

/// Order-insensitive only after SortRows: the digest hashes rows in
/// their canonical order, with a per-row separator so row boundaries
/// matter.
uint64_t DigestRows(const ValueRows& rows) {
  uint64_t h = kFnvOffset;
  for (const ValueRow& row : rows) {
    h = MixHash(h, 0x9E3779B97F4A7C15ull);  // row separator
    for (const Value& v : row) {
      h = MixHash(h, static_cast<uint64_t>(v.Hash()));
    }
  }
  return h;
}

}  // namespace

const char* CallKindName(CallKind kind) {
  switch (kind) {
    case CallKind::kSelectUsers: return "Q1.1";
    case CallKind::kFollowees: return "Q2.1";
    case CallKind::kTweetsOfFollowees: return "Q2.2";
    case CallKind::kHashtagsOfFollowees: return "Q2.3";
    case CallKind::kTopCoMentioned: return "Q3.1";
    case CallKind::kTopCoTags: return "Q3.2";
    case CallKind::kRecFollowees: return "Q4.1";
    case CallKind::kRecFollowers: return "Q4.2";
    case CallKind::kCurrentInfluence: return "Q5.1";
    case CallKind::kPotentialInfluence: return "Q5.2";
    case CallKind::kShortestPath: return "Q6.1";
    case CallKind::kPostTweet: return "W1.1";
    case CallKind::kFollow: return "W2.1";
    case CallKind::kUnfollow: return "W2.2";
    case CallKind::kAddMention: return "W3.1";
  }
  return "?";
}

bool IsWriteCall(CallKind kind) {
  switch (kind) {
    case CallKind::kPostTweet:
    case CallKind::kFollow:
    case CallKind::kUnfollow:
    case CallKind::kAddMention:
      return true;
    default:
      return false;
  }
}

std::string CallSpecToString(const CallSpec& spec) {
  std::string out = CallKindName(spec.kind);
  out += "(";
  switch (spec.kind) {
    case CallKind::kSelectUsers:
      out += "threshold=" + std::to_string(spec.threshold);
      break;
    case CallKind::kTopCoTags:
      out += "tag=" + spec.tag + ", n=" + std::to_string(spec.n);
      break;
    case CallKind::kShortestPath:
      out += "a=" + std::to_string(spec.a) + ", b=" + std::to_string(spec.b) +
             ", hops=" + std::to_string(spec.max_hops);
      break;
    case CallKind::kFollow:
    case CallKind::kUnfollow:
      out += "a=" + std::to_string(spec.a) + ", b=" + std::to_string(spec.b);
      break;
    case CallKind::kAddMention:
      out += "tid=" + std::to_string(spec.a) +
             ", uid=" + std::to_string(spec.b);
      break;
    case CallKind::kTopCoMentioned:
    case CallKind::kRecFollowees:
    case CallKind::kRecFollowers:
    case CallKind::kCurrentInfluence:
    case CallKind::kPotentialInfluence:
      out += "a=" + std::to_string(spec.a) + ", n=" + std::to_string(spec.n);
      break;
    default:
      out += "a=" + std::to_string(spec.a);
      break;
  }
  out += ")";
  return out;
}

Result<ValueRows> RunCall(MicroblogEngine& engine, const CallSpec& spec) {
  switch (spec.kind) {
    case CallKind::kSelectUsers:
      return engine.SelectUsersByFollowerCount(spec.threshold);
    case CallKind::kFollowees:
      return engine.FolloweesOf(spec.a);
    case CallKind::kTweetsOfFollowees:
      return engine.TweetsOfFollowees(spec.a);
    case CallKind::kHashtagsOfFollowees:
      return engine.HashtagsUsedByFollowees(spec.a);
    case CallKind::kTopCoMentioned:
      return engine.TopCoMentionedUsers(spec.a, spec.n);
    case CallKind::kTopCoTags:
      return engine.TopCoOccurringHashtags(spec.tag, spec.n);
    case CallKind::kRecFollowees:
      return engine.RecommendFolloweesOfFollowees(spec.a, spec.n);
    case CallKind::kRecFollowers:
      return engine.RecommendFollowersOfFollowees(spec.a, spec.n);
    case CallKind::kCurrentInfluence:
      return engine.CurrentInfluence(spec.a, spec.n);
    case CallKind::kPotentialInfluence:
      return engine.PotentialInfluence(spec.a, spec.n);
    case CallKind::kShortestPath: {
      Result<int64_t> length =
          engine.ShortestPathLength(spec.a, spec.b, spec.max_hops);
      if (!length.ok()) return length.status();
      return ValueRows{{Value::Int(*length)}};
    }
    case CallKind::kPostTweet:
    case CallKind::kFollow:
    case CallKind::kUnfollow:
    case CallKind::kAddMention: {
      WritableEngine* writable = engine.AsWritable();
      if (writable == nullptr) {
        return Status::NotImplemented(std::string(CallKindName(spec.kind)) +
                                      ": write call on read-only engine " +
                                      engine.name());
      }
      Status committed = Status::OK();
      switch (spec.kind) {
        case CallKind::kPostTweet:
          committed = writable->PostTweet(spec.a, spec.text);
          break;
        case CallKind::kFollow:
          committed = writable->Follow(spec.a, spec.b);
          break;
        case CallKind::kUnfollow:
          committed = writable->Unfollow(spec.a, spec.b);
          break;
        default:
          committed = writable->AddMention(spec.a, spec.b);
          break;
      }
      MBQ_RETURN_IF_ERROR(committed);
      return ValueRows{};
    }
  }
  return Status::InvalidArgument("unknown call kind");
}

Result<CallOutcome> DispatchCall(MicroblogEngine& engine,
                                 const CallSpec& spec) {
  Result<ValueRows> rows = RunCall(engine, spec);
  if (!rows.ok()) return rows.status();
  SortRows(&*rows);
  CallOutcome outcome;
  outcome.rows = rows->size();
  outcome.digest = DigestRows(*rows);
  return outcome;
}

// The read kinds are declared in their kCall order (rpc::NavCall).
static_assert(static_cast<int>(CallKind::kSelectUsers) + 1 ==
              static_cast<int>(rpc::NavCall::kSelectUsersByFollowerCount));
static_assert(static_cast<int>(CallKind::kShortestPath) + 1 ==
              static_cast<int>(rpc::NavCall::kShortestPathLength));

rpc::Frame EncodeCallSpec(const CallSpec& spec) {
  MBQ_CHECK(!IsWriteCall(spec.kind));
  rpc::CallRequest req;
  req.call = static_cast<rpc::NavCall>(static_cast<int>(spec.kind) + 1);
  switch (spec.kind) {
    case CallKind::kSelectUsers:
      req.uid = spec.threshold;
      break;
    case CallKind::kFollowees:
    case CallKind::kTweetsOfFollowees:
    case CallKind::kHashtagsOfFollowees:
      req.uid = spec.a;
      break;
    case CallKind::kTopCoTags:
      req.tag = spec.tag;
      req.arg = spec.n;
      break;
    case CallKind::kShortestPath:
      req.uid = spec.a;
      req.arg = spec.b;
      req.max_hops = spec.max_hops;
      break;
    default:  // the top-n kinds anchored on a uid
      req.uid = spec.a;
      req.arg = spec.n;
      break;
  }
  return rpc::EncodeCall(req);
}

Result<CallSpec> DecodeCallSpec(const rpc::Frame& frame) {
  rpc::CallRequest req;
  MBQ_ASSIGN_OR_RETURN(req, rpc::DecodeCall(frame));
  CallSpec spec;
  spec.kind = static_cast<CallKind>(static_cast<int>(req.call) - 1);
  spec.a = spec.threshold = req.uid;
  spec.b = spec.n = req.arg;
  spec.max_hops = req.max_hops;
  spec.tag = std::move(req.tag);
  return spec;
}

VerifyTally VerifyReport::Total() const {
  VerifyTally sum;
  for (const auto& [kind, tally] : kinds) {
    sum.agreed += tally.agreed;
    sum.total += tally.total;
    sum.errors += tally.errors;
  }
  return sum;
}

VerifyReport Verify(MicroblogEngine& reference, MicroblogEngine& target,
                    const std::vector<CallSpec>& specs) {
  VerifyReport report;
  for (const CallSpec& spec : specs) {
    Result<ValueRows> want = RunCall(reference, spec);
    Result<ValueRows> got = RunCall(target, spec);
    if (want.ok()) SortRows(&*want);
    if (got.ok()) SortRows(&*got);
    VerifyTally& tally = report.kinds[spec.kind];
    tally.total += 1;
    if (want.ok() && got.ok() ? *want == *got
                              : want.status().code() == got.status().code()) {
      tally.agreed += 1;
      // The same refusal on both sides (an unknown hashtag, say) is
      // agreement, tallied apart.
      if (!want.ok()) tally.errors += 1;
      continue;
    }
    if (report.first_divergence.has_value()) continue;
    Divergence& d = report.first_divergence.emplace();
    d.spec = spec;
    d.reference_status = want.status();
    d.target_status = got.status();
    if (want.ok()) d.reference_rows = std::move(*want);
    if (got.ok()) d.target_rows = std::move(*got);
  }
  return report;
}

std::string DivergenceToString(const Divergence& d) {
  auto side = [](const Status& status, const ValueRows& rows) {
    return status.ok() ? std::to_string(rows.size()) + " rows"
                       : status.ToString();
  };
  // Rows of `rows` missing from `other`; both are in SortRows order.
  auto only_in = [](const ValueRows& rows, const ValueRows& other) {
    constexpr size_t kShown = 3;
    std::string out;
    size_t missing = 0;
    for (const ValueRow& row : rows) {
      if (std::binary_search(other.begin(), other.end(), row)) continue;
      if (++missing > kShown) continue;
      out += missing == 1 ? " [" : ", [";
      for (size_t i = 0; i < row.size(); ++i) {
        out += (i == 0 ? "" : " ") + row[i].ToString();
      }
      out += "]";
    }
    if (missing > kShown) {
      out += " and " + std::to_string(missing - kShown) + " more";
    }
    return out;
  };
  std::string out = CallSpecToString(d.spec) + ": reference " +
                    side(d.reference_status, d.reference_rows) + ", target " +
                    side(d.target_status, d.target_rows);
  std::string ref_only = only_in(d.reference_rows, d.target_rows);
  std::string target_only = only_in(d.target_rows, d.reference_rows);
  if (!ref_only.empty()) out += "; only in reference:" + ref_only;
  if (!target_only.empty()) out += "; only in target:" + target_only;
  return out;
}

ParamUniverse::ParamUniverse(const twitter::Dataset& dataset) {
  // UsersByFollowerCount sorts ascending; rank 0 must be the hottest.
  std::vector<std::pair<int64_t, int64_t>> by_followers =
      UsersByFollowerCount(dataset);
  uids_by_rank_.reserve(by_followers.size());
  for (auto it = by_followers.rbegin(); it != by_followers.rend(); ++it) {
    uids_by_rank_.push_back(it->second);
  }
  if (!by_followers.empty()) {
    size_t p90 = by_followers.size() * 9 / 10;
    follower_threshold_ = by_followers[p90].first;
    uid_zipf_.emplace(uids_by_rank_.size(), 0.99);
  }

  tids_.reserve(dataset.tweets.size());
  for (const twitter::Dataset::Tweet& tweet : dataset.tweets) {
    tids_.push_back(tweet.tid);
  }

  std::vector<std::pair<int64_t, std::string>> by_use = HashtagsByUse(dataset);
  tags_by_rank_.reserve(by_use.size());
  for (auto it = by_use.rbegin(); it != by_use.rend(); ++it) {
    tags_by_rank_.push_back(it->second);
  }
  if (!by_use.empty()) {
    tag_zipf_.emplace(tags_by_rank_.size(), 0.99);
  }
}

int64_t ParamUniverse::SampleUid(Rng& rng, bool zipf) const {
  if (uids_by_rank_.empty()) return 0;
  if (zipf && uid_zipf_.has_value()) {
    return uids_by_rank_[uid_zipf_->Sample(rng)];
  }
  return uids_by_rank_[rng.NextBounded(uids_by_rank_.size())];
}

std::pair<int64_t, int64_t> ParamUniverse::SampleUidPair(Rng& rng,
                                                         bool zipf) const {
  int64_t a = SampleUid(rng, zipf);
  int64_t b = SampleUid(rng, zipf);
  if (a == b && num_users() > 1) {
    b = (a + 1) % num_users();
  }
  return {a, b};
}

int64_t ParamUniverse::SampleTid(Rng& rng) const {
  if (tids_.empty()) return -1;
  return tids_[rng.NextBounded(tids_.size())];
}

std::string ParamUniverse::SampleTag(Rng& rng, bool zipf) const {
  if (tags_by_rank_.empty()) return "";
  if (zipf && tag_zipf_.has_value()) {
    return tags_by_rank_[tag_zipf_->Sample(rng)];
  }
  return tags_by_rank_[rng.NextBounded(tags_by_rank_.size())];
}

}  // namespace mbq::core
