#include "core/nodestore_engine.h"

namespace mbq::core {

using cypher::Params;
using cypher::QueryResult;
using cypher::RtValue;

namespace {

/// Table 2 query texts (mini-Cypher). Ties are broken on the grouping
/// key so both engines return identical top-n sets.
constexpr char kQ1Select[] =
    "MATCH (u:user) WHERE u.followers_count > $t RETURN u.uid";

constexpr char kQ21Followees[] =
    "MATCH (a:user {uid: $uid})-[:follows]->(f:user) RETURN f.uid";

constexpr char kQ22FolloweeTweets[] =
    "MATCH (a:user {uid: $uid})-[:follows]->(f:user)-[:posts]->(t:tweet) "
    "RETURN t.tid";

constexpr char kQ23FolloweeHashtags[] =
    "MATCH (a:user {uid: $uid})-[:follows]->(f:user)-[:posts]->(t:tweet)"
    "-[:tags]->(h:hashtag) RETURN DISTINCT h.tag";

constexpr char kQ31CoMentions[] =
    "MATCH (a:user {uid: $uid})<-[:mentions]-(t:tweet)-[:mentions]->(b:user) "
    "WHERE b.uid <> $uid "
    "RETURN b.uid, count(t) AS c ORDER BY c DESC, b.uid ASC LIMIT $n";

constexpr char kQ32CoHashtags[] =
    "MATCH (h:hashtag {tag: $tag})<-[:tags]-(t:tweet)-[:tags]->(g:hashtag) "
    "WHERE g.tag <> $tag "
    "RETURN g.tag, count(t) AS c ORDER BY c DESC, g.tag ASC LIMIT $n";

constexpr char kQ41Recommend[] =
    "MATCH (a:user {uid: $uid})-[:follows]->(f:user)-[:follows]->(c:user) "
    "WHERE c.uid <> $uid AND NOT (a)-[:follows]->(c) "
    "RETURN c.uid, count(f) AS cnt ORDER BY cnt DESC, c.uid ASC LIMIT $n";

constexpr char kQ42Recommend[] =
    "MATCH (a:user {uid: $uid})-[:follows]->(f:user)<-[:follows]-(c:user) "
    "WHERE c.uid <> $uid AND NOT (a)-[:follows]->(c) "
    "RETURN c.uid, count(f) AS cnt ORDER BY cnt DESC, c.uid ASC LIMIT $n";

constexpr char kQ51CurrentInfluence[] =
    "MATCH (a:user {uid: $uid})<-[:mentions]-(t:tweet)<-[:posts]-(u:user) "
    "WHERE u.uid <> $uid AND (u)-[:follows]->(a) "
    "RETURN u.uid, count(t) AS c ORDER BY c DESC, u.uid ASC LIMIT $n";

constexpr char kQ52PotentialInfluence[] =
    "MATCH (a:user {uid: $uid})<-[:mentions]-(t:tweet)<-[:posts]-(u:user) "
    "WHERE u.uid <> $uid AND NOT (u)-[:follows]->(a) "
    "RETURN u.uid, count(t) AS c ORDER BY c DESC, u.uid ASC LIMIT $n";

}  // namespace

const char* NodestoreEngine::kRecommendVariantA =
    "MATCH (a:user {uid: $uid})-[:follows*2..2]->(c:user) "
    "WHERE c.uid <> $uid AND NOT (a)-[:follows]->(c) "
    "RETURN c.uid, count(*) AS cnt ORDER BY cnt DESC, c.uid ASC LIMIT $n";

const char* NodestoreEngine::kRecommendVariantB = kQ41Recommend;

const char* NodestoreEngine::kRecommendVariantC =
    "MATCH (a:user {uid: $uid})-[:follows*1..2]->(c:user) "
    "WHERE c.uid <> $uid AND NOT (a)-[:follows]->(c) "
    "RETURN c.uid, count(*) AS cnt ORDER BY cnt DESC, c.uid ASC LIMIT $n";

Result<ValueRows> NodestoreEngine::RunToRows(const std::string& query,
                                             const Params& params) {
  MBQ_ASSIGN_OR_RETURN(QueryResult result, session_.Run(query, params));
  ValueRows rows;
  rows.reserve(result.rows.size());
  for (const cypher::Row& row : result.rows) {
    ValueRow out;
    out.reserve(row.size());
    for (const RtValue& v : row) {
      switch (v.kind) {
        case RtValue::Kind::kNull:
          out.push_back(Value::Null());
          break;
        case RtValue::Kind::kValue:
          out.push_back(v.value);
          break;
        default:
          return Status::Internal(
              "workload query returned a non-scalar column");
      }
    }
    rows.push_back(std::move(out));
  }
  return rows;
}

Result<ValueRows> NodestoreEngine::SelectUsersByFollowerCount(
    int64_t threshold) {
  return RunToRows(kQ1Select, {{"t", Value::Int(threshold)}});
}

Result<ValueRows> NodestoreEngine::FolloweesOf(int64_t uid) {
  return RunToRows(kQ21Followees, {{"uid", Value::Int(uid)}});
}

Result<ValueRows> NodestoreEngine::TweetsOfFollowees(int64_t uid) {
  return RunToRows(kQ22FolloweeTweets, {{"uid", Value::Int(uid)}});
}

Result<ValueRows> NodestoreEngine::HashtagsUsedByFollowees(int64_t uid) {
  return RunToRows(kQ23FolloweeHashtags, {{"uid", Value::Int(uid)}});
}

Result<ValueRows> NodestoreEngine::TopCoMentionedUsers(int64_t uid,
                                                       int64_t n) {
  return RunToRows(kQ31CoMentions,
                   {{"uid", Value::Int(uid)}, {"n", Value::Int(n)}});
}

Result<ValueRows> NodestoreEngine::TopCoOccurringHashtags(
    const std::string& tag, int64_t n) {
  return RunToRows(kQ32CoHashtags,
                   {{"tag", Value::String(tag)}, {"n", Value::Int(n)}});
}

Result<ValueRows> NodestoreEngine::RecommendFolloweesOfFollowees(int64_t uid,
                                                                 int64_t n) {
  return RunToRows(kQ41Recommend,
                   {{"uid", Value::Int(uid)}, {"n", Value::Int(n)}});
}

Result<ValueRows> NodestoreEngine::RecommendFollowersOfFollowees(int64_t uid,
                                                                 int64_t n) {
  return RunToRows(kQ42Recommend,
                   {{"uid", Value::Int(uid)}, {"n", Value::Int(n)}});
}

Result<ValueRows> NodestoreEngine::CurrentInfluence(int64_t uid, int64_t n) {
  return RunToRows(kQ51CurrentInfluence,
                   {{"uid", Value::Int(uid)}, {"n", Value::Int(n)}});
}

Result<ValueRows> NodestoreEngine::PotentialInfluence(int64_t uid, int64_t n) {
  return RunToRows(kQ52PotentialInfluence,
                   {{"uid", Value::Int(uid)}, {"n", Value::Int(n)}});
}

Result<int64_t> NodestoreEngine::ShortestPathLength(int64_t uid_a,
                                                    int64_t uid_b,
                                                    uint32_t max_hops) {
  std::string query =
      "MATCH (a:user {uid: $a}), (b:user {uid: $b}), "
      "p = shortestPath((a)-[:follows*.." +
      std::to_string(max_hops) + "]->(b)) RETURN length(p)";
  MBQ_ASSIGN_OR_RETURN(
      ValueRows rows,
      RunToRows(query, {{"a", Value::Int(uid_a)}, {"b", Value::Int(uid_b)}}));
  if (rows.empty()) return -1;
  return rows[0][0].AsInt();
}

}  // namespace mbq::core
