#include <gtest/gtest.h>

#include "cypher/lexer.h"
#include "util/rng.h"
#include "cypher/parser.h"
#include "cypher/session.h"
#include "nodestore/graph_db.h"

namespace mbq::cypher {
namespace {

using common::Value;
using nodestore::GraphDb;
using nodestore::GraphDbOptions;

GraphDbOptions FastOptions() {
  GraphDbOptions options;
  options.disk_profile = storage::DiskProfile::Instant();
  return options;
}

// ------------------------------------------------------------------ Lexer

TEST(LexerTest, TokenizesPatterns) {
  auto tokens = Tokenize("MATCH (u:user {uid: $id})-[:follows]->(f) RETURN f");
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  ASSERT_GE(tokens->size(), 10u);
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*tokens)[0].text, "MATCH");
}

TEST(LexerTest, TokenizesOperators) {
  auto tokens = Tokenize("a <> b <= c >= d < e > f = g");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const Token& t : *tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds[1], TokenKind::kNe);
  EXPECT_EQ(kinds[3], TokenKind::kLe);
  EXPECT_EQ(kinds[5], TokenKind::kGe);
  EXPECT_EQ(kinds[7], TokenKind::kLt);
  EXPECT_EQ(kinds[9], TokenKind::kGt);
  EXPECT_EQ(kinds[11], TokenKind::kEq);
}

TEST(LexerTest, StringEscapes) {
  auto tokens = Tokenize("RETURN 'it\\'s'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kString);
  EXPECT_EQ((*tokens)[1].text, "it's");
}

TEST(LexerTest, RejectsUnterminatedString) {
  EXPECT_FALSE(Tokenize("RETURN 'oops").ok());
}

TEST(LexerTest, RejectsBadCharacter) {
  EXPECT_FALSE(Tokenize("RETURN @x").ok());
}

TEST(LexerTest, VariableLengthSpec) {
  auto tokens = Tokenize("-[:follows*2..3]->");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const Token& t : *tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds[0], TokenKind::kDash);
  EXPECT_EQ(kinds[4], TokenKind::kStar);
  EXPECT_EQ(kinds[6], TokenKind::kDotDot);
}

// ----------------------------------------------------------------- Parser

TEST(ParserTest, ParsesSimpleMatch) {
  auto q = ParseQuery("MATCH (u:user) RETURN u.uid");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->patterns.size(), 1u);
  EXPECT_EQ(q->patterns[0].nodes.size(), 1u);
  EXPECT_EQ(q->patterns[0].nodes[0].variable, "u");
  EXPECT_EQ(q->patterns[0].nodes[0].label, "user");
  ASSERT_EQ(q->return_items.size(), 1u);
  EXPECT_EQ(q->return_items[0].expr->kind, ExprKind::kProperty);
}

TEST(ParserTest, ParsesChainWithDirections) {
  auto q = ParseQuery(
      "MATCH (a:user {uid: $uid})<-[:mentions]-(t:tweet)-[m:mentions]->"
      "(b:user) RETURN b.uid");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const PatternPart& part = q->patterns[0];
  ASSERT_EQ(part.nodes.size(), 3u);
  ASSERT_EQ(part.rels.size(), 2u);
  EXPECT_EQ(part.rels[0].dir, RelPattern::Dir::kIn);
  EXPECT_EQ(part.rels[1].dir, RelPattern::Dir::kOut);
  EXPECT_EQ(part.rels[1].variable, "m");
  ASSERT_EQ(part.nodes[0].properties.size(), 1u);
  EXPECT_EQ(part.nodes[0].properties[0].first, "uid");
}

TEST(ParserTest, ParsesWhereOrderLimit) {
  auto q = ParseQuery(
      "MATCH (u:user) WHERE u.followers_count > 10 AND NOT u.uid = 3 "
      "RETURN u.uid AS id, count(u) AS c ORDER BY c DESC, id ASC LIMIT 5");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_NE(q->where, nullptr);
  EXPECT_EQ(q->where->kind, ExprKind::kAnd);
  ASSERT_EQ(q->order_by.size(), 2u);
  EXPECT_FALSE(q->order_by[0].ascending);
  EXPECT_TRUE(q->order_by[1].ascending);
  ASSERT_NE(q->limit, nullptr);
  EXPECT_EQ(q->return_items[1].alias, "c");
}

TEST(ParserTest, ParsesShortestPath) {
  auto q = ParseQuery(
      "MATCH (a:user {uid: $a}), (b:user {uid: $b}), "
      "p = shortestPath((a)-[:follows*..3]->(b)) RETURN length(p)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->patterns.size(), 3u);
  EXPECT_TRUE(q->patterns[2].shortest_path);
  EXPECT_EQ(q->patterns[2].path_variable, "p");
  EXPECT_EQ(q->patterns[2].rels[0].max_hops, 3u);
  EXPECT_EQ(q->return_items[0].expr->kind, ExprKind::kLengthCall);
}

TEST(ParserTest, ParsesPatternPredicate) {
  auto q = ParseQuery(
      "MATCH (a:user)-[:follows]->(c:user) "
      "WHERE NOT (a)-[:follows]->(c) RETURN c.uid");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->where->kind, ExprKind::kNot);
  EXPECT_EQ(q->where->children[0]->kind, ExprKind::kPatternPred);
}

TEST(ParserTest, ParsesDistinct) {
  auto q = ParseQuery("MATCH (u:user) RETURN DISTINCT u.uid");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->return_distinct);
}

TEST(ParserTest, RejectsGarbage) {
  EXPECT_FALSE(ParseQuery("FETCH (u) RETURN u").ok());
  EXPECT_FALSE(ParseQuery("MATCH (u:user) RETURN").ok());
  EXPECT_FALSE(ParseQuery("MATCH (u:user RETURN u").ok());
  EXPECT_FALSE(ParseQuery("MATCH (a)-[:x]->-(b) RETURN a").ok());
  EXPECT_FALSE(ParseQuery("MATCH (u:user) RETURN u.uid trailing").ok());
}

// ------------------------------------------------------------ Spans

TEST(LexerTest, TokensCarryLineAndColumn) {
  auto tokens = Tokenize("MATCH (u)\nRETURN u");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].line, 1u);
  EXPECT_EQ((*tokens)[0].column, 1u);
  const Token* ret = nullptr;
  for (const Token& t : *tokens) {
    if (t.text == "RETURN") ret = &t;
  }
  ASSERT_NE(ret, nullptr);
  EXPECT_EQ(ret->line, 2u);
  EXPECT_EQ(ret->column, 1u);
}

TEST(LexerTest, ErrorsNameLineAndColumn) {
  auto bad_char = Tokenize("RETURN @x");
  ASSERT_FALSE(bad_char.ok());
  EXPECT_NE(bad_char.status().message().find("at line 1, column 8"),
            std::string::npos)
      << bad_char.status().ToString();

  auto unterminated = Tokenize("RETURN\n  'oops");
  ASSERT_FALSE(unterminated.ok());
  EXPECT_NE(unterminated.status().message().find("at line 2, column 3"),
            std::string::npos)
      << unterminated.status().ToString();
}

TEST(ParserTest, ErrorsCarrySourceSpans) {
  auto missing_paren = ParseQuery("MATCH (u:user RETURN u");
  ASSERT_FALSE(missing_paren.ok());
  EXPECT_NE(missing_paren.status().message().find("line 1, column 15"),
            std::string::npos)
      << missing_paren.status().ToString();
  EXPECT_NE(missing_paren.status().message().find("('RETURN')"),
            std::string::npos);

  auto truncated = ParseQuery("MATCH (u:user) RETURN");
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.status().message().find("(end of input)"),
            std::string::npos)
      << truncated.status().ToString();
}

TEST(ParserTest, PatternsCarrySpans) {
  auto q = ParseQuery("MATCH (u:user)-[:follows]->(f:user) RETURN f.uid");
  ASSERT_TRUE(q.ok());
  const NodePattern& anchor = q->patterns[0].nodes[0];
  EXPECT_TRUE(anchor.span.known());
  EXPECT_EQ(anchor.span.column, 7u);
  EXPECT_EQ(anchor.label_span.column, 10u);
  const RelPattern& rel = q->patterns[0].rels[0];
  EXPECT_TRUE(rel.type_span.known());
  EXPECT_EQ(rel.type_span.column, 18u);
}

// ------------------------------------------------------------- Execution

class CypherExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<GraphDb>(FastOptions());
    auto user = db_->Label("user");
    auto tweet = db_->Label("tweet");
    ASSERT_TRUE(user.ok());
    ASSERT_TRUE(tweet.ok());
    user_ = *user;
    tweet_ = *tweet;
    follows_ = *db_->RelType("follows");
    posts_ = *db_->RelType("posts");
    mentions_ = *db_->RelType("mentions");
    uid_ = db_->PropKey("uid");
    tid_ = db_->PropKey("tid");
    name_ = db_->PropKey("name");

    // Users 0..4; follows: 0->1, 0->2, 1->2, 2->3, 3->4, 1->0
    for (int i = 0; i < 5; ++i) {
      auto node = db_->CreateNode(user_);
      ASSERT_TRUE(node.ok());
      users_.push_back(*node);
      ASSERT_TRUE(
          db_->SetNodeProperty(*node, uid_, Value::Int(i)).ok());
      ASSERT_TRUE(db_->SetNodeProperty(*node, name_,
                                       Value::String("u" + std::to_string(i)))
                      .ok());
    }
    auto follow = [&](int a, int b) {
      ASSERT_TRUE(
          db_->CreateRelationship(follows_, users_[a], users_[b]).ok());
    };
    follow(0, 1);
    follow(0, 2);
    follow(1, 2);
    follow(2, 3);
    follow(3, 4);
    follow(1, 0);
    // Tweets: t0 by user1 mentioning user0; t1 by user2 mentioning user0
    // and user3.
    auto make_tweet = [&](int tid, int poster,
                          std::vector<int> mentioned) {
      auto node = db_->CreateNode(tweet_);
      ASSERT_TRUE(node.ok());
      ASSERT_TRUE(db_->SetNodeProperty(*node, tid_, Value::Int(tid)).ok());
      ASSERT_TRUE(
          db_->CreateRelationship(posts_, users_[poster], *node).ok());
      for (int m : mentioned) {
        ASSERT_TRUE(
            db_->CreateRelationship(mentions_, *node, users_[m]).ok());
      }
    };
    make_tweet(100, 1, {0});
    make_tweet(101, 2, {0, 3});
    ASSERT_TRUE(db_->CreateIndex(user_, uid_, /*unique=*/true).ok());
    session_ = std::make_unique<CypherSession>(db_.get());
  }

  Result<QueryResult> Run(const std::string& q, Params params = {}) {
    return session_->Run(q, params);
  }

  std::unique_ptr<GraphDb> db_;
  std::unique_ptr<CypherSession> session_;
  nodestore::LabelId user_, tweet_;
  nodestore::RelTypeId follows_, posts_, mentions_;
  nodestore::PropKeyId uid_, tid_, name_;
  std::vector<nodestore::NodeId> users_;
};

TEST_F(CypherExecTest, LabelScanReturnsAll) {
  auto r = Run("MATCH (u:user) RETURN u.uid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 5u);
  EXPECT_EQ(r->columns, std::vector<std::string>{"u.uid"});
}

TEST_F(CypherExecTest, IndexSeekFindsOne) {
  auto r = Run("MATCH (u:user {uid: $id}) RETURN u.name",
               {{"id", Value::Int(3)}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].value.AsString(), "u3");
}

TEST_F(CypherExecTest, ExpandOutgoing) {
  auto r = Run("MATCH (a:user {uid: 0})-[:follows]->(f:user) RETURN f.uid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<int64_t> uids;
  for (const auto& row : r->rows) uids.push_back(row[0].value.AsInt());
  std::sort(uids.begin(), uids.end());
  EXPECT_EQ(uids, (std::vector<int64_t>{1, 2}));
}

TEST_F(CypherExecTest, ExpandIncoming) {
  auto r = Run("MATCH (a:user {uid: 2})<-[:follows]-(f:user) RETURN f.uid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<int64_t> uids;
  for (const auto& row : r->rows) uids.push_back(row[0].value.AsInt());
  std::sort(uids.begin(), uids.end());
  EXPECT_EQ(uids, (std::vector<int64_t>{0, 1}));
}

TEST_F(CypherExecTest, TwoHopChain) {
  auto r = Run(
      "MATCH (a:user {uid: 0})-[:follows]->(f:user)-[:follows]->(c:user) "
      "RETURN c.uid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<int64_t> uids;
  for (const auto& row : r->rows) uids.push_back(row[0].value.AsInt());
  std::sort(uids.begin(), uids.end());
  // 0->1->{2,0}, 0->2->{3}
  EXPECT_EQ(uids, (std::vector<int64_t>{0, 2, 3}));
}

TEST_F(CypherExecTest, WhereFilter) {
  auto r = Run("MATCH (u:user) WHERE u.uid > 2 RETURN u.uid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 2u);
}

TEST_F(CypherExecTest, PatternPredicateNegation) {
  // Users user0 follows: 1, 2. 2-step candidates not followed: 0, 3.
  auto r = Run(
      "MATCH (a:user {uid: 0})-[:follows]->(f:user)-[:follows]->(c:user) "
      "WHERE NOT (a)-[:follows]->(c) AND c.uid <> 0 RETURN c.uid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<int64_t> uids;
  for (const auto& row : r->rows) uids.push_back(row[0].value.AsInt());
  std::sort(uids.begin(), uids.end());
  EXPECT_EQ(uids, (std::vector<int64_t>{3}));
}

TEST_F(CypherExecTest, AggregationCountsPerGroup) {
  auto r = Run(
      "MATCH (a:user {uid: 0})<-[:mentions]-(t:tweet)<-[:posts]-(u:user) "
      "RETURN u.uid, count(t) AS c ORDER BY c DESC, u.uid ASC");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);  // posters 1 and 2 each mention user0 once
  EXPECT_EQ(r->rows[0][1].value.AsInt(), 1);
}

TEST_F(CypherExecTest, OrderByAndLimit) {
  auto r = Run("MATCH (u:user) RETURN u.uid ORDER BY u.uid DESC LIMIT 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][0].value.AsInt(), 4);
  EXPECT_EQ(r->rows[1][0].value.AsInt(), 3);
}

TEST_F(CypherExecTest, DistinctDeduplicates) {
  auto r = Run(
      "MATCH (a:user)-[:follows]->(f:user) RETURN DISTINCT f.uid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 5u);  // targets: 1,2,3,4,0
}

TEST_F(CypherExecTest, VariableLengthTwoHops) {
  auto r = Run(
      "MATCH (a:user {uid: 0})-[:follows*2..2]->(c:user) RETURN c.uid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<int64_t> uids;
  for (const auto& row : r->rows) uids.push_back(row[0].value.AsInt());
  std::sort(uids.begin(), uids.end());
  EXPECT_EQ(uids, (std::vector<int64_t>{0, 2, 3}));
}

TEST_F(CypherExecTest, ShortestPathLength) {
  auto r = Run(
      "MATCH (a:user {uid: 0}), (b:user {uid: 4}), "
      "p = shortestPath((a)-[:follows*..5]->(b)) RETURN length(p)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].value.AsInt(), 3);  // 0->2->3->4
}

TEST_F(CypherExecTest, ShortestPathRespectsMaxHops) {
  auto r = Run(
      "MATCH (a:user {uid: 0}), (b:user {uid: 4}), "
      "p = shortestPath((a)-[:follows*..2]->(b)) RETURN length(p)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->rows.empty());
}

TEST_F(CypherExecTest, PlanCacheReusesPlans) {
  Params p1{{"id", Value::Int(1)}};
  Params p2{{"id", Value::Int(2)}};
  auto r1 = Run("MATCH (u:user {uid: $id}) RETURN u.uid", p1);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1->plan_cached);
  auto r2 = Run("MATCH (u:user {uid: $id}) RETURN u.uid", p2);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->plan_cached);
  ASSERT_EQ(r2->rows.size(), 1u);
  EXPECT_EQ(r2->rows[0][0].value.AsInt(), 2);
}

TEST_F(CypherExecTest, ProfileReportsDbHits) {
  auto r = Run("MATCH (u:user) RETURN u.uid");
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->db_hits, 0u);
  EXPECT_NE(r->profile.find("NodeByLabelScan"), std::string::npos);
}

TEST_F(CypherExecTest, MissingParameterFails) {
  auto r = Run("MATCH (u:user {uid: $id}) RETURN u.uid");
  EXPECT_FALSE(r.ok());
}

TEST_F(CypherExecTest, UnknownLabelYieldsEmpty) {
  auto r = Run("MATCH (u:ghost) RETURN u.uid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->rows.empty());
}

TEST_F(CypherExecTest, UnknownRelTypeYieldsEmpty) {
  auto r = Run("MATCH (u:user {uid: 0})-[:ghost]->(x:user) RETURN x.uid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->rows.empty());
}

}  // namespace
}  // namespace mbq::cypher

namespace mbq::cypher {
namespace {

using common::Value;
using nodestore::GraphDb;

// --------------------------------------------------- Planner corner cases

class CypherPlannerTest : public CypherExecTest {};

TEST_F(CypherPlannerTest, CartesianApplyForDisconnectedPatterns) {
  auto r = Run("MATCH (a:user {uid: 0}), (b:user {uid: 4}) "
               "RETURN a.uid, b.uid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].value.AsInt(), 0);
  EXPECT_EQ(r->rows[0][1].value.AsInt(), 4);
  EXPECT_NE(r->profile.find("Apply"), std::string::npos);
}

TEST_F(CypherPlannerTest, SharedVariableJoinsPatterns) {
  // Second pattern reuses f: planner must expand from the bound variable
  // rather than rescanning.
  auto r = Run(
      "MATCH (a:user {uid: 0})-[:follows]->(f:user), "
      "(f)-[:follows]->(c:user) RETURN f.uid, c.uid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // 0->1->{2,0}, 0->2->{3}
  EXPECT_EQ(r->rows.size(), 3u);
}

TEST_F(CypherPlannerTest, ExpandIntoForCyclicPattern) {
  // (a)-[:follows]->(b)-[:follows]->(a) — the second hop targets a bound
  // variable (cycle check). 0->1 and 1->0 close a cycle.
  auto r = Run(
      "MATCH (a:user {uid: 0})-[:follows]->(b:user)-[:follows]->(a) "
      "RETURN b.uid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].value.AsInt(), 1);
}

TEST_F(CypherPlannerTest, AnchorsOnIndexedPropertyOverLabelScan) {
  auto plan = session_->Prepare("MATCH (u:user {uid: 3}) RETURN u.uid");
  ASSERT_TRUE(plan.ok());
  std::string tree = (*plan)->Explain();
  EXPECT_NE(tree.find("NodeIndexSeek"), std::string::npos) << tree;
  EXPECT_EQ(tree.find("NodeByLabelScan"), std::string::npos) << tree;
}

TEST_F(CypherPlannerTest, FallsBackToLabelScanWithoutIndex) {
  auto plan = session_->Prepare("MATCH (u:user {name: 'u3'}) RETURN u.uid");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE((*plan)->Explain().find("NodeByLabelScan"), std::string::npos);
  // ... and still answers correctly via a residual filter.
  auto r = Run("MATCH (u:user {name: 'u3'}) RETURN u.uid");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].value.AsInt(), 3);
}

TEST_F(CypherPlannerTest, OrderByHiddenColumn) {
  // ORDER BY on an expression that is not returned: hidden column is
  // added, used for the sort, then trimmed.
  auto r = Run("MATCH (u:user) RETURN u.name ORDER BY u.uid DESC LIMIT 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 3u);
  ASSERT_EQ(r->rows[0].size(), 1u);  // hidden column trimmed
  EXPECT_EQ(r->rows[0][0].value.AsString(), "u4");
  EXPECT_EQ(r->rows[2][0].value.AsString(), "u2");
}

TEST_F(CypherPlannerTest, CountDistinct) {
  // user0 is mentioned by t100 and t101 (posters 1 and 2).
  auto r = Run(
      "MATCH (a:user {uid: 0})<-[:mentions]-(t:tweet)<-[:posts]-(u:user) "
      "RETURN count(DISTINCT u)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].value.AsInt(), 2);
}

TEST_F(CypherPlannerTest, CountStar) {
  auto r = Run("MATCH (u:user) RETURN count(*)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].value.AsInt(), 5);
}

TEST_F(CypherPlannerTest, IdFunction) {
  auto r = Run("MATCH (u:user {uid: 0}) RETURN id(u)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].value.AsInt(),
            static_cast<int64_t>(users_[0]));
}

TEST_F(CypherPlannerTest, RejectsUnplannableQueries) {
  // Unlabeled disconnected anchor cannot be planned.
  EXPECT_FALSE(Run("MATCH (x) RETURN x.uid").ok());
  // Aggregate nested in a comparison is unsupported (NotImplemented).
  EXPECT_FALSE(
      Run("MATCH (u:user) RETURN count(u) = 5").status().ok());
}

TEST_F(CypherPlannerTest, UndirectedRelationshipMatchesBothWays) {
  auto r = Run("MATCH (a:user {uid: 3})-[:follows]-(x:user) RETURN x.uid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<int64_t> uids;
  for (const auto& row : r->rows) uids.push_back(row[0].value.AsInt());
  std::sort(uids.begin(), uids.end());
  // follows: 2->3 (incoming) and 3->4 (outgoing).
  EXPECT_EQ(uids, (std::vector<int64_t>{2, 4}));
}

TEST_F(CypherPlannerTest, RelationshipVariableBinds) {
  auto r = Run(
      "MATCH (a:user {uid: 0})-[r:follows]->(b:user) RETURN id(r), b.uid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 2u);
  for (const auto& row : r->rows) {
    EXPECT_EQ(row[0].value.type(), common::ValueType::kInt);
  }
}

TEST_F(CypherPlannerTest, BooleanConnectives) {
  auto r = Run(
      "MATCH (u:user) WHERE u.uid = 1 OR (u.uid > 2 AND NOT u.uid = 4) "
      "RETURN u.uid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<int64_t> uids;
  for (const auto& row : r->rows) uids.push_back(row[0].value.AsInt());
  std::sort(uids.begin(), uids.end());
  EXPECT_EQ(uids, (std::vector<int64_t>{1, 3}));
}

TEST_F(CypherPlannerTest, NullPropertyComparisonsAreNotTrue) {
  // tweet nodes have no uid property: comparisons on null never match.
  auto r = Run("MATCH (t:tweet) WHERE t.uid > 0 RETURN t.tid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->rows.empty());
}

// ------------------------------------------------------ Parser robustness

// Feed the parser structured garbage: it must return a Status, never
// crash, and valid queries embedded in the sweep must parse.
TEST(ParserRobustnessTest, RandomTokenSoupNeverCrashes) {
  const char* fragments[] = {
      "MATCH",  "RETURN", "WHERE",  "(",      ")",     "[",    "]",
      "{",      "}",      ":",      ",",      "-",     "->",   "<-",
      "*",      "..",     "user",   "follows", "u",    ".",    "uid",
      "$p",     "42",     "'str'",  "count",  "ORDER", "BY",   "LIMIT",
      "DISTINCT", "AND",  "OR",     "NOT",    "=",     "<>",   "<",
      "shortestPath", "length", "AS",
  };
  Rng rng(2025);
  int parsed_ok = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string query;
    size_t len = 1 + rng.NextBounded(24);
    for (size_t i = 0; i < len; ++i) {
      query += fragments[rng.NextBounded(std::size(fragments))];
      query += ' ';
    }
    auto result = ParseQuery(query);  // must not crash or hang
    if (result.ok()) ++parsed_ok;
  }
  // The soup occasionally forms valid queries; mostly it must not.
  EXPECT_LT(parsed_ok, 3000);
}

TEST(ParserRobustnessTest, DeeplyNestedExpressions) {
  std::string query = "MATCH (u:user) WHERE ";
  for (int i = 0; i < 200; ++i) query += "NOT ";
  query += "u.uid = 1 RETURN u.uid";
  auto result = ParseQuery(query);
  EXPECT_TRUE(result.ok());
}

TEST(ParserRobustnessTest, LongQueryText) {
  std::string query = "MATCH (u:user) WHERE u.uid = 0";
  for (int i = 1; i < 500; ++i) {
    query += " OR u.uid = " + std::to_string(i);
  }
  query += " RETURN u.uid";
  EXPECT_TRUE(ParseQuery(query).ok());
}

}  // namespace
}  // namespace mbq::cypher

namespace mbq::cypher {
namespace {

// --------------------------------------------------------- Aggregates

class CypherAggregateTest : public CypherExecTest {};

TEST_F(CypherAggregateTest, SumMinMaxAvgOverProperty) {
  // uids of users are 0..4 -> sum 10, min 0, max 4, avg 2.0.
  auto r = Run(
      "MATCH (u:user) RETURN sum(u.uid), min(u.uid), max(u.uid), avg(u.uid)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].value.AsInt(), 10);
  EXPECT_EQ(r->rows[0][1].value.AsInt(), 0);
  EXPECT_EQ(r->rows[0][2].value.AsInt(), 4);
  EXPECT_DOUBLE_EQ(r->rows[0][3].value.AsDouble(), 2.0);
}

TEST_F(CypherAggregateTest, GroupedSum) {
  // Sum of followee uids per user: 0 -> 1+2=3, 1 -> 2+0=2, 2 -> 3, 3 -> 4.
  auto r = Run(
      "MATCH (a:user)-[:follows]->(f:user) "
      "RETURN a.uid, sum(f.uid) AS s ORDER BY a.uid ASC");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 4u);
  EXPECT_EQ(r->rows[0][1].value.AsInt(), 3);
  EXPECT_EQ(r->rows[1][1].value.AsInt(), 2);
  EXPECT_EQ(r->rows[2][1].value.AsInt(), 3);
  EXPECT_EQ(r->rows[3][1].value.AsInt(), 4);
}

TEST_F(CypherAggregateTest, MinMaxOnStrings) {
  auto r = Run("MATCH (u:user) RETURN min(u.name), max(u.name)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].value.AsString(), "u0");
  EXPECT_EQ(r->rows[0][1].value.AsString(), "u4");
}

TEST_F(CypherAggregateTest, AggregatesSkipNulls) {
  // tweet nodes have no uid: sum over missing property is 0, avg null.
  auto r = Run("MATCH (t:tweet) RETURN sum(t.uid), avg(t.uid), count(t.uid)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].value.AsInt(), 0);
  EXPECT_TRUE(r->rows[0][1].is_null());
  EXPECT_EQ(r->rows[0][2].value.AsInt(), 0);
}

TEST_F(CypherAggregateTest, SumDistinct) {
  // Followee uid multiset for all users: {1,2},{2,0},{3},{4} -> distinct
  // targets {0,1,2,3,4} -> sum 10; plain sum counts 2 twice -> 12.
  auto plain = Run("MATCH (a:user)-[:follows]->(f:user) RETURN sum(f.uid)");
  auto distinct =
      Run("MATCH (a:user)-[:follows]->(f:user) RETURN sum(DISTINCT f.uid)");
  ASSERT_TRUE(plain.ok() && distinct.ok());
  EXPECT_EQ(plain->rows[0][0].value.AsInt(), 12);
  EXPECT_EQ(distinct->rows[0][0].value.AsInt(), 10);
}

TEST_F(CypherAggregateTest, SumOverStringsFails) {
  auto r = Run("MATCH (u:user) RETURN sum(u.name)");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(CypherAggregateTest, MixedIntDoubleSumPromotes) {
  nodestore::PropKeyId score = db_->PropKey("score");
  ASSERT_TRUE(
      db_->SetNodeProperty(users_[0], score, Value::Double(1.5)).ok());
  ASSERT_TRUE(db_->SetNodeProperty(users_[1], score, Value::Int(2)).ok());
  auto r = Run("MATCH (u:user) RETURN sum(u.score)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(r->rows[0][0].value.AsDouble(), 3.5);
}

// -------------------------------------------------------- PROFILE / EXPLAIN

TEST_F(CypherExecTest, ProfileExecutesAndMarksResult) {
  auto r = Run("PROFILE MATCH (u:user) RETURN u.uid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->profiled);
  EXPECT_FALSE(r->explain_only);
  EXPECT_EQ(r->rows.size(), 5u);
  // The profile tree carries per-operator stats.
  EXPECT_NE(r->profile.find("NodeByLabelScan"), std::string::npos);
  EXPECT_NE(r->profile.find("dbHits="), std::string::npos);
  EXPECT_NE(r->profile.find("rows="), std::string::npos);
}

TEST_F(CypherExecTest, ProfileVerbIsCaseInsensitive) {
  auto r = Run("profile MATCH (u:user) RETURN u.uid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->profiled);
  EXPECT_EQ(r->rows.size(), 5u);
}

TEST_F(CypherExecTest, ProfileDbHitsStableAcrossRuns) {
  // The same query over the same fixed graph must charge the same db
  // hits every time — the profile is deterministic, not timing-based.
  const std::string q =
      "PROFILE MATCH (a:user {uid: 0})-[:follows]->(f:user) RETURN f.uid";
  auto first = Run(q);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(first->db_hits, 0u);
  for (int i = 0; i < 3; ++i) {
    auto again = Run(q);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->db_hits, first->db_hits);
    EXPECT_EQ(again->profile, first->profile);
  }
}

TEST_F(CypherExecTest, ExplainCompilesWithoutExecuting) {
  uint64_t hits_before =
      Run("MATCH (u:user) RETURN u.uid")->db_hits;  // warm the cache
  auto r = Run("EXPLAIN MATCH (u:user) RETURN u.uid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->explain_only);
  EXPECT_FALSE(r->profiled);
  EXPECT_TRUE(r->rows.empty());
  EXPECT_EQ(r->db_hits, 0u);
  EXPECT_NE(r->profile.find("NodeByLabelScan"), std::string::npos);
  // The shape-only tree carries no runtime stats.
  EXPECT_EQ(r->profile.find("dbHits="), std::string::npos);
  EXPECT_GT(hits_before, 0u);
}

TEST_F(CypherExecTest, ProfiledQuerySharesPlanCacheWithPlainQuery) {
  auto plain = Run("MATCH (u:user {uid: $id}) RETURN u.name",
                   {{"id", Value::Int(1)}});
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->plan_cached);
  auto profiled = Run("PROFILE MATCH (u:user {uid: $id}) RETURN u.name",
                      {{"id", Value::Int(2)}});
  ASSERT_TRUE(profiled.ok());
  // The PROFILE prefix is stripped before the cache lookup.
  EXPECT_TRUE(profiled->plan_cached);
  ASSERT_EQ(profiled->rows.size(), 1u);
  EXPECT_EQ(profiled->rows[0][0].value.AsString(), "u2");
}

}  // namespace
}  // namespace mbq::cypher
