// Tests for the semantic analyzer and query linter (cypher/semantic.h):
// one accepting and one rejecting case per lint rule, strict-mode
// enforcement in the session, and the diagnostics surfaced through the
// LINT verb and PROFILE/EXPLAIN output.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cypher/diag.h"
#include "cypher/parser.h"
#include "cypher/semantic.h"
#include "cypher/session.h"
#include "obs/metrics.h"
#include "twitter/dataset.h"
#include "twitter/loaders.h"
#include "util/logging.h"

namespace mbq::cypher {
namespace {

nodestore::GraphDb* SharedDb() {
  static nodestore::GraphDb* db = [] {
    nodestore::GraphDbOptions options;
    options.disk_profile = storage::DiskProfile::Instant();
    auto* d = new nodestore::GraphDb(options);
    twitter::DatasetSpec spec;
    spec.num_users = 60;
    spec.retweet_fraction = 0.2;
    auto handles = twitter::LoadIntoNodestore(twitter::GenerateDataset(spec), d);
    MBQ_CHECK(handles.ok());
    return d;
  }();
  return db;
}

AnalysisResult Analyze(const std::string& text) {
  auto query = ParseQuery(text);
  MBQ_CHECK(query.ok());
  return AnalyzeQuery(*query, SharedDb());
}

/// First diagnostic with `rule`, or null.
const Diagnostic* FindRule(const AnalysisResult& result,
                           const std::string& rule) {
  for (const Diagnostic& d : result.diagnostics) {
    if (d.rule == rule) return &d;
  }
  return nullptr;
}

// --------------------------------------------------------------- Rules

TEST(SemanticTest, UnknownLabelNamesNearestValidLabel) {
  auto result = Analyze("MATCH (u:usr) RETURN u.uid");
  const Diagnostic* d = FindRule(result, "unknown-label");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("did you mean 'user'"), std::string::npos)
      << d->message;
  EXPECT_NE(d->message.find("never produce rows"), std::string::npos);
  EXPECT_TRUE(d->span.known());

  EXPECT_EQ(FindRule(Analyze("MATCH (u:user) RETURN u.uid"), "unknown-label"),
            nullptr);
}

TEST(SemanticTest, UnknownRelType) {
  auto result =
      Analyze("MATCH (a:user {uid: 1})-[:folows]->(b:user) RETURN b.uid");
  const Diagnostic* d = FindRule(result, "unknown-rel-type");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("did you mean 'follows'"), std::string::npos)
      << d->message;

  EXPECT_EQ(
      FindRule(Analyze("MATCH (a:user {uid: 1})-[:follows]->(b:user) "
                       "RETURN b.uid"),
               "unknown-rel-type"),
      nullptr);
}

TEST(SemanticTest, UndefinedVariable) {
  auto result = Analyze("MATCH (u:user {uid: 1}) WHERE x.uid = 2 RETURN u.uid");
  const Diagnostic* d = FindRule(result, "undefined-variable");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("'x'"), std::string::npos) << d->message;

  EXPECT_EQ(FindRule(Analyze("MATCH (u:user {uid: 1}) WHERE u.uid = 2 "
                             "RETURN u.uid"),
                     "undefined-variable"),
            nullptr);
}

TEST(SemanticTest, TypeMismatchOnImpossibleComparison) {
  auto result =
      Analyze("MATCH (u:user {uid: 1}) WHERE u.uid = 2 AND 1 = 'one' "
              "RETURN u.uid");
  const Diagnostic* d = FindRule(result, "type-mismatch");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("can never be true"), std::string::npos);

  // Properties and parameters are kAny: comparing them never warns.
  EXPECT_EQ(FindRule(Analyze("MATCH (u:user {uid: 1}) WHERE u.uid = 'abc' "
                             "RETURN u.uid"),
                     "type-mismatch"),
            nullptr);
}

TEST(SemanticTest, AggregateInWhere) {
  auto result =
      Analyze("MATCH (u:user {uid: 1}) WHERE count(u) > 1 RETURN u.uid");
  const Diagnostic* d = FindRule(result, "aggregate-in-where");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);

  EXPECT_EQ(FindRule(Analyze("MATCH (u:user) RETURN count(u)"),
                     "aggregate-in-where"),
            nullptr);
}

TEST(SemanticTest, UnknownProperty) {
  auto result = Analyze("MATCH (u:user {uid: 1}) RETURN u.nonexistent");
  const Diagnostic* d = FindRule(result, "unknown-property");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("nonexistent"), std::string::npos);

  EXPECT_EQ(FindRule(Analyze("MATCH (u:user {uid: 1}) RETURN u.screen_name"),
                     "unknown-property"),
            nullptr);
}

TEST(SemanticTest, FullScanOnUnindexedFilter) {
  auto result = Analyze("MATCH (u:user {screen_name: 'x'}) RETURN u.uid");
  const Diagnostic* d = FindRule(result, "full-scan-no-index");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("CREATE INDEX on :user(screen_name)"),
            std::string::npos)
      << d->message;

  // uid is indexed and inline: the planner seeks, no warning.
  EXPECT_EQ(FindRule(Analyze("MATCH (u:user {uid: 5}) RETURN u.uid"),
                     "full-scan-no-index"),
            nullptr);
}

TEST(SemanticTest, FullScanWhenIndexedKeyOnlyInWhere) {
  // The planner only seeks inline property maps — an equivalent WHERE
  // filter scans, and the linter says how to rewrite it.
  auto result = Analyze("MATCH (u:user) WHERE u.uid = 5 RETURN u.uid");
  const Diagnostic* d = FindRule(result, "full-scan-no-index");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("inline property maps"), std::string::npos)
      << d->message;
}

TEST(SemanticTest, FullScanOnUnlabelledAnchor) {
  auto result = Analyze("MATCH (n {uid: 5}) RETURN n.uid");
  const Diagnostic* d = FindRule(result, "full-scan-no-index");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("unlabelled"), std::string::npos) << d->message;
}

TEST(SemanticTest, CartesianProduct) {
  auto result = Analyze(
      "MATCH (a:user {uid: 1}), (t:tweet {tid: 2}) RETURN a.uid, t.tid");
  const Diagnostic* d = FindRule(result, "cartesian-product");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);

  // Sharing a variable connects the parts.
  EXPECT_EQ(FindRule(Analyze("MATCH (a:user {uid: 1})-[:posts]->(t:tweet), "
                             "(t)-[:tags]->(h:hashtag) "
                             "RETURN h.tag"),
                     "cartesian-product"),
            nullptr);
}

TEST(SemanticTest, UnboundedVarlengthPath) {
  auto result = Analyze(
      "MATCH (a:user {uid: 1})-[:follows*]->(b:user) RETURN b.uid");
  const Diagnostic* d = FindRule(result, "unbounded-varlength-path");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("*..k"), std::string::npos) << d->message;

  EXPECT_EQ(FindRule(Analyze("MATCH (a:user {uid: 1})-[:follows*1..2]->"
                             "(b:user) RETURN b.uid"),
                     "unbounded-varlength-path"),
            nullptr);
}

TEST(SemanticTest, ShortestPathIsNotUnbounded) {
  // BFS stops at the first hit; an open upper bound is fine there.
  auto result = Analyze(
      "MATCH p = shortestPath((a:user {uid: 1})-[:follows*]->"
      "(b:user {uid: 2})) RETURN length(p)");
  EXPECT_EQ(FindRule(result, "unbounded-varlength-path"), nullptr);
}

TEST(SemanticTest, UnusedBinding) {
  auto result = Analyze(
      "MATCH (u:user {uid: 1})-[:follows]->(f:user) RETURN u.uid");
  const Diagnostic* d = FindRule(result, "unused-binding");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kHint);
  EXPECT_NE(d->message.find("'f'"), std::string::npos) << d->message;

  EXPECT_EQ(FindRule(Analyze("MATCH (u:user {uid: 1})-[:follows]->(f:user) "
                             "RETURN u.uid, f.uid"),
                     "unused-binding"),
            nullptr);
}

TEST(SemanticTest, NullDbSkipsSchemaRules) {
  auto query = ParseQuery("MATCH (u:usr) RETURN u.uid");
  ASSERT_TRUE(query.ok());
  auto result = AnalyzeQuery(*query, nullptr);
  EXPECT_EQ(FindRule(result, "unknown-label"), nullptr);
  // Pure rules still run.
  auto unused = ParseQuery("MATCH (u:user)-[:follows]->(f) RETURN u.uid");
  ASSERT_TRUE(unused.ok());
  EXPECT_NE(FindRule(AnalyzeQuery(*unused, nullptr), "unused-binding"),
            nullptr);
}

// ----------------------------------------------------------- Utilities

TEST(SemanticTest, NearestNameFindsCloseMatch) {
  EXPECT_EQ(NearestName("usr", {"user", "tweet", "hashtag"}), "user");
  EXPECT_EQ(NearestName("Tweet", {"user", "tweet"}), "tweet");
  EXPECT_EQ(NearestName("zzzzzz", {"user", "tweet"}), "");
}

TEST(SemanticTest, InferExprTypeBasics) {
  auto query = ParseQuery(
      "MATCH (u:user)-[r:follows]->(f:user) "
      "WHERE u.uid > 1 RETURN count(u), length(u)");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(InferExprType(*query->where->children[0], *query), InferredType::kAny);
  EXPECT_EQ(InferExprType(*query->where, *query), InferredType::kBool);
  EXPECT_EQ(InferExprType(*query->return_items[0].expr, *query),
            InferredType::kInt);
}

TEST(SemanticTest, AnalysisResultSeverityAndBlocking) {
  auto errors = Analyze("MATCH (u:usr) RETURN u.uid");
  EXPECT_TRUE(errors.has_errors());
  EXPECT_TRUE(errors.BlockedAt(LintLevel::kError));
  EXPECT_FALSE(errors.BlockedAt(LintLevel::kOff));

  auto hints = Analyze("MATCH (u:user {uid: 1})-[:follows]->(f:user) "
                       "RETURN u.uid");
  EXPECT_FALSE(hints.has_errors());
  EXPECT_FALSE(hints.BlockedAt(LintLevel::kError));
  EXPECT_TRUE(hints.BlockedAt(LintLevel::kHint));
}

// ------------------------------------------------------------- Session

TEST(SessionLintTest, LintVerbReportsWithoutExecuting) {
  CypherSession session(SharedDb());
  auto* queries = obs::MetricsRegistry::Default().GetCounter("cypher.queries");
  auto* lint_runs =
      obs::MetricsRegistry::Default().GetCounter("cypher.lint.runs");
  uint64_t queries_before = queries->value();
  uint64_t lint_runs_before = lint_runs->value();

  auto result = session.Run("LINT MATCH (u:usr) RETURN u.uid");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->lint_only);
  ASSERT_EQ(result->columns.size(), 4u);
  EXPECT_EQ(result->columns[0], "severity");
  EXPECT_EQ(result->columns[1], "rule");
  ASSERT_FALSE(result->rows.empty());
  EXPECT_NE(result->profile.find("unknown-label"), std::string::npos);

  // LINT is an analysis verb: no execution, no query metrics, no cached
  // result.
  EXPECT_EQ(queries->value(), queries_before);
  EXPECT_EQ(lint_runs->value(), lint_runs_before + 1);
  EXPECT_EQ(session.result_cache_stats().entries, 0u);
}

TEST(SessionLintTest, LintReportsParseErrorsAsDiagnostics) {
  CypherSession session(SharedDb());
  auto result = session.Run("LINT MATCH (u:user RETURN u");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->lint_only);
  ASSERT_FALSE(result->rows.empty());
  EXPECT_NE(result->profile.find("parse-error"), std::string::npos);
}

TEST(SessionLintTest, CleanQueryLintsClean) {
  CypherSession session(SharedDb());
  auto result = session.Run("LINT MATCH (u:user {uid: 1}) RETURN u.uid");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
}

TEST(SessionLintTest, StrictModeRefusesErrorQueries) {
  CypherSession session(SharedDb());
  session.SetLintLevel(LintLevel::kError);

  auto rejected = session.Run("MATCH (u:usr) RETURN u.uid");
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().ToString().find("strict lint mode"),
            std::string::npos)
      << rejected.status().ToString();
  EXPECT_NE(rejected.status().ToString().find("unknown-label"),
            std::string::npos);

  // Warnings pass at kError; the clean query runs.
  auto accepted = session.Run("MATCH (u:user {uid: 1}) RETURN u.uid");
  EXPECT_TRUE(accepted.ok()) << accepted.status().ToString();

  // The rejection repeats on the plan-cache hit path too.
  auto rejected_again = session.Run("MATCH (u:usr) RETURN u.uid");
  EXPECT_FALSE(rejected_again.ok());
}

TEST(SessionLintTest, StrictModeStillAllowsAnalysisVerbs) {
  CypherSession session(SharedDb());
  session.SetLintLevel(LintLevel::kError);

  auto lint = session.Run("LINT MATCH (u:usr) RETURN u.uid");
  EXPECT_TRUE(lint.ok()) << lint.status().ToString();
  auto explain = session.Run("EXPLAIN MATCH (u:usr) RETURN u.uid");
  EXPECT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_TRUE(explain->explain_only);
}

TEST(SessionLintTest, LintLevelConfigurableViaOptions) {
  CypherSession session(SharedDb());
  SessionOptions options;
  options.lint_level = LintLevel::kWarning;
  session.Configure(options);
  EXPECT_EQ(session.lint_level(), LintLevel::kWarning);

  // A warning-carrying query is refused at kWarning.
  auto rejected =
      session.Run("MATCH (u:user {screen_name: 'x'}) RETURN u.uid");
  EXPECT_FALSE(rejected.ok());
}

TEST(SessionLintTest, DiagnosticsPrependedToExplainAndProfile) {
  CypherSession session(SharedDb());
  auto explain = session.Run("EXPLAIN MATCH (u:user) WHERE u.uid = 5 "
                             "RETURN u.uid");
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->profile.find("full-scan-no-index"), std::string::npos)
      << explain->profile;

  auto profile = session.Run("PROFILE MATCH (u:user) WHERE u.uid = 5 "
                             "RETURN u.uid");
  ASSERT_TRUE(profile.ok());
  EXPECT_NE(profile->profile.find("full-scan-no-index"), std::string::npos)
      << profile->profile;
  // Diagnostics come before the operator tree.
  EXPECT_LT(profile->profile.find("full-scan-no-index"),
            profile->profile.find("rows="));
}

}  // namespace
}  // namespace mbq::cypher
