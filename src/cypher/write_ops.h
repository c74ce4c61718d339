#ifndef MBQ_CYPHER_WRITE_OPS_H_
#define MBQ_CYPHER_WRITE_OPS_H_

#include <memory>
#include <string>

#include "cypher/operators.h"

namespace mbq::cypher {

/// The root operator of a write query (CREATE/SET/DELETE). Cypher writes
/// commit through the engine's one commit path, as a store::WriteBatch
/// (docs/WRITES.md has the lowering table):
///  - a `follows` CREATE becomes kFollow, a `follows` DELETE kUnfollow;
///  - `CREATE (:user {uid})` becomes kNewUser;
///  - `posts`, `mentions`, `tags` and `retweets` CREATEs become
///    kPostTweet, kAddMention, kTagTweet and kRetweetOf.
/// Each op names its nodes by the uid, tid or tag the store holds.
///
/// The operator first materializes the reading side completely, then
/// lowers every input row in clause order (CREATE, then DELETE) into
/// ExecContext::writes, the query's batch, and emits one summary row
/// counted from its ops:
///   [nodes_created, rels_created, props_set, nodes_deleted, rels_deleted]
/// The session commits the batch once the tree has run. A write no op
/// expresses (SET, a node DELETE, another label, type or property) fails
/// NotImplemented, naming its clause, before any row is read.
class WriteClause : public Operator {
 public:
  WriteClause(std::unique_ptr<Operator> child, const Query* query,
              const SlotMap* slots)
      : query_(query), slots_(slots) {
    child_ = std::move(child);
  }

  Status Open(ExecContext* ctx) override;
  Result<bool> Next(Row* out) override;
  std::string Describe() const override;
  std::unique_ptr<Operator> CloneWithChild(
      std::unique_ptr<Operator> child) const override;

 private:
  const Query* query_;
  const SlotMap* slots_;
  bool done_ = false;
};

}  // namespace mbq::cypher

#endif  // MBQ_CYPHER_WRITE_OPS_H_
