// The record-store engine's live write path: EnableWrites and the apply
// function its EngineWriter folds every committed batch through. Kept
// apart from the Cypher read path in nodestore_engine.cc.

#include "core/nodestore_engine.h"
#include "twitter/dataset.h"

namespace mbq::core {

namespace {

using nodestore::NodeId;

/// The node whose unique `key` property holds `id`, or NotFound.
Result<NodeId> SeekNode(nodestore::GraphDb* db, nodestore::LabelId label,
                        nodestore::PropKeyId key, int64_t id,
                        const char* what) {
  MBQ_ASSIGN_OR_RETURN(NodeId node, db->IndexSeek(label, key, Value::Int(id)));
  if (node == nodestore::kInvalidNode) {
    return Status::NotFound(std::string("write references unknown ") + what +
                            " " + std::to_string(id));
  }
  return node;
}

}  // namespace

Status NodestoreEngine::EnableWrites(const store::WalOptions& wal,
                                     const twitter::Dataset& base) {
  MBQ_ASSIGN_OR_RETURN(h_, twitter::ResolveNodestoreHandles(db_));
  next_hid_ = static_cast<int64_t>(base.hashtags.size());
  MBQ_ASSIGN_OR_RETURN(
      writer_,
      EngineWriter::Open(
          wal, static_cast<int64_t>(base.tweets.size()),
          [this](const store::WriteBatch& batch) { return Apply(batch); }));
  // Cypher reads open shared snapshots, and write queries commit their
  // lowered WriteBatch through this writer, like every other write.
  EngineWriter* writer = writer_.get();
  session_.SetWriter(&writer->snapshots(), [writer](store::WriteBatch batch) {
    return writer->Commit(std::move(batch));
  });
  return Status::OK();
}

Status NodestoreEngine::Apply(const store::WriteBatch& batch) {
  // One transaction per batch: a failing op rolls the whole batch back.
  auto tx = db_->BeginTx();
  for (const store::WriteOp& op : batch.ops()) {
    MBQ_RETURN_IF_ERROR(ApplyOp(op));
  }
  return tx.Commit();
}

Status NodestoreEngine::ApplyOp(const store::WriteOp& op) {
  auto user = [&](int64_t uid) {
    return SeekNode(db_, h_.user, h_.uid, uid, "uid");
  };
  auto tweet = [&](int64_t tid) {
    return SeekNode(db_, h_.tweet, h_.tid, tid, "tid");
  };
  switch (op.kind) {
    case store::WriteOpKind::kPostTweet: {
      MBQ_ASSIGN_OR_RETURN(NodeId poster, user(op.a));
      MBQ_ASSIGN_OR_RETURN(NodeId node, db_->CreateNode(h_.tweet));
      MBQ_RETURN_IF_ERROR(db_->SetNodeProperty(node, h_.tid, Value::Int(op.b)));
      MBQ_RETURN_IF_ERROR(
          db_->SetNodeProperty(node, h_.text, Value::String(op.text)));
      return db_->CreateRelationship(h_.posts, poster, node).status();
    }
    case store::WriteOpKind::kFollow: {
      MBQ_ASSIGN_OR_RETURN(NodeId src, user(op.a));
      MBQ_ASSIGN_OR_RETURN(NodeId dst, user(op.b));
      return db_->CreateRelationship(h_.follows, src, dst).status();
    }
    case store::WriteOpKind::kUnfollow: {
      MBQ_ASSIGN_OR_RETURN(NodeId src, user(op.a));
      MBQ_ASSIGN_OR_RETURN(NodeId dst, user(op.b));
      nodestore::RelId victim = nodestore::kInvalidRel;
      MBQ_RETURN_IF_ERROR(db_->ForEachRelationship(
          src, nodestore::Direction::kOutgoing, h_.follows,
          [&](const nodestore::GraphDb::RelInfo& rel) {
            if (rel.dst == dst) {
              victim = rel.id;
              return false;
            }
            return true;
          }));
      // Unfollowing a pair that does not follow is a no-op.
      if (victim == nodestore::kInvalidRel) return Status::OK();
      return db_->DeleteRelationship(victim);
    }
    case store::WriteOpKind::kAddMention: {
      MBQ_ASSIGN_OR_RETURN(NodeId src, tweet(op.a));
      MBQ_ASSIGN_OR_RETURN(NodeId target, user(op.b));
      return db_->CreateRelationship(h_.mentions, src, target).status();
    }
    case store::WriteOpKind::kNewUser: {
      MBQ_ASSIGN_OR_RETURN(NodeId node, db_->CreateNode(h_.user));
      MBQ_RETURN_IF_ERROR(db_->SetNodeProperty(node, h_.uid, Value::Int(op.a)));
      MBQ_RETURN_IF_ERROR(db_->SetNodeProperty(
          node, h_.screen_name, Value::String("live_" + std::to_string(op.a))));
      return db_->SetNodeProperty(node, h_.followers_count, Value::Int(0));
    }
    case store::WriteOpKind::kTagTweet: {
      MBQ_ASSIGN_OR_RETURN(NodeId src, tweet(op.a));
      MBQ_ASSIGN_OR_RETURN(
          NodeId tag, db_->IndexSeek(h_.hashtag, h_.tag, Value::String(op.text)));
      if (tag == nodestore::kInvalidNode) {
        MBQ_ASSIGN_OR_RETURN(tag, db_->CreateNode(h_.hashtag));
        MBQ_RETURN_IF_ERROR(
            db_->SetNodeProperty(tag, h_.hid, Value::Int(next_hid_++)));
        MBQ_RETURN_IF_ERROR(
            db_->SetNodeProperty(tag, h_.tag, Value::String(op.text)));
      }
      return db_->CreateRelationship(h_.tags, src, tag).status();
    }
    case store::WriteOpKind::kRetweetOf: {
      MBQ_ASSIGN_OR_RETURN(NodeId src, tweet(op.a));
      MBQ_ASSIGN_OR_RETURN(NodeId orig, tweet(op.b));
      return db_->CreateRelationship(h_.retweets, src, orig).status();
    }
  }
  return Status::InvalidArgument("unknown write op kind");
}

}  // namespace mbq::core
