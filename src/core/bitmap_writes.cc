// The bitmap-store engine's live write path: EnableWrites and the apply
// function its EngineWriter folds every committed batch through. Kept
// apart from the navigation read path in bitmap_engine.cc.

#include "core/bitmap_engine.h"
#include "twitter/dataset.h"

namespace mbq::core {

namespace {

using bitmapstore::Oid;

/// The object whose unique `attr` holds `id`, or NotFound.
Result<Oid> FindById(const bitmapstore::Graph& graph, bitmapstore::AttrId attr,
                     int64_t id, const char* what) {
  MBQ_ASSIGN_OR_RETURN(Oid oid, graph.FindObject(attr, Value::Int(id)));
  if (oid == bitmapstore::kInvalidOid) {
    return Status::NotFound(std::string("write references unknown ") + what +
                            " " + std::to_string(id));
  }
  return oid;
}

}  // namespace

Status BitmapEngine::EnableWrites(const store::WalOptions& wal,
                                  const twitter::Dataset& base) {
  next_hid_ = static_cast<int64_t>(base.hashtags.size());
  MBQ_ASSIGN_OR_RETURN(
      writer_,
      EngineWriter::Open(
          wal, static_cast<int64_t>(base.tweets.size()),
          [this](const store::WriteBatch& batch) { return Apply(batch); }));
  return Status::OK();
}

Status BitmapEngine::Apply(const store::WriteBatch& batch) {
  // In place, as Sparksee applies updates: no transaction, so a failing
  // op leaves the batch's earlier ops applied (docs/WRITES.md).
  for (const store::WriteOp& op : batch.ops()) {
    MBQ_RETURN_IF_ERROR(ApplyOp(op));
  }
  return Status::OK();
}

Status BitmapEngine::ApplyOp(const store::WriteOp& op) {
  auto user = [&](int64_t uid) { return FindById(*graph_, h_.uid, uid, "uid"); };
  auto tweet = [&](int64_t tid) {
    return FindById(*graph_, h_.tid, tid, "tid");
  };
  switch (op.kind) {
    case store::WriteOpKind::kPostTweet: {
      MBQ_ASSIGN_OR_RETURN(Oid poster, user(op.a));
      MBQ_ASSIGN_OR_RETURN(Oid node, graph_->NewNode(h_.tweet));
      MBQ_RETURN_IF_ERROR(graph_->SetAttribute(node, h_.tid, Value::Int(op.b)));
      MBQ_RETURN_IF_ERROR(
          graph_->SetAttribute(node, h_.text, Value::String(op.text)));
      return graph_->NewEdge(h_.posts, poster, node).status();
    }
    case store::WriteOpKind::kFollow: {
      MBQ_ASSIGN_OR_RETURN(Oid src, user(op.a));
      MBQ_ASSIGN_OR_RETURN(Oid dst, user(op.b));
      return graph_->NewEdge(h_.follows, src, dst).status();
    }
    case store::WriteOpKind::kUnfollow: {
      MBQ_ASSIGN_OR_RETURN(Oid src, user(op.a));
      MBQ_ASSIGN_OR_RETURN(Oid dst, user(op.b));
      MBQ_ASSIGN_OR_RETURN(
          bitmapstore::Objects edges,
          graph_->Explode(src, h_.follows,
                          bitmapstore::EdgesDirection::kOutgoing));
      Oid victim = bitmapstore::kInvalidOid;
      Status inner = Status::OK();
      edges.ForEach([&](uint32_t edge) -> bool {
        auto data = graph_->GetEdgeData(edge);
        if (!data.ok()) {
          inner = data.status();
          return false;
        }
        if (data->head == dst) {
          victim = edge;
          return false;
        }
        return true;
      });
      MBQ_RETURN_IF_ERROR(inner);
      // Unfollowing a pair that does not follow is a no-op.
      if (victim == bitmapstore::kInvalidOid) return Status::OK();
      return graph_->Drop(victim);
    }
    case store::WriteOpKind::kAddMention: {
      MBQ_ASSIGN_OR_RETURN(Oid src, tweet(op.a));
      MBQ_ASSIGN_OR_RETURN(Oid target, user(op.b));
      return graph_->NewEdge(h_.mentions, src, target).status();
    }
    case store::WriteOpKind::kNewUser: {
      MBQ_ASSIGN_OR_RETURN(Oid node, graph_->NewNode(h_.user));
      MBQ_RETURN_IF_ERROR(graph_->SetAttribute(node, h_.uid, Value::Int(op.a)));
      MBQ_RETURN_IF_ERROR(graph_->SetAttribute(
          node, h_.screen_name, Value::String("live_" + std::to_string(op.a))));
      return graph_->SetAttribute(node, h_.followers_count, Value::Int(0));
    }
    case store::WriteOpKind::kTagTweet: {
      MBQ_ASSIGN_OR_RETURN(Oid src, tweet(op.a));
      MBQ_ASSIGN_OR_RETURN(Oid tag,
                           graph_->FindObject(h_.tag, Value::String(op.text)));
      if (tag == bitmapstore::kInvalidOid) {
        MBQ_ASSIGN_OR_RETURN(tag, graph_->NewNode(h_.hashtag));
        MBQ_RETURN_IF_ERROR(
            graph_->SetAttribute(tag, h_.hid, Value::Int(next_hid_++)));
        MBQ_RETURN_IF_ERROR(
            graph_->SetAttribute(tag, h_.tag, Value::String(op.text)));
      }
      return graph_->NewEdge(h_.tags, src, tag).status();
    }
    case store::WriteOpKind::kRetweetOf: {
      MBQ_ASSIGN_OR_RETURN(Oid src, tweet(op.a));
      MBQ_ASSIGN_OR_RETURN(Oid orig, tweet(op.b));
      return graph_->NewEdge(h_.retweets, src, orig).status();
    }
  }
  return Status::InvalidArgument("unknown write op kind");
}

}  // namespace mbq::core
