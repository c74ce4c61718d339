#include "store/delta/write_batch.h"

#include <cstring>

namespace mbq::store {

namespace {

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xFF);
  buf[1] = static_cast<char>((v >> 8) & 0xFF);
  buf[2] = static_cast<char>((v >> 16) & 0xFF);
  buf[3] = static_cast<char>((v >> 24) & 0xFF);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

bool GetU32(std::string_view* in, uint32_t* v) {
  if (in->size() < 4) return false;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(in->data());
  *v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
       (static_cast<uint32_t>(p[2]) << 16) |
       (static_cast<uint32_t>(p[3]) << 24);
  in->remove_prefix(4);
  return true;
}

bool GetU64(std::string_view* in, uint64_t* v) {
  uint32_t lo = 0;
  uint32_t hi = 0;
  if (!GetU32(in, &lo) || !GetU32(in, &hi)) return false;
  *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
  return true;
}

}  // namespace

void EncodeWriteBatch(const WriteBatch& batch, std::string* out) {
  PutU32(out, static_cast<uint32_t>(batch.size()));
  for (const WriteOp& op : batch.ops()) {
    out->push_back(static_cast<char>(op.kind));
    PutU64(out, static_cast<uint64_t>(op.a));
    PutU64(out, static_cast<uint64_t>(op.b));
    PutU32(out, static_cast<uint32_t>(op.text.size()));
    out->append(op.text);
  }
}

Result<WriteBatch> DecodeWriteBatch(std::string_view in) {
  uint32_t count = 0;
  if (!GetU32(&in, &count)) {
    return Status::Corruption("write batch: truncated op count");
  }
  WriteBatch batch;
  for (uint32_t i = 0; i < count; ++i) {
    if (in.empty()) {
      return Status::Corruption("write batch: truncated op kind");
    }
    uint8_t raw_kind = static_cast<uint8_t>(in.front());
    in.remove_prefix(1);
    if (raw_kind < static_cast<uint8_t>(WriteOpKind::kPostTweet) ||
        raw_kind > static_cast<uint8_t>(WriteOpKind::kRetweetOf)) {
      return Status::Corruption("write batch: unknown op kind " +
                                std::to_string(raw_kind));
    }
    WriteOp op;
    op.kind = static_cast<WriteOpKind>(raw_kind);
    uint64_t a = 0;
    uint64_t b = 0;
    uint32_t text_len = 0;
    if (!GetU64(&in, &a) || !GetU64(&in, &b) || !GetU32(&in, &text_len)) {
      return Status::Corruption("write batch: truncated op payload");
    }
    op.a = static_cast<int64_t>(a);
    op.b = static_cast<int64_t>(b);
    if (in.size() < text_len) {
      return Status::Corruption("write batch: truncated op text");
    }
    op.text.assign(in.data(), text_len);
    in.remove_prefix(text_len);
    batch.Append(std::move(op));
  }
  if (!in.empty()) {
    return Status::Corruption("write batch: trailing bytes after last op");
  }
  return batch;
}

}  // namespace mbq::store
