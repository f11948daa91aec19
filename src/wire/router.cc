#include "src/wire/router.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/util/serde.h"

namespace mws::wire {

namespace {

using util::Bytes;
using util::Result;
using util::Status;

/// Tag of the composite-session blob (versioned like every other wire
/// frame so a future layout change fails loudly, not by misparse).
constexpr uint8_t kCompositeSessionVersion = 1;

}  // namespace

// ---------------------------------------------------------------------
// ShardMap

uint64_t ShardMap::Hash(std::string_view s) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;  // FNV prime
  }
  // Raw FNV-1a gives the final byte only one multiply, so keys that
  // differ only in a trailing character end up within ~2^48 of each
  // other — smaller than a typical ring gap (~2^56 at 192 points),
  // which parks whole key families on one shard. A murmur-style
  // finalizer restores full avalanche before the ring lookup.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

ShardMap::ShardMap(size_t shard_count, uint32_t version, uint32_t vnodes)
    : shard_count_(shard_count == 0 ? 1 : shard_count), version_(version) {
  uint32_t points = std::max<uint32_t>(vnodes, 1);
  ring_.reserve(shard_count_ * points);
  for (size_t s = 0; s < shard_count_; ++s) {
    for (uint32_t v = 0; v < points; ++v) {
      std::string point = "v" + std::to_string(version_) + "/s" +
                          std::to_string(s) + "/" + std::to_string(v);
      ring_.emplace_back(Hash(point), static_cast<uint32_t>(s));
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

size_t ShardMap::ShardFor(std::string_view key) const {
  if (shard_count_ == 1) return 0;
  uint64_t h = Hash(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), std::make_pair(h, uint32_t{0}),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  if (it == ring_.end()) it = ring_.begin();  // wrap around the ring top
  return it->second;
}

// ---------------------------------------------------------------------
// ShardRouter

ShardRouter::ShardRouter(ShardMap map, std::vector<Transport*> shards,
                         ShardRouterOptions options)
    : map_(std::move(map)),
      shards_(std::move(shards)),
      control_(options.control != nullptr ? options.control
                                          : shards_.front()),
      calls_(new std::atomic<uint64_t>[shards_.size()]) {
  for (size_t i = 0; i < shards_.size(); ++i) calls_[i] = 0;
  if (options.metrics != nullptr) {
    for (size_t i = 0; i < shards_.size(); ++i) {
      std::vector<obs::Label> labels{{"shard", std::to_string(i)}};
      calls_counters_.push_back(
          options.metrics->GetCounter("router.calls", labels));
      error_counters_.push_back(
          options.metrics->GetCounter("router.shard_errors", labels));
    }
  }
}

Result<Bytes> ShardRouter::CallShard(size_t shard, const std::string& endpoint,
                                     const Bytes& request) {
  calls_[shard].fetch_add(1, std::memory_order_relaxed);
  if (!calls_counters_.empty()) calls_counters_[shard]->Increment();
  auto result = shards_[shard]->Call(endpoint, request);
  if (!result.ok() && !error_counters_.empty()) {
    error_counters_[shard]->Increment();
  }
  return result;
}

Result<Bytes> ShardRouter::Call(const std::string& endpoint,
                                const Bytes& request) {
  if (endpoint == "mws.deposit") return Deposit(request);
  if (endpoint == "mws.deposit_batch") return DepositBatch(request);
  if (endpoint == "mws.auth") return Auth(request);
  if (endpoint == "mws.retrieve") return Retrieve(request);
  if (endpoint == "mws.retrieve_chunk") return RetrieveChunk(request);
  return control_->Call(endpoint, request);
}

Bytes ShardRouter::EncodeCompositeSession(
    const std::vector<Bytes>& sessions) {
  util::Writer w;
  w.PutU8(kCompositeSessionVersion);
  w.PutU32(static_cast<uint32_t>(sessions.size()));
  for (const Bytes& s : sessions) w.PutBytes(s);
  return w.Take();
}

Result<std::vector<Bytes>> ShardRouter::DecodeCompositeSession(
    const Bytes& blob, size_t expected_count) {
  util::Reader r(blob);
  uint8_t version = 0;
  uint32_t count = 0;
  if (!r.GetU8(&version) || version != kCompositeSessionVersion) {
    return Status::Unauthenticated("not a composite session");
  }
  if (!r.GetU32(&count)) {
    return Status::Unauthenticated("truncated composite session");
  }
  // The count is client-supplied: check it before allocating for it.
  if (expected_count != 0 && count != expected_count) {
    return Status::Unauthenticated(
        "composite session shard count mismatch (fleet resized?)");
  }
  // Each entry carries at least its 4-byte length prefix.
  if (count > r.remaining() / 4) {
    return Status::Unauthenticated("truncated composite session");
  }
  std::vector<Bytes> sessions(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!r.GetBytes(&sessions[i])) {
      return Status::Unauthenticated("truncated composite session");
    }
  }
  if (!r.Done()) {
    return Status::Unauthenticated("trailing bytes in composite session");
  }
  return sessions;
}

Result<Bytes> ShardRouter::Deposit(const Bytes& request) {
  auto decoded = DepositRequest::Decode(request);
  if (!decoded.ok()) return decoded.status();
  size_t shard = map_.ShardFor(decoded.value().attribute);
  auto raw = CallShard(shard, "mws.deposit", request);
  if (!raw.ok()) return raw.status();
  auto response = DepositResponse::Decode(raw.value());
  if (!response.ok()) return response.status();
  response.value().message_id =
      RouterId(response.value().message_id, shard, shards_.size());
  return response.value().Encode();
}

Result<Bytes> ShardRouter::DepositBatch(const Bytes& request) {
  auto decoded = DepositBatchRequest::Decode(request);
  if (!decoded.ok()) return decoded.status();
  const auto& items = decoded.value().items;

  // Group request indices per shard, preserving request order within a
  // shard: dedup of an intra-batch retransmit must see the original
  // occurrence first, exactly as an unsharded warehouse would.
  std::vector<std::vector<size_t>> indices(shards_.size());
  for (size_t i = 0; i < items.size(); ++i) {
    indices[map_.ShardFor(items[i].attribute)].push_back(i);
  }

  DepositBatchResponse merged;
  merged.items.resize(items.size());
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    if (indices[shard].empty()) continue;
    DepositBatchRequest sub;
    sub.items.reserve(indices[shard].size());
    for (size_t i : indices[shard]) sub.items.push_back(items[i]);
    auto raw = CallShard(shard, "mws.deposit_batch", sub.Encode());
    if (raw.ok()) {
      auto sub_response = DepositBatchResponse::Decode(raw.value());
      if (!sub_response.ok()) return sub_response.status();
      if (sub_response.value().items.size() != indices[shard].size()) {
        return Status::Internal("shard returned mismatched batch size");
      }
      for (size_t k = 0; k < indices[shard].size(); ++k) {
        DepositBatchResponse::Item item = sub_response.value().items[k];
        item.message_id = RouterId(item.message_id, shard, shards_.size());
        merged.items[indices[shard][k]] = std::move(item);
      }
    } else {
      // Whole-shard failure degrades to per-item failures for this
      // shard's items only: the other shards' outcomes stand, and the
      // wire-error payload preserves the status code — a kUnavailable
      // shard restart surfaces as retryable items, not a poisoned batch.
      Bytes error = EncodeWireError(raw.status());
      for (size_t i : indices[shard]) {
        merged.items[i].ok = false;
        merged.items[i].error = error;
      }
    }
  }
  return merged.Encode();
}

Result<Bytes> ShardRouter::Auth(const Bytes& request) {
  // Every shard's gatekeeper validates the same client challenge and
  // issues its own session; the composite is opaque to the client. Any
  // shard refusing authentication refuses the composite — a session
  // silently covering a subset of shards would drop that subset's
  // messages from every retrieval.
  std::vector<Bytes> sessions(shards_.size());
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    auto raw = CallShard(shard, "mws.auth", request);
    if (!raw.ok()) return raw.status();
    auto response = RcAuthResponse::Decode(raw.value());
    if (!response.ok()) return response.status();
    sessions[shard] = std::move(response.value().session_id);
  }
  RcAuthResponse composite;
  composite.session_id = EncodeCompositeSession(sessions);
  return composite.Encode();
}

Result<Bytes> ShardRouter::Retrieve(const Bytes& request) {
  auto decoded = RetrieveRequest::Decode(request);
  if (!decoded.ok()) return decoded.status();
  // The unbounded case of the chunk merge: every shard serves its whole
  // backlog in one final chunk, so the merge is never trimmed and always
  // carries a token.
  RetrieveChunkRequest unbounded;
  unbounded.session_id = std::move(decoded.value().session_id);
  unbounded.after_message_id = decoded.value().after_message_id;
  unbounded.from_micros = decoded.value().from_micros;
  unbounded.to_micros = decoded.value().to_micros;
  unbounded.max_messages = std::numeric_limits<uint32_t>::max();
  auto merged = MergeChunks(unbounded);
  if (!merged.ok()) return merged.status();
  return RetrieveResponse{std::move(merged.value().messages),
                          std::move(merged.value().token)}
      .Encode();
}

Result<Bytes> ShardRouter::RetrieveChunk(const Bytes& request) {
  auto decoded = RetrieveChunkRequest::Decode(request);
  if (!decoded.ok()) return decoded.status();
  auto merged = MergeChunks(decoded.value());
  if (!merged.ok()) return merged.status();
  return merged.value().Encode();
}

Result<RetrieveChunkResponse> ShardRouter::MergeChunks(
    const RetrieveChunkRequest& request) {
  auto sessions = DecodeCompositeSession(request.session_id, shards_.size());
  if (!sessions.ok()) return sessions.status();

  // Each shard serves up to the full chunk budget past its decomposed
  // cursor; the merge trims back to the budget. Over-fetch is bounded
  // by (shards - 1) * max_messages, and trimmed records are re-served
  // on the next call from the re-derived cursors, so pagination stays
  // exact — no record skipped or duplicated across chunk boundaries.
  std::vector<RetrievedMessage> candidates;
  bool any_shard_has_more = false;
  std::vector<Bytes> tokens(shards_.size());
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    RetrieveChunkRequest sub = request;
    sub.session_id = sessions.value()[shard];
    sub.after_message_id =
        LocalAfter(request.after_message_id, shard, shards_.size());
    auto raw = CallShard(shard, "mws.retrieve_chunk", sub.Encode());
    if (!raw.ok()) return raw.status();
    auto response = RetrieveChunkResponse::Decode(raw.value());
    if (!response.ok()) return response.status();
    any_shard_has_more = any_shard_has_more || response.value().has_more;
    tokens[shard] = std::move(response.value().token);
    for (auto& m : response.value().messages) {
      m.message_id = RouterId(m.message_id, shard, shards_.size());
      candidates.push_back(std::move(m));
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const RetrievedMessage& a, const RetrievedMessage& b) {
              return a.message_id < b.message_id;
            });

  RetrieveChunkResponse merged;
  bool trimmed = candidates.size() > request.max_messages;
  if (trimmed) candidates.resize(request.max_messages);
  merged.messages = std::move(candidates);
  merged.has_more = trimmed || any_shard_has_more;
  merged.next_after_id = merged.messages.empty()
                             ? request.after_message_id
                             : merged.messages.back().message_id;
  if (!merged.has_more) {
    // Final chunk of the sweep: every shard just returned its own final
    // chunk, so each supplied a token. Replicated control plane =>
    // identical AID tables => any shard's token opens every shard's
    // messages; return the first.
    for (auto& token : tokens) {
      if (!token.empty()) {
        merged.token = std::move(token);
        break;
      }
    }
  }
  return merged;
}

}  // namespace mws::wire
