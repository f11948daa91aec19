#ifndef MWSIBE_WIRE_ROUTER_H_
#define MWSIBE_WIRE_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/bytes.h"
#include "src/util/result.h"
#include "src/wire/messages.h"
#include "src/wire/transport.h"

namespace mws::wire {

/// Versioned consistent-hash shard map: `shard_count` shards, each
/// projected onto the hash ring as `vnodes` virtual nodes (FNV-1a of
/// "v<version>/s<shard>/<vnode>"). A key owns the first ring point at or
/// after its own hash, wrapping at the top. Virtual nodes keep the load
/// spread within a few percent of uniform, and growing the fleet by one
/// shard moves only ~1/(n+1) of the keyspace — the classic consistent-
/// hashing property the router's rebalance story depends on.
///
/// The map is immutable after construction; `version` participates in
/// every ring hash so two maps with the same shard count but different
/// versions place keys differently (a deliberate property for rollover
/// tests). Copyable, cheap to query, safe to share between threads.
class ShardMap {
 public:
  /// `shard_count` must be >= 1; `vnodes` >= 1 (64 is a good default:
  /// peak/mean imbalance stays under ~15% for small fleets).
  explicit ShardMap(size_t shard_count, uint32_t version = 1,
                    uint32_t vnodes = 64);

  /// The owning shard for `key`, in [0, shard_count).
  size_t ShardFor(std::string_view key) const;

  size_t shard_count() const { return shard_count_; }
  uint32_t version() const { return version_; }

  /// FNV-1a 64-bit with a murmur-style finalizer — stable across
  /// platforms, deterministic, and fully avalanched so near-identical
  /// keys (attribute families like "ZONE-1"/"ZONE-2") spread across the
  /// ring instead of clustering in one gap. Not adversarially collision
  /// resistant: shard keys are server-assigned attributes.
  static uint64_t Hash(std::string_view s);

 private:
  size_t shard_count_;
  uint32_t version_;
  /// Sorted (ring position, shard) points.
  std::vector<std::pair<uint64_t, uint32_t>> ring_;
};

/// A Transport that spreads one logical warehouse over N independent
/// MWS shards, each reached through its own child transport. Clients
/// are oblivious: they speak the ordinary mws.* protocol to the router
/// and see one warehouse with one id space.
///
/// Routing:
///  - Deposits shard by the message attribute (ShardMap::ShardFor), so
///    a retransmit of a given message always lands on the shard holding
///    its dedup marker — exactly-once survives sharding.
///  - `mws.deposit_batch` is split into per-shard sub-batches, issued to
///    every involved shard, and the per-item outcomes are recombined in
///    request order. A shard that fails wholesale degrades to per-item
///    errors for its items only (kUnavailable and friends stay
///    retryable), so one dead shard never poisons the batch for the
///    others.
///  - `mws.auth` fans out to every shard and concatenates the per-shard
///    gatekeeper sessions into one composite session blob; retrieval
///    decomposes it again. A client holds "a session" exactly as before.
///  - `mws.retrieve_chunk` fans out as `mws.retrieve_chunk` to every
///    shard, remaps per-shard message ids into the router id space, and
///    merges ascending. The merge trims to `max_messages` and re-derives
///    per-shard cursors from the merged continuation id on the next
///    call, so pagination is exact across shards. `mws.retrieve` is the
///    same merge with no cap: one merge serves both.
///  - Everything else (pkg.*, obs.stats, ...) forwards verbatim to the
///    control transport.
///
/// Id space: a shard's local id L on shard S becomes router id
/// L * shard_count + S — injective across shards and order-preserving
/// per shard, so per-shard cursors decompose from a router cursor with
/// pure arithmetic (LocalAfter) and no cursor state in the router. Not
/// order-preserving across shards: an incremental poll's cursor can
/// pass a lagging shard's later deposits (DESIGN.md §14).
///
/// Deployment contract: the control plane (device registrations, RC
/// registrations, attribute grants) must be replicated onto every shard
/// in the same order. That makes the per-(RC, attribute) AID tables
/// identical on all shards, which is what lets the router return any
/// single shard's retrieval token for a merged result set — the ticket
/// inside decodes to the same AID->attribute map everywhere. Policy
/// expressions (lazily materialized grants) break this property and are
/// not supported behind the router.
///
struct ShardRouterOptions {
  /// Transport for non-warehouse endpoints (PKG, stats). Defaults to
  /// the shard-0 transport.
  Transport* control = nullptr;
  /// Optional instrumentation (must outlive the router): exposes
  /// `router.calls{shard=i}` and `router.shard_errors{shard=i}`.
  obs::Registry* metrics = nullptr;
};

/// Concurrency: stateless beyond atomic counters; safe for concurrent
/// Call()s as long as the child transports are.
class ShardRouter : public Transport {
 public:
  /// `shards[i]` serves shard i of `map`; all must outlive the router.
  /// Pre: shards.size() == map.shard_count().
  ShardRouter(ShardMap map, std::vector<Transport*> shards,
              ShardRouterOptions options = {});

  util::Result<util::Bytes> Call(const std::string& endpoint,
                                 const util::Bytes& request) override;

  const ShardMap& map() const { return map_; }
  size_t shard_count() const { return shards_.size(); }
  /// Protocol calls issued to shard i (sub-calls, not client calls).
  uint64_t shard_calls(size_t i) const {
    return calls_[i].load(std::memory_order_relaxed);
  }

  // --- Id-space arithmetic (exposed for tests) ---

  /// Router id for a shard-local id. Local id 0 ("no message") is
  /// preserved as 0.
  static uint64_t RouterId(uint64_t local_id, size_t shard,
                           size_t shard_count) {
    return local_id == 0 ? 0 : local_id * shard_count + shard;
  }
  /// Shard-local `after` cursor equivalent to router-space cursor
  /// `after` for `shard`: the largest local L with
  /// RouterId(L) <= after (0 when none).
  static uint64_t LocalAfter(uint64_t after, size_t shard,
                             size_t shard_count) {
    return after >= shard ? (after - shard) / shard_count : 0;
  }

  /// Composite gatekeeper session: `u8 version || u32 count || count x
  /// length-prefixed per-shard sessions`. Exposed for tests.
  static util::Bytes EncodeCompositeSession(
      const std::vector<util::Bytes>& sessions);
  static util::Result<std::vector<util::Bytes>> DecodeCompositeSession(
      const util::Bytes& blob, size_t expected_count);

 private:
  util::Result<util::Bytes> Deposit(const util::Bytes& request);
  util::Result<util::Bytes> DepositBatch(const util::Bytes& request);
  util::Result<util::Bytes> Auth(const util::Bytes& request);
  util::Result<util::Bytes> Retrieve(const util::Bytes& request);
  util::Result<util::Bytes> RetrieveChunk(const util::Bytes& request);
  /// The one retrieval merge behind both endpoints.
  util::Result<RetrieveChunkResponse> MergeChunks(
      const RetrieveChunkRequest& request);

  util::Result<util::Bytes> CallShard(size_t shard,
                                      const std::string& endpoint,
                                      const util::Bytes& request);

  ShardMap map_;
  std::vector<Transport*> shards_;
  Transport* control_;
  std::unique_ptr<std::atomic<uint64_t>[]> calls_;
  /// Resolved at construction when metrics are set; null otherwise.
  std::vector<obs::Counter*> calls_counters_;
  std::vector<obs::Counter*> error_counters_;
};

}  // namespace mws::wire

#endif  // MWSIBE_WIRE_ROUTER_H_
