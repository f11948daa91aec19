#ifndef MWSIBE_MWS_MWS_SERVICE_H_
#define MWSIBE_MWS_MWS_SERVICE_H_

#include <memory>
#include <span>
#include <string>

#include "src/mws/gatekeeper.h"
#include "src/mws/mms.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/mws/sda.h"
#include "src/mws/token_generator.h"
#include "src/store/message_db.h"
#include "src/store/policy_db.h"
#include "src/store/table.h"
#include "src/store/user_db.h"
#include "src/util/clock.h"
#include "src/util/random.h"
#include "src/wire/transport.h"

namespace mws::mws {

/// Tunables of a Message Warehousing Service instance.
struct MwsOptions {
  /// Symmetric cipher for tickets, tokens and auth exchanges. The paper
  /// uses DES throughout; E10 sweeps the alternatives.
  crypto::CipherKind cipher = crypto::CipherKind::kDes;
  /// Accepted clock skew for deposits and RC challenges.
  int64_t freshness_window_micros = 5ll * 60 * 1'000'000;
  /// Lifetime of issued PKG tickets.
  int64_t ticket_lifetime_micros = 10ll * 60 * 1'000'000;
  /// Optional instrumentation sink (must outlive the service). Exposes
  /// `mws.requests{op=...}`, `mws.errors{op=...}`, and the
  /// `mws.latency_us{op=...}` histograms, plus the gatekeeper and
  /// message-db instruments.
  obs::Registry* metrics = nullptr;
  /// Optional request tracer (must outlive the service): one trace per
  /// protocol op with per-stage child spans.
  obs::Tracer* tracer = nullptr;
  /// Gatekeeper session-registry / replay-cache capacity tuning
  /// (stripes, bounds, reference mode).
  util::ControlPlaneTuning tuning;
};

/// The Message Warehousing Service: the composition of the architecture
/// components of Fig. 3 (SDA, MD, MMS, PD, TG, User DB, Gatekeeper) plus
/// the administrative operations the paper mentions ("administrative
/// operations to manage client identities").
///
/// Crucially the MWS never holds IBE key material: it stores (rP, C,
/// A||Nonce) and enforces access purely through the policy database and
/// ticket issuance; decryption capability exists only at RCs that have
/// been extracted keys by the PKG.
///
/// Concurrency contract: the three protocol operations (Deposit,
/// Authenticate, Retrieve) and the read-only accessors are safe to call
/// concurrently from any number of threads — this is what lets TcpServer
/// dispatch requests from a worker pool without a global lock. The
/// storage Table must be one of the thread-safe backends (KvStore /
/// FlatFileStore). The injected RandomSource is wrapped in a
/// util::LockedRandom internally, so callers may pass a plain generator.
/// Administrative operations (Register*/Grant*/Revoke*) are also safe
/// concurrently with protocol traffic; racing *identical* registrations
/// may both report success (last write wins on the same record).
class MwsService {
 public:
  /// `storage` must outlive the service; `mws_pkg_key` is the shared
  /// secret with the PKG (paper assumption: "MWS shares a secret key
  /// SecKMWS-PKG with PKG").
  MwsService(store::Table* storage, util::Bytes mws_pkg_key,
             const util::Clock* clock, util::RandomSource* rng,
             MwsOptions options = {});

  // --- Administrative operations ---

  /// Registers a smart device and its shared MAC key (assumption ii).
  util::Status RegisterDevice(const std::string& device_id,
                              const util::Bytes& mac_key);

  /// Registers a receiving client (password hash + RSA public key).
  util::Status RegisterReceivingClient(const std::string& rc_identity,
                                       const util::Bytes& password_hash,
                                       const util::Bytes& rsa_public_key);

  /// Grants/revokes `rc_identity` access to messages under `attribute`.
  util::Result<uint64_t> GrantAttribute(const std::string& rc_identity,
                                        const std::string& attribute);
  util::Status RevokeAttribute(const std::string& rc_identity,
                               const std::string& attribute);

  /// Attaches a policy expression (see PolicyExpression) to an RC, e.g.
  /// "ELECTRIC-* OR GAS-*"; matching attributes are granted lazily as
  /// messages arrive. Returns the expression's sequence number.
  util::Result<uint64_t> GrantPolicyExpression(const std::string& rc_identity,
                                               const std::string& expression);

  /// Detaches an expression and revokes every grant it materialized.
  util::Status RevokePolicyExpression(const std::string& rc_identity,
                                      uint64_t seq);

  /// The full identity–attribute–AID table (paper Table 1).
  util::Result<std::vector<store::PolicyRow>> PolicyTable() const;

  /// Retention: drops every warehoused message with id <= `max_id`
  /// (record, indexes, dedup marker). Administrative — a deployment
  /// prunes consumed billing periods so the live set, and with it
  /// compaction checkpoints and reopen time, stays bounded. Returns
  /// messages removed. See store::MessageDb::PruneThrough for the
  /// dedup-horizon caveat.
  util::Result<size_t> PruneMessagesThrough(uint64_t max_id);

  // --- Protocol operations (Fig. 4 phases 1 and 2) ---

  /// SD–MWS phase: authenticate the device, verify integrity, store.
  /// Served as a one-item DepositBatch under its own instruments; fails
  /// with the item's status when the item is rejected.
  util::Result<wire::DepositResponse> Deposit(
      const wire::DepositRequest& request);

  /// Batched SD–MWS phase: each item is MAC-verified independently and
  /// reported per-item (a bad MAC rejects that item, not the batch), and
  /// the valid items go through one MessageDb::Append — one shard-lock
  /// acquisition per shard instead of one per message. Outcomes are
  /// bit-identical to calling Deposit per item in order, including
  /// retransmit dedup within and across batches. Only a storage failure
  /// fails the whole call (retry-safe).
  util::Result<wire::DepositBatchResponse> DepositBatch(
      const wire::DepositBatchRequest& request);

  /// MWS–RC phase, step 1: gatekeeper authentication.
  util::Result<wire::RcAuthResponse> Authenticate(
      const wire::RcAuthRequest& request);

  /// MWS–RC phase, step 2: fetch matching records + a fresh PKG token.
  /// Served as one unbounded RetrieveChunk under its own instruments.
  util::Result<wire::RetrieveResponse> Retrieve(
      const wire::RetrieveRequest& request);

  /// Chunked MWS–RC retrieval: at most `max_messages` records per call,
  /// resumed via next_after_id, so a 10k-message backlog never
  /// materializes as one giant response. The PKG token is issued only on
  /// the final chunk (has_more == false) — it covers the whole sweep.
  /// Iterating to completion yields exactly Retrieve's messages.
  util::Result<wire::RetrieveChunkResponse> RetrieveChunk(
      const wire::RetrieveChunkRequest& request);

  /// Binds the protocol operations to "mws.deposit", "mws.auth",
  /// "mws.retrieve", "mws.deposit_batch", "mws.retrieve_chunk" on
  /// `transport`.
  void RegisterEndpoints(wire::InProcessTransport* transport);

  // --- Component access (tests, component benches E4) ---
  const SmartDeviceAuthenticator& sda() const { return sda_; }
  Gatekeeper& gatekeeper() { return gatekeeper_; }
  const MessageManagementSystem& mms() const { return mms_; }
  const TokenGenerator& token_generator() const { return token_generator_; }
  const store::MessageDb& message_db() const { return message_db_; }
  const store::PolicyDb& policy_db() const { return policy_db_; }
  const MwsOptions& options() const { return options_; }

 private:
  /// Per-op instrument triple; all null when metrics are disabled.
  struct OpInstruments {
    obs::Counter* requests = nullptr;
    obs::Counter* errors = nullptr;
    obs::Histogram* latency = nullptr;
  };
  OpInstruments ResolveOp(const char* op);

  /// The one deposit path behind Deposit and DepositBatch.
  util::Result<wire::DepositBatchResponse> DepositBatchImpl(
      std::span<const wire::DepositRequest> items, obs::Span& span);
  util::Result<wire::RetrieveChunkResponse> RetrieveChunkImpl(
      const wire::RetrieveChunkRequest& request, obs::Span& span);

  MwsOptions options_;
  /// Serializes the injected RandomSource for concurrent handlers; must
  /// be declared before the components that hold a pointer to it.
  util::LockedRandom rng_;
  store::MessageDb message_db_;
  store::PolicyDb policy_db_;
  store::UserDb user_db_;
  store::DeviceKeyDb device_keys_;
  SmartDeviceAuthenticator sda_;
  Gatekeeper gatekeeper_;
  MessageManagementSystem mms_;
  TokenGenerator token_generator_;

  OpInstruments deposit_obs_;
  OpInstruments auth_obs_;
  OpInstruments retrieve_obs_;
  OpInstruments deposit_batch_obs_;
  OpInstruments retrieve_chunk_obs_;
  /// Items per DepositBatch / messages per RetrieveChunk
  /// (`mws.batch_size{op=...}`); null when metrics are disabled.
  obs::Histogram* deposit_batch_size_ = nullptr;
  obs::Histogram* retrieve_chunk_size_ = nullptr;
  /// Amortized per-item latency of a batch deposit
  /// (`mws.batch_item_us{op=deposit_batch}`).
  obs::Histogram* deposit_batch_item_us_ = nullptr;
};

}  // namespace mws::mws

#endif  // MWSIBE_MWS_MWS_SERVICE_H_
