#ifndef MWSIBE_PKG_PKG_SERVICE_H_
#define MWSIBE_PKG_PKG_SERVICE_H_

#include <map>
#include <string>

#include "src/crypto/block_cipher.h"
#include "src/ibe/bf_ibe.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/clock.h"
#include "src/util/random.h"
#include "src/util/ttl_store.h"
#include "src/wire/messages.h"
#include "src/wire/transport.h"

namespace mws::pkg {

/// Tunables of the Private Key Generator service.
struct PkgOptions {
  crypto::CipherKind cipher = crypto::CipherKind::kDes;
  int64_t freshness_window_micros = 5ll * 60 * 1'000'000;
  int64_t session_lifetime_micros = 10ll * 60 * 1'000'000;
  /// Optional instrumentation sink (must outlive the service). Exposes
  /// `pkg.requests{op=...}`, `pkg.errors{op=...}`,
  /// `pkg.latency_us{op=...}`, `pkg.batch_items`, the `pkg.sessions` /
  /// `pkg.replay_entries` gauges, and `pkg.sessions_evicted`.
  obs::Registry* metrics = nullptr;
  /// Optional request tracer (must outlive the service).
  obs::Tracer* tracer = nullptr;
  /// Session-registry / replay-cache capacity tuning (stripes, bounds,
  /// reference mode). Shared shape with the Gatekeeper.
  util::ControlPlaneTuning tuning;
};

/// A live RC session at the PKG, established by a verified ticket.
struct PkgSession {
  std::string rc_identity;
  util::Bytes session_key;  // SecK_RC-PKG from the ticket
  /// AID -> attribute map the RC may extract keys for.
  std::map<uint64_t, std::string> aid_attributes;
  int64_t created_micros = 0;
};

/// The Private Key Generator (paper §V.B): holds the master secret s,
/// publishes the public parameters (P, sP), authenticates RCs via
/// MWS-issued tickets, and extracts per-message private keys
/// sI = s * H1(A || Nonce).
///
/// The PKG resolves AIDs to attributes *from the ticket*, so revocation
/// at the MWS takes effect as soon as old tickets expire, and the RC
/// never sees the attribute strings.
///
/// Concurrency contract: Authenticate, ExtractKey and ExtractKeyBatch
/// are safe to call concurrently (the TcpServer worker pool does). The
/// session registry is a striped, TTL-evicting, capacity-bounded
/// util::TtlStore and the replay cache a util::ReplayCache, so
/// concurrent authentications on distinct sessions touch disjoint
/// locks; extraction itself runs lock-free on a session copy — the IBE
/// layer holds no mutable state. The injected RandomSource is wrapped in
/// a util::LockedRandom internally. ExtractKeyBatch also fans its items'
/// H1 and s*Q out across every hardware thread (util::ParallelFor), so
/// one batch is not bound to the one dispatch worker that serves it.
class PkgService {
 public:
  /// Runs IBE Setup on construction: draws the master secret for `group`.
  PkgService(const math::TypeAParams& group, util::Bytes mws_pkg_key,
             const util::Clock* clock, util::RandomSource* rng,
             PkgOptions options = {});

  /// The public parameters every SD and RC needs (paper: "the parameters
  /// that should be used by the complete system").
  const ibe::SystemParams& PublicParams() const { return params_; }

  // --- Protocol operations (Fig. 4 phase 3) ---

  /// Verifies ticket + authenticator, opens a session.
  util::Result<wire::PkgAuthResponse> Authenticate(
      const wire::PkgAuthRequest& request);

  /// Extracts sI for one (AID, Nonce) pair; the key travels encrypted
  /// under the RC<->PKG session key.
  util::Result<wire::KeyResponse> ExtractKey(const wire::KeyRequest& request);

  /// Batched extraction: one round trip for many (AID, Nonce) pairs;
  /// per-item success so one revoked AID doesn't fail the batch.
  /// Authorization and sealing run serially in request order, so for a
  /// seeded RandomSource the payloads are byte-identical to one
  /// ExtractKey call per item; BfIbe::ExtractBatch runs in between.
  util::Result<wire::KeyBatchResponse> ExtractKeyBatch(
      const wire::KeyBatchRequest& request);

  /// Binds to "pkg.auth", "pkg.extract" and "pkg.extract_batch" on
  /// `transport`.
  void RegisterEndpoints(wire::InProcessTransport* transport);

  // --- Trusted-path helpers (tests, benches; not exposed on the wire) ---

  /// Direct extraction, bypassing ticket auth.
  ibe::IbePrivateKey ExtractForIdentity(const util::Bytes& identity) const;

  /// Clock-injected maintenance sweep: reaps every expired session
  /// (amortized O(reaped)) and refreshes the gauges. Returns sessions
  /// reaped.
  size_t SweepExpiredSessions();

  size_t ActiveSessions() const { return sessions_.Size(); }
  size_t ReplayEntries() const { return replay_.Size(); }

 private:
  util::Result<PkgSession> GetSession(const util::Bytes& session_id) const;

  /// Per-op instrument triple; all null when metrics are disabled.
  struct OpInstruments {
    obs::Counter* requests = nullptr;
    obs::Counter* errors = nullptr;
    obs::Histogram* latency = nullptr;
  };
  OpInstruments ResolveOp(const char* op);

  /// Core of both extraction paths: resolve the AID through the
  /// session's ticket, extract, seal under the session channel key.
  util::Result<util::Bytes> ExtractSealed(const PkgSession& session,
                                          uint64_t aid,
                                          const util::Bytes& nonce);

  ibe::BfIbe ibe_;
  ibe::SystemParams params_;
  ibe::MasterKey master_;
  util::Bytes mws_pkg_key_;
  const util::Clock* clock_;
  /// Serializes the injected RandomSource for concurrent handlers.
  util::LockedRandom rng_;
  PkgOptions options_;

  /// Session registry (TTL = session lifetime) and replay cache of
  /// accepted authenticators; both striped and capacity-bounded.
  /// GetSession erases expired entries, hence mutable.
  mutable util::TtlStore<PkgSession> sessions_;
  util::ReplayCache replay_;

  OpInstruments auth_obs_;
  OpInstruments extract_obs_;
  OpInstruments batch_obs_;
  obs::Counter* batch_items_counter_ = nullptr;
  obs::Gauge* sessions_gauge_ = nullptr;
  obs::Gauge* replay_gauge_ = nullptr;
  obs::Counter* evicted_counter_ = nullptr;

  void UpdateGauges();

  util::Result<wire::PkgAuthResponse> AuthenticateImpl(
      const wire::PkgAuthRequest& request);
};

}  // namespace mws::pkg

#endif  // MWSIBE_PKG_PKG_SERVICE_H_
