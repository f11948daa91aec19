#include "src/pkg/pkg_service.h"

#include <cstdlib>

#include "src/crypto/hash.h"
#include "src/crypto/modes.h"
#include "src/ibe/attribute.h"
#include "src/util/hex.h"
#include "src/wire/auth.h"

namespace mws::pkg {

PkgService::PkgService(const math::TypeAParams& group,
                       util::Bytes mws_pkg_key, const util::Clock* clock,
                       util::RandomSource* rng, PkgOptions options)
    : ibe_(group),
      mws_pkg_key_(std::move(mws_pkg_key)),
      clock_(clock),
      rng_(rng),
      options_(options),
      sessions_({.stripes =
                     options.tuning.reference_mode ? 1 : options.tuning.stripes,
                 .max_entries = options.tuning.max_sessions,
                 .ttl_micros = options.session_lifetime_micros}),
      replay_({.stripes =
                   options.tuning.reference_mode ? 1 : options.tuning.stripes,
               .max_entries = options.tuning.max_replay_entries,
               .window_micros = options.freshness_window_micros}) {
  auto setup = ibe_.Setup(*rng);
  params_ = setup.first;
  master_ = setup.second;
  auth_obs_ = ResolveOp("auth");
  extract_obs_ = ResolveOp("extract");
  batch_obs_ = ResolveOp("extract_batch");
  if (options_.metrics != nullptr) {
    batch_items_counter_ = options_.metrics->GetCounter("pkg.batch_items");
    sessions_gauge_ = options_.metrics->GetGauge("pkg.sessions");
    replay_gauge_ = options_.metrics->GetGauge("pkg.replay_entries");
    evicted_counter_ = options_.metrics->GetCounter("pkg.sessions_evicted");
  }
}

void PkgService::UpdateGauges() {
  if (sessions_gauge_ != nullptr) {
    sessions_gauge_->Set(static_cast<int64_t>(sessions_.Size()));
  }
  if (replay_gauge_ != nullptr) {
    replay_gauge_->Set(static_cast<int64_t>(replay_.Size()));
  }
}

size_t PkgService::SweepExpiredSessions() {
  size_t removed = sessions_.SweepExpired(clock_->NowMicros());
  UpdateGauges();
  return removed;
}

PkgService::OpInstruments PkgService::ResolveOp(const char* op) {
  OpInstruments out;
  if (options_.metrics == nullptr) return out;
  out.requests = options_.metrics->GetCounter("pkg.requests", {{"op", op}});
  out.errors = options_.metrics->GetCounter("pkg.errors", {{"op", op}});
  out.latency = options_.metrics->GetHistogram("pkg.latency_us", {{"op", op}});
  return out;
}

namespace {

/// Success/failure accounting shared by the protocol ops.
template <typename ResultT>
void CountOutcome(const ResultT& result, obs::Counter* requests,
                  obs::Counter* errors) {
  if (requests != nullptr) requests->Increment();
  if (errors != nullptr && !result.ok()) errors->Increment();
}

}  // namespace

util::Result<wire::PkgAuthResponse> PkgService::Authenticate(
    const wire::PkgAuthRequest& request) {
  obs::ScopedTimer timer(auth_obs_.latency);
  obs::Span span = obs::Tracer::MaybeStartTrace(options_.tracer, "pkg.auth");
  util::Result<wire::PkgAuthResponse> result = AuthenticateImpl(request);
  CountOutcome(result, auth_obs_.requests, auth_obs_.errors);
  return result;
}

util::Result<wire::PkgAuthResponse> PkgService::AuthenticateImpl(
    const wire::PkgAuthRequest& request) {
  // Decrypt the ticket with the MWS<->PKG service key.
  util::Bytes ticket_key =
      wire::DeriveChannelKey(mws_pkg_key_, options_.cipher, "mws-pkg-ticket");
  auto ticket_bytes =
      crypto::CbcDecrypt(options_.cipher, ticket_key, request.ticket);
  if (!ticket_bytes.ok()) {
    return util::Status::Unauthenticated("ticket decryption failed");
  }
  auto ticket = wire::TicketPlain::Decode(ticket_bytes.value());
  if (!ticket.ok()) {
    return util::Status::Unauthenticated("ticket malformed");
  }
  int64_t now = clock_->NowMicros();
  if (now > ticket->expiry_micros) {
    return util::Status::Unauthenticated("ticket expired");
  }
  if (ticket->rc_identity != request.rc_identity) {
    return util::Status::Unauthenticated("ticket identity mismatch");
  }
  // Decrypt the authenticator with the session key carried in the ticket.
  util::Bytes auth_key = wire::DeriveChannelKey(
      ticket->session_key, options_.cipher, "rc-pkg-authenticator");
  auto auth_bytes =
      crypto::CbcDecrypt(options_.cipher, auth_key, request.authenticator);
  if (!auth_bytes.ok()) {
    return util::Status::Unauthenticated("authenticator decryption failed");
  }
  auto auth = wire::AuthenticatorPlain::Decode(auth_bytes.value());
  if (!auth.ok()) {
    return util::Status::Unauthenticated("authenticator malformed");
  }
  if (auth->rc_identity != request.rc_identity) {
    return util::Status::Unauthenticated("authenticator identity mismatch");
  }
  if (std::llabs(now - auth->timestamp_micros) >
      options_.freshness_window_micros) {
    return util::Status::Unauthenticated("authenticator expired");
  }
  std::string replay_key = util::HexEncode(crypto::Sha256(
      util::Concat(request.authenticator, request.ticket)));

  // Draw the session id before taking the lock so the (locked) rng call
  // never nests inside mutex_.
  wire::PkgAuthResponse response;
  response.session_id = rng_.Generate(16);

  // Replay protection on the authenticator ciphertext.
  if (!replay_.CheckAndInsert(auth->timestamp_micros, replay_key, now)) {
    UpdateGauges();
    return util::Status::Unauthenticated("authenticator replayed");
  }

  if (options_.tuning.reference_mode) {
    // Pre-PR-10 behavior: garbage-collect the whole registry on every
    // authentication — O(live sessions) inside the critical section.
    sessions_.SweepExpiredFull(now);
  } else {
    // Same observable invariant (no expired session outlives the next
    // successful auth) at amortized O(stripes + reaped) cost.
    sessions_.SweepExpired(now);
  }

  PkgSession session;
  session.rc_identity = ticket->rc_identity;
  session.session_key = ticket->session_key;
  for (const auto& [aid, attribute] : ticket->aid_attributes) {
    session.aid_attributes[aid] = attribute;
  }
  session.created_micros = now;

  auto stats = sessions_.Insert(util::StringFromBytes(response.session_id),
                                std::move(session), now);
  if (evicted_counter_ != nullptr && stats.evicted > 0) {
    evicted_counter_->Increment(static_cast<int64_t>(stats.evicted));
  }
  UpdateGauges();
  return response;
}

util::Result<PkgSession> PkgService::GetSession(
    const util::Bytes& session_id) const {
  bool expired = false;
  auto session = sessions_.Get(util::StringFromBytes(session_id),
                               clock_->NowMicros(), &expired);
  if (!session.has_value()) {
    if (expired) {
      // The lookup reaped the expired entry; reflect that immediately.
      if (sessions_gauge_ != nullptr) {
        sessions_gauge_->Set(static_cast<int64_t>(sessions_.Size()));
      }
      return util::Status::Unauthenticated("PKG session expired");
    }
    return util::Status::Unauthenticated("unknown PKG session");
  }
  return *std::move(session);
}

util::Result<util::Bytes> PkgService::ExtractSealed(
    const PkgSession& session, uint64_t aid, const util::Bytes& nonce) {
  auto it = session.aid_attributes.find(aid);
  if (it == session.aid_attributes.end()) {
    // The AID is not in the RC's ticket: either never granted or revoked
    // before the ticket was issued.
    return util::Status::PermissionDenied(
        "AID not authorized by ticket: " + std::to_string(aid));
  }
  // "PKG replaces AID with A to obtain A||Nonce ... and sends back sI."
  util::Bytes identity =
      ibe::DeriveIdentity(it->second, ibe::MessageNonce{nonce});
  ibe::IbePrivateKey key = ibe_.Extract(master_, identity);
  util::Bytes key_bytes = ibe_.group().curve().SerializeCompressed(key.d);

  util::Bytes channel_key = wire::DeriveChannelKey(
      session.session_key, options_.cipher, "rc-pkg-keydelivery");
  return crypto::CbcEncrypt(options_.cipher, channel_key, key_bytes, rng_);
}

util::Result<wire::KeyResponse> PkgService::ExtractKey(
    const wire::KeyRequest& request) {
  obs::ScopedTimer timer(extract_obs_.latency);
  obs::Span span =
      obs::Tracer::MaybeStartTrace(options_.tracer, "pkg.extract");
  util::Result<wire::KeyResponse> result =
      [&]() -> util::Result<wire::KeyResponse> {
    MWS_ASSIGN_OR_RETURN(PkgSession session, GetSession(request.session_id));
    obs::Span extract = span.Child("ibe.extract_seal");
    MWS_ASSIGN_OR_RETURN(util::Bytes sealed,
                         ExtractSealed(session, request.aid, request.nonce));
    return wire::KeyResponse{std::move(sealed)};
  }();
  CountOutcome(result, extract_obs_.requests, extract_obs_.errors);
  return result;
}

util::Result<wire::KeyBatchResponse> PkgService::ExtractKeyBatch(
    const wire::KeyBatchRequest& request) {
  obs::ScopedTimer timer(batch_obs_.latency);
  obs::Span span =
      obs::Tracer::MaybeStartTrace(options_.tracer, "pkg.extract_batch");
  if (batch_obs_.requests != nullptr) {
    batch_obs_.requests->Increment();
    batch_items_counter_->Increment(request.items.size());
  }
  auto counted_session = GetSession(request.session_id);
  if (!counted_session.ok()) {
    if (batch_obs_.errors != nullptr) batch_obs_.errors->Increment();
    return counted_session.status();
  }
  PkgSession session = std::move(counted_session).value();
  wire::KeyBatchResponse response;
  response.items.resize(request.items.size());

  // Authorization per item, in request order: a refused AID fails only
  // its own item.
  std::vector<util::Bytes> identities;
  std::vector<size_t> granted;  // request position of identities[k]
  identities.reserve(request.items.size());
  for (size_t i = 0; i < request.items.size(); ++i) {
    const auto& [aid, nonce] = request.items[i];
    auto it = session.aid_attributes.find(aid);
    if (it == session.aid_attributes.end()) {
      util::Status denied = util::Status::PermissionDenied(
          "AID not authorized by ticket: " + std::to_string(aid));
      response.items[i].ok = false;
      response.items[i].payload = util::BytesFromString(denied.ToString());
      continue;
    }
    identities.push_back(
        ibe::DeriveIdentity(it->second, ibe::MessageNonce{nonce}));
    granted.push_back(i);
  }

  std::vector<ibe::IbePrivateKey> keys;
  {
    obs::Span extract = span.Child("ibe.extract_batch");
    keys = ibe_.ExtractBatch(master_, identities);
  }

  // Sealing stays serial and in request order: each CbcEncrypt draws its
  // IV from rng_, so a seeded generator gives the same bytes as one
  // ExtractKey call per item.
  obs::Span seal = span.Child("ibe.seal_batch");
  util::Bytes channel_key = wire::DeriveChannelKey(
      session.session_key, options_.cipher, "rc-pkg-keydelivery");
  for (size_t k = 0; k < keys.size(); ++k) {
    util::Bytes key_bytes =
        ibe_.group().curve().SerializeCompressed(keys[k].d);
    auto sealed =
        crypto::CbcEncrypt(options_.cipher, channel_key, key_bytes, rng_);
    wire::KeyBatchResponse::Item& item = response.items[granted[k]];
    if (sealed.ok()) {
      item.ok = true;
      item.payload = std::move(sealed).value();
    } else {
      item.ok = false;
      item.payload = util::BytesFromString(sealed.status().ToString());
    }
  }
  return response;
}

ibe::IbePrivateKey PkgService::ExtractForIdentity(
    const util::Bytes& identity) const {
  return ibe_.Extract(master_, identity);
}

void PkgService::RegisterEndpoints(wire::InProcessTransport* transport) {
  transport->Register(
      "pkg.auth",
      [this](const util::Bytes& raw) -> util::Result<util::Bytes> {
        MWS_ASSIGN_OR_RETURN(wire::PkgAuthRequest request,
                             wire::PkgAuthRequest::Decode(raw));
        MWS_ASSIGN_OR_RETURN(wire::PkgAuthResponse response,
                             Authenticate(request));
        return response.Encode();
      });
  transport->Register(
      "pkg.extract",
      [this](const util::Bytes& raw) -> util::Result<util::Bytes> {
        MWS_ASSIGN_OR_RETURN(wire::KeyRequest request,
                             wire::KeyRequest::Decode(raw));
        MWS_ASSIGN_OR_RETURN(wire::KeyResponse response, ExtractKey(request));
        return response.Encode();
      });
  transport->Register(
      "pkg.extract_batch",
      [this](const util::Bytes& raw) -> util::Result<util::Bytes> {
        MWS_ASSIGN_OR_RETURN(wire::KeyBatchRequest request,
                             wire::KeyBatchRequest::Decode(raw));
        MWS_ASSIGN_OR_RETURN(wire::KeyBatchResponse response,
                             ExtractKeyBatch(request));
        return response.Encode();
      });
}

}  // namespace mws::pkg
