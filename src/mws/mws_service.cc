#include "src/mws/mws_service.h"

#include <limits>
#include <span>

#include "src/ibe/attribute.h"
#include "src/mws/policy_expr.h"

namespace mws::mws {

MwsService::MwsService(store::Table* storage, util::Bytes mws_pkg_key,
                       const util::Clock* clock, util::RandomSource* rng,
                       MwsOptions options)
    : options_(options),
      rng_(rng),
      message_db_(storage, options.metrics),
      policy_db_(storage),
      user_db_(storage),
      device_keys_(storage),
      sda_(&device_keys_, clock, options.freshness_window_micros),
      gatekeeper_(&user_db_, clock, &rng_, options.cipher,
                  options.freshness_window_micros, options.metrics,
                  options.tuning),
      mms_(&message_db_, &policy_db_),
      token_generator_(std::move(mws_pkg_key), options.cipher, clock, &rng_,
                       options.ticket_lifetime_micros) {
  deposit_obs_ = ResolveOp("deposit");
  auth_obs_ = ResolveOp("auth");
  retrieve_obs_ = ResolveOp("retrieve");
  deposit_batch_obs_ = ResolveOp("deposit_batch");
  retrieve_chunk_obs_ = ResolveOp("retrieve_chunk");
  if (options_.metrics != nullptr) {
    deposit_batch_size_ =
        options_.metrics->GetHistogram("mws.batch_size", {{"op", "deposit_batch"}});
    retrieve_chunk_size_ = options_.metrics->GetHistogram(
        "mws.batch_size", {{"op", "retrieve_chunk"}});
    deposit_batch_item_us_ = options_.metrics->GetHistogram(
        "mws.batch_item_us", {{"op", "deposit_batch"}});
  }
}

MwsService::OpInstruments MwsService::ResolveOp(const char* op) {
  OpInstruments out;
  if (options_.metrics == nullptr) return out;
  out.requests = options_.metrics->GetCounter("mws.requests", {{"op", op}});
  out.errors = options_.metrics->GetCounter("mws.errors", {{"op", op}});
  out.latency = options_.metrics->GetHistogram("mws.latency_us", {{"op", op}});
  return out;
}

namespace {

/// Success/failure accounting shared by the three protocol ops.
template <typename ResultT>
void CountOutcome(const ResultT& result, obs::Counter* requests,
                  obs::Counter* errors) {
  if (requests != nullptr) requests->Increment();
  if (errors != nullptr && !result.ok()) errors->Increment();
}

}  // namespace

util::Status MwsService::RegisterDevice(const std::string& device_id,
                                        const util::Bytes& mac_key) {
  if (device_id.empty() || mac_key.empty()) {
    return util::Status::InvalidArgument("device id and key required");
  }
  return device_keys_.Register(device_id, mac_key);
}

util::Status MwsService::RegisterReceivingClient(
    const std::string& rc_identity, const util::Bytes& password_hash,
    const util::Bytes& rsa_public_key) {
  if (rc_identity.empty() || password_hash.empty()) {
    return util::Status::InvalidArgument("identity and password required");
  }
  return user_db_.Register({rc_identity, password_hash, rsa_public_key});
}

util::Result<uint64_t> MwsService::GrantAttribute(
    const std::string& rc_identity, const std::string& attribute) {
  MWS_RETURN_IF_ERROR(ibe::ValidateAttribute(attribute));
  if (!user_db_.Get(rc_identity).ok()) {
    return util::Status::NotFound("unknown receiving client: " + rc_identity);
  }
  return policy_db_.Grant(rc_identity, attribute);
}

util::Status MwsService::RevokeAttribute(const std::string& rc_identity,
                                         const std::string& attribute) {
  return policy_db_.Revoke(rc_identity, attribute);
}

util::Result<uint64_t> MwsService::GrantPolicyExpression(
    const std::string& rc_identity, const std::string& expression) {
  if (!user_db_.Get(rc_identity).ok()) {
    return util::Status::NotFound("unknown receiving client: " + rc_identity);
  }
  // Validate the expression now so stored text always parses.
  MWS_RETURN_IF_ERROR(PolicyExpression::Parse(expression).status());
  return policy_db_.GrantExpression(rc_identity, expression);
}

util::Status MwsService::RevokePolicyExpression(const std::string& rc_identity,
                                                uint64_t seq) {
  return policy_db_.RevokeExpression(rc_identity, seq);
}

util::Result<std::vector<store::PolicyRow>> MwsService::PolicyTable() const {
  return policy_db_.AllRows();
}

util::Result<size_t> MwsService::PruneMessagesThrough(uint64_t max_id) {
  return message_db_.PruneThrough(max_id);
}

util::Result<wire::DepositResponse> MwsService::Deposit(
    const wire::DepositRequest& request) {
  obs::ScopedTimer timer(deposit_obs_.latency);
  obs::Span span = obs::Tracer::MaybeStartTrace(options_.tracer, "mws.deposit");
  // A single deposit is a one-item batch; the item's wire error carries
  // its exact status.
  util::Result<wire::DepositResponse> result =
      [&]() -> util::Result<wire::DepositResponse> {
    MWS_ASSIGN_OR_RETURN(wire::DepositBatchResponse batch,
                         DepositBatchImpl({&request, 1}, span));
    const wire::DepositBatchResponse::Item& item = batch.items.front();
    if (!item.ok) return wire::DecodeWireError(item.error);
    return wire::DepositResponse{item.message_id};
  }();
  CountOutcome(result, deposit_obs_.requests, deposit_obs_.errors);
  return result;
}

util::Result<wire::DepositBatchResponse> MwsService::DepositBatch(
    const wire::DepositBatchRequest& request) {
  const int64_t start_us = obs::SteadyNowMicros();
  obs::Span span =
      obs::Tracer::MaybeStartTrace(options_.tracer, "mws.deposit_batch");
  util::Result<wire::DepositBatchResponse> result =
      DepositBatchImpl(request.items, span);
  CountOutcome(result, deposit_batch_obs_.requests, deposit_batch_obs_.errors);
  const uint64_t elapsed_us =
      static_cast<uint64_t>(obs::SteadyNowMicros() - start_us);
  if (deposit_batch_obs_.latency != nullptr) {
    deposit_batch_obs_.latency->Record(elapsed_us);
  }
  if (deposit_batch_size_ != nullptr) {
    deposit_batch_size_->Record(request.items.size());
  }
  if (deposit_batch_item_us_ != nullptr && !request.items.empty()) {
    // Amortized cost of one message inside the batch — the number the
    // batch path exists to shrink (compare against mws.latency_us{op=
    // deposit}).
    deposit_batch_item_us_->Record(elapsed_us / request.items.size());
  }
  return result;
}

util::Result<wire::DepositBatchResponse> MwsService::DepositBatchImpl(
    std::span<const wire::DepositRequest> items, obs::Span& span) {
  wire::DepositBatchResponse response;
  response.items.resize(items.size());

  // Per-item admission: a bad MAC or attribute rejects that item only.
  // Valid items proceed to one grouped append.
  std::vector<store::StoredMessage> valid;
  std::vector<size_t> valid_index;  // position of valid[i] in the request
  valid.reserve(items.size());
  {
    obs::Span verify = span.Child("sda.verify");
    for (size_t i = 0; i < items.size(); ++i) {
      const wire::DepositRequest& item = items[i];
      util::Status admitted = sda_.Verify(item);
      if (admitted.ok()) admitted = ibe::ValidateAttribute(item.attribute);
      if (!admitted.ok()) {
        response.items[i].ok = false;
        response.items[i].error = wire::EncodeWireError(admitted);
        continue;
      }
      store::StoredMessage m;
      m.u = item.u;
      m.ciphertext = item.ciphertext;
      m.attribute = item.attribute;
      m.nonce = item.nonce;
      m.device_id = item.device_id;
      m.timestamp_micros = item.timestamp_micros;
      valid.push_back(std::move(m));
      valid_index.push_back(i);
    }
  }

  if (!valid.empty()) {
    // At-least-once delivery: a device whose ack was lost retransmits
    // the identical deposit, which the append dedupes by (ID_SD, nonce).
    obs::Span append = span.Child("md.append");
    MWS_ASSIGN_OR_RETURN(std::vector<store::MessageDb::AppendOutcome> outcomes,
                         message_db_.Append(valid));
    for (size_t v = 0; v < outcomes.size(); ++v) {
      response.items[valid_index[v]].ok = true;
      response.items[valid_index[v]].message_id = outcomes[v].id;
      response.items[valid_index[v]].deduplicated = outcomes[v].deduplicated;
    }
  }
  return response;
}

util::Result<wire::RcAuthResponse> MwsService::Authenticate(
    const wire::RcAuthRequest& request) {
  obs::ScopedTimer timer(auth_obs_.latency);
  obs::Span span = obs::Tracer::MaybeStartTrace(options_.tracer, "mws.auth");
  util::Result<wire::RcAuthResponse> result = [&] {
    obs::Span child = span.Child("gatekeeper.auth");
    return gatekeeper_.Authenticate(request);
  }();
  CountOutcome(result, auth_obs_.requests, auth_obs_.errors);
  return result;
}

util::Result<wire::RetrieveResponse> MwsService::Retrieve(
    const wire::RetrieveRequest& request) {
  obs::ScopedTimer timer(retrieve_obs_.latency);
  obs::Span span =
      obs::Tracer::MaybeStartTrace(options_.tracer, "mws.retrieve");
  // The whole backlog is one unbounded chunk, so the token always comes.
  wire::RetrieveChunkRequest unbounded;
  unbounded.session_id = request.session_id;
  unbounded.after_message_id = request.after_message_id;
  unbounded.from_micros = request.from_micros;
  unbounded.to_micros = request.to_micros;
  unbounded.max_messages = std::numeric_limits<uint32_t>::max();
  util::Result<wire::RetrieveChunkResponse> chunk =
      RetrieveChunkImpl(unbounded, span);
  CountOutcome(chunk, retrieve_obs_.requests, retrieve_obs_.errors);
  MWS_RETURN_IF_ERROR(chunk.status());
  return wire::RetrieveResponse{std::move(chunk->messages),
                                std::move(chunk->token)};
}

util::Result<wire::RetrieveChunkResponse> MwsService::RetrieveChunk(
    const wire::RetrieveChunkRequest& request) {
  obs::ScopedTimer timer(retrieve_chunk_obs_.latency);
  obs::Span span =
      obs::Tracer::MaybeStartTrace(options_.tracer, "mws.retrieve_chunk");
  util::Result<wire::RetrieveChunkResponse> result =
      RetrieveChunkImpl(request, span);
  CountOutcome(result, retrieve_chunk_obs_.requests,
               retrieve_chunk_obs_.errors);
  if (retrieve_chunk_size_ != nullptr && result.ok()) {
    retrieve_chunk_size_->Record(result.value().messages.size());
  }
  return result;
}

util::Result<wire::RetrieveChunkResponse> MwsService::RetrieveChunkImpl(
    const wire::RetrieveChunkRequest& request, obs::Span& span) {
  if (request.max_messages == 0) {
    return util::Status::InvalidArgument("max_messages must be positive");
  }
  RcSession session;
  {
    obs::Span lookup = span.Child("gatekeeper.session");
    MWS_ASSIGN_OR_RETURN(session, gatekeeper_.GetSession(request.session_id));
  }
  wire::RetrieveChunkResponse response;
  {
    obs::Span fetch = span.Child("mms.fetch");
    MWS_ASSIGN_OR_RETURN(
        MessageManagementSystem::Chunk chunk,
        mms_.FetchChunkFor(session.rc_identity, request.after_message_id,
                           request.from_micros, request.to_micros,
                           request.max_messages));
    response.messages = std::move(chunk.messages);
    response.has_more = chunk.has_more;
    response.next_after_id = chunk.next_after_id;
  }
  // The token covers the whole sweep, so issuing it per chunk would be
  // wasted RSA + cipher work; only the final chunk carries one.
  if (!response.has_more) {
    obs::Span token = span.Child("tg.token");
    MWS_ASSIGN_OR_RETURN(std::vector<store::PolicyRow> grants,
                         mms_.GrantsFor(session.rc_identity));
    MWS_ASSIGN_OR_RETURN(
        response.token,
        token_generator_.IssueToken(session.rc_identity,
                                    session.rsa_public_key, grants));
  }
  return response;
}

void MwsService::RegisterEndpoints(wire::InProcessTransport* transport) {
  transport->Register(
      "mws.deposit",
      [this](const util::Bytes& raw) -> util::Result<util::Bytes> {
        MWS_ASSIGN_OR_RETURN(wire::DepositRequest request,
                             wire::DepositRequest::Decode(raw));
        MWS_ASSIGN_OR_RETURN(wire::DepositResponse response,
                             Deposit(request));
        return response.Encode();
      });
  transport->Register(
      "mws.auth",
      [this](const util::Bytes& raw) -> util::Result<util::Bytes> {
        MWS_ASSIGN_OR_RETURN(wire::RcAuthRequest request,
                             wire::RcAuthRequest::Decode(raw));
        MWS_ASSIGN_OR_RETURN(wire::RcAuthResponse response,
                             Authenticate(request));
        return response.Encode();
      });
  transport->Register(
      "mws.retrieve",
      [this](const util::Bytes& raw) -> util::Result<util::Bytes> {
        MWS_ASSIGN_OR_RETURN(wire::RetrieveRequest request,
                             wire::RetrieveRequest::Decode(raw));
        MWS_ASSIGN_OR_RETURN(wire::RetrieveResponse response,
                             Retrieve(request));
        return response.Encode();
      });
  transport->Register(
      "mws.deposit_batch",
      [this](const util::Bytes& raw) -> util::Result<util::Bytes> {
        MWS_ASSIGN_OR_RETURN(wire::DepositBatchRequest request,
                             wire::DepositBatchRequest::Decode(raw));
        MWS_ASSIGN_OR_RETURN(wire::DepositBatchResponse response,
                             DepositBatch(request));
        return response.Encode();
      });
  transport->Register(
      "mws.retrieve_chunk",
      [this](const util::Bytes& raw) -> util::Result<util::Bytes> {
        MWS_ASSIGN_OR_RETURN(wire::RetrieveChunkRequest request,
                             wire::RetrieveChunkRequest::Decode(raw));
        MWS_ASSIGN_OR_RETURN(wire::RetrieveChunkResponse response,
                             RetrieveChunk(request));
        return response.Encode();
      });
}

}  // namespace mws::mws
