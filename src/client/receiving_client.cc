#include "src/client/receiving_client.h"

#include "src/crypto/modes.h"
#include "src/crypto/sealed_box.h"
#include "src/util/parallel.h"
#include "src/wire/auth.h"

namespace mws::client {

ReceivingClient::ReceivingClient(std::string identity, std::string password,
                                 crypto::RsaKeyPair rsa_keys,
                                 const ibe::SystemParams& params,
                                 crypto::CipherKind cipher,
                                 crypto::CipherKind dem,
                                 wire::Transport* transport,
                                 const util::Clock* clock,
                                 util::RandomSource* rng)
    : identity_(std::move(identity)),
      password_hash_(wire::HashPassword(password)),
      rsa_keys_(std::move(rsa_keys)),
      params_(params),
      cipher_(cipher),
      sealer_(*params.group, dem),
      transport_(transport),
      clock_(clock),
      rng_(rng) {}

util::Status ReceivingClient::Authenticate() {
  wire::RcAuthPlain plain;
  plain.rc_identity = identity_;
  plain.timestamp_micros = clock_->NowMicros();
  plain.client_nonce = rng_->Generate(16);

  util::Bytes auth_key = wire::DeriveAuthKey(password_hash_, cipher_);
  auto sealed = crypto::CbcEncrypt(cipher_, auth_key, plain.Encode(), *rng_);
  MWS_RETURN_IF_ERROR(sealed.status());

  wire::RcAuthRequest request;
  request.rc_identity = identity_;
  request.rsa_public_key = crypto::SerializeRsaPublicKey(rsa_keys_.public_key);
  request.auth_ciphertext = std::move(sealed).value();

  auto raw = transport_->Call("mws.auth", request.Encode());
  MWS_RETURN_IF_ERROR(raw.status());
  auto response = wire::RcAuthResponse::Decode(raw.value());
  MWS_RETURN_IF_ERROR(response.status());
  mws_session_ = response->session_id;
  return util::Status::Ok();
}

util::Result<wire::RetrieveResponse> ReceivingClient::Retrieve(
    uint64_t after_id, int64_t from_micros, int64_t to_micros) {
  if (mws_session_.empty()) {
    return util::Status::FailedPrecondition("not authenticated with MWS");
  }
  wire::RetrieveRequest request;
  request.session_id = mws_session_;
  request.after_message_id = after_id;
  request.from_micros = from_micros;
  request.to_micros = to_micros;
  MWS_ASSIGN_OR_RETURN(util::Bytes raw,
                       transport_->Call("mws.retrieve", request.Encode()));
  return wire::RetrieveResponse::Decode(raw);
}

util::Result<wire::RetrieveChunkResponse> ReceivingClient::RetrieveChunk(
    uint64_t after_id, int64_t from_micros, int64_t to_micros,
    uint32_t max_messages) {
  if (mws_session_.empty()) {
    return util::Status::FailedPrecondition("not authenticated with MWS");
  }
  wire::RetrieveChunkRequest request;
  request.session_id = mws_session_;
  request.after_message_id = after_id;
  request.from_micros = from_micros;
  request.to_micros = to_micros;
  request.max_messages = max_messages;
  MWS_ASSIGN_OR_RETURN(
      util::Bytes raw, transport_->Call("mws.retrieve_chunk", request.Encode()));
  return wire::RetrieveChunkResponse::Decode(raw);
}

util::Result<wire::RetrieveResponse> ReceivingClient::RetrieveChunked(
    uint64_t after_id, int64_t from_micros, int64_t to_micros,
    uint32_t chunk_size) {
  if (chunk_size == 0) {
    return util::Status::InvalidArgument("chunk_size must be positive");
  }
  wire::RetrieveResponse out;
  uint64_t cursor = after_id;
  for (;;) {
    MWS_ASSIGN_OR_RETURN(
        wire::RetrieveChunkResponse chunk,
        RetrieveChunk(cursor, from_micros, to_micros, chunk_size));
    for (wire::RetrievedMessage& m : chunk.messages) {
      out.messages.push_back(std::move(m));
    }
    if (!chunk.has_more) {
      out.token = std::move(chunk.token);
      return out;
    }
    if (chunk.next_after_id <= cursor) {
      // A stuck cursor would loop forever; treat it as a server bug.
      return util::Status::Internal("retrieve chunk cursor did not advance");
    }
    cursor = chunk.next_after_id;
  }
}

util::Status ReceivingClient::AuthenticateWithPkg(const util::Bytes& token) {
  // Open the token with our RSA private key to recover SecK_RC-PKG and
  // the (opaque) ticket.
  auto token_bytes =
      crypto::OpenSealedBox(rsa_keys_.private_key, cipher_, token);
  MWS_RETURN_IF_ERROR(token_bytes.status());
  auto token_plain = wire::TokenPlain::Decode(token_bytes.value());
  MWS_RETURN_IF_ERROR(token_plain.status());
  pkg_session_key_ = token_plain->session_key;

  // Build the authenticator E(SecK_RC-PKG, IDRC || T).
  wire::AuthenticatorPlain auth;
  auth.rc_identity = identity_;
  auth.timestamp_micros = clock_->NowMicros();
  util::Bytes auth_key = wire::DeriveChannelKey(pkg_session_key_, cipher_,
                                                "rc-pkg-authenticator");
  auto sealed_auth =
      crypto::CbcEncrypt(cipher_, auth_key, auth.Encode(), *rng_);
  MWS_RETURN_IF_ERROR(sealed_auth.status());

  wire::PkgAuthRequest request;
  request.rc_identity = identity_;
  request.ticket = token_plain->ticket;
  request.authenticator = std::move(sealed_auth).value();

  auto raw = transport_->Call("pkg.auth", request.Encode());
  MWS_RETURN_IF_ERROR(raw.status());
  auto response = wire::PkgAuthResponse::Decode(raw.value());
  MWS_RETURN_IF_ERROR(response.status());
  pkg_session_ = response->session_id;
  return util::Status::Ok();
}

util::Result<ibe::IbePrivateKey> ReceivingClient::RequestKey(
    uint64_t aid, const util::Bytes& nonce) {
  if (pkg_session_.empty()) {
    return util::Status::FailedPrecondition("not authenticated with PKG");
  }
  wire::KeyRequest request;
  request.session_id = pkg_session_;
  request.aid = aid;
  request.nonce = nonce;
  MWS_ASSIGN_OR_RETURN(util::Bytes raw,
                       transport_->Call("pkg.extract", request.Encode()));
  MWS_ASSIGN_OR_RETURN(wire::KeyResponse response,
                       wire::KeyResponse::Decode(raw));

  util::Bytes channel_key = wire::DeriveChannelKey(pkg_session_key_, cipher_,
                                                   "rc-pkg-keydelivery");
  return OpenKey(channel_key, response.encrypted_private_key);
}

util::Result<std::vector<util::Result<ibe::IbePrivateKey>>>
ReceivingClient::RequestKeysBatch(
    const std::vector<std::pair<uint64_t, util::Bytes>>& items) {
  if (pkg_session_.empty()) {
    return util::Status::FailedPrecondition("not authenticated with PKG");
  }
  wire::KeyBatchRequest request;
  request.session_id = pkg_session_;
  request.items = items;
  MWS_ASSIGN_OR_RETURN(
      util::Bytes raw, transport_->Call("pkg.extract_batch", request.Encode()));
  MWS_ASSIGN_OR_RETURN(wire::KeyBatchResponse response,
                       wire::KeyBatchResponse::Decode(raw));
  if (response.items.size() != items.size()) {
    return util::Status::Internal("batch response size mismatch");
  }
  util::Bytes channel_key = wire::DeriveChannelKey(pkg_session_key_, cipher_,
                                                   "rc-pkg-keydelivery");
  std::vector<util::Result<ibe::IbePrivateKey>> out(
      response.items.size(), util::Status::Internal("not opened"));
  util::ParallelFor(response.items.size(), [&](size_t i) {
    const wire::KeyBatchResponse::Item& item = response.items[i];
    if (!item.ok) {
      out[i] = util::Status::PermissionDenied(
          "extraction refused: " + util::StringFromBytes(item.payload));
      return;
    }
    out[i] = OpenKey(channel_key, item.payload);
  });
  return out;
}

util::Result<ibe::IbePrivateKey> ReceivingClient::OpenKey(
    const util::Bytes& channel_key, const util::Bytes& sealed) const {
  MWS_ASSIGN_OR_RETURN(util::Bytes key_bytes,
                       crypto::CbcDecrypt(cipher_, channel_key, sealed));
  MWS_ASSIGN_OR_RETURN(
      math::EcPoint d,
      params_.group->curve().DeserializeCompressed(key_bytes));
  return ibe::IbePrivateKey{d};
}

util::Result<util::Bytes> ReceivingClient::DecryptMessage(
    const wire::RetrievedMessage& m, const ibe::IbePrivateKey& key) {
  MWS_ASSIGN_OR_RETURN(math::EcPoint u,
                       params_.group->curve().Deserialize(m.u));
  return sealer_.Open(key, ibe::HybridCiphertext{u, m.ciphertext});
}

util::Result<std::vector<ReceivedMessage>> ReceivingClient::DecryptAll(
    const std::vector<wire::RetrievedMessage>& messages) {
  if (messages.empty()) return std::vector<ReceivedMessage>{};
  std::vector<std::pair<uint64_t, util::Bytes>> items;
  items.reserve(messages.size());
  for (const wire::RetrievedMessage& m : messages) {
    items.emplace_back(m.aid, m.nonce);
  }
  MWS_ASSIGN_OR_RETURN(std::vector<util::Result<ibe::IbePrivateKey>> keys,
                       RequestKeysBatch(items));
  for (const auto& key : keys) MWS_RETURN_IF_ERROR(key.status());

  std::vector<util::Result<util::Bytes>> plains(
      messages.size(), util::Status::Internal("not decrypted"));
  util::ParallelFor(messages.size(), [&](size_t i) {
    plains[i] = DecryptMessage(messages[i], keys[i].value());
  });

  std::vector<ReceivedMessage> out;
  out.reserve(messages.size());
  for (size_t i = 0; i < messages.size(); ++i) {
    MWS_RETURN_IF_ERROR(plains[i].status());
    out.push_back(ReceivedMessage{messages[i].message_id, messages[i].aid,
                                  std::move(plains[i]).value()});
  }
  return out;
}

util::Result<std::vector<ReceivedMessage>> ReceivingClient::FetchAndDecrypt(
    uint64_t after_id, int64_t from_micros, int64_t to_micros) {
  MWS_RETURN_IF_ERROR(Authenticate());
  MWS_ASSIGN_OR_RETURN(wire::RetrieveResponse retrieved,
                       Retrieve(after_id, from_micros, to_micros));
  MWS_RETURN_IF_ERROR(AuthenticateWithPkg(retrieved.token));
  return DecryptAll(retrieved.messages);
}

util::Result<std::vector<ReceivedMessage>>
ReceivingClient::FetchAndDecryptBulk(uint64_t after_id, int64_t from_micros,
                                     int64_t to_micros, uint32_t chunk_size) {
  MWS_RETURN_IF_ERROR(Authenticate());
  MWS_ASSIGN_OR_RETURN(
      wire::RetrieveResponse retrieved,
      RetrieveChunked(after_id, from_micros, to_micros, chunk_size));
  MWS_RETURN_IF_ERROR(AuthenticateWithPkg(retrieved.token));
  return DecryptAll(retrieved.messages);
}

}  // namespace mws::client
