#ifndef MWSIBE_CLIENT_RECEIVING_CLIENT_H_
#define MWSIBE_CLIENT_RECEIVING_CLIENT_H_

#include <string>
#include <vector>

#include "src/crypto/rsa.h"
#include "src/ibe/hybrid.h"
#include "src/util/clock.h"
#include "src/wire/messages.h"
#include "src/wire/transport.h"

namespace mws::client {

/// A message after the full retrieve-and-decrypt pipeline.
struct ReceivedMessage {
  uint64_t message_id = 0;
  uint64_t aid = 0;  // the opaque attribute id (the RC never sees A)
  util::Bytes plaintext;
};

/// A receiving client (RC): an enterprise system such as the paper's
/// C-Services. Runs phases 2 and 3 of Fig. 4: gatekeeper auth, retrieve,
/// PKG ticket auth, per-message key extraction, decryption. Both whole
/// pipelines end in DecryptAll, the one decrypt path.
class ReceivingClient {
 public:
  /// `transport` must expose "mws.auth", "mws.retrieve",
  /// "mws.retrieve_chunk", "pkg.auth", "pkg.extract" and
  /// "pkg.extract_batch" and outlive the client. `cipher` must match the
  /// MWS / PKG configuration; `dem` the smart devices' DEM.
  ReceivingClient(std::string identity, std::string password,
                  crypto::RsaKeyPair rsa_keys, const ibe::SystemParams& params,
                  crypto::CipherKind cipher, crypto::CipherKind dem,
                  wire::Transport* transport, const util::Clock* clock,
                  util::RandomSource* rng);

  // --- Step-by-step protocol (exposed for the Fig. 2/Fig. 4 traces) ---

  /// Phase 2 step 1: authenticate with the Gatekeeper.
  util::Status Authenticate();

  /// Phase 2 step 2: fetch records + token. Pre: Authenticate() ok.
  /// A non-empty [from_micros, to_micros) window restricts results to
  /// deposit timestamps in that range (billing-period retrieval).
  util::Result<wire::RetrieveResponse> Retrieve(uint64_t after_id = 0,
                                                int64_t from_micros = 0,
                                                int64_t to_micros = 0);

  /// One bounded slice of Retrieve via "mws.retrieve_chunk": at most
  /// `max_messages` records; the token arrives only on the final chunk
  /// (response.has_more == false). Pre: Authenticate() ok.
  util::Result<wire::RetrieveChunkResponse> RetrieveChunk(
      uint64_t after_id, int64_t from_micros, int64_t to_micros,
      uint32_t max_messages);

  /// Drains the whole backlog through RetrieveChunk in `chunk_size`
  /// slices and reassembles a RetrieveResponse (messages in id order,
  /// token from the final chunk). Yields exactly Retrieve()'s result
  /// without the server ever materializing more than one chunk.
  util::Result<wire::RetrieveResponse> RetrieveChunked(
      uint64_t after_id = 0, int64_t from_micros = 0, int64_t to_micros = 0,
      uint32_t chunk_size = 256);

  /// Phase 3 step 1: open the token, authenticate with the PKG.
  util::Status AuthenticateWithPkg(const util::Bytes& token);

  /// Phase 3 step 2: obtain sI for one (AID, Nonce). Pre: PKG session.
  util::Result<ibe::IbePrivateKey> RequestKey(uint64_t aid,
                                              const util::Bytes& nonce);

  /// Batched variant: one round trip for many (AID, Nonce) pairs (the
  /// amortization a constrained link needs — one key per message is the
  /// price of nonce-based revocation). The returned keys are opened (CBC
  /// decrypt, then point decompression, one F_p square root each) under
  /// util::ParallelFor, on every hardware thread. Outer Result fails on
  /// transport or session errors; inner entries carry per-item outcomes
  /// aligned with `items`.
  util::Result<std::vector<util::Result<ibe::IbePrivateKey>>>
  RequestKeysBatch(
      const std::vector<std::pair<uint64_t, util::Bytes>>& items);

  /// Decrypts one retrieved record with an extracted key.
  util::Result<util::Bytes> DecryptMessage(const wire::RetrievedMessage& m,
                                           const ibe::IbePrivateKey& key);

  /// Decrypts retrieved records: one RequestKeysBatch round trip
  /// extracts every key (the PKG runs the extractions on all its cores
  /// and shares one Montgomery inversion across them), then
  /// DecryptMessage runs per message under util::ParallelFor, on
  /// min(hardware threads, n) threads. Plaintexts are bit-identical to
  /// RequestKey + DecryptMessage per message, in order. Fails with the
  /// status of the first key the PKG refused, or else of the first
  /// record that does not open. Pre: AuthenticateWithPkg() ok.
  util::Result<std::vector<ReceivedMessage>> DecryptAll(
      const std::vector<wire::RetrievedMessage>& messages);

  // --- Whole pipeline ---

  /// Authenticate -> Retrieve -> AuthenticateWithPkg -> DecryptAll:
  /// every readable message after `after_id` (optionally restricted to a
  /// deposit-timestamp window).
  util::Result<std::vector<ReceivedMessage>> FetchAndDecrypt(
      uint64_t after_id = 0, int64_t from_micros = 0,
      int64_t to_micros = 0);

  /// FetchAndDecrypt with RetrieveChunked in place of Retrieve: the same
  /// result set, built for the backlog-drain workload (E17).
  util::Result<std::vector<ReceivedMessage>> FetchAndDecryptBulk(
      uint64_t after_id = 0, int64_t from_micros = 0, int64_t to_micros = 0,
      uint32_t chunk_size = 256);

  const std::string& identity() const { return identity_; }
  const crypto::RsaPublicKey& public_key() const {
    return rsa_keys_.public_key;
  }
  bool HasMwsSession() const { return !mws_session_.empty(); }
  bool HasPkgSession() const { return !pkg_session_.empty(); }

 private:
  /// CBC-decrypts one sealed key under `channel_key` and decompresses
  /// the point: the RC's half of a key delivery.
  util::Result<ibe::IbePrivateKey> OpenKey(const util::Bytes& channel_key,
                                           const util::Bytes& sealed) const;

  std::string identity_;
  util::Bytes password_hash_;
  crypto::RsaKeyPair rsa_keys_;
  ibe::SystemParams params_;
  crypto::CipherKind cipher_;
  ibe::HybridSealer sealer_;
  wire::Transport* transport_;
  const util::Clock* clock_;
  util::RandomSource* rng_;

  util::Bytes mws_session_;
  util::Bytes pkg_session_;
  util::Bytes pkg_session_key_;  // SecK_RC-PKG from the token
};

}  // namespace mws::client

#endif  // MWSIBE_CLIENT_RECEIVING_CLIENT_H_
