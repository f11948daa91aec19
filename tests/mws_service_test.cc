// Component-level tests for the MWS service (SDA, Gatekeeper, MMS, Token
// Generator) and the PKG, exercised below the full-protocol level.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <thread>

#include "src/crypto/hmac.h"
#include "src/crypto/modes.h"
#include "src/crypto/rsa.h"
#include "src/crypto/sealed_box.h"
#include "src/math/params.h"
#include "src/mws/mws_service.h"
#include "src/pkg/pkg_service.h"
#include "src/store/kvstore.h"
#include "src/util/clock.h"
#include "src/wire/auth.h"

namespace mws::mws {
namespace {

using util::Bytes;
using util::BytesFromString;

class MwsServiceTest : public ::testing::Test {
 protected:
  MwsServiceTest()
      : storage_(store::KvStore::Open({.path = ""}).value()),
        clock_(1'000'000'000),
        rng_(7),
        mws_pkg_key_(Bytes(32, 0x5a)),
        service_(storage_.get(), mws_pkg_key_, &clock_, &rng_) {}

  /// Registers an RC with password "pw" and a tiny RSA key.
  crypto::RsaKeyPair RegisterRc(const std::string& identity) {
    auto keys = crypto::RsaGenerateKeyPair(768, rng_).value();
    EXPECT_TRUE(service_
                    .RegisterReceivingClient(
                        identity, wire::HashPassword("pw"),
                        crypto::SerializeRsaPublicKey(keys.public_key))
                    .ok());
    return keys;
  }

  wire::RcAuthRequest MakeAuthRequest(const std::string& identity,
                                      const crypto::RsaKeyPair& keys,
                                      const std::string& password = "pw") {
    wire::RcAuthPlain plain;
    plain.rc_identity = identity;
    plain.timestamp_micros = clock_.NowMicros();
    plain.client_nonce = rng_.Generate(16);
    Bytes key = wire::DeriveAuthKey(wire::HashPassword(password),
                                    crypto::CipherKind::kDes);
    wire::RcAuthRequest request;
    request.rc_identity = identity;
    request.rsa_public_key = crypto::SerializeRsaPublicKey(keys.public_key);
    request.auth_ciphertext =
        crypto::CbcEncrypt(crypto::CipherKind::kDes, key, plain.Encode(),
                           rng_)
            .value();
    return request;
  }

  /// What an RC sends the PKG once the MWS has issued it a token: the
  /// token's ticket and a fresh authenticator under its session key.
  wire::PkgAuthRequest MakePkgAuthRequest(const std::string& identity,
                                          const crypto::RsaKeyPair& keys) {
    auto grants = service_.mms().GrantsFor(identity).value();
    auto token = service_.token_generator()
                     .IssueToken(identity,
                                 crypto::SerializeRsaPublicKey(keys.public_key),
                                 grants)
                     .value();
    auto token_bytes = crypto::OpenSealedBox(
        keys.private_key, crypto::CipherKind::kDes, token);
    auto token_plain = wire::TokenPlain::Decode(token_bytes.value()).value();
    wire::AuthenticatorPlain auth{identity, clock_.NowMicros()};
    Bytes auth_key = wire::DeriveChannelKey(token_plain.session_key,
                                            crypto::CipherKind::kDes,
                                            "rc-pkg-authenticator");
    wire::PkgAuthRequest request;
    request.rc_identity = identity;
    request.ticket = token_plain.ticket;
    request.authenticator =
        crypto::CbcEncrypt(crypto::CipherKind::kDes, auth_key, auth.Encode(),
                           rng_)
            .value();
    return request;
  }

  std::unique_ptr<store::KvStore> storage_;
  util::SimulatedClock clock_;
  util::DeterministicRandom rng_;
  Bytes mws_pkg_key_;
  MwsService service_;
};

TEST_F(MwsServiceTest, AdminValidation) {
  EXPECT_FALSE(service_.RegisterDevice("", Bytes(32, 1)).ok());
  EXPECT_FALSE(service_.RegisterDevice("SD", {}).ok());
  EXPECT_TRUE(service_.RegisterDevice("SD", Bytes(32, 1)).ok());
  EXPECT_FALSE(service_.RegisterDevice("SD", Bytes(32, 2)).ok());

  EXPECT_FALSE(
      service_.RegisterReceivingClient("", Bytes(32, 1), {}).ok());
  // Granting to an unregistered RC fails.
  EXPECT_TRUE(service_.GrantAttribute("GHOST", "A1").status().IsNotFound());
}

TEST_F(MwsServiceTest, GrantValidatesAttributeGrammar) {
  RegisterRc("RC1");
  EXPECT_FALSE(service_.GrantAttribute("RC1", "lower case").ok());
  EXPECT_TRUE(service_.GrantAttribute("RC1", "ELECTRIC-A").ok());
}

TEST_F(MwsServiceTest, PolicyTableMirrorsGrants) {
  RegisterRc("RC1");
  RegisterRc("RC2");
  service_.GrantAttribute("RC1", "A1").value();
  service_.GrantAttribute("RC2", "A1").value();
  auto table = service_.PolicyTable().value();
  ASSERT_EQ(table.size(), 2u);
  EXPECT_NE(table[0].aid, table[1].aid);
  EXPECT_TRUE(service_.RevokeAttribute("RC1", "A1").ok());
  EXPECT_EQ(service_.PolicyTable().value().size(), 1u);
}

TEST_F(MwsServiceTest, DepositRequiresValidAttribute) {
  // Bypass the SDA by building a valid MAC, then check attribute policing.
  Bytes mac_key(32, 9);
  ASSERT_TRUE(service_.RegisterDevice("SD-1", mac_key).ok());
  wire::DepositRequest request;
  request.u = BytesFromString("u");
  request.ciphertext = BytesFromString("c");
  request.attribute = "bad attribute!";
  request.nonce = Bytes(16, 0);
  request.device_id = "SD-1";
  request.timestamp_micros = clock_.NowMicros();
  request.mac = crypto::HmacSha256(mac_key, request.AuthenticatedBytes());
  EXPECT_TRUE(service_.Deposit(request).status().IsInvalidArgument());
}

TEST_F(MwsServiceTest, GatekeeperSessionLifecycle) {
  auto keys = RegisterRc("RC1");
  auto response = service_.Authenticate(MakeAuthRequest("RC1", keys));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(service_.gatekeeper().ActiveSessions(), 1u);

  auto session = service_.gatekeeper().GetSession(response->session_id);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->rc_identity, "RC1");

  // Session expires with the freshness window.
  clock_.AdvanceMicros(service_.options().freshness_window_micros + 1);
  EXPECT_FALSE(service_.gatekeeper().GetSession(response->session_id).ok());

  service_.gatekeeper().CloseSession(response->session_id);
  EXPECT_EQ(service_.gatekeeper().ActiveSessions(), 0u);
}

TEST_F(MwsServiceTest, GatekeeperGarbageCollectsExpiredSessions) {
  auto keys = RegisterRc("RC1");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(service_.Authenticate(MakeAuthRequest("RC1", keys)).ok());
    clock_.AdvanceMicros(1000);  // distinct replay-cache entries
  }
  EXPECT_EQ(service_.gatekeeper().ActiveSessions(), 5u);
  // After the freshness window passes, the next authentication sweeps
  // all expired sessions.
  clock_.AdvanceMicros(service_.options().freshness_window_micros + 1);
  ASSERT_TRUE(service_.Authenticate(MakeAuthRequest("RC1", keys)).ok());
  EXPECT_EQ(service_.gatekeeper().ActiveSessions(), 1u);
}

TEST_F(MwsServiceTest, PkgGarbageCollectsExpiredSessions) {
  auto keys = RegisterRc("RC1");
  service_.GrantAttribute("RC1", "A1").value();
  pkg::PkgService pkg(math::GetParams(math::ParamPreset::kSmall),
                      mws_pkg_key_, &clock_, &rng_);
  auto authenticate = [&] {
    ASSERT_TRUE(pkg.Authenticate(MakePkgAuthRequest("RC1", keys)).ok());
  };
  for (int i = 0; i < 3; ++i) {
    authenticate();
    clock_.AdvanceMicros(1000);
  }
  EXPECT_EQ(pkg.ActiveSessions(), 3u);
  clock_.AdvanceMicros(pkg::PkgOptions{}.session_lifetime_micros + 1);
  authenticate();
  EXPECT_EQ(pkg.ActiveSessions(), 1u);
}

TEST_F(MwsServiceTest, GatekeeperRejectsWrongPassword) {
  auto keys = RegisterRc("RC1");
  auto bad = service_.Authenticate(MakeAuthRequest("RC1", keys, "wrong"));
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsUnauthenticated());
}

TEST_F(MwsServiceTest, GatekeeperRejectsIdentityMismatchInsideChallenge) {
  auto keys1 = RegisterRc("RC1");
  RegisterRc("RC2");
  // Challenge encrypted under RC1's password but claiming RC2 outside.
  wire::RcAuthRequest request = MakeAuthRequest("RC1", keys1);
  request.rc_identity = "RC2";
  EXPECT_FALSE(service_.Authenticate(request).ok());
}

TEST_F(MwsServiceTest, GatekeeperRejectsStaleChallenge) {
  auto keys = RegisterRc("RC1");
  wire::RcAuthRequest request = MakeAuthRequest("RC1", keys);
  clock_.AdvanceMicros(service_.options().freshness_window_micros + 1);
  EXPECT_FALSE(service_.Authenticate(request).ok());
}

TEST_F(MwsServiceTest, TokenRoundTripsThroughPkg) {
  // The MWS-issued token must authenticate at a PKG sharing the key.
  auto keys = RegisterRc("RC1");
  service_.GrantAttribute("RC1", "A1").value();

  pkg::PkgService pkg(math::GetParams(math::ParamPreset::kSmall),
                      mws_pkg_key_, &clock_, &rng_);
  auto grants = service_.mms().GrantsFor("RC1").value();
  auto token = service_.token_generator().IssueToken(
      "RC1", crypto::SerializeRsaPublicKey(keys.public_key), grants);
  ASSERT_TRUE(token.ok()) << token.status();

  // RC opens the token.
  auto token_bytes = crypto::OpenSealedBox(
      keys.private_key, crypto::CipherKind::kDes, token.value());
  ASSERT_TRUE(token_bytes.ok());
  auto token_plain = wire::TokenPlain::Decode(token_bytes.value());
  ASSERT_TRUE(token_plain.ok());
  EXPECT_EQ(token_plain->session_key.size(), 32u);

  // Build the authenticator and authenticate at the PKG.
  wire::AuthenticatorPlain auth{"RC1", clock_.NowMicros()};
  Bytes auth_key =
      wire::DeriveChannelKey(token_plain->session_key,
                             crypto::CipherKind::kDes, "rc-pkg-authenticator");
  wire::PkgAuthRequest request;
  request.rc_identity = "RC1";
  request.ticket = token_plain->ticket;
  request.authenticator =
      crypto::CbcEncrypt(crypto::CipherKind::kDes, auth_key, auth.Encode(),
                         rng_)
          .value();
  auto response = pkg.Authenticate(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(pkg.ActiveSessions(), 1u);

  // A PKG with a different service key rejects the same token.
  pkg::PkgService other_pkg(math::GetParams(math::ParamPreset::kSmall),
                            Bytes(32, 0xEE), &clock_, &rng_);
  EXPECT_FALSE(other_pkg.Authenticate(request).ok());
}

TEST_F(MwsServiceTest, PkgRejectsReplayedAuthenticator) {
  auto keys = RegisterRc("RC1");
  service_.GrantAttribute("RC1", "A1").value();
  pkg::PkgService pkg(math::GetParams(math::ParamPreset::kSmall),
                      mws_pkg_key_, &clock_, &rng_);
  wire::PkgAuthRequest request = MakePkgAuthRequest("RC1", keys);
  EXPECT_TRUE(pkg.Authenticate(request).ok());
  auto replay = pkg.Authenticate(request);
  EXPECT_FALSE(replay.ok());
  EXPECT_TRUE(replay.status().IsUnauthenticated());
}

// A batch's sealed keys are byte-identical, in request order, to one
// ExtractKey call per item at a PKG seeded alike. The extractions fan out
// across threads, but authorization and sealing stay serial: each seal
// draws its IV from the PKG's generator, so sealing in parallel would
// interleave the draws and fail this test.
TEST_F(MwsServiceTest, PkgBatchSealsExactlyLikeSingleExtractions) {
  auto keys = RegisterRc("RC1");
  service_.GrantAttribute("RC1", "A1").value();
  service_.GrantAttribute("RC1", "A2").value();
  auto grants = service_.mms().GrantsFor("RC1").value();
  ASSERT_EQ(grants.size(), 2u);

  util::DeterministicRandom batch_rng(99);
  util::DeterministicRandom single_rng(99);
  pkg::PkgService batch_pkg(math::GetParams(math::ParamPreset::kSmall),
                            mws_pkg_key_, &clock_, &batch_rng);
  pkg::PkgService single_pkg(math::GetParams(math::ParamPreset::kSmall),
                             mws_pkg_key_, &clock_, &single_rng);
  wire::PkgAuthRequest auth = MakePkgAuthRequest("RC1", keys);
  auto batch_session = batch_pkg.Authenticate(auth);
  auto single_session = single_pkg.Authenticate(auth);
  ASSERT_TRUE(batch_session.ok() && single_session.ok());

  // Many items per hardware thread, with refused AIDs mixed in.
  const size_t n =
      16 * std::max(1u, std::thread::hardware_concurrency()) + 2;
  wire::KeyBatchRequest request;
  request.session_id = batch_session->session_id;
  for (size_t i = 0; i < n; ++i) {
    uint64_t aid = i % 5 == 3 ? 9999 : grants[i % 2].aid;
    request.items.emplace_back(aid, rng_.Generate(16));
  }
  auto batch = batch_pkg.ExtractKeyBatch(request);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->items.size(), n);
  for (size_t i = 0; i < n; ++i) {
    const auto& [aid, nonce] = request.items[i];
    auto single =
        single_pkg.ExtractKey({single_session->session_id, aid, nonce});
    if (aid == 9999) {
      ASSERT_TRUE(single.status().IsPermissionDenied()) << single.status();
      EXPECT_FALSE(batch->items[i].ok) << i;
      EXPECT_EQ(util::StringFromBytes(batch->items[i].payload),
                single.status().ToString());
      continue;
    }
    ASSERT_TRUE(single.ok()) << single.status();
    EXPECT_TRUE(batch->items[i].ok) << i;
    EXPECT_EQ(batch->items[i].payload, single->encrypted_private_key) << i;
  }
}

TEST_F(MwsServiceTest, MmsResolvesGrantsPerFetch) {
  Bytes mac_key(32, 9);
  ASSERT_TRUE(service_.RegisterDevice("SD-1", mac_key).ok());
  RegisterRc("RC1");
  service_.GrantAttribute("RC1", "A1").value();

  wire::DepositRequest request;
  request.u = BytesFromString("u");
  request.ciphertext = BytesFromString("c");
  request.attribute = "A1";
  request.nonce = Bytes(16, 0);
  request.device_id = "SD-1";
  request.timestamp_micros = clock_.NowMicros();
  request.mac = crypto::HmacSha256(mac_key, request.AuthenticatedBytes());
  ASSERT_TRUE(service_.Deposit(request).ok());

  auto fetch_all = [&] {
    return service_.mms()
        .FetchChunkFor("RC1", 0, 0, 0, std::numeric_limits<uint32_t>::max())
        .value()
        .messages;
  };
  auto visible = fetch_all();
  ASSERT_EQ(visible.size(), 1u);
  EXPECT_EQ(visible[0].aid, service_.PolicyTable().value()[0].aid);

  ASSERT_TRUE(service_.RevokeAttribute("RC1", "A1").ok());
  EXPECT_TRUE(fetch_all().empty());
}

}  // namespace
}  // namespace mws::mws
