// Unit tests for the client implementations (SmartDevice and
// ReceivingClient) below the full-scenario level: request construction,
// precondition enforcement, and error propagation.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "src/crypto/hmac.h"
#include "src/sim/scenario.h"

namespace mws::client {
namespace {

using sim::UtilityScenario;
using util::Bytes;
using util::BytesFromString;

class ClientTest : public ::testing::Test {
 protected:
  /// An AID the MWS never issues.
  static constexpr uint64_t kUnissuedAid = 9999;

  static size_t HardwareThreads() {
    return std::max(1u, std::thread::hardware_concurrency());
  }

  void SetUp() override {
    auto scenario = UtilityScenario::Create({});
    ASSERT_TRUE(scenario.ok());
    s_ = std::move(scenario).value();
  }

  std::unique_ptr<UtilityScenario> s_;
};

TEST_F(ClientTest, BuildDepositPopulatesEveryField) {
  SmartDevice& device = s_->devices()[0];
  auto request = device.BuildDeposit(UtilityScenario::kElectricAttr,
                                     BytesFromString("payload"));
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->device_id, device.device_id());
  EXPECT_EQ(request->attribute, UtilityScenario::kElectricAttr);
  EXPECT_EQ(request->nonce.size(), 16u);
  EXPECT_EQ(request->timestamp_micros, s_->clock().NowMicros());
  EXPECT_FALSE(request->u.empty());
  EXPECT_FALSE(request->ciphertext.empty());
  EXPECT_EQ(request->mac.size(), 32u);  // HMAC-SHA256
  // The U field is a valid curve point.
  EXPECT_TRUE(s_->pkg()
                  .PublicParams()
                  .group->curve()
                  .Deserialize(request->u)
                  .ok());
}

TEST_F(ClientTest, EachDepositUsesFreshNonceAndKey) {
  SmartDevice& device = s_->devices()[0];
  auto a = device.BuildDeposit(UtilityScenario::kElectricAttr,
                               BytesFromString("same"));
  auto b = device.BuildDeposit(UtilityScenario::kElectricAttr,
                               BytesFromString("same"));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->nonce, b->nonce);
  EXPECT_NE(a->u, b->u);
  EXPECT_NE(a->ciphertext, b->ciphertext);
}

TEST_F(ClientTest, DepositRejectsInvalidAttribute) {
  SmartDevice& device = s_->devices()[0];
  EXPECT_FALSE(
      device.DepositMessage("not valid!", BytesFromString("m")).ok());
  EXPECT_EQ(device.deposits_sent(), 0u);
}

TEST_F(ClientTest, DepositCountsOnlySuccesses) {
  SmartDevice& device = s_->devices()[0];
  EXPECT_TRUE(device
                  .DepositMessage(UtilityScenario::kElectricAttr,
                                  BytesFromString("m"))
                  .ok());
  EXPECT_EQ(device.deposits_sent(), 1u);
  device.DepositMessage("bad attr", BytesFromString("m")).ok();
  EXPECT_EQ(device.deposits_sent(), 1u);
}

TEST_F(ClientTest, RetrieveRequiresAuthentication) {
  ReceivingClient& rc = s_->company(UtilityScenario::kCServices);
  auto result = rc.Retrieve();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(ClientTest, RequestKeyRequiresPkgSession) {
  ReceivingClient& rc = s_->company(UtilityScenario::kCServices);
  auto result = rc.RequestKey(1, Bytes(16, 0));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(ClientTest, AuthenticateWithPkgRejectsForeignToken) {
  s_->DepositReadings(1).value();
  // C-Services obtains a token; Water & Resources cannot use it (it is
  // sealed to C-Services' RSA key).
  ReceivingClient& cs = s_->company(UtilityScenario::kCServices);
  ASSERT_TRUE(cs.Authenticate().ok());
  auto retrieved = cs.Retrieve();
  ASSERT_TRUE(retrieved.ok());
  ReceivingClient& water = s_->company(UtilityScenario::kWaterResources);
  EXPECT_FALSE(water.AuthenticateWithPkg(retrieved->token).ok());
}

TEST_F(ClientTest, FetchAndDecryptIsIdempotentPerBacklog) {
  s_->DepositReadings(1).value();
  ReceivingClient& rc = s_->company(UtilityScenario::kCServices);
  auto first = rc.FetchAndDecrypt().value();
  auto second = rc.FetchAndDecrypt().value();
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].message_id, second[i].message_id);
    EXPECT_EQ(first[i].plaintext, second[i].plaintext);
  }
}

TEST_F(ClientTest, SessionStateTransitions) {
  s_->DepositReadings(1).value();
  ReceivingClient& rc = s_->company(UtilityScenario::kElectricGas);
  EXPECT_FALSE(rc.HasMwsSession());
  EXPECT_FALSE(rc.HasPkgSession());
  ASSERT_TRUE(rc.Authenticate().ok());
  EXPECT_TRUE(rc.HasMwsSession());
  auto retrieved = rc.Retrieve().value();
  ASSERT_TRUE(rc.AuthenticateWithPkg(retrieved.token).ok());
  EXPECT_TRUE(rc.HasPkgSession());
}

TEST_F(ClientTest, DecryptMessageRejectsCorruptPoint) {
  s_->DepositReadings(1).value();
  ReceivingClient& rc = s_->company(UtilityScenario::kCServices);
  ASSERT_TRUE(rc.Authenticate().ok());
  auto retrieved = rc.Retrieve().value();
  ASSERT_TRUE(rc.AuthenticateWithPkg(retrieved.token).ok());
  auto& m = retrieved.messages[0];
  auto key = rc.RequestKey(m.aid, m.nonce).value();
  wire::RetrievedMessage corrupt = m;
  corrupt.u[1] ^= 0xff;  // breaks point deserialization (or decryption)
  auto result = rc.DecryptMessage(corrupt, key);
  if (result.ok()) {
    auto original = rc.DecryptMessage(m, key).value();
    EXPECT_NE(result.value(), original);
  }
}

TEST_F(ClientTest, BatchKeyExtractionMatchesSingle) {
  // More keys than hardware threads, so both fan-outs (the PKG's
  // extraction, the RC's key opening) share the batch among every thread,
  // with AIDs the ticket does not cover mixed in.
  const size_t per_device = HardwareThreads() + 1;
  s_->DepositReadings(per_device).value();
  ReceivingClient& rc = s_->company(UtilityScenario::kCServices);
  ASSERT_TRUE(rc.Authenticate().ok());
  auto retrieved = rc.Retrieve().value();
  ASSERT_EQ(retrieved.messages.size(), 3 * per_device);
  ASSERT_TRUE(rc.AuthenticateWithPkg(retrieved.token).ok());

  std::vector<std::pair<uint64_t, Bytes>> items;
  std::vector<const wire::RetrievedMessage*> message_at;  // null: refused
  for (const auto& m : retrieved.messages) {
    items.emplace_back(m.aid, m.nonce);
    message_at.push_back(&m);
    if (items.size() % 3 == 1) {
      items.emplace_back(kUnissuedAid, m.nonce);
      message_at.push_back(nullptr);
    }
  }
  auto batch = rc.RequestKeysBatch(items);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    auto single = rc.RequestKey(items[i].first, items[i].second);
    if (message_at[i] == nullptr) {
      EXPECT_EQ(batch->at(i).status().code(),
                util::StatusCode::kPermissionDenied);
      EXPECT_EQ(single.status().code(), util::StatusCode::kPermissionDenied);
      continue;
    }
    // Batch keys equal singly-requested keys and decrypt the messages.
    ASSERT_TRUE(batch->at(i).ok()) << i << ": " << batch->at(i).status();
    ASSERT_TRUE(single.ok()) << single.status();
    EXPECT_EQ(batch->at(i).value().d, single.value().d);
    EXPECT_TRUE(rc.DecryptMessage(*message_at[i], batch->at(i).value()).ok());
  }
}

TEST_F(ClientTest, BatchExtractionPartialDenialIsPerItem) {
  // Water & Resources may read water only. Its batch mixes its own AID
  // with an AID never issued and with C-Services' three AIDs, which
  // exist (one names water too) but are grants of another RC, so they
  // are not in this ticket: each refusal fails only its own item, in
  // request order.
  const size_t per_device = HardwareThreads() + 1;
  s_->DepositReadings(per_device).value();
  ReceivingClient& cservices = s_->company(UtilityScenario::kCServices);
  ASSERT_TRUE(cservices.Authenticate().ok());
  auto cservices_view = cservices.Retrieve().value();
  std::vector<uint64_t> refused = {kUnissuedAid};
  for (const auto& m : cservices_view.messages) {
    if (std::find(refused.begin(), refused.end(), m.aid) == refused.end()) {
      refused.push_back(m.aid);
    }
  }

  ReceivingClient& rc = s_->company(UtilityScenario::kWaterResources);
  ASSERT_TRUE(rc.Authenticate().ok());
  auto retrieved = rc.Retrieve().value();
  ASSERT_EQ(retrieved.messages.size(), per_device);
  ASSERT_TRUE(rc.AuthenticateWithPkg(retrieved.token).ok());
  ASSERT_EQ(refused.size(), 4u);

  std::vector<std::pair<uint64_t, Bytes>> items;
  std::vector<bool> granted;
  for (size_t i = 0; i < retrieved.messages.size(); ++i) {
    const auto& m = retrieved.messages[i];
    items.emplace_back(m.aid, m.nonce);
    granted.push_back(true);
    items.emplace_back(refused[i % refused.size()], m.nonce);
    granted.push_back(false);
  }
  auto batch = rc.RequestKeysBatch(items);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    if (granted[i]) {
      ASSERT_TRUE(batch->at(i).ok()) << i << ": " << batch->at(i).status();
      EXPECT_EQ(batch->at(i).value().d,
                rc.RequestKey(items[i].first, items[i].second).value().d);
      EXPECT_TRUE(rc.DecryptMessage(retrieved.messages[i / 2],
                                    batch->at(i).value())
                      .ok());
    } else {
      EXPECT_EQ(batch->at(i).status().code(),
                util::StatusCode::kPermissionDenied)
          << i;
    }
  }
}

TEST_F(ClientTest, BatchExtractionRequiresPkgSession) {
  ReceivingClient& rc = s_->company(UtilityScenario::kCServices);
  auto result = rc.RequestKeysBatch({{1, Bytes(16, 0)}});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(ClientTest, MacKeyMismatchIsRejectedAtMws) {
  // Device configured with a key the MWS does not know.
  const ibe::SystemParams& params = s_->pkg().PublicParams();
  SmartDevice rogue("ELECTRIC-METER-0", Bytes(32, 0xEE), params,
                    s_->options().dem, &s_->transport(), &s_->clock(),
                    &s_->rng());
  auto result = rogue.DepositMessage(UtilityScenario::kElectricAttr,
                                     BytesFromString("m"));
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnauthenticated());
}

}  // namespace
}  // namespace mws::client
