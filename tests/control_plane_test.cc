// Control-plane scaling tests (`ctest -L control`): the striped
// TTL-evicting session registries and bounded replay caches behind the
// Gatekeeper and the PKG, the policy database's ordered secondary
// index, and TSan-clean stress over the concurrent auth /
// token-issuance / AID-resolution / revoke hot paths.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/crypto/modes.h"
#include "src/crypto/rsa.h"
#include "src/crypto/sealed_box.h"
#include "src/math/params.h"
#include "src/mws/mws_service.h"
#include "src/pkg/pkg_service.h"
#include "src/store/kvstore.h"
#include "src/store/policy_db.h"
#include "src/util/clock.h"
#include "src/util/ttl_store.h"
#include "src/wire/auth.h"

namespace mws {
namespace {

using util::Bytes;
using util::ReplayCache;
using util::TtlStore;
using util::TtlStoreOptions;

// --- TtlStore units ---

TEST(TtlStoreTest, TtlReapsExpiredEntriesOnInsert) {
  TtlStore<int> store({.stripes = 1, .max_entries = 16, .ttl_micros = 100});
  store.Insert("a", 1, 1000);
  store.Insert("b", 2, 1050);
  EXPECT_EQ(store.Size(), 2u);
  // "a" is past TTL by now; the insert reaps it from the stripe front.
  auto stats = store.Insert("c", 3, 1101);
  EXPECT_EQ(stats.reaped, 1u);
  EXPECT_EQ(stats.evicted, 0u);
  EXPECT_EQ(store.Size(), 2u);
  EXPECT_FALSE(store.Get("a", 1101).has_value());
  EXPECT_EQ(store.Get("b", 1101).value(), 2);
  EXPECT_EQ(store.Get("c", 1101).value(), 3);
}

TEST(TtlStoreTest, GetDistinguishesExpiredFromAbsent) {
  TtlStore<int> store({.stripes = 2, .max_entries = 16, .ttl_micros = 100});
  store.Insert("a", 1, 1000);
  bool expired = false;
  EXPECT_FALSE(store.Get("ghost", 1000, &expired).has_value());
  EXPECT_FALSE(expired);
  // Past TTL: the lookup reports expiry and erases the entry.
  EXPECT_FALSE(store.Get("a", 1101, &expired).has_value());
  EXPECT_TRUE(expired);
  EXPECT_EQ(store.Size(), 0u);
  // Second lookup sees plain absence.
  EXPECT_FALSE(store.Get("a", 1101, &expired).has_value());
  EXPECT_FALSE(expired);
}

TEST(TtlStoreTest, CapacityEvictsOldestFirst) {
  TtlStore<int> store({.stripes = 1, .max_entries = 3, .ttl_micros = 0});
  store.Insert("k1", 1, 10);
  store.Insert("k2", 2, 20);
  store.Insert("k3", 3, 30);
  auto stats = store.Insert("k4", 4, 40);
  EXPECT_EQ(stats.evicted, 1u);
  EXPECT_EQ(store.Size(), 3u);
  EXPECT_FALSE(store.Get("k1", 40).has_value());
  EXPECT_TRUE(store.Get("k2", 40).has_value());
  EXPECT_TRUE(store.Get("k4", 40).has_value());
}

TEST(TtlStoreTest, OverwriteInvalidatesOldOrderStamp) {
  TtlStore<int> store({.stripes = 1, .max_entries = 2, .ttl_micros = 0});
  store.Insert("a", 1, 10);
  store.Insert("a", 2, 50);  // overwrite: the (10, "a") stamp goes stale
  store.Insert("b", 3, 60);
  EXPECT_EQ(store.Size(), 2u);
  // Eviction must skip the stale stamp and claim the oldest *live*
  // entry, which is "a" (created 50), not a phantom.
  auto stats = store.Insert("c", 4, 70);
  EXPECT_EQ(stats.evicted, 1u);
  EXPECT_FALSE(store.Get("a", 70).has_value());
  EXPECT_EQ(store.Get("b", 70).value(), 3);
  EXPECT_EQ(store.Get("c", 70).value(), 4);
}

TEST(TtlStoreTest, SweepVariantsRemoveTheSameEntries) {
  TtlStoreOptions tuned{.stripes = 4, .max_entries = 64, .ttl_micros = 100};
  TtlStoreOptions reference{.stripes = 1, .max_entries = 64,
                            .ttl_micros = 100};
  TtlStore<int> a(tuned), b(reference);
  for (int i = 0; i < 20; ++i) {
    a.Insert("k" + std::to_string(i), i, 1000 + i);
    b.Insert("k" + std::to_string(i), i, 1000 + i);
  }
  // now = 1110: exactly the entries stamped < 1010 are expired.
  EXPECT_EQ(a.SweepExpired(1110), 10u);
  EXPECT_EQ(b.SweepExpiredFull(1110), 10u);
  EXPECT_EQ(a.Size(), 10u);
  EXPECT_EQ(b.Size(), 10u);
  // now = 1200: the rest age out too.
  EXPECT_EQ(a.SweepExpired(1200), 10u);
  EXPECT_EQ(b.SweepExpiredFull(1200), 10u);
  EXPECT_EQ(a.Size(), 0u);
  EXPECT_EQ(b.Size(), 0u);
  // Sweeping an already-clean store is free.
  EXPECT_EQ(a.SweepExpired(1200), 0u);
  EXPECT_EQ(b.SweepExpiredFull(1200), 0u);
}

TEST(TtlStoreTest, EraseKeepsSizeExact) {
  TtlStore<int> store({.stripes = 4, .max_entries = 64, .ttl_micros = 0});
  for (int i = 0; i < 10; ++i) {
    store.Insert("k" + std::to_string(i), i, 100 + i);
  }
  EXPECT_EQ(store.Size(), 10u);
  EXPECT_TRUE(store.Erase("k3"));
  EXPECT_FALSE(store.Erase("k3"));
  EXPECT_EQ(store.Size(), 9u);
}

// --- ReplayCache units ---

TEST(ReplayCacheTest, RejectsDuplicatePairs) {
  ReplayCache cache({.stripes = 4, .max_entries = 64, .window_micros = 1000});
  EXPECT_TRUE(cache.CheckAndInsert(500, "rc1/500/aa", 500));
  EXPECT_FALSE(cache.CheckAndInsert(500, "rc1/500/aa", 501));
  // A different discriminator at the same timestamp is not a replay.
  EXPECT_TRUE(cache.CheckAndInsert(500, "rc1/500/bb", 501));
  EXPECT_EQ(cache.Size(), 2u);
}

TEST(ReplayCacheTest, PrunesEntriesOutsideTheWindow) {
  ReplayCache cache({.stripes = 1, .max_entries = 64, .window_micros = 1000});
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(cache.CheckAndInsert(1000 + i, "e" + std::to_string(i),
                                     1000 + i));
  }
  EXPECT_EQ(cache.Size(), 5u);
  // Far beyond the window the old entries are pruned on the next insert
  // (their timestamps already fail the upstream freshness check, so
  // forgetting them loses nothing).
  EXPECT_TRUE(cache.CheckAndInsert(10'000, "late", 10'000));
  EXPECT_EQ(cache.Size(), 1u);
  EXPECT_EQ(cache.Evictions(), 0u);
}

TEST(ReplayCacheTest, CapacityBoundEvictsOldestAndCounts) {
  ReplayCache cache({.stripes = 1, .max_entries = 4, .window_micros = 0});
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(cache.CheckAndInsert(100 + i, "e" + std::to_string(i),
                                     100 + i));
  }
  EXPECT_EQ(cache.Size(), 4u);
  EXPECT_EQ(cache.Evictions(), 4u);
  // The survivors are the newest four.
  EXPECT_FALSE(cache.CheckAndInsert(107, "e7", 108));
  // The evicted oldest is accepted again: only the freshness check
  // protects it now, which is exactly the documented trade.
  EXPECT_TRUE(cache.CheckAndInsert(100, "e0", 108));
}

// --- Gatekeeper / PKG harness ---

struct MwsHarness {
  explicit MwsHarness(util::ControlPlaneTuning tuning = {})
      : storage(store::KvStore::Open({.path = ""}).value()),
        clock(1'000'000'000),
        rng(7),
        mws_pkg_key(Bytes(32, 0x5a)),
        service(storage.get(), mws_pkg_key, &clock, &rng,
                MakeOptions(&metrics, tuning)) {}

  static mws::MwsOptions MakeOptions(obs::Registry* m,
                                     util::ControlPlaneTuning t) {
    mws::MwsOptions o;
    o.metrics = m;
    o.tuning = t;
    return o;
  }

  crypto::RsaKeyPair RegisterRc(const std::string& identity) {
    auto keys = crypto::RsaGenerateKeyPair(768, rng).value();
    EXPECT_TRUE(service
                    .RegisterReceivingClient(
                        identity, wire::HashPassword("pw"),
                        crypto::SerializeRsaPublicKey(keys.public_key))
                    .ok());
    return keys;
  }

  /// Builds a fresh auth challenge. `req_rng` lets stress threads use
  /// their own generator instead of the shared fixture one.
  wire::RcAuthRequest MakeAuthRequest(const std::string& identity,
                                      const crypto::RsaKeyPair& keys,
                                      util::RandomSource* req_rng = nullptr) {
    util::RandomSource& r = req_rng != nullptr ? *req_rng : rng;
    wire::RcAuthPlain plain;
    plain.rc_identity = identity;
    plain.timestamp_micros = clock.NowMicros();
    plain.client_nonce = r.Generate(16);
    Bytes key = wire::DeriveAuthKey(wire::HashPassword("pw"),
                                    crypto::CipherKind::kDes);
    wire::RcAuthRequest request;
    request.rc_identity = identity;
    request.rsa_public_key = crypto::SerializeRsaPublicKey(keys.public_key);
    request.auth_ciphertext =
        crypto::CbcEncrypt(crypto::CipherKind::kDes, key, plain.Encode(), r)
            .value();
    return request;
  }

  std::unique_ptr<store::KvStore> storage;
  obs::Registry metrics;
  util::SimulatedClock clock;
  util::DeterministicRandom rng;
  Bytes mws_pkg_key;
  mws::MwsService service;
};

TEST(ControlPlaneGatekeeperTest, SessionCapacityBoundAndGauges) {
  MwsHarness h({.stripes = 2, .max_sessions = 4});
  auto keys = h.RegisterRc("RC1");
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(h.service.Authenticate(h.MakeAuthRequest("RC1", keys)).ok());
    h.clock.AdvanceMicros(1000);
  }
  size_t live = h.service.gatekeeper().ActiveSessions();
  // Per-stripe cap is ceil(4/2) = 2, so at most 4 sessions survive no
  // matter how many authentications land.
  EXPECT_LE(live, 4u);
  EXPECT_GE(live, 2u);  // each stripe keeps its newest entries
  auto snap = h.metrics.Snapshot();
  ASSERT_NE(snap.gauge("gatekeeper.sessions"), nullptr);
  EXPECT_EQ(*snap.gauge("gatekeeper.sessions"),
            static_cast<int64_t>(live));
  ASSERT_NE(snap.counter("gatekeeper.sessions_evicted"), nullptr);
  EXPECT_EQ(*snap.counter("gatekeeper.sessions_evicted"), 8 - live);
}

TEST(ControlPlaneGatekeeperTest, ReplayCacheStaysBounded) {
  MwsHarness h({.stripes = 2, .max_sessions = 64, .max_replay_entries = 4});
  auto keys = h.RegisterRc("RC1");
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(h.service.Authenticate(h.MakeAuthRequest("RC1", keys)).ok());
    h.clock.AdvanceMicros(1000);
  }
  EXPECT_LE(h.service.gatekeeper().ReplayEntries(), 4u);
  auto snap = h.metrics.Snapshot();
  ASSERT_NE(snap.gauge("gatekeeper.replay_entries"), nullptr);
  EXPECT_EQ(*snap.gauge("gatekeeper.replay_entries"),
            static_cast<int64_t>(h.service.gatekeeper().ReplayEntries()));
}

TEST(ControlPlaneGatekeeperTest, SweepExpiredSessionsReapsAndRefreshesGauge) {
  MwsHarness h;
  auto keys = h.RegisterRc("RC1");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(h.service.Authenticate(h.MakeAuthRequest("RC1", keys)).ok());
    h.clock.AdvanceMicros(1000);
  }
  EXPECT_EQ(h.service.gatekeeper().ActiveSessions(), 3u);
  h.clock.AdvanceMicros(h.service.options().freshness_window_micros + 1);
  EXPECT_EQ(h.service.gatekeeper().SweepExpiredSessions(), 3u);
  EXPECT_EQ(h.service.gatekeeper().ActiveSessions(), 0u);
  auto snap = h.metrics.Snapshot();
  ASSERT_NE(snap.gauge("gatekeeper.sessions"), nullptr);
  EXPECT_EQ(*snap.gauge("gatekeeper.sessions"), 0);
}

/// The tuned (striped, amortized-sweep) gatekeeper and the retained
/// reference mode (single stripe, full sweep per auth) must be
/// behaviorally indistinguishable through the public API.
class GatekeeperModeTest : public ::testing::TestWithParam<bool> {};

TEST_P(GatekeeperModeTest, ObservableBehaviorMatchesAcrossModes) {
  util::ControlPlaneTuning tuning;
  tuning.reference_mode = GetParam();
  MwsHarness h(tuning);
  SCOPED_TRACE(GetParam() ? "reference" : "tuned");
  auto keys = h.RegisterRc("RC1");

  wire::RcAuthRequest req1 = h.MakeAuthRequest("RC1", keys);
  auto r1 = h.service.Authenticate(req1);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(h.service.gatekeeper().ActiveSessions(), 1u);

  // Verbatim replay is rejected in both modes.
  auto replayed = h.service.Authenticate(req1);
  ASSERT_FALSE(replayed.ok());
  EXPECT_TRUE(replayed.status().IsUnauthenticated());
  EXPECT_EQ(h.service.gatekeeper().ActiveSessions(), 1u);

  h.clock.AdvanceMicros(1000);
  auto r2 = h.service.Authenticate(h.MakeAuthRequest("RC1", keys));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(h.service.gatekeeper().ActiveSessions(), 2u);
  EXPECT_TRUE(h.service.gatekeeper().GetSession(r1->session_id).ok());

  // Both sessions expire; the lookup reaps its own target.
  h.clock.AdvanceMicros(h.service.options().freshness_window_micros + 1);
  auto expired = h.service.gatekeeper().GetSession(r1->session_id);
  ASSERT_FALSE(expired.ok());
  EXPECT_TRUE(expired.status().IsUnauthenticated());
  EXPECT_EQ(h.service.gatekeeper().ActiveSessions(), 1u);

  // The next successful auth garbage-collects the rest.
  auto r3 = h.service.Authenticate(h.MakeAuthRequest("RC1", keys));
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(h.service.gatekeeper().ActiveSessions(), 1u);

  h.service.gatekeeper().CloseSession(r3->session_id);
  EXPECT_EQ(h.service.gatekeeper().ActiveSessions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(TunedAndReference, GatekeeperModeTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Reference" : "Tuned";
                         });

// --- PKG session registry ---

/// Authenticates `identity` at `pkg` via a fresh MWS-issued token.
void AuthenticateAtPkg(MwsHarness& h, pkg::PkgService& pkg,
                       const std::string& identity,
                       const crypto::RsaKeyPair& keys) {
  auto grants = h.service.mms().GrantsFor(identity).value();
  auto token =
      h.service.token_generator()
          .IssueToken(identity, crypto::SerializeRsaPublicKey(keys.public_key),
                      grants)
          .value();
  auto token_bytes =
      crypto::OpenSealedBox(keys.private_key, crypto::CipherKind::kDes, token);
  auto token_plain = wire::TokenPlain::Decode(token_bytes.value()).value();
  wire::AuthenticatorPlain auth{identity, h.clock.NowMicros()};
  Bytes auth_key = wire::DeriveChannelKey(
      token_plain.session_key, crypto::CipherKind::kDes, "rc-pkg-authenticator");
  wire::PkgAuthRequest request;
  request.rc_identity = identity;
  request.ticket = token_plain.ticket;
  request.authenticator =
      crypto::CbcEncrypt(crypto::CipherKind::kDes, auth_key, auth.Encode(),
                         h.rng)
          .value();
  ASSERT_TRUE(pkg.Authenticate(request).ok());
}

TEST(ControlPlanePkgTest, SessionCapacityBoundAndGauges) {
  MwsHarness h;
  auto keys = h.RegisterRc("RC1");
  h.service.GrantAttribute("RC1", "A1").value();
  pkg::PkgOptions options;
  options.metrics = &h.metrics;
  options.tuning = {.stripes = 1, .max_sessions = 2};
  pkg::PkgService pkg(math::GetParams(math::ParamPreset::kSmall),
                      h.mws_pkg_key, &h.clock, &h.rng, options);
  for (int i = 0; i < 5; ++i) {
    AuthenticateAtPkg(h, pkg, "RC1", keys);
    h.clock.AdvanceMicros(1000);
  }
  EXPECT_EQ(pkg.ActiveSessions(), 2u);
  auto snap = h.metrics.Snapshot();
  ASSERT_NE(snap.gauge("pkg.sessions"), nullptr);
  EXPECT_EQ(*snap.gauge("pkg.sessions"), 2);
  ASSERT_NE(snap.counter("pkg.sessions_evicted"), nullptr);
  EXPECT_EQ(*snap.counter("pkg.sessions_evicted"), 3u);
}

TEST(ControlPlanePkgTest, SweepExpiredSessionsReaps) {
  MwsHarness h;
  auto keys = h.RegisterRc("RC1");
  h.service.GrantAttribute("RC1", "A1").value();
  pkg::PkgOptions options;
  options.metrics = &h.metrics;
  pkg::PkgService pkg(math::GetParams(math::ParamPreset::kSmall),
                      h.mws_pkg_key, &h.clock, &h.rng, options);
  for (int i = 0; i < 3; ++i) {
    AuthenticateAtPkg(h, pkg, "RC1", keys);
    h.clock.AdvanceMicros(1000);
  }
  EXPECT_EQ(pkg.ActiveSessions(), 3u);
  h.clock.AdvanceMicros(options.session_lifetime_micros + 1);
  EXPECT_EQ(pkg.SweepExpiredSessions(), 3u);
  EXPECT_EQ(pkg.ActiveSessions(), 0u);
  auto snap = h.metrics.Snapshot();
  ASSERT_NE(snap.gauge("pkg.sessions"), nullptr);
  EXPECT_EQ(*snap.gauge("pkg.sessions"), 0);
}

// --- PolicyDb secondary index ---

/// Asserts every index-served read agrees with its retained scan path.
void ExpectIndexMatchesScans(const store::PolicyDb& db,
                             const std::vector<std::string>& identities) {
  auto all = db.AllRows().value();
  auto all_scan = db.AllRowsScan().value();
  EXPECT_EQ(all, all_scan);
  for (const std::string& id : identities) {
    EXPECT_EQ(db.RowsForIdentity(id).value(),
              db.RowsForIdentityScan(id).value())
        << id;
    EXPECT_EQ(db.ExpressionsForIdentity(id).value(),
              db.ExpressionsForIdentityScan(id).value())
        << id;
  }
  for (const store::PolicyRow& row : all) {
    EXPECT_EQ(db.RowForAid(row.aid).value(), row);
  }
}

TEST(PolicyDbIndexTest, IndexMatchesScanOnMixedWorkload) {
  auto storage = store::KvStore::Open({.path = ""}).value();
  store::PolicyDb db(storage.get());
  const std::vector<std::string> ids = {"RC1", "RC2", "RC3"};
  // Grants across identities, including shared attribute names.
  for (const std::string& id : ids) {
    for (const std::string attr : {"A1", "A2", "A3"}) {
      ASSERT_TRUE(db.Grant(id, attr).ok());
    }
  }
  EXPECT_TRUE(db.Grant("RC1", "A1").status().IsAlreadyExists());
  // Expressions materialize origin-tagged rows.
  uint64_t seq = db.GrantExpression("RC2", "GAS-*").value();
  ASSERT_TRUE(db.Grant("RC2", "GAS-NORTH", seq).ok());
  ASSERT_TRUE(db.Grant("RC2", "GAS-SOUTH", seq).ok());
  db.GrantExpression("RC3", "ELECTRIC-*").value();
  // Revocations: a plain grant and a whole expression.
  ASSERT_TRUE(db.Revoke("RC1", "A2").ok());
  EXPECT_TRUE(db.Revoke("RC1", "A2").IsNotFound());
  ASSERT_TRUE(db.RevokeExpression("RC2", seq).ok());
  EXPECT_FALSE(db.HasAccess("RC2", "GAS-NORTH"));
  ExpectIndexMatchesScans(db, ids);
}

TEST(PolicyDbIndexTest, HydratesIndexFromExistingTable) {
  auto storage = store::KvStore::Open({.path = ""}).value();
  std::vector<uint64_t> aids;
  {
    store::PolicyDb db(storage.get());
    aids.push_back(db.Grant("RC1", "A1").value());
    aids.push_back(db.Grant("RC1", "A2").value());
    aids.push_back(db.Grant("RC2", "A1").value());
    db.GrantExpression("RC1", "GAS-*").value();
    ASSERT_TRUE(db.Revoke("RC1", "A2").ok());
  }
  // A second instance over the same table rebuilds the index from it.
  store::PolicyDb db(storage.get());
  ExpectIndexMatchesScans(db, {"RC1", "RC2"});
  EXPECT_TRUE(db.RowForAid(aids[1]).status().IsNotFound());
  // The AID counter continues where the first instance left off.
  uint64_t fresh = db.Grant("RC3", "A1").value();
  for (uint64_t aid : aids) EXPECT_NE(fresh, aid);
  // Re-granting the revoked pair issues a fresh AID; the old one stays
  // dead.
  uint64_t regranted = db.Grant("RC1", "A2").value();
  EXPECT_TRUE(db.RowForAid(aids[1]).status().IsNotFound());
  EXPECT_EQ(db.RowForAid(regranted).value(),
            (store::PolicyRow{"RC1", "A2", regranted, 0}));
}

// --- Concurrency stress (run under TSan by the sanitizer jobs) ---

TEST(ControlPlaneStressTest, ConcurrentAuthIssueResolveRevoke) {
  MwsHarness h({.stripes = 8, .max_sessions = 256});
  constexpr int kAuthThreads = 3;
  constexpr int kIters = 40;
  std::vector<std::string> identities;
  std::vector<crypto::RsaKeyPair> keys;
  for (int t = 0; t < kAuthThreads; ++t) {
    identities.push_back("RC" + std::to_string(t));
    keys.push_back(h.RegisterRc(identities.back()));
  }
  h.RegisterRc("RC-TOKEN");
  auto token_keys = crypto::RsaGenerateKeyPair(768, h.rng).value();
  ASSERT_TRUE(h.service
                  .RegisterReceivingClient(
                      "RC-STABLE", wire::HashPassword("pw"),
                      crypto::SerializeRsaPublicKey(token_keys.public_key))
                  .ok());
  ASSERT_TRUE(h.service.GrantAttribute("RC-STABLE", "A-STABLE").ok());
  auto stable_grants = h.service.mms().GrantsFor("RC-STABLE").value();
  uint64_t stable_aid = stable_grants[0].aid;

  std::atomic<bool> done{false};
  std::atomic<int> auth_failures{0};
  std::vector<std::thread> threads;
  // Authentication threads: auth, look up own session, close some.
  for (int t = 0; t < kAuthThreads; ++t) {
    threads.emplace_back([&, t] {
      util::DeterministicRandom thread_rng(100 + t);
      for (int i = 0; i < kIters; ++i) {
        auto response = h.service.Authenticate(
            h.MakeAuthRequest(identities[t], keys[t], &thread_rng));
        if (!response.ok()) {
          auth_failures.fetch_add(1);
          continue;
        }
        auto session = h.service.gatekeeper().GetSession(response->session_id);
        if (session.ok()) {
          EXPECT_EQ(session->rc_identity, identities[t]);
        }
        if (i % 3 == 0) {
          h.service.gatekeeper().CloseSession(response->session_id);
        }
      }
    });
  }
  // Clock thread: keeps time moving (well inside the freshness window).
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_relaxed)) {
      h.clock.AdvanceMicros(200);
      std::this_thread::yield();
    }
  });
  // Sweeper thread: the periodic maintenance path races the hot path.
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_relaxed)) {
      h.service.gatekeeper().SweepExpiredSessions();
      (void)h.service.gatekeeper().ActiveSessions();
      (void)h.service.gatekeeper().ReplayEntries();
      std::this_thread::yield();
    }
  });
  // Token-issuance thread against a stable grant set.
  threads.emplace_back([&] {
    for (int i = 0; i < kIters; ++i) {
      auto token = h.service.token_generator().IssueToken(
          "RC-STABLE", crypto::SerializeRsaPublicKey(token_keys.public_key),
          stable_grants);
      EXPECT_TRUE(token.ok());
    }
  });
  // Policy mutation thread: grant/revoke churn on its own identity.
  threads.emplace_back([&] {
    for (int i = 0; i < kIters; ++i) {
      std::string attr = "A-CHURN-" + std::to_string(i % 4);
      auto granted = h.service.GrantAttribute("RC-TOKEN", attr);
      if (granted.ok()) {
        (void)h.service.policy_db().RowForAid(granted.value());
        EXPECT_TRUE(h.service.RevokeAttribute("RC-TOKEN", attr).ok());
      }
    }
  });
  // Resolution threads: hot AID hits racing the churn above.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters * 4; ++i) {
        auto row = h.service.policy_db().RowForAid(stable_aid);
        EXPECT_TRUE(row.ok());
        (void)h.service.policy_db().RowsForIdentity("RC-TOKEN");
        (void)h.service.PolicyTable();
      }
    });
  }
  // Join the bounded workers first, then stop the clock/sweeper loops.
  for (size_t i = kAuthThreads + 2; i < threads.size(); ++i) threads[i].join();
  for (size_t i = 0; i < kAuthThreads; ++i) threads[i].join();
  done.store(true, std::memory_order_relaxed);
  threads[kAuthThreads].join();
  threads[kAuthThreads + 1].join();

  EXPECT_EQ(auth_failures.load(), 0);
  EXPECT_LE(h.service.gatekeeper().ActiveSessions(), 256u);
  // Post-quiesce: the index still agrees with the table.
  EXPECT_EQ(h.service.policy_db().AllRows().value(),
            h.service.policy_db().AllRowsScan().value());
}

TEST(ControlPlaneStressTest, ConcurrentPolicyIndexAndCacheStayConsistent) {
  auto storage = store::KvStore::Open({.path = ""}).value();
  store::PolicyDb db(storage.get());
  constexpr int kIters = 60;
  std::vector<std::thread> threads;
  // Writer threads churn disjoint identities.
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&db, w] {
      std::string id = "W" + std::to_string(w);
      for (int i = 0; i < kIters; ++i) {
        std::string attr = "A" + std::to_string(i % 8);
        auto granted = db.Grant(id, attr);
        if (granted.ok() && i % 2 == 0) {
          EXPECT_TRUE(db.Revoke(id, attr).ok());
        }
      }
    });
  }
  // Expression thread.
  threads.emplace_back([&db] {
    for (int i = 0; i < kIters / 2; ++i) {
      auto seq = db.GrantExpression("W0", "EXPR-*");
      if (seq.ok() && i % 2 == 0) {
        EXPECT_TRUE(db.RevokeExpression("W0", seq.value()).ok());
      }
    }
  });
  // Reader threads: range reads and (racing) AID resolution.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&db] {
      for (int i = 0; i < kIters; ++i) {
        auto rows = db.AllRows().value();
        for (const auto& row : rows) {
          // A row revoked between the listing and the lookup resolves
          // to NotFound; both outcomes must agree with the table.
          auto resolved = db.RowForAid(row.aid);
          if (resolved.ok()) {
            EXPECT_EQ(resolved.value().aid, row.aid);
          }
        }
        (void)db.RowsForIdentity("W0");
        (void)db.HasAccess("W1", "A3");
        (void)db.ExpressionsForIdentity("W0");
      }
    });
  }
  for (auto& t : threads) t.join();
  ExpectIndexMatchesScans(db, {"W0", "W1"});
}

}  // namespace
}  // namespace mws
