// E20 — million-identity control plane: the auth / token-issuance /
// AID-resolution hot paths at 10^6 registered identities and grants,
// swept across a worker pool, tuned vs the retained pre-PR-10 baseline.
//
// The two configurations run over the *same* loaded store:
//
//   baseline — ControlPlaneTuning.reference_mode (single-mutex session
//   registry + full-registry sweep inside every authentication), and
//   identity reads through the retained table prefix scan
//   (RowsForIdentityScan);
//
//   tuned — striped TTL session registry with the amortized sweep, and
//   identity reads through the ordered (identity, attribute) index.
//
// Phases per (mode, workers) point: the RC auth handshake
// (Authenticate + GetSession + CloseSession) against a pre-populated
// session registry, token issuance (GrantsFor + IssueToken, index-served
// in both modes), AID resolution (RowForAid point lookup, 80/20
// hot/cold, + the mode's identity read), and a PEKS
// TestMany sweep over a tag corpus. A bounded-memory sub-run caps
// max_sessions and verifies the `gatekeeper.sessions` gauge never
// exceeds it.
//
// Gates (exit 1 on violation): zero op failures, correct PEKS match
// counts, session bound respected, and — full mode — aggregate
// auth+resolution throughput at the widest worker count >= 3x baseline,
// tuned auth p95 <= baseline's, tuned resolution throughput >= 2x.
// `--smoke` shrinks to 10^4 identities with generous bounds (a
// correctness + gross-regression check for ctest). `--json=PATH`
// records the sweep (BENCH_e20.json).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/crypto/modes.h"
#include "src/crypto/rsa.h"
#include "src/ibe/peks.h"
#include "src/math/params.h"
#include "src/mws/mws_service.h"
#include "src/obs/metrics.h"
#include "src/store/kvstore.h"
#include "src/util/clock.h"
#include "src/wire/auth.h"

namespace {

using mws::util::Bytes;

struct Scale {
  size_t identities;
  size_t prepop_sessions;  // live sessions during the auth phase
  size_t auth_ops;         // per worker
  size_t issue_ops;        // per worker
  size_t resolve_ops;      // per worker
  size_t peks_corpus;      // tags, split across workers
  std::vector<size_t> workers;
};

struct PhaseStats {
  size_t ops = 0;
  double ops_per_sec = 0;
  double p50_us = 0;
  double p95_us = 0;
};

struct Point {
  size_t workers = 0;
  PhaseStats auth, issue, resolve, peks;
};

std::atomic<size_t> g_failures{0};

/// Runs `ops_per_worker` calls of `fn(worker, op)` on each of `workers`
/// threads, recording per-op latency. Workers start together.
template <typename Fn>
PhaseStats RunPhase(size_t workers, size_t ops_per_worker, Fn&& fn) {
  mws::obs::Histogram hist;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (size_t op = 0; op < ops_per_worker; ++op) {
        int64_t t0 = mws::obs::SteadyNowMicros();
        fn(w, op);
        hist.Record(
            static_cast<uint64_t>(mws::obs::SteadyNowMicros() - t0));
      }
    });
  }
  int64_t start = mws::obs::SteadyNowMicros();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  double wall_us =
      static_cast<double>(mws::obs::SteadyNowMicros() - start);
  auto snap = hist.Snapshot();
  PhaseStats stats;
  stats.ops = workers * ops_per_worker;
  stats.ops_per_sec = wall_us > 0 ? stats.ops / (wall_us / 1e6) : 0;
  stats.p50_us = snap.Percentile(0.50);
  stats.p95_us = snap.Percentile(0.95);
  return stats;
}

/// Everything both modes share: the loaded store and client-side
/// materials (one RSA pair and one password hash serve every identity —
/// the warehouse only ever stores the serialized public key).
struct LoadedCorpus {
  std::unique_ptr<mws::store::KvStore> storage;
  std::vector<std::string> identities;
  std::vector<uint64_t> sample_aids;
  mws::crypto::RsaKeyPair rsa;
  Bytes rsa_public;
  Bytes password_hash;
  Bytes auth_key;
};

LoadedCorpus LoadCorpus(const Scale& scale, mws::util::SimulatedClock& clock,
                        mws::util::DeterministicRandom& rng) {
  LoadedCorpus corpus;
  corpus.storage = mws::store::KvStore::Open({.path = ""}).value();
  corpus.rsa = mws::crypto::RsaGenerateKeyPair(768, rng).value();
  corpus.rsa_public =
      mws::crypto::SerializeRsaPublicKey(corpus.rsa.public_key);
  corpus.password_hash = mws::wire::HashPassword("pw");
  corpus.auth_key = mws::wire::DeriveAuthKey(corpus.password_hash,
                                             mws::crypto::CipherKind::kDes);
  // Registration runs through the service so the stored records are
  // exactly what production writes.
  mws::mws::MwsService loader(corpus.storage.get(), Bytes(32, 0x5a), &clock,
                              &rng);
  corpus.identities.reserve(scale.identities);
  int64_t t0 = mws::obs::SteadyNowMicros();
  for (size_t i = 0; i < scale.identities; ++i) {
    corpus.identities.push_back("RC" + std::to_string(i));
    const std::string& id = corpus.identities.back();
    if (!loader
             .RegisterReceivingClient(id, corpus.password_hash,
                                      corpus.rsa_public)
             .ok()) {
      std::fprintf(stderr, "register failed at %zu\n", i);
      std::abort();
    }
    auto aid = loader.GrantAttribute(id, "A" + std::to_string(i % 64));
    if (!aid.ok()) {
      std::fprintf(stderr, "grant failed at %zu\n", i);
      std::abort();
    }
    if (i % 97 == 0) corpus.sample_aids.push_back(aid.value());
    if ((i + 1) % 100000 == 0) {
      std::printf("  loaded %zu identities...\n", i + 1);
    }
  }
  std::printf("loaded %zu identities + grants in %.1fs\n", scale.identities,
              (mws::obs::SteadyNowMicros() - t0) / 1e6);
  return corpus;
}

mws::wire::RcAuthRequest BuildAuthRequest(const LoadedCorpus& corpus,
                                          const std::string& identity,
                                          int64_t now,
                                          mws::util::RandomSource& rng) {
  mws::wire::RcAuthPlain plain;
  plain.rc_identity = identity;
  plain.timestamp_micros = now;
  plain.client_nonce = rng.Generate(16);
  mws::wire::RcAuthRequest request;
  request.rc_identity = identity;
  request.rsa_public_key = corpus.rsa_public;
  request.auth_ciphertext =
      mws::crypto::CbcEncrypt(mws::crypto::CipherKind::kDes, corpus.auth_key,
                              plain.Encode(), rng)
          .value();
  return request;
}

/// One (mode, workers) sweep point over a live service. `scan_reads`
/// routes the resolve phase's identity read to the retained prefix scan.
Point RunPoint(mws::mws::MwsService& service, bool scan_reads,
               const LoadedCorpus& corpus, const Scale& scale, size_t workers,
               mws::util::SimulatedClock& clock, const mws::ibe::Peks& peks,
               const std::vector<mws::ibe::Peks::Tag>& tags,
               const mws::ibe::Peks::Trapdoor& trapdoor,
               size_t expected_matches) {
  Point point;
  point.workers = workers;
  const size_t n = corpus.identities.size();

  // --- auth handshake ---
  std::vector<std::vector<mws::wire::RcAuthRequest>> pools(workers);
  {
    mws::util::DeterministicRandom pool_rng(9000 + workers);
    for (size_t w = 0; w < workers; ++w) {
      pools[w].reserve(scale.auth_ops);
      for (size_t i = 0; i < scale.auth_ops; ++i) {
        size_t idx = (w * scale.auth_ops + i) * 131 % n;
        pools[w].push_back(BuildAuthRequest(corpus, corpus.identities[idx],
                                            clock.NowMicros(), pool_rng));
      }
    }
  }
  point.auth = RunPhase(workers, scale.auth_ops, [&](size_t w, size_t op) {
    auto response = service.Authenticate(pools[w][op]);
    if (!response.ok()) {
      g_failures.fetch_add(1);
      return;
    }
    auto session = service.gatekeeper().GetSession(response->session_id);
    if (!session.ok()) g_failures.fetch_add(1);
    service.gatekeeper().CloseSession(response->session_id);
  });

  // --- token issuance (GrantsFor + IssueToken) ---
  point.issue = RunPhase(workers, scale.issue_ops, [&](size_t w, size_t op) {
    const std::string& id =
        corpus.identities[(w * scale.issue_ops + op) * 257 % n];
    auto grants = service.mms().GrantsFor(id);
    if (!grants.ok() || grants->empty()) {
      g_failures.fetch_add(1);
      return;
    }
    auto token = service.token_generator().IssueToken(id, corpus.rsa_public,
                                                      grants.value());
    if (!token.ok()) g_failures.fetch_add(1);
  });

  // --- AID resolution (80% hot set / 20% cold) + identity range read ---
  const size_t hot = std::min<size_t>(64, corpus.sample_aids.size());
  point.resolve =
      RunPhase(workers, scale.resolve_ops, [&](size_t w, size_t op) {
        size_t seq = w * scale.resolve_ops + op;
        uint64_t aid = seq % 5 == 0
                           ? corpus.sample_aids[seq % corpus.sample_aids.size()]
                           : corpus.sample_aids[seq % hot];
        const mws::store::PolicyDb& db = service.policy_db();
        if (!db.RowForAid(aid).ok()) g_failures.fetch_add(1);
        const std::string& id = corpus.identities[seq * 389 % n];
        auto rows = scan_reads ? db.RowsForIdentityScan(id)
                               : db.RowsForIdentity(id);
        if (!rows.ok() || rows->empty()) g_failures.fetch_add(1);
      });

  // --- PEKS mailbox sweep: each worker tests a slice of the corpus ---
  std::atomic<size_t> matches{0};
  point.peks = RunPhase(workers, 1, [&](size_t w, size_t) {
    size_t begin = w * tags.size() / workers;
    size_t end = (w + 1) * tags.size() / workers;
    std::vector<mws::ibe::Peks::Tag> slice(tags.begin() + begin,
                                           tags.begin() + end);
    auto hits = peks.TestMany(slice, trapdoor);
    size_t found = 0;
    for (bool hit : hits) found += hit ? 1 : 0;
    matches.fetch_add(found);
  });
  // RunPhase counted one op per worker (a whole corpus slice); rescale
  // to tags tested.
  point.peks.ops_per_sec *= tags.size() / static_cast<double>(workers);
  point.peks.ops = tags.size();
  if (matches.load() != expected_matches) {
    std::fprintf(stderr, "PEKS matches %zu != expected %zu\n", matches.load(),
                 expected_matches);
    g_failures.fetch_add(1);
  }
  return point;
}

void PrintPoint(const char* mode, const Point& p) {
  std::printf(
      "%8s w=%zu | auth %8.0f/s p95 %6.0fus | issue %7.0f/s | "
      "resolve %8.0f/s p95 %6.0fus | peks %7.0f tags/s\n",
      mode, p.workers, p.auth.ops_per_sec, p.auth.p95_us, p.issue.ops_per_sec,
      p.resolve.ops_per_sec, p.resolve.p95_us, p.peks.ops_per_sec);
}

std::string PhaseJson(const char* name, const PhaseStats& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"%s\": {\"ops\": %zu, \"ops_per_sec\": %.1f, "
                "\"p50_us\": %.1f, \"p95_us\": %.1f}",
                name, s.ops, s.ops_per_sec, s.p50_us, s.p95_us);
  return buf;
}

int Run(bool smoke, const std::string& json_path) {
  Scale scale;
  if (smoke) {
    // Auth and resolve ops are sized so each timed window spans tens of
    // milliseconds: sub-millisecond windows let one scheduler preemption
    // decide the throughput gates.
    scale = {10'000, 500, 1'000, 20, 20'000, 32, {1, 2}};
  } else {
    scale = {1'000'000, 10'000, 400, 100, 500, 512, {1, 2, 4, 8}};
  }
  mws::util::SimulatedClock clock(1'000'000'000);
  mws::util::DeterministicRandom rng(42);
  LoadedCorpus corpus = LoadCorpus(scale, clock, rng);

  // PEKS corpus: 8 keywords round-robin, trapdoor for one of them.
  const auto& group = mws::math::GetParams(mws::math::ParamPreset::kSmall);
  mws::ibe::Peks peks(group);
  auto peks_keys = peks.GenerateKeyPair(rng);
  std::vector<mws::ibe::Peks::Tag> tags;
  size_t expected_matches = 0;
  for (size_t i = 0; i < scale.peks_corpus; ++i) {
    Bytes keyword =
        mws::util::BytesFromString("KW" + std::to_string(i % 8));
    tags.push_back(peks.MakeTag(peks_keys.public_key, keyword, rng));
    if (i % 8 == 3) ++expected_matches;
  }
  auto trapdoor = peks.MakeTrapdoor(peks_keys.secret,
                                    mws::util::BytesFromString("KW3"));

  struct ModeResult {
    const char* name;
    std::vector<Point> points;
  };
  std::vector<ModeResult> results;
  double hydration_ms = 0;

  for (bool tuned : {false, true}) {
    mws::mws::MwsOptions options;
    mws::obs::Registry metrics;
    options.metrics = &metrics;
    options.tuning.reference_mode = !tuned;
    int64_t t0 = mws::obs::SteadyNowMicros();
    mws::mws::MwsService service(corpus.storage.get(), Bytes(32, 0x5a),
                                 &clock, &rng, options);
    if (tuned) {
      hydration_ms = (mws::obs::SteadyNowMicros() - t0) / 1e3;
      std::printf("index hydration over %zu grants: %.1fms\n",
                  scale.identities, hydration_ms);
    }
    // Pre-populate the session registry so the auth phase measures the
    // marginal handshake against a realistically busy gatekeeper (in
    // reference mode every auth sweeps all of these).
    {
      mws::util::DeterministicRandom prepop_rng(7777);
      for (size_t i = 0; i < scale.prepop_sessions; ++i) {
        auto r = service.Authenticate(BuildAuthRequest(
            corpus, corpus.identities[i * 131 % corpus.identities.size()],
            clock.NowMicros(), prepop_rng));
        if (!r.ok()) {
          std::fprintf(stderr, "prepop auth failed at %zu\n", i);
          return 1;
        }
      }
    }
    ModeResult mode{tuned ? "tuned" : "baseline", {}};
    for (size_t workers : scale.workers) {
      mode.points.push_back(RunPoint(service, !tuned, corpus, scale, workers,
                                     clock, peks, tags, trapdoor,
                                     expected_matches));
      PrintPoint(mode.name, mode.points.back());
    }
    results.push_back(std::move(mode));
  }

  // --- Bounded-memory sub-run: session registry hard-capped ---
  size_t bounded_cap = 256;
  size_t bounded_auths = smoke ? 1000 : 4000;
  size_t bounded_peak = 0;
  uint64_t bounded_evictions = 0;
  bool gauge_consistent = true;
  {
    mws::mws::MwsOptions options;
    mws::obs::Registry metrics;
    options.metrics = &metrics;
    options.tuning.max_sessions = bounded_cap;
    mws::mws::MwsService service(corpus.storage.get(), Bytes(32, 0x5a),
                                 &clock, &rng, options);
    mws::util::DeterministicRandom bounded_rng(31337);
    for (size_t i = 0; i < bounded_auths; ++i) {
      auto r = service.Authenticate(BuildAuthRequest(
          corpus, corpus.identities[i % corpus.identities.size()],
          clock.NowMicros(), bounded_rng));
      if (!r.ok()) {
        std::fprintf(stderr, "bounded auth failed at %zu\n", i);
        return 1;
      }
      size_t live = service.gatekeeper().ActiveSessions();
      bounded_peak = std::max(bounded_peak, live);
      auto snap = metrics.Snapshot();
      const int64_t* gauge = snap.gauge("gatekeeper.sessions");
      if (gauge == nullptr || *gauge != static_cast<int64_t>(live)) {
        gauge_consistent = false;
      }
    }
    auto snap = metrics.Snapshot();
    const uint64_t* evicted = snap.counter("gatekeeper.sessions_evicted");
    bounded_evictions = evicted != nullptr ? *evicted : 0;
  }
  std::printf(
      "\nbounded sub-run: cap %zu, %zu auths -> peak %zu sessions, "
      "%llu evictions, gauge %s\n",
      bounded_cap, bounded_auths, bounded_peak,
      static_cast<unsigned long long>(bounded_evictions),
      gauge_consistent ? "consistent" : "INCONSISTENT");

  // --- Gates ---
  const Point& base = results[0].points.back();
  const Point& tuned = results[1].points.back();
  double base_agg = base.auth.ops_per_sec + base.resolve.ops_per_sec;
  double tuned_agg = tuned.auth.ops_per_sec + tuned.resolve.ops_per_sec;
  double speedup = base_agg > 0 ? tuned_agg / base_agg : 0;
  double agg_floor = smoke ? 0.7 : 3.0;
  double p95_slack = smoke ? 5.0 : 1.0;
  double resolve_floor = smoke ? 0.7 : 2.0;
  std::printf(
      "\naggregate auth+resolution at %zu workers: tuned %.0f/s vs "
      "baseline %.0f/s -> %.2fx (floor %.1fx)\n",
      tuned.workers, tuned_agg, base_agg, speedup, agg_floor);

  bool pass = true;
  if (g_failures.load() != 0) {
    std::printf("ERROR: %zu op failures\n", g_failures.load());
    pass = false;
  }
  if (bounded_peak > bounded_cap || !gauge_consistent) {
    std::printf("ERROR: session bound or gauge violated\n");
    pass = false;
  }
  if (speedup < agg_floor) {
    std::printf("ERROR: aggregate speedup %.2fx below %.1fx floor\n", speedup,
                agg_floor);
    pass = false;
  }
  if (tuned.auth.p95_us > base.auth.p95_us * p95_slack) {
    std::printf("ERROR: tuned auth p95 %.0fus exceeds baseline %.0fus x%.1f\n",
                tuned.auth.p95_us, base.auth.p95_us, p95_slack);
    pass = false;
  }
  if (tuned.resolve.ops_per_sec < base.resolve.ops_per_sec * resolve_floor) {
    std::printf("ERROR: tuned resolution %.0f/s below baseline %.0f/s x%.1f\n",
                tuned.resolve.ops_per_sec, base.resolve.ops_per_sec,
                resolve_floor);
    pass = false;
  }

  // --- JSON ---
  std::string out = "{\n";
  out += "  \"experiment\": \"e20_controlplane\",\n";
  out += "  \"identities\": " + std::to_string(scale.identities) + ",\n";
  out += "  \"grants\": " + std::to_string(scale.identities) + ",\n";
  out += "  \"prepop_sessions\": " + std::to_string(scale.prepop_sessions) +
         ",\n";
  out += "  \"peks_corpus\": " + std::to_string(scale.peks_corpus) + ",\n";
  out += std::string("  \"smoke\": ") + (smoke ? "true" : "false") + ",\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf), "  \"index_hydration_ms\": %.1f,\n",
                hydration_ms);
  out += buf;
  out += "  \"modes\": [\n";
  for (size_t m = 0; m < results.size(); ++m) {
    out += "    {\"mode\": \"" + std::string(results[m].name) +
           "\", \"points\": [\n";
    for (size_t i = 0; i < results[m].points.size(); ++i) {
      const Point& p = results[m].points[i];
      out += "      {\"workers\": " + std::to_string(p.workers) + ", " +
             PhaseJson("auth", p.auth) + ", " + PhaseJson("issue", p.issue) +
             ", " + PhaseJson("resolve", p.resolve) + ", " +
             PhaseJson("peks", p.peks) + "}" +
             (i + 1 < results[m].points.size() ? "," : "") + "\n";
    }
    out += std::string("    ]}") + (m + 1 < results.size() ? "," : "") + "\n";
  }
  out += "  ],\n";
  std::snprintf(buf, sizeof(buf),
                "  \"bounded\": {\"max_sessions\": %zu, \"auths\": %zu, "
                "\"peak_sessions\": %zu, \"evictions\": %llu, "
                "\"gauge_consistent\": %s},\n",
                bounded_cap, bounded_auths, bounded_peak,
                static_cast<unsigned long long>(bounded_evictions),
                gauge_consistent ? "true" : "false");
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"gate\": {\"aggregate_speedup\": %.2f, \"floor\": %.1f, "
                "\"auth_p95_slack\": %.1f, \"resolve_floor\": %.1f, "
                "\"pass\": %s}\n",
                speedup, agg_floor, p95_slack, resolve_floor,
                pass ? "true" : "false");
  out += buf;
  out += "}\n";
  if (json_path.empty()) {
    std::printf("\n%s", out.c_str());
  } else {
    std::ofstream f(json_path);
    f << out;
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }
  std::printf("=== E20: million-identity control plane ===\n\n");
  return Run(smoke, json_path);
}
