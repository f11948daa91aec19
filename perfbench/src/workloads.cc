#include "perfbench/src/workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "perfbench/src/stats.h"
#include "src/client/receiving_client.h"
#include "src/client/smart_device.h"
#include "src/crypto/hmac.h"

namespace perfbench {
namespace {

using mws::util::Bytes;
using mws::util::DeterministicRandom;
using mws::util::Status;

constexpr mws::crypto::CipherKind kCipher = mws::crypto::CipherKind::kDes;
/// Deposit timestamps fed to the payload generator (2010-03-01), so that
/// payloads depend on the seed only.
constexpr int64_t kPayloadEpochMicros = 1'267'401'600'000'000;

double Uniform01(DeterministicRandom& rng) {
  return static_cast<double>(rng.NextU64() >> 11) * 0x1.0p-53;
}

void SleepUntilNs(int64_t t_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t_ns)));
}

double MsSince(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

CounterDeltas ReadCounters(Deployment& d) {
  mws::obs::RegistrySnapshot snap = d.mws_registry().Snapshot();
  auto get = [&snap](const char* name) -> uint64_t {
    const uint64_t* v = snap.counter(name);
    return v == nullptr ? 0 : *v;
  };
  return {get("store.wal_bytes"), get("store.wal_appends"),
          get("store.compactions"), get("md.dedup_hits"), d.ShedRequests()};
}

void ReadStoreLevels(Deployment& d, WindowResult* r) {
  r->log_records = d.kv().log_records();
  r->wal_tail_bytes = d.kv().wal_bytes();
}

void AddDelta(CounterDeltas* acc, const CounterDeltas& before,
              const CounterDeltas& after) {
  acc->wal_bytes += after.wal_bytes - before.wal_bytes;
  acc->wal_appends += after.wal_appends - before.wal_appends;
  acc->compactions += after.compactions - before.compactions;
  acc->dedup_hits += after.dedup_hits - before.dedup_hits;
  acc->shed += after.shed - before.shed;
}

std::unique_ptr<mws::client::ReceivingClient> MakeCServices(
    Deployment& d, Connection& conn, mws::util::RandomSource* rng) {
  return std::make_unique<mws::client::ReceivingClient>(
      kCServices, kCServicesPassword, Deployment::RcKeys(), d.pkg().PublicParams(),
      kCipher, kCipher, conn.transport(), d.clock(), rng);
}

Bytes MakePayload(mws::sim::WorkloadGenerator& gen, const Meter& meter,
                  int64_t offset_micros) {
  return gen.Next(meter.id, meter.klass, kPayloadEpochMicros + offset_micros)
      .ToPayload();
}

// ---------------------------------------------------------------------------
// live: open-loop single-shot deposits beside a polling receiving client.

class LiveWorkload : public Workload {
 public:
  static constexpr int kLanes = 2;
  static constexpr size_t kMetersPerLane = 50;
  /// About half of what the receiving client sustains here: its serial
  /// FetchAndDecrypt path (one PKG extraction plus one decryption per
  /// message) tops out near 190 msg/s on a 4-core x86 box, so a higher
  /// offered rate would grow its backlog for the whole run.
  static constexpr double kRatePerSecond = 100;
  static constexpr int64_t kPollIntervalNs = 500'000'000;
  static constexpr double kTailSliceSeconds = 3;

  /// (due offset in ns, value in ms) per deposit.
  using Timeline = std::vector<std::pair<int64_t, double>>;

  /// The tail of each kTailSliceSeconds slice of the schedule.
  static std::vector<double> SliceTails(const Timeline& samples,
                                        double seconds) {
    std::vector<std::vector<double>> slices(
        static_cast<size_t>(std::ceil(seconds / kTailSliceSeconds)));
    for (const auto& [offset_ns, ms] : samples) {
      const size_t slice = std::min(
          slices.size() - 1,
          static_cast<size_t>(offset_ns / 1e9 / kTailSliceSeconds));
      slices[slice].push_back(ms);
    }
    std::vector<double> tails;
    for (std::vector<double>& slice : slices) {
      if (!slice.empty()) tails.push_back(TailOf(std::move(slice)).value);
    }
    return tails;
  }

  explicit LiveWorkload(uint64_t seed) : seed_(seed) {}

  size_t meters() const override { return kLanes * kMetersPerLane; }

  std::string Settings() const override {
    std::ostringstream out;
    out << "offered_rate_per_s=" << kRatePerSecond << " lanes=" << kLanes
        << " meters_per_lane=" << kMetersPerLane
        << " poll_interval_ms=" << kPollIntervalNs / 1'000'000
        << " arrivals=seeded-poisson open loop";
    return out.str();
  }

  Status Prepare(Deployment& d) override {
    for (int lane = 0; lane < kLanes; ++lane) {
      Lane& l = lanes_[lane];
      l.conn = d.Connect();
      l.rng = std::make_unique<DeterministicRandom>(seed_ * 1'000'003 + lane);
      for (size_t i = 0; i < kMetersPerLane; ++i) {
        const Meter& m = d.meters()[lane * kMetersPerLane + i];
        l.meters.push_back(&m);
        l.devices.emplace_back(m.id, m.mac_key, d.pkg().PublicParams(),
                               kCipher, l.conn->transport(), d.clock(),
                               l.rng.get());
      }
    }
    rc_conn_ = d.Connect();
    rc_rng_ = std::make_unique<DeterministicRandom>(seed_ * 1'000'003 + 99);
    rc_ = MakeCServices(d, *rc_conn_, rc_rng_.get());
    return Status::Ok();
  }

  WindowResult Run(Deployment& d, double seconds) override {
    WindowResult r;
    r.op_name = "deposit";
    struct Event {
      int64_t offset_ns = 0;
      size_t meter = 0;
      Bytes payload;
    };
    // The whole schedule is drawn from the seed before the window opens.
    std::array<std::vector<Event>, kLanes> schedule;
    for (int lane = 0; lane < kLanes; ++lane) {
      DeterministicRandom rng(seed_ * 7'919 + lane);
      mws::sim::WorkloadGenerator gen({.seed = seed_ * 131 + lane});
      const double lane_rate = kRatePerSecond / kLanes;
      double t = 0;
      for (;;) {
        t += -std::log(1.0 - Uniform01(rng)) / lane_rate;
        if (t >= seconds) break;
        Event e;
        e.offset_ns = static_cast<int64_t>(t * 1e9);
        e.meter = rng.UniformU64(kMetersPerLane);
        e.payload = MakePayload(gen, *lanes_[lane].meters[e.meter],
                                e.offset_ns / 1000);
        schedule[lane].push_back(std::move(e));
      }
    }

    struct LaneOut {
      std::vector<std::pair<uint64_t, Bytes>> acked;
      Timeline latency_ms;
      Timeline late_ms;
      double queue_ms = 0;
      uint64_t attempted = 0;
      uint64_t failed = 0;
      std::string first_error;
    };
    std::array<LaneOut, kLanes> outs;
    std::atomic<bool> any_failure{false};
    Ledger* ledger = d.ledger();
    const CounterDeltas before = ReadCounters(d);
    if (ledger != nullptr) ledger->Start();
    const int64_t t0 = NowNs() + 50'000'000;
    const int64_t t_end = t0 + static_cast<int64_t>(seconds * 1e9);

    std::vector<std::thread> threads;
    for (int lane = 0; lane < kLanes; ++lane) {
      threads.emplace_back([&, lane] {
        Lane& l = lanes_[lane];
        LaneOut& out = outs[lane];
        int64_t prev_end = t0;
        for (Event& e : schedule[lane]) {
          const int64_t due = t0 + e.offset_ns;
          SleepUntilNs(due);
          const int64_t start = NowNs();
          // Generator lateness: how late the lane sent a deposit it was
          // free to send. Waiting behind the lane's previous deposit is the
          // system's queueing and counts in the latency, not here.
          out.late_ms.emplace_back(e.offset_ns,
                                   MsSince(std::max(due, prev_end), start));
          out.queue_ms += MsSince(due, std::max(due, start));
          ++out.attempted;
          mws::util::Result<uint64_t> id = Status::Internal("unset");
          {
            ScopedSpan op(ledger, Layer::kOp, "deposit");
            op.set_items(1);
            id = l.devices[e.meter].DepositMessage(l.meters[e.meter]->attribute,
                                                   e.payload);
          }
          prev_end = NowNs();
          if (!id.ok()) {
            ++out.failed;
            any_failure = true;
            if (out.first_error.empty()) out.first_error = id.status().ToString();
            continue;
          }
          out.latency_ms.emplace_back(e.offset_ns, MsSince(due, prev_end));
          out.acked.emplace_back(id.value(), std::move(e.payload));
        }
      });
    }

    // The receiving client: FetchAndDecrypt every 500 ms, closed loop. Its
    // cursor advances only over a gap-free run of ids, so a deposit whose
    // id was assigned but not yet visible is fetched again next time
    // rather than skipped.
    uint64_t cursor = 0;
    std::vector<std::pair<uint64_t, Bytes>> delivered;
    uint64_t poll_failures = 0;
    std::string poll_error;
    auto deliver = [&](std::vector<mws::client::ReceivedMessage> msgs) {
      std::sort(msgs.begin(), msgs.end(), [](const auto& a, const auto& b) {
        return a.message_id < b.message_id;
      });
      const bool gaps_allowed = any_failure.load();
      for (mws::client::ReceivedMessage& m : msgs) {
        if (m.message_id > cursor &&
            (m.message_id == cursor + 1 || gaps_allowed)) {
          cursor = m.message_id;
          delivered.emplace_back(m.message_id, std::move(m.plaintext));
        } else {
          ++r.refetched;
        }
      }
    };
    for (int64_t next = t0 + kPollIntervalNs; next < t_end;) {
      SleepUntilNs(next);
      const int64_t start = NowNs();
      mws::util::Result<std::vector<mws::client::ReceivedMessage>> got =
          Status::Internal("unset");
      {
        ScopedSpan op(ledger, Layer::kOp, "poll");
        got = rc_->FetchAndDecrypt(cursor);
        if (got.ok()) op.set_items(got->size());
      }
      const int64_t end = NowNs();
      ++r.attempted;
      if (!got.ok()) {
        ++poll_failures;
        if (poll_error.empty()) poll_error = got.status().ToString();
      } else {
        r.poll_ms.push_back(MsSince(start, end));
        r.poll_msgs.push_back(static_cast<double>(got->size()));
        r.msgs_retrieved += got->size();
        deliver(std::move(got).value());
      }
      next = start + kPollIntervalNs;
    }
    for (std::thread& t : threads) t.join();
    const int64_t t_done = NowNs();
    if (ledger != nullptr) ledger->Stop();
    AddDelta(&r.counters, before, ReadCounters(d));
    ReadStoreLevels(d, &r);
    r.window_s = MsSince(t0, t_done) / 1e3;

    std::unordered_map<uint64_t, const Bytes*> acked;
    Timeline latency_ms;
    Timeline late_ms;
    for (int lane = 0; lane < kLanes; ++lane) {
      LaneOut& out = outs[lane];
      r.attempted += out.attempted;
      r.failed += out.failed;
      latency_ms.insert(latency_ms.end(), out.latency_ms.begin(),
                        out.latency_ms.end());
      late_ms.insert(late_ms.end(), out.late_ms.begin(), out.late_ms.end());
      r.queue_ms_total += out.queue_ms;
      if (!out.first_error.empty()) r.Fail("deposit failed: " + out.first_error);
      for (const auto& [id, payload] : out.acked) {
        if (!acked.emplace(id, &payload).second) {
          r.Fail("message id " + std::to_string(id) + " acked twice");
        }
      }
    }
    for (const auto& [offset, ms] : latency_ms) r.op_ms.push_back(ms);
    for (const auto& [offset, ms] : late_ms) r.gen_late_ms.push_back(ms);
    r.op_slice_tail_ms = SliceTails(latency_ms, seconds);
    r.gen_late_slice_tail_ms = SliceTails(late_ms, seconds);
    r.failed += poll_failures;
    if (!poll_error.empty()) r.Fail("poll failed: " + poll_error);
    r.unit_msgs = acked.size();
    r.msgs_written = acked.size();
    r.keys_extracted = r.msgs_retrieved;
    double poll_s = 0;
    for (double ms : r.poll_ms) poll_s += ms / 1e3;
    r.msgs_per_s = poll_s > 0 ? static_cast<double>(r.msgs_retrieved) / poll_s
                              : 0;

    // Outside the window: collect what the last polls missed, then check
    // that every acked deposit reached the client exactly once, intact.
    for (int i = 0; i < 10 && delivered.size() < acked.size(); ++i) {
      auto got = rc_->FetchAndDecrypt(cursor);
      if (!got.ok()) {
        r.Fail("final poll failed: " + got.status().ToString());
        break;
      }
      deliver(std::move(got).value());
    }
    std::unordered_set<uint64_t> seen;
    for (const auto& [id, plaintext] : delivered) {
      if (!seen.insert(id).second) {
        r.Fail("message " + std::to_string(id) + " delivered twice");
        continue;
      }
      auto it = acked.find(id);
      if (it == acked.end()) {
        r.Fail("message " + std::to_string(id) + " delivered but never acked");
      } else if (*it->second != plaintext) {
        r.Fail("message " + std::to_string(id) + " decrypted to a wrong payload");
      }
    }
    if (seen.size() != acked.size()) {
      r.Fail(std::to_string(acked.size() - std::min(acked.size(), seen.size())) +
             " acked deposits never delivered");
    }
    const size_t stored = d.mws().message_db().Count();
    r.disk_bytes_per_msg =
        stored == 0 ? 0 : static_cast<double>(d.DiskBytes()) / stored;
    for (const Lane& l : lanes_) r.reconnects += l.conn->reconnects();
    r.reconnects += rc_conn_->reconnects();
    return r;
  }

 private:
  struct Lane {
    std::unique_ptr<Connection> conn;
    std::unique_ptr<DeterministicRandom> rng;
    std::vector<const Meter*> meters;
    std::vector<mws::client::SmartDevice> devices;
  };

  uint64_t seed_;
  std::array<Lane, kLanes> lanes_;
  std::unique_ptr<Connection> rc_conn_;
  std::unique_ptr<DeterministicRandom> rc_rng_;
  std::unique_ptr<mws::client::ReceivingClient> rc_;
};

// ---------------------------------------------------------------------------
// flush: closed-loop deposit_batch of pre-sealed readings.

class FlushWorkload : public Workload {
 public:
  static constexpr int kLanes = 2;
  static constexpr size_t kMetersPerLane = 100;
  static constexpr size_t kPoolPerClass = 512;
  static constexpr size_t kBatch = 64;
  static constexpr int kSealThreads = 4;
  static constexpr size_t kSamplesPerRound = 4;

  explicit FlushWorkload(uint64_t seed) : seed_(seed) {}

  size_t meters() const override { return kLanes * kMetersPerLane; }

  std::string Settings() const override {
    std::ostringstream out;
    out << "lanes=" << kLanes << " meters_per_lane=" << kMetersPerLane
        << " pool_per_class=" << kPoolPerClass << " batch=" << kBatch
        << " msgs_per_round=" << kLanes * kMetersPerLane * kPoolPerClass
        << " closed loop; store pruned and compacted between rounds";
    return out.str();
  }

  Status Prepare(Deployment& d) override {
    // Payloads first, on one thread, so the pool depends on the seed only.
    mws::sim::WorkloadGenerator gen({.seed = seed_ * 131});
    for (size_t c = 0; c < 3; ++c) {
      Meter pool_meter;
      pool_meter.klass = static_cast<mws::sim::MeterClass>(c);
      pool_meter.id = "POOL";
      pool_meter.attribute = AttributeFor(pool_meter.klass);
      pool_[c].resize(kPoolPerClass);
      for (size_t i = 0; i < kPoolPerClass; ++i) {
        pool_[c][i].attribute = pool_meter.attribute;
        pool_[c][i].payload =
            MakePayload(gen, pool_meter, static_cast<int64_t>(i) * 1'000'000);
      }
    }
    std::vector<std::thread> threads;
    std::vector<Status> statuses(kSealThreads, Status::Ok());
    for (int t = 0; t < kSealThreads; ++t) {
      threads.emplace_back([&, t] {
        DeterministicRandom rng(seed_ * 7'919 + 1'000 + t);
        mws::client::SmartDevice sealer("POOL", Bytes(32, 0),
                                        d.pkg().PublicParams(), kCipher,
                                        nullptr, d.clock(), &rng);
        for (size_t k = t; k < 3 * kPoolPerClass; k += kSealThreads) {
          PoolEntry& e = pool_[k % 3][k / 3];
          auto sealed = sealer.BuildDeposit(e.attribute, e.payload);
          if (!sealed.ok()) {
            statuses[t] = sealed.status();
            return;
          }
          e.nonce = sealed->nonce;
          e.u = sealed->u;
          e.ciphertext = sealed->ciphertext;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const Status& s : statuses) MWS_RETURN_IF_ERROR(s);
    for (int lane = 0; lane < kLanes; ++lane) lane_conns_[lane] = d.Connect();
    rc_conn_ = d.Connect();
    rc_rng_ = std::make_unique<DeterministicRandom>(seed_ * 1'000'003 + 99);
    rc_ = MakeCServices(d, *rc_conn_, rc_rng_.get());
    return Status::Ok();
  }

  WindowResult Run(Deployment& d, double seconds) override {
    WindowResult r;
    r.op_name = "deposit_batch";
    Ledger* ledger = d.ledger();
    std::vector<double> disk_per_msg;
    double measured_s = 0;
    for (uint64_t round = 0; measured_s < seconds; ++round) {
      std::vector<Ack> acks;
      const CounterDeltas before = ReadCounters(d);
      if (ledger != nullptr) ledger->Start();
      const int64_t start = NowNs();
      RunRound(d, round, &acks, &r);
      const int64_t end = NowNs();
      if (ledger != nullptr) ledger->Stop();
      const CounterDeltas after = ReadCounters(d);
      AddDelta(&r.counters, before, after);
      ReadStoreLevels(d, &r);
      measured_s += MsSince(start, end) / 1e3;
      r.round_s.push_back(MsSince(start, end) / 1e3);
      CheckRound(d, round, acks, after.dedup_hits - before.dedup_hits, &r);
      disk_per_msg.push_back(static_cast<double>(d.DiskBytes()) /
                             std::max<size_t>(1, acks.size()));
      // Retention resets the live set, so every round starts from the same
      // store state and crosses the same compaction thresholds.
      uint64_t max_id = 0;
      for (const Ack& a : acks) max_id = std::max(max_id, a.id);
      auto pruned = d.mws().PruneMessagesThrough(max_id);
      auto compacted = d.kv().Compact();
      if (!pruned.ok() || !compacted.ok()) {
        r.Fail("prune/compact between rounds failed");
        break;
      }
    }
    r.window_s = measured_s;
    r.msgs_per_s = measured_s > 0 ? r.unit_msgs / measured_s : 0;
    r.disk_bytes_per_msg = Median(disk_per_msg);
    for (const auto& conn : lane_conns_) r.reconnects += conn->reconnects();
    return r;
  }

 private:
  struct PoolEntry {
    std::string attribute;
    Bytes nonce;
    Bytes u;
    Bytes ciphertext;
    Bytes payload;
  };
  struct Ack {
    uint64_t id = 0;
    const PoolEntry* entry = nullptr;
    int64_t timestamp_micros = 0;
  };

  void RunRound(Deployment& d, uint64_t round, std::vector<Ack>* acks,
                WindowResult* r) {
    struct LaneOut {
      std::vector<Ack> acks;
      std::vector<double> batch_ms;
      uint64_t sent = 0;
      uint64_t failed = 0;
      std::string first_error;
    };
    std::array<LaneOut, kLanes> outs;
    std::vector<std::thread> threads;
    for (int lane = 0; lane < kLanes; ++lane) {
      threads.emplace_back([&, lane] {
        LaneOut& out = outs[lane];
        std::vector<const Meter*> meters;
        for (size_t i = 0; i < kMetersPerLane; ++i) {
          meters.push_back(&d.meters()[lane * kMetersPerLane + i]);
        }
        DeterministicRandom rng(seed_ * 7'919 + round * 16 + lane);
        for (size_t i = meters.size(); i > 1; --i) {
          std::swap(meters[i - 1], meters[rng.UniformU64(i)]);
        }
        mws::wire::Transport* transport = lane_conns_[lane]->transport();
        for (const Meter* meter : meters) {
          const std::vector<PoolEntry>& pool =
              pool_[static_cast<size_t>(meter->klass)];
          for (size_t first = 0; first < pool.size(); first += kBatch) {
            const size_t n = std::min(kBatch, pool.size() - first);
            out.sent += n;
            const int64_t start = NowNs();
            mws::util::Result<mws::wire::DepositBatchResponse> response =
                Status::Internal("unset");
            mws::wire::DepositBatchRequest batch;
            {
              ScopedSpan op(d.ledger(), Layer::kOp, "deposit_batch");
              op.set_items(n);
              // Byte for byte what SmartDevice::DrainOutbox sends: each
              // sealed reading stamped with a fresh timestamp and an
              // HMAC-SHA256 under the depositing meter's key.
              batch.items.reserve(n);
              for (size_t k = first; k < first + n; ++k) {
                mws::wire::DepositRequest q;
                q.u = pool[k].u;
                q.ciphertext = pool[k].ciphertext;
                q.attribute = pool[k].attribute;
                q.nonce = pool[k].nonce;
                q.device_id = meter->id;
                q.timestamp_micros = d.clock()->NowMicros();
                q.mac = mws::crypto::HmacSha256(meter->mac_key,
                                                q.AuthenticatedBytes());
                batch.items.push_back(std::move(q));
              }
              auto raw = transport->Call("mws.deposit_batch", batch.Encode());
              response = raw.ok() ? mws::wire::DepositBatchResponse::Decode(*raw)
                                  : raw.status();
            }
            out.batch_ms.push_back(MsSince(start, NowNs()));
            if (!response.ok() || response->items.size() != n) {
              out.failed += n;
              if (out.first_error.empty()) {
                out.first_error = response.ok() ? "batch response size mismatch"
                                                : response.status().ToString();
              }
              continue;
            }
            for (size_t k = 0; k < n; ++k) {
              const auto& item = response->items[k];
              if (!item.ok || item.deduplicated) {
                ++out.failed;
                if (out.first_error.empty()) {
                  out.first_error = item.ok ? "fresh deposit deduplicated"
                                            : "deposit item refused";
                }
                continue;
              }
              out.acks.push_back({item.message_id, &pool[first + k],
                                  batch.items[k].timestamp_micros});
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (LaneOut& out : outs) {
      r->attempted += out.sent;
      r->failed += out.failed;
      if (!out.first_error.empty()) r->Fail("flush: " + out.first_error);
      r->op_ms.insert(r->op_ms.end(), out.batch_ms.begin(), out.batch_ms.end());
      acks->insert(acks->end(), out.acks.begin(), out.acks.end());
    }
    r->unit_msgs += acks->size();
    r->msgs_written += acks->size();
  }

  void CheckRound(Deployment& d, uint64_t round, const std::vector<Ack>& acks,
                  uint64_t dedup_hits, WindowResult* r) {
    const size_t sent = kLanes * kMetersPerLane * kPoolPerClass;
    if (acks.size() != sent) {
      r->Fail("round " + std::to_string(round) + ": " +
              std::to_string(acks.size()) + " of " + std::to_string(sent) +
              " messages stored");
    }
    const size_t stored = d.mws().message_db().Count();
    if (stored != acks.size()) {
      r->Fail("round " + std::to_string(round) + ": store holds " +
              std::to_string(stored) + " messages, " +
              std::to_string(acks.size()) + " acked");
    }
    if (dedup_hits != 0) {
      r->Fail("round " + std::to_string(round) + ": " +
              std::to_string(dedup_hits) + " dedup hits on fresh messages");
    }
    std::vector<uint64_t> ids;
    for (const Ack& a : acks) ids.push_back(a.id);
    std::sort(ids.begin(), ids.end());
    if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
      r->Fail("round " + std::to_string(round) + ": duplicate message ids");
    }
    if (acks.empty()) return;
    // A seeded sample goes the whole way: retrieved by C-Services (narrowed
    // to the sample's deposit timestamp) and decrypted.
    DeterministicRandom rng(seed_ * 104'729 + round);
    for (size_t s = 0; s < kSamplesPerRound; ++s) {
      const Ack& a = acks[rng.UniformU64(acks.size())];
      auto got = rc_->FetchAndDecrypt(a.id - 1, a.timestamp_micros,
                                      a.timestamp_micros + 1);
      if (!got.ok()) {
        r->Fail("sample retrieve failed: " + got.status().ToString());
        continue;
      }
      auto it = std::find_if(got->begin(), got->end(), [&a](const auto& m) {
        return m.message_id == a.id;
      });
      if (it == got->end() || it->plaintext != a.entry->payload) {
        r->Fail("sample message " + std::to_string(a.id) +
                " missing or wrong after decryption");
      }
    }
  }

  uint64_t seed_;
  std::array<std::vector<PoolEntry>, 3> pool_;
  std::array<std::unique_ptr<Connection>, kLanes> lane_conns_;
  std::unique_ptr<Connection> rc_conn_;
  std::unique_ptr<DeterministicRandom> rc_rng_;
  std::unique_ptr<mws::client::ReceivingClient> rc_;
};

// ---------------------------------------------------------------------------
// drain: C-Services pulls and decrypts a fixed backlog, slice by slice.

class DrainWorkload : public Workload {
 public:
  static constexpr size_t kMeters = 100;
  static constexpr size_t kBacklog = 1024;
  static constexpr uint32_t kChunk = 256;
  static constexpr size_t kSlice = 64;
  static constexpr int kDepositThreads = 4;

  explicit DrainWorkload(uint64_t seed) : seed_(seed) {}

  size_t meters() const override { return kMeters; }

  std::string Settings() const override {
    std::ostringstream out;
    out << "backlog=" << kBacklog << " meters=" << kMeters
        << " retrieve_chunk=" << kChunk << " decrypt_slice=" << kSlice
        << " closed loop, one receiving client";
    return out.str();
  }

  Status Prepare(Deployment& d) override {
    std::mutex mu;
    std::vector<Status> statuses(kDepositThreads, Status::Ok());
    std::vector<std::thread> threads;
    for (int t = 0; t < kDepositThreads; ++t) {
      threads.emplace_back([&, t] {
        std::unique_ptr<Connection> conn = d.Connect();
        DeterministicRandom rng(seed_ * 7'919 + 2'000 + t);
        mws::sim::WorkloadGenerator gen({.seed = seed_ * 131 + t});
        for (size_t i = t; i < kMeters; i += kDepositThreads) {
          const Meter& m = d.meters()[i];
          mws::client::SmartDevice device(m.id, m.mac_key,
                                          d.pkg().PublicParams(), kCipher,
                                          conn->transport(), d.clock(), &rng);
          const size_t count = kBacklog / kMeters + (i < kBacklog % kMeters);
          std::vector<std::pair<std::string, Bytes>> readings;
          for (size_t k = 0; k < count; ++k) {
            readings.emplace_back(
                m.attribute,
                MakePayload(gen, m, static_cast<int64_t>(k) * 1'000'000));
          }
          auto ids = device.DepositMany(readings);
          if (!ids.ok()) {
            statuses[t] = ids.status();
            return;
          }
          std::lock_guard<std::mutex> lock(mu);
          for (size_t k = 0; k < count; ++k) {
            if (!(*ids)[k].ok()) {
              statuses[t] = (*ids)[k].status();
              return;
            }
            backlog_[(*ids)[k].value()] = readings[k].second;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const Status& s : statuses) MWS_RETURN_IF_ERROR(s);
    if (backlog_.size() != kBacklog) {
      return Status::Internal("backlog has duplicate message ids");
    }
    rc_conn_ = d.Connect();
    rc_rng_ = std::make_unique<DeterministicRandom>(seed_ * 1'000'003 + 99);
    rc_ = MakeCServices(d, *rc_conn_, rc_rng_.get());
    return Status::Ok();
  }

  WindowResult Run(Deployment& d, double seconds) override {
    WindowResult r;
    r.op_name = "slice";
    Ledger* ledger = d.ledger();
    const CounterDeltas before = ReadCounters(d);
    if (ledger != nullptr) ledger->Start();
    const int64_t t0 = NowNs();
    double measured_s = 0;
    for (uint64_t round = 0;
         round == 0 || MsSince(t0, NowNs()) < seconds * 1e3; ++round) {
      const int64_t start = NowNs();
      size_t decrypted = 0;
      Status status = Drain(d, start, &decrypted, &r);
      r.round_s.push_back(MsSince(start, NowNs()) / 1e3);
      measured_s += r.round_s.back();
      r.attempted += kBacklog;
      r.failed += kBacklog - decrypted;
      if (!status.ok()) {
        r.Fail("drain round " + std::to_string(round) + ": " + status.ToString());
        break;
      }
    }
    if (ledger != nullptr) ledger->Stop();
    AddDelta(&r.counters, before, ReadCounters(d));
    ReadStoreLevels(d, &r);
    r.window_s = measured_s;
    r.msgs_per_s = measured_s > 0 ? r.unit_msgs / measured_s : 0;
    const size_t stored = d.mws().message_db().Count();
    r.disk_bytes_per_msg =
        stored == 0 ? 0 : static_cast<double>(d.DiskBytes()) / stored;
    r.reconnects = rc_conn_->reconnects();
    return r;
  }

 private:
  Status Drain(Deployment& d, int64_t start, size_t* decrypted,
               WindowResult* r) {
    ScopedSpan round(d.ledger(), Layer::kOp, "round");
    MWS_RETURN_IF_ERROR(rc_->Authenticate());
    MWS_ASSIGN_OR_RETURN(mws::wire::RetrieveResponse all,
                         rc_->RetrieveChunked(0, 0, 0, kChunk));
    r->msgs_retrieved += all.messages.size();
    if (all.messages.size() != kBacklog) {
      return Status::Internal("retrieved " + std::to_string(all.messages.size()) +
                              " of " + std::to_string(kBacklog) + " messages");
    }
    MWS_RETURN_IF_ERROR(rc_->AuthenticateWithPkg(all.token));
    for (size_t first = 0; first < all.messages.size(); first += kSlice) {
      const size_t n = std::min(kSlice, all.messages.size() - first);
      std::vector<mws::wire::RetrievedMessage> slice(
          all.messages.begin() + first, all.messages.begin() + first + n);
      const int64_t slice_start = NowNs();
      mws::util::Result<std::vector<mws::client::ReceivedMessage>> plain =
          Status::Internal("unset");
      {
        ScopedSpan op(d.ledger(), Layer::kOp, "slice");
        op.set_items(n);
        plain = rc_->DecryptAll(slice);
      }
      const int64_t slice_end = NowNs();
      MWS_RETURN_IF_ERROR(plain.status());
      r->op_ms.push_back(MsSince(slice_start, slice_end));
      if (first == 0) r->first_ms.push_back(MsSince(start, slice_end));
      r->keys_extracted += n;
      for (const mws::client::ReceivedMessage& m : *plain) {
        auto it = backlog_.find(m.message_id);
        if (it == backlog_.end() || it->second != m.plaintext) {
          return Status::Internal("message " + std::to_string(m.message_id) +
                                  " does not match what set-up deposited");
        }
        ++*decrypted;
      }
    }
    round.set_items(*decrypted);
    r->unit_msgs += *decrypted;
    return Status::Ok();
  }

  uint64_t seed_;
  std::unordered_map<uint64_t, Bytes> backlog_;
  std::unique_ptr<Connection> rc_conn_;
  std::unique_ptr<DeterministicRandom> rc_rng_;
  std::unique_ptr<mws::client::ReceivingClient> rc_;
};

// ---------------------------------------------------------------------------

struct Transcript {
  std::vector<uint64_t> ids;
  std::vector<Bytes> stored;
  std::vector<std::pair<uint64_t, Bytes>> fetched;
  std::vector<std::pair<uint64_t, Bytes>> bulk;
  std::map<Layer, size_t> spans_per_layer;
};

mws::util::Result<Transcript> RunTranscript(const std::string& dir,
                                            Ledger* ledger) {
  MWS_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d,
                       Deployment::Start({.dir = dir, .ledger = ledger,
                                          .meters = 6}));
  if (ledger != nullptr) ledger->Start();
  std::unique_ptr<Connection> conn = d->Connect();
  DeterministicRandom rng(2010);
  mws::sim::WorkloadGenerator gen({.seed = 2010});
  std::vector<mws::client::SmartDevice> devices;
  for (const Meter& m : d->meters()) {
    devices.emplace_back(m.id, m.mac_key, d->pkg().PublicParams(), kCipher,
                         conn->transport(), d->clock(), &rng);
  }
  Transcript t;
  for (size_t i = 0; i < 12; ++i) {
    const Meter& m = d->meters()[i % devices.size()];
    MWS_ASSIGN_OR_RETURN(
        uint64_t id, devices[i % devices.size()].DepositMessage(
                         m.attribute, MakePayload(gen, m, i * 1'000'000)));
    t.ids.push_back(id);
  }
  const Meter& batcher = d->meters()[1];
  std::vector<std::pair<std::string, Bytes>> readings;
  for (size_t i = 0; i < 8; ++i) {
    readings.emplace_back(batcher.attribute,
                          MakePayload(gen, batcher, (20 + i) * 1'000'000));
  }
  MWS_ASSIGN_OR_RETURN(auto batch_ids, devices[1].DepositMany(readings));
  for (const auto& id : batch_ids) {
    MWS_RETURN_IF_ERROR(id.status());
    t.ids.push_back(id.value());
  }
  for (uint64_t id : t.ids) {
    MWS_ASSIGN_OR_RETURN(mws::store::StoredMessage m,
                         d->mws().message_db().Get(id));
    Bytes record = m.u;
    record.insert(record.end(), m.ciphertext.begin(), m.ciphertext.end());
    record.insert(record.end(), m.nonce.begin(), m.nonce.end());
    record.insert(record.end(), m.device_id.begin(), m.device_id.end());
    t.stored.push_back(std::move(record));
  }
  std::unique_ptr<mws::client::ReceivingClient> rc =
      MakeCServices(*d, *conn, &rng);
  MWS_ASSIGN_OR_RETURN(auto fetched, rc->FetchAndDecrypt(0));
  for (auto& m : fetched) t.fetched.emplace_back(m.message_id, m.plaintext);
  MWS_ASSIGN_OR_RETURN(auto bulk, rc->FetchAndDecryptBulk(0, 0, 0, 4));
  for (auto& m : bulk) t.bulk.emplace_back(m.message_id, m.plaintext);
  if (ledger != nullptr) {
    ledger->Stop();
    for (const Span& s : ledger->Take()) ++t.spans_per_layer[s.layer];
  }
  return t;
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "live") return std::make_unique<LiveWorkload>(seed);
  if (name == "flush") return std::make_unique<FlushWorkload>(seed);
  if (name == "drain") return std::make_unique<DrainWorkload>(seed);
  return nullptr;
}

Status PassThroughCheck(const std::string& dir) {
  MWS_ASSIGN_OR_RETURN(Transcript plain, RunTranscript(dir + "/plain", nullptr));
  Ledger ledger;
  MWS_ASSIGN_OR_RETURN(Transcript traced, RunTranscript(dir + "/traced", &ledger));
  for (Layer layer : {Layer::kClientCall, Layer::kHandler, Layer::kStore}) {
    if (traced.spans_per_layer[layer] == 0) {
      return Status::Internal(std::string("traced run recorded no ") +
                              LayerName(layer) + " spans");
    }
  }
  if (plain.ids != traced.ids) return Status::Internal("message ids differ");
  if (plain.stored != traced.stored) {
    return Status::Internal("stored ciphertexts differ");
  }
  if (plain.fetched != traced.fetched || plain.bulk != traced.bulk) {
    return Status::Internal("plaintexts differ");
  }
  if (plain.fetched.size() != plain.ids.size() || plain.bulk != plain.fetched) {
    return Status::Internal("retrieval did not return every deposit");
  }
  return Status::Ok();
}

}  // namespace perfbench
