// perfbench: runs one workload of the repository benchmark and prints its
// metrics. Usually started through perfbench/run.py, which builds it:
//
//   perfbench --workload live|flush|drain --seed N --seconds S --trace 0|1
//             [--out DIR]
//   perfbench --selftest [--out DIR]
//
// --trace 0 initializes the process-wide tables, sets the deployment up five
// times (setup_s is their median), keeps the last and measures the
// end-to-end metrics on it. --trace 1 measures an
// untraced window, runs the decorators' pass-through check, then measures a
// traced window and prints the per-layer ledger. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/deployment.h"
#include "perfbench/src/ledger.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/workloads.h"
#include "src/math/params.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string out = ".bench_build/perfbench-run";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string Describe(const Tail& t) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "p%.2f, n=%zu, %zu beyond", t.percentile,
                t.n, t.beyond);
  return buf;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": " +
            JsonString(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

void PrintSettings(const Args& args, const Workload& w) {
  std::printf(
      "settings {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"build_type\": %s, \"cxx_flags\": %s, "
      "\"compiler\": %s, \"nproc\": %u, \"preset\": %s, "
      "\"compact_threshold_bytes\": %zu, \"rsa_bits\": %zu, "
      "\"server_workers\": %d, \"cipher\": \"DES\", "
      "\"store_flush_policy\": %s, \"workload_settings\": %s}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      JsonNumber(args.seconds).c_str(), args.trace ? 1 : 0,
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_CXX_FLAGS).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      std::thread::hardware_concurrency(),
      JsonString(mws::math::ParamPresetName(kPreset)).c_str(),
      kCompactThresholdBytes, kRsaBits, Deployment::kServerWorkers,
      JsonString("WAL appends are buffered std::ofstream writes, flushed by "
                 "Flush(), checkpoints and close; no fsync anywhere, so the "
                 "crash model is a killed process")
          .c_str(),
      JsonString(w.Settings()).c_str());
}

void PrintErrors(const WindowResult& r, const char* phase) {
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "perfbench: %s output check failed: %s\n", phase,
                 e.c_str());
  }
}

/// live reports the median of its per-slice tails; see WindowResult.
double OpTail(const WindowResult& r) {
  return r.op_slice_tail_ms.empty() ? TailOf(r.op_ms).value
                                    : Median(r.op_slice_tail_ms);
}

/// How late live's load generator ran, with the estimator of its tail.
double GenLateTail(const WindowResult& r) {
  return Median(r.gen_late_slice_tail_ms);
}

/// Lines naming the workload's own end-to-end figures (the contract line
/// carries the shared names only).
void PrintWorkloadFigures(const std::string& workload, const WindowResult& r,
                          double setup_s) {
  const double fail_frac =
      r.attempted == 0 ? 0 : static_cast<double>(r.failed) / r.attempted;
  std::printf("e2e setup_s = %.4f s\n", setup_s);
  std::printf("e2e fail_frac = %.6f (%llu of %llu)\n", fail_frac,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::printf("e2e peak_rss_mb = %.1f MiB\n", PeakRssMb());
  const Tail op_tail = TailOf(r.op_ms);
  if (!r.round_s.empty()) {
    std::string rounds;
    for (double s : r.round_s) {
      char buf[32];
      std::snprintf(buf, sizeof buf, " %.3f", s);
      rounds += buf;
    }
    std::printf("info round_s =%s\n", rounds.c_str());
  }
  if (workload == "live") {
    const Tail poll_tail = TailOf(r.poll_ms);
    std::printf("e2e deposit_p50_ms = %.4f ms (from due time, n=%zu)\n",
                Median(r.op_ms), r.op_ms.size());
    std::printf("e2e deposit_tail_ms = %.4f ms (median over %zu three-second "
                "slices of each slice's tail; whole run: %.4f ms, %s)\n",
                OpTail(r), r.op_slice_tail_ms.size(), op_tail.value,
                Describe(op_tail).c_str());
    std::printf("e2e poll_p50_ms = %.3f ms (n=%zu)\n", Median(r.poll_ms),
                r.poll_ms.size());
    if (poll_tail.percentile > 50) {
      std::printf("e2e poll_tail_ms = %.3f ms (%s)\n", poll_tail.value,
                  Describe(poll_tail).c_str());
    } else {
      std::printf("e2e poll_tail_ms = n/a (%zu polls leave no percentile above "
                  "p50 with 10 beyond; max %.3f ms)\n",
                  poll_tail.n, *std::max_element(r.poll_ms.begin(),
                                                 r.poll_ms.end()));
    }
    std::printf("info bench.gen_late_tail_ms = %.4f ms (median over slices; "
                "whole run: %.4f ms)\n",
                GenLateTail(r), TailOf(r.gen_late_ms).value);
    std::printf("info achieved_deposits_per_s = %.2f, poll plaintexts/s of "
                "poll time = %.2f, refetched = %llu\n",
                r.unit_msgs / std::max(r.window_s, 1e-9), r.msgs_per_s,
                static_cast<unsigned long long>(r.refetched));
  } else if (workload == "flush") {
    std::printf("e2e flush_msgs_per_s = %.1f msg/s\n", r.msgs_per_s);
    std::printf("e2e flush_batch_tail_ms = %.4f ms (%s)\n", op_tail.value,
                Describe(op_tail).c_str());
    std::printf("e2e disk_bytes_per_msg = %.1f B\n", r.disk_bytes_per_msg);
  } else {
    std::printf("e2e drain_msgs_per_s = %.2f msg/s\n", r.msgs_per_s);
    std::printf("e2e drain_first_ms = %.3f ms (median of %zu rounds)\n",
                Median(r.first_ms), r.first_ms.size());
    std::printf("info slice_p50_ms = %.3f ms (n=%zu)\n", Median(r.op_ms),
                r.op_ms.size());
  }
}

std::vector<Metric> EndToEndMetrics(const WindowResult& r, double setup_s) {
  const double ok_frac =
      r.attempted == 0 ? 0
                       : 1.0 - static_cast<double>(r.failed) / r.attempted;
  return {
      {"setup_s", setup_s, "s"},
      {"ok_frac", ok_frac, "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
      {"msgs_per_s", r.msgs_per_s, "1/s"},
      {"op_p50_ms", Median(r.op_ms), "ms"},
      {"disk_bytes_per_msg", r.disk_bytes_per_msg, "B"},
  };
}

// --- the traced run's ledger ------------------------------------------------

struct Agg {
  double dur_ns = 0;
  double self_ns = 0;
  double gap_ns = 0;
  uint64_t count = 0;
  uint64_t items = 0;
  uint64_t bytes = 0;
};

class SpanIndex {
 public:
  explicit SpanIndex(const std::vector<Span>& spans) {
    for (const Span& s : spans) {
      Agg& a = by_name_[{s.layer, s.name}];
      a.dur_ns += static_cast<double>(s.duration_ns());
      a.self_ns += static_cast<double>(s.self_ns());
      a.gap_ns += static_cast<double>(s.gap_ns);
      a.count += 1;
      a.items += s.items;
      a.bytes += s.bytes;
      Agg& l = by_layer_[s.layer];
      l.dur_ns += static_cast<double>(s.duration_ns());
      l.self_ns += static_cast<double>(s.self_ns());
      l.count += 1;
      l.bytes += s.bytes;
      if (s.layer == Layer::kOp && !s.nested) {
        top_level_op_ns_ += static_cast<double>(s.duration_ns());
      }
      if (s.layer == Layer::kStore) {
        const bool write =
            s.name == "put" || s.name == "put_batch" || s.name == "delete";
        (write ? store_write_ns_ : store_read_ns_) +=
            static_cast<double>(s.duration_ns());
        if (write) store_write_ms_.push_back(s.duration_ns() / 1e6);
      }
      if (s.layer == Layer::kHandler) {
        (s.name.rfind("pkg.", 0) == 0 ? pkg_handler_ : mws_handler_)
            .dur_ns += static_cast<double>(s.duration_ns());
        (s.name.rfind("pkg.", 0) == 0 ? pkg_handler_ : mws_handler_)
            .self_ns += static_cast<double>(s.self_ns());
      }
    }
  }

  Agg Get(Layer layer, const std::string& name) const {
    auto it = by_name_.find({layer, name});
    return it == by_name_.end() ? Agg{} : it->second;
  }
  Agg ByLayer(Layer layer) const {
    auto it = by_layer_.find(layer);
    return it == by_layer_.end() ? Agg{} : it->second;
  }
  double top_level_op_ns() const { return top_level_op_ns_; }
  double store_write_ns() const { return store_write_ns_; }
  double store_read_ns() const { return store_read_ns_; }
  const std::vector<double>& store_write_ms() const { return store_write_ms_; }
  const Agg& mws_handler() const { return mws_handler_; }
  const Agg& pkg_handler() const { return pkg_handler_; }

 private:
  std::map<std::pair<Layer, std::string>, Agg> by_name_;
  std::map<Layer, Agg> by_layer_;
  double top_level_op_ns_ = 0;
  double store_write_ns_ = 0;
  double store_read_ns_ = 0;
  std::vector<double> store_write_ms_;
  Agg mws_handler_;
  Agg pkg_handler_;
};

const std::vector<std::string> kEndpoints = {
    "mws.deposit",        "mws.deposit_batch", "mws.auth",
    "mws.retrieve",       "mws.retrieve_chunk", "pkg.auth",
    "pkg.extract",        "pkg.extract_batch"};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> LayerMetrics(const std::string& workload,
                                 const std::vector<Span>& spans,
                                 const WindowResult& r, double untraced_p50) {
  SpanIndex ix(spans);
  std::vector<Metric> m;
  std::vector<std::string> absent;
  auto add = [&m, &absent](const std::string& name, double value,
                           const std::string& unit, bool present,
                           const char* why_absent) {
    m.push_back({name, present ? value : 0, unit});
    if (!present) absent.push_back(name + ": " + why_absent);
  };

  const Agg deposit_op = ix.Get(Layer::kOp, "deposit");
  add("client.seal_ms", Ratio(deposit_op.self_ns, deposit_op.count) / 1e6,
      "ms", deposit_op.count > 0, "no sealing on the timed path");
  const double rc_self_ns = ix.Get(Layer::kOp, "poll").self_ns +
                            ix.Get(Layer::kOp, "round").self_ns +
                            ix.Get(Layer::kOp, "slice").self_ns;
  const Agg pkg_auth_call = ix.Get(Layer::kClientCall, "pkg.auth");
  add("client.decrypt_ms_per_msg",
      Ratio(rc_self_ns - pkg_auth_call.gap_ns, r.keys_extracted) / 1e6,
      "ms/msg", r.keys_extracted > 0, "no receiving client on this workload");
  add("client.pkg_auth_ms", Ratio(pkg_auth_call.gap_ns, pkg_auth_call.count) / 1e6,
      "ms", pkg_auth_call.count > 0, "no PKG session opened");
  for (const std::string& ep : kEndpoints) {
    const Agg call = ix.Get(Layer::kClientCall, ep);
    const Agg handler = ix.Get(Layer::kHandler, ep);
    add("wire.overhead_us." + ep,
        Ratio(call.dur_ns - handler.dur_ns, call.count) / 1e3, "us",
        call.count > 0, "endpoint not called");
  }
  const Agg calls = ix.ByLayer(Layer::kClientCall);
  add("wire.bytes_per_msg", Ratio(calls.bytes, r.unit_msgs), "B/msg", true, "");
  add("wire.calls_per_msg", Ratio(calls.count, r.unit_msgs), "calls/msg", true,
      "");
  add("wire.shed", r.counters.shed, "count", true, "");
  add("wire.reconnects", r.reconnects, "count", true, "");

  const Agg h_deposit = ix.Get(Layer::kHandler, "mws.deposit");
  add("mws.deposit_us", Ratio(h_deposit.self_ns, h_deposit.count) / 1e3, "us",
      h_deposit.count > 0, "no single-shot deposits");
  const Agg h_auth = ix.Get(Layer::kHandler, "mws.auth");
  add("mws.auth_us", Ratio(h_auth.self_ns, h_auth.count) / 1e3, "us",
      h_auth.count > 0, "no gatekeeper authentication");
  const Agg h_batch = ix.Get(Layer::kHandler, "mws.deposit_batch");
  const Agg batch_op = ix.Get(Layer::kOp, "deposit_batch");
  add("mws.deposit_batch_us_per_item", Ratio(h_batch.self_ns, batch_op.items) / 1e3,
      "us/msg", h_batch.count > 0, "no batch deposits");
  const double retrieve_self_ns =
      ix.Get(Layer::kHandler, "mws.retrieve").self_ns +
      ix.Get(Layer::kHandler, "mws.retrieve_chunk").self_ns;
  add("mws.retrieve_us_per_msg", Ratio(retrieve_self_ns, r.msgs_retrieved) / 1e3,
      "us/msg", r.msgs_retrieved > 0, "no retrievals");
  const double worker_ns = r.window_s * 1e9 * Deployment::kServerWorkers;
  add("mws.busy_frac", Ratio(ix.mws_handler().dur_ns, worker_ns), "ratio", true,
      "");
  add("mws.dedup_frac", Ratio(r.counters.dedup_hits, r.msgs_written), "ratio",
      r.msgs_written > 0, "no deposits");

  add("store.write_us_per_msg", Ratio(ix.store_write_ns(), r.msgs_written) / 1e3,
      "us/msg", r.msgs_written > 0, "no writes in the window");
  add("store.write_tail_ms", TailOf(ix.store_write_ms()).value, "ms",
      !ix.store_write_ms().empty(), "no writes in the window");
  add("store.read_us_per_msg", Ratio(ix.store_read_ns(), r.unit_msgs) / 1e3,
      "us/msg", true, "");
  add("store.wal_bytes_per_msg", Ratio(r.counters.wal_bytes, r.msgs_written),
      "B/msg", r.msgs_written > 0, "no writes in the window");
  add("store.wal_appends_per_msg", Ratio(r.counters.wal_appends, r.msgs_written),
      "count/msg", r.msgs_written > 0, "no writes in the window");
  add("store.compactions", r.counters.compactions, "count", true, "");

  const double extract_ns = ix.Get(Layer::kHandler, "pkg.extract_batch").dur_ns +
                            ix.Get(Layer::kHandler, "pkg.extract").dur_ns;
  add("pkg.extract_ms_per_key", Ratio(extract_ns, r.keys_extracted) / 1e6,
      "ms/key", r.keys_extracted > 0, "no key extraction");
  const Agg h_pkg_auth = ix.Get(Layer::kHandler, "pkg.auth");
  add("pkg.auth_us", Ratio(h_pkg_auth.dur_ns, h_pkg_auth.count) / 1e3, "us",
      h_pkg_auth.count > 0, "no PKG authentication");
  add("pkg.busy_frac", Ratio(ix.pkg_handler().dur_ns, worker_ns), "ratio", true,
      "");

  add("obs.trace_overhead_frac",
      Ratio(Median(r.op_ms) - untraced_p50, untraced_p50), "ratio", true, "");
  const bool live = workload == "live";
  add("bench.gen_late_tail_ms", GenLateTail(r), "ms", live,
      "closed-loop workload");
  add("bench.poll_msgs", Mean(r.poll_msgs), "count", live,
      "closed-loop workload");

  // The ledger: top-level op time split into each layer's self time. Rows
  // are aggregated on the threads where the work ran; the remainder is
  // what no layer accounts for.
  const double total = ix.top_level_op_ns();
  const double client = ix.ByLayer(Layer::kOp).self_ns;
  const double wire = calls.dur_ns - ix.ByLayer(Layer::kHandler).dur_ns;
  const double mws_self = ix.mws_handler().self_ns;
  const double store = ix.ByLayer(Layer::kStore).dur_ns;
  const double pkg = ix.pkg_handler().self_ns;
  const double remainder = total - client - wire - mws_self - store - pkg;
  add("ledger.remainder_frac", Ratio(remainder, total), "ratio", true, "");
  add("client.self_us_per_msg", Ratio(client, r.unit_msgs) / 1e3, "us/msg",
      true, "");
  add("wire.overhead_us_per_call", Ratio(wire, calls.count) / 1e3, "us", true,
      "");
  add("mws.self_us_per_msg", Ratio(mws_self, r.unit_msgs) / 1e3, "us/msg",
      true, "");

  std::printf("ledger %s: %.3f s in top-level ops\n", workload.c_str(),
              total / 1e9);
  const std::pair<const char*, double> rows[] = {
      {"client (op self: seal, decrypt, RSA, codec)", client},
      {"wire (client call - server handler)", wire},
      {"mws handler self (minus store)", mws_self},
      {"store (KvStore via Table)", store},
      {"pkg handler", pkg},
      {"remainder", remainder},
  };
  for (const auto& [name, ns] : rows) {
    std::printf("ledger   %-46s %10.3f ms  %6.2f%%\n", name, ns / 1e6,
                100 * Ratio(ns, total));
  }
  if (live) {
    std::printf("ledger   (lane queueing before send, not in op time: %.3f ms)\n",
                r.queue_ms_total);
  }
  std::printf("ledger   store at window end: log_records=%llu wal_bytes=%llu, "
              "%llu compactions in the window\n",
              static_cast<unsigned long long>(r.log_records),
              static_cast<unsigned long long>(r.wal_tail_bytes),
              static_cast<unsigned long long>(r.counters.compactions));
  for (const std::string& a : absent) std::printf("absent %s\n", a.c_str());
  for (const Metric& x : m) {
    std::printf("layer %s = %.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  // The result line carries only what every judged workload measures: a
  // layer a workload leaves idle would read a constant 0 there. The
  // per-endpoint and per-operation figures stay in the lines above.
  const std::set<std::string> in_result = {
      "wire.bytes_per_msg",        "wire.calls_per_msg",
      "wire.shed",                 "wire.reconnects",
      "mws.busy_frac",             "mws.dedup_frac",
      "store.write_us_per_msg",    "store.write_tail_ms",
      "store.read_us_per_msg",     "store.wal_bytes_per_msg",
      "store.wal_appends_per_msg", "store.compactions",
      "pkg.busy_frac",             "obs.trace_overhead_frac",
      "ledger.remainder_frac",     "client.self_us_per_msg",
      "wire.overhead_us_per_call", "mws.self_us_per_msg"};
  std::vector<Metric> result;
  for (const Metric& x : m) {
    if (in_result.count(x.name) > 0) result.push_back(x);
  }
  return result;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "layer\tname\tthread\tstart_ns\tduration_ns\tchild_ns\tgap_ns\titems"
         "\tbytes\n";
  const int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) {
    out << LayerName(s.layer) << '\t' << s.name << '\t' << s.thread << '\t'
        << s.start_ns - base << '\t' << s.duration_ns() << '\t' << s.child_ns
        << '\t' << s.gap_ns << '\t' << s.items << '\t' << s.bytes << '\n';
  }
}

/// Starts a deployment and runs the workload's set-up on it.
mws::util::Result<std::unique_ptr<Deployment>> SetUp(Workload& w,
                                                     Ledger* ledger,
                                                     const std::string& dir) {
  MWS_ASSIGN_OR_RETURN(
      std::unique_ptr<Deployment> d,
      Deployment::Start({.dir = dir, .ledger = ledger, .meters = w.meters()}));
  MWS_RETURN_IF_ERROR(w.Prepare(*d));
  return d;
}

bool LiveLoopInvalid(const std::string& workload, const WindowResult& r) {
  if (workload != "live") return false;
  const double late = GenLateTail(r);
  const double p50 = Median(r.op_ms);
  if (late <= p50) return false;
  std::fprintf(stderr,
               "perfbench: invalid run: the load generator ran %.3f ms late "
               "at its tail, more than the deposit p50 of %.3f ms\n",
               late, p50);
  return true;
}

int Run(const Args& args) {
  if (args.selftest) {
    mws::util::Status s = PassThroughCheck(args.out + "/selftest");
    std::printf("passthrough %s\n", s.ok() ? "ok" : s.ToString().c_str());
    return s.ok() ? 0 : 1;
  }
  if (!MakeWorkload(args.workload, args.seed)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  // One-time process work (parameter tables, the RC key pair) is timed on
  // its own; setup_s is the median of warm set-ups, which is steadier than
  // one cold sample and still shows work moved into set-up.
  const int64_t init_start = NowNs();
  Deployment::InitProcess();
  std::printf("info process_init_s = %.4f s\n",
              static_cast<double>(NowNs() - init_start) / 1e9);
  // At least five set-ups, more while they are cheap (up to 25 or 1 s), so
  // a set-up of a few milliseconds gets enough samples on a jittery host.
  std::vector<double> setup_s;
  double setup_total_s = 0;
  std::unique_ptr<Workload> w;
  std::unique_ptr<Deployment> d;
  const size_t min_setups = args.trace ? 1 : 5;
  const size_t max_setups = args.trace ? 1 : 25;
  while (setup_s.size() < min_setups ||
         (setup_s.size() < max_setups && setup_total_s < 1.0)) {
    d.reset();
    w = MakeWorkload(args.workload, args.seed);
    const int64_t start = NowNs();
    auto started = SetUp(*w, nullptr, args.out + "/store");
    if (!started.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   started.status().ToString().c_str());
      return 4;
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    setup_total_s += setup_s.back();
    d = std::move(started).value();
  }
  PrintSettings(args, *w);
  WindowResult untraced = w->Run(*d, args.seconds);
  d.reset();
  PrintErrors(untraced, "untraced");
  if (LiveLoopInvalid(args.workload, untraced)) return 3;

  if (!args.trace) {
    PrintWorkloadFigures(args.workload, untraced, Median(setup_s));
    PrintResult(untraced.correct, untraced.attempted, untraced.failed,
                EndToEndMetrics(untraced, Median(setup_s)));
    return 0;
  }

  mws::util::Status passthrough = PassThroughCheck(args.out + "/selftest");
  std::printf("passthrough %s\n",
              passthrough.ok() ? "ok" : passthrough.ToString().c_str());
  Ledger ledger;
  w = MakeWorkload(args.workload, args.seed);
  auto started = SetUp(*w, &ledger, args.out + "/store");
  if (!started.ok()) {
    std::fprintf(stderr, "perfbench: traced set-up failed: %s\n",
                 started.status().ToString().c_str());
    return 4;
  }
  d = std::move(started).value();
  WindowResult traced = w->Run(*d, args.seconds);
  d.reset();
  PrintErrors(traced, "traced");
  if (LiveLoopInvalid(args.workload, traced)) return 3;
  std::vector<Span> spans = ledger.Take();
  WriteSpans(args.out + "/spans-" + args.workload + ".tsv", spans);
  std::vector<Metric> metrics =
      LayerMetrics(args.workload, spans, traced, Median(untraced.op_ms));
  PrintResult(untraced.correct && traced.correct && passthrough.ok(),
              untraced.attempted + traced.attempted,
              untraced.failed + traced.failed, metrics);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (flag == "--out") {
      args->out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return args->selftest || (!args->workload.empty() && args->seconds > 0);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload live|flush|drain --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n"
                 "       perfbench --selftest [--out DIR]\n");
    return 2;
  }
  return perfbench::Run(args);
}
