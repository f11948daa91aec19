#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/deployment.h"

namespace perfbench {

/// Store and server counters accumulated over the measured intervals only
/// (flush resets its store between rounds, outside the window).
struct CounterDeltas {
  uint64_t wal_bytes = 0;
  uint64_t wal_appends = 0;
  uint64_t compactions = 0;
  uint64_t dedup_hits = 0;
  uint64_t shed = 0;
};

/// What one measured window produced.
struct WindowResult {
  bool correct = true;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double window_s = 0;

  /// The workload's primary operation: a live deposit (from its due time),
  /// a flush deposit_batch round trip, a drain 64-message slice.
  std::string op_name;
  std::vector<double> op_ms;
  /// live: the tail of each 3-second slice of the schedule. The reported
  /// tail is their median, so one slow stretch of a shared host does not
  /// decide it.
  std::vector<double> op_slice_tail_ms;
  /// flush and drain: wall time of each round.
  std::vector<double> round_s;
  double msgs_per_s = 0;
  double disk_bytes_per_msg = 0;

  /// Message counts for per-message ratios. `unit_msgs` is the workload's
  /// unit: deposits acked (live), messages stored (flush), plaintexts
  /// (drain).
  uint64_t unit_msgs = 0;
  uint64_t msgs_written = 0;
  uint64_t msgs_retrieved = 0;
  uint64_t keys_extracted = 0;
  uint64_t reconnects = 0;
  CounterDeltas counters;
  /// KvStore::log_records() and wal_bytes() as the (last) window closed.
  uint64_t log_records = 0;
  uint64_t wal_tail_bytes = 0;

  // live
  std::vector<double> gen_late_ms;
  /// Per-slice tails of gen_late_ms, as op_slice_tail_ms.
  std::vector<double> gen_late_slice_tail_ms;
  std::vector<double> poll_ms;
  std::vector<double> poll_msgs;
  double queue_ms_total = 0;
  uint64_t refetched = 0;
  // drain
  std::vector<double> first_ms;

  void Fail(std::string error) {
    correct = false;
    errors.push_back(std::move(error));
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Meters the deployment registers for this workload.
  virtual size_t meters() const = 0;
  /// Set-up beyond starting the deployment (sealing, backlog deposit).
  virtual mws::util::Status Prepare(Deployment& d) = 0;
  /// Measures for about `seconds`, then checks the outputs. Spans are
  /// recorded only inside the measured intervals.
  virtual WindowResult Run(Deployment& d, double seconds) = 0;
  /// One line of the workload's settings for the report.
  virtual std::string Settings() const = 0;
};

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// The decorators' pass-through test: one seeded sequential session (single
/// and batch deposits, FetchAndDecrypt, the chunked bulk path) against an
/// untraced and a traced deployment must yield identical message ids,
/// stored ciphertexts and plaintexts. Returns an error describing the
/// first difference.
mws::util::Status PassThroughCheck(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
