#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

// The traced run's instruments: in-memory spans plus three pass-through
// decorators that time calls into each layer's public functions from the
// outside. Spans nest per thread (a span's child time is the part of its
// interval that spans opened on the same thread cover), so a layer's self
// time is its duration minus its child time. Server spans cannot join a
// client's trace until the wire carries a trace context, so the ledger
// aggregates per layer and per endpoint instead of per request.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/store/table.h"
#include "src/wire/transport.h"

namespace perfbench {

enum class Layer : uint8_t {
  kOp,          // a benchmark operation on a client thread
  kClientCall,  // wire::Transport::Call seen by a client
  kHandler,     // a service handler behind a TcpServer
  kStore,       // a store::Table call made by the MWS
};

const char* LayerName(Layer layer);

struct Span {
  Layer layer = Layer::kOp;
  std::string name;  // op, endpoint or table method
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Part of [start, end) covered by spans nested on the same thread.
  int64_t child_ns = 0;
  /// Client calls: time since the previous call ended (or the enclosing
  /// op started) on this thread — the client work that preceded it.
  int64_t gap_ns = 0;
  bool nested = false;  // had an enclosing span on its thread
  uint64_t items = 0;   // messages the op moved; entries of a table batch
  uint64_t bytes = 0;   // client calls: request + response bytes

  int64_t duration_ns() const { return end_ns - start_ns; }
  int64_t self_ns() const { return duration_ns() - child_ns; }
};

int64_t NowNs();

/// Collects spans while recording is on. Thread-safe.
class Ledger {
 public:
  void Start();
  void Stop();
  bool recording() const { return recording_.load(std::memory_order_acquire); }

  void Add(Span span);
  /// Spans recorded so far; call once the traced window has quiesced.
  std::vector<Span> Take();

 private:
  std::atomic<bool> recording_{false};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span. A null ledger makes it inert, so untraced runs pay one
/// branch. Opening a kOp span resets the thread's call-gap mark.
class ScopedSpan {
 public:
  ScopedSpan(Ledger* ledger, Layer layer, const std::string& name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_items(uint64_t items) { span_.items = items; }
  void set_bytes(uint64_t bytes) { span_.bytes = bytes; }

 private:
  Ledger* ledger_;
  Span span_;
  ScopedSpan* parent_ = nullptr;
};

/// Client-side decorator: times every Call and counts its bytes.
class TimingTransport : public mws::wire::Transport {
 public:
  TimingTransport(mws::wire::Transport* inner, Ledger* ledger)
      : inner_(inner), ledger_(ledger) {}

  mws::util::Result<mws::util::Bytes> Call(
      const std::string& endpoint, const mws::util::Bytes& request) override;

 private:
  mws::wire::Transport* inner_;
  Ledger* ledger_;
};

/// Server-side decorator: registers on `outer` (the transport a TcpServer
/// serves) one timing handler per endpoint, each forwarding to `inner`
/// (the transport the service registered on). Both must outlive the
/// server.
void RegisterTimingHandlers(mws::wire::InProcessTransport* inner,
                            const std::vector<std::string>& endpoints,
                            mws::wire::InProcessTransport* outer,
                            Ledger* ledger);

/// Store decorator between MwsService and KvStore. Every method forwards
/// to the same method of `inner` (PutBatch stays one PutBatch).
class TimingTable : public mws::store::Table {
 public:
  TimingTable(mws::store::Table* inner, Ledger* ledger)
      : inner_(inner), ledger_(ledger) {}

  mws::util::Status Put(const std::string& key,
                        const mws::util::Bytes& value) override;
  mws::util::Status PutBatch(
      const std::vector<std::pair<std::string, mws::util::Bytes>>& entries)
      override;
  mws::util::Result<mws::util::Bytes> Get(const std::string& key) const override;
  mws::util::Status Delete(const std::string& key) override;
  bool Contains(const std::string& key) const override;
  std::vector<std::pair<std::string, mws::util::Bytes>> Scan(
      const std::string& prefix) const override;
  std::vector<std::string> ScanKeys(const std::string& prefix) const override;
  size_t CountPrefix(const std::string& prefix) const override;
  size_t Size() const override;
  mws::util::Status Flush() override;

 private:
  mws::store::Table* inner_;
  Ledger* ledger_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
