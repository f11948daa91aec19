#include "perfbench/src/ledger.h"

#include <chrono>

namespace perfbench {
namespace {

std::atomic<uint32_t> next_thread_index{0};

thread_local uint32_t tls_thread_index = next_thread_index.fetch_add(1);
thread_local ScopedSpan* tls_open = nullptr;
/// End of the previous client call (or start of the enclosing op).
thread_local int64_t tls_gap_mark_ns = 0;

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kOp:
      return "op";
    case Layer::kClientCall:
      return "call";
    case Layer::kHandler:
      return "handler";
    case Layer::kStore:
      return "store";
  }
  return "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Ledger::Start() { recording_.store(true, std::memory_order_release); }

void Ledger::Stop() { recording_.store(false, std::memory_order_release); }

void Ledger::Add(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Ledger::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::move(spans_);
}

ScopedSpan::ScopedSpan(Ledger* ledger, Layer layer, const std::string& name)
    : ledger_(ledger != nullptr && ledger->recording() ? ledger : nullptr) {
  if (ledger_ == nullptr) return;
  span_.layer = layer;
  span_.name = name;
  span_.thread = tls_thread_index;
  span_.start_ns = NowNs();
  if (layer == Layer::kOp) tls_gap_mark_ns = span_.start_ns;
  if (layer == Layer::kClientCall) {
    span_.gap_ns = span_.start_ns - tls_gap_mark_ns;
  }
  parent_ = tls_open;
  span_.nested = parent_ != nullptr;
  tls_open = this;
}

ScopedSpan::~ScopedSpan() {
  if (ledger_ == nullptr) return;
  span_.end_ns = NowNs();
  if (span_.layer == Layer::kClientCall) tls_gap_mark_ns = span_.end_ns;
  tls_open = parent_;
  if (parent_ != nullptr) parent_->span_.child_ns += span_.duration_ns();
  ledger_->Add(std::move(span_));
}

mws::util::Result<mws::util::Bytes> TimingTransport::Call(
    const std::string& endpoint, const mws::util::Bytes& request) {
  ScopedSpan span(ledger_, Layer::kClientCall, endpoint);
  auto response = inner_->Call(endpoint, request);
  span.set_bytes(request.size() + (response.ok() ? response->size() : 0));
  return response;
}

void RegisterTimingHandlers(mws::wire::InProcessTransport* inner,
                            const std::vector<std::string>& endpoints,
                            mws::wire::InProcessTransport* outer,
                            Ledger* ledger) {
  for (const std::string& endpoint : endpoints) {
    outer->Register(endpoint, [inner, endpoint, ledger](
                                  const mws::util::Bytes& request) {
      ScopedSpan span(ledger, Layer::kHandler, endpoint);
      return inner->Call(endpoint, request);
    });
  }
}

mws::util::Status TimingTable::Put(const std::string& key,
                                   const mws::util::Bytes& value) {
  ScopedSpan span(ledger_, Layer::kStore, "put");
  span.set_items(1);
  return inner_->Put(key, value);
}

mws::util::Status TimingTable::PutBatch(
    const std::vector<std::pair<std::string, mws::util::Bytes>>& entries) {
  ScopedSpan span(ledger_, Layer::kStore, "put_batch");
  span.set_items(entries.size());
  return inner_->PutBatch(entries);
}

mws::util::Result<mws::util::Bytes> TimingTable::Get(
    const std::string& key) const {
  ScopedSpan span(ledger_, Layer::kStore, "get");
  return inner_->Get(key);
}

mws::util::Status TimingTable::Delete(const std::string& key) {
  ScopedSpan span(ledger_, Layer::kStore, "delete");
  span.set_items(1);
  return inner_->Delete(key);
}

bool TimingTable::Contains(const std::string& key) const {
  ScopedSpan span(ledger_, Layer::kStore, "contains");
  return inner_->Contains(key);
}

std::vector<std::pair<std::string, mws::util::Bytes>> TimingTable::Scan(
    const std::string& prefix) const {
  ScopedSpan span(ledger_, Layer::kStore, "scan");
  auto out = inner_->Scan(prefix);
  span.set_items(out.size());
  return out;
}

std::vector<std::string> TimingTable::ScanKeys(const std::string& prefix) const {
  ScopedSpan span(ledger_, Layer::kStore, "scan_keys");
  auto out = inner_->ScanKeys(prefix);
  span.set_items(out.size());
  return out;
}

size_t TimingTable::CountPrefix(const std::string& prefix) const {
  ScopedSpan span(ledger_, Layer::kStore, "count_prefix");
  return inner_->CountPrefix(prefix);
}

size_t TimingTable::Size() const {
  ScopedSpan span(ledger_, Layer::kStore, "size");
  return inner_->Size();
}

mws::util::Status TimingTable::Flush() {
  ScopedSpan span(ledger_, Layer::kStore, "flush");
  return inner_->Flush();
}

}  // namespace perfbench
