#ifndef PERFBENCH_DEPLOYMENT_H_
#define PERFBENCH_DEPLOYMENT_H_

// The deployment under test, shaped as an operator runs it: the MWS and the
// PKG each behind a wire::TcpServer on loopback with default options and
// their own obs::Registry, the MWS storing into a persistent KvStore with
// auto-compaction, and clients reaching both over TcpClientTransport. A
// traced deployment inserts the ledger's decorators; nothing else differs.

#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/ledger.h"
#include "src/crypto/rsa.h"
#include "src/math/params.h"
#include "src/mws/mws_service.h"
#include "src/obs/metrics.h"
#include "src/pkg/pkg_service.h"
#include "src/sim/workload.h"
#include "src/store/kvstore.h"
#include "src/wire/tcp.h"

namespace perfbench {

/// The paper's curve: the PBC a.param shape (160-bit order, 512-bit field).
constexpr mws::math::ParamPreset kPreset = mws::math::ParamPreset::kTest;
/// One fixed auto-compaction threshold for every workload.
constexpr size_t kCompactThresholdBytes = 8u << 20;
constexpr size_t kRsaBits = 1024;
constexpr char kCServices[] = "C-SERVICES";
constexpr char kCServicesPassword[] = "pw-C-SERVICES";

/// One registered smart meter of the Fig. 1 world.
struct Meter {
  std::string id;
  mws::sim::MeterClass klass = mws::sim::MeterClass::kElectric;
  std::string attribute;
  mws::util::Bytes mac_key;
};

std::string AttributeFor(mws::sim::MeterClass klass);

/// Client-side connections to both servers: one TcpClientTransport each,
/// routed by endpoint prefix, under a TimingTransport when traced. A
/// connection opens lazily on its first call, so a device lane that only
/// deposits holds one socket.
class Connection {
 public:
  Connection(uint16_t mws_port, uint16_t pkg_port, Ledger* ledger);
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  mws::wire::Transport* transport() {
    return timing_ ? static_cast<mws::wire::Transport*>(timing_.get()) : &mux_;
  }
  uint64_t reconnects() const { return mws_.reconnects() + pkg_.reconnects(); }

 private:
  class Mux : public mws::wire::Transport {
   public:
    Mux(mws::wire::Transport* mws, mws::wire::Transport* pkg)
        : mws_(mws), pkg_(pkg) {}
    mws::util::Result<mws::util::Bytes> Call(
        const std::string& endpoint, const mws::util::Bytes& request) override;

   private:
    mws::wire::Transport* mws_;
    mws::wire::Transport* pkg_;
  };

  mws::wire::TcpClientTransport mws_;
  mws::wire::TcpClientTransport pkg_;
  Mux mux_;
  std::unique_ptr<TimingTransport> timing_;
};

class Deployment {
 public:
  struct Options {
    /// Directory for the store files; created, and removed on exit.
    std::string dir;
    /// Non-null: insert the timing decorators (the traced run).
    Ledger* ledger = nullptr;
    /// Number of meters, assigned electric/water/gas round-robin.
    size_t meters = 0;
  };

  static mws::util::Result<std::unique_ptr<Deployment>> Start(
      const Options& options);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  std::unique_ptr<Connection> Connect() const;

  mws::mws::MwsService& mws() { return *mws_; }
  mws::pkg::PkgService& pkg() { return *pkg_; }
  mws::store::KvStore& kv() { return *kv_; }
  const mws::obs::Registry& mws_registry() const { return mws_registry_; }
  const std::vector<Meter>& meters() const { return meters_; }
  /// C-Services' RSA key pair, provisioned once per process.
  static const mws::crypto::RsaKeyPair& RcKeys();
  /// Builds the process-wide state every deployment shares: the curve's
  /// parameter tables and the RC key pair.
  static void InitProcess();
  Ledger* ledger() const { return options_.ledger; }
  const mws::util::Clock* clock() const;
  /// WAL plus checkpoint bytes on disk (after flushing the WAL stream).
  uint64_t DiskBytes();
  uint64_t ShedRequests() const;
  static constexpr int kServerWorkers = mws::wire::TcpServer::Options{}.worker_threads;

 private:
  explicit Deployment(Options options) : options_(std::move(options)) {}

  Options options_;
  std::string kv_path_;
  /// Deployment key material (PKG master secret, MAC keys, session ids)
  /// comes from a fixed seed: it is configuration, not workload input.
  mws::util::DeterministicRandom rng_{0x4d5753};
  mws::obs::Registry mws_registry_;
  mws::obs::Registry pkg_registry_;
  std::unique_ptr<mws::store::KvStore> kv_;
  std::unique_ptr<TimingTable> timing_table_;
  std::unique_ptr<mws::mws::MwsService> mws_;
  std::unique_ptr<mws::pkg::PkgService> pkg_;
  mws::wire::InProcessTransport mws_backend_;
  mws::wire::InProcessTransport pkg_backend_;
  mws::wire::InProcessTransport mws_timed_;
  mws::wire::InProcessTransport pkg_timed_;
  std::vector<Meter> meters_;
  // Servers last: they are destroyed (and joined) before what they call.
  std::unique_ptr<mws::wire::TcpServer> mws_server_;
  std::unique_ptr<mws::wire::TcpServer> pkg_server_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DEPLOYMENT_H_
