#ifndef MWSIBE_SIM_SCENARIO_H_
#define MWSIBE_SIM_SCENARIO_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/client/receiving_client.h"
#include "src/client/smart_device.h"
#include "src/math/params.h"
#include "src/mws/mws_service.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pkg/pkg_service.h"
#include "src/sim/workload.h"
#include "src/store/faulty_table.h"
#include "src/store/kvstore.h"
#include "src/util/clock.h"
#include "src/util/fault.h"
#include "src/wire/faulty_transport.h"
#include "src/wire/retry.h"

namespace mws::sim {

/// The paper's Fig. 1 world, fully wired: a fleet of electric/water/gas
/// smart meters at the "Baytower" apartment complex, the MWS, the PKG,
/// and three utility companies —
///
///   * C-Services            (full-service: electric + water + gas)
///   * Electric & Gas Company (electric + gas)
///   * Water & Resources Co.  (water only)
///
/// Everything — registration, policy grants, transport wiring, parameter
/// distribution — is performed through the public APIs, so the scenario
/// doubles as an integration fixture for tests, examples, and benches.
class UtilityScenario {
 public:
  struct Options {
    math::ParamPreset preset = math::ParamPreset::kSmall;
    crypto::CipherKind cipher = crypto::CipherKind::kDes;  // protocol cipher
    crypto::CipherKind dem = crypto::CipherKind::kDes;     // message DEM
    size_t devices_per_class = 1;
    wire::NetworkModel network = wire::NetworkModel::Loopback();
    uint64_t seed = 2010;
    /// RSA modulus bits for RC keypairs (small keeps fixtures fast).
    size_t rsa_bits = 768;
    /// Wire the owned obs::Registry/Tracer into every component and
    /// register the STATS endpoint. Off lets benches measure the
    /// uninstrumented baseline (E16).
    bool metrics = true;

    /// Failure-domain wiring (the E15 resilience experiments). When
    /// `enable` is set the clients talk through
    /// FaultyTransport -> RetryingTransport and the MWS stores through a
    /// FaultyTable, all fed by one seeded FaultInjector. The rate rules
    /// below are armed only *after* Create() finishes, so registration
    /// traffic is never faulted; arbitrary extra rules can be armed
    /// through fault_injector().
    struct Resilience {
      bool enable = false;
      /// P(table write applies but reports failure) — torn store write.
      double store_fault_rate = 0.0;
      /// P(transport request lost before the handler runs).
      double request_loss_rate = 0.0;
      /// P(handler runs but the response is dropped) — the fault that
      /// exercises deposit dedup.
      double response_drop_rate = 0.0;
      uint64_t fault_seed = 4242;
      wire::RetryOptions retry;
    };
    Resilience resilience{};
  };

  static constexpr char kCServices[] = "C-SERVICES";
  static constexpr char kElectricGas[] = "ELECTRIC-GAS-CO";
  static constexpr char kWaterResources[] = "WATER-RESOURCES-CO";

  static constexpr char kElectricAttr[] = "ELECTRIC-BAYTOWER-SV-CA";
  static constexpr char kWaterAttr[] = "WATER-BAYTOWER-SV-CA";
  static constexpr char kGasAttr[] = "GAS-BAYTOWER-SV-CA";

  static util::Result<std::unique_ptr<UtilityScenario>> Create(
      const Options& options);

  /// The attribute a device of `klass` encrypts to.
  static std::string AttributeFor(MeterClass klass);

  /// Deposits `per_device` fresh readings from every device. Returns the
  /// number of messages deposited.
  util::Result<size_t> DepositReadings(size_t per_device);

  /// Like DepositReadings, but each device buffers its `per_device`
  /// readings and ships them as one DepositMany batch (the E17 bulk
  /// path). Ids and ciphertexts are bit-identical to the single-shot
  /// loop; deposit timestamps reflect the drain time, as a real
  /// store-and-forward device would stamp them.
  util::Result<size_t> DepositReadingsBatch(size_t per_device);

  /// Runs the full retrieve pipeline for one company.
  util::Result<std::vector<client::ReceivedMessage>> RetrieveFor(
      const std::string& company, uint64_t after_id = 0);

  /// The bulk pipeline for one company: chunked retrieval + DecryptAll
  /// (FetchAndDecryptBulk). Same result set as RetrieveFor.
  util::Result<std::vector<client::ReceivedMessage>> RetrieveBulkFor(
      const std::string& company, uint64_t after_id = 0,
      uint32_t chunk_size = 256);

  // --- Component access ---
  mws::MwsService& mws() { return *mws_; }
  pkg::PkgService& pkg() { return *pkg_; }
  wire::InProcessTransport& transport() { return transport_; }
  /// The transport the clients were built on: the retry/fault chain when
  /// resilience is enabled, the bare in-process transport otherwise.
  wire::Transport& client_transport() {
    return retrying_transport_
               ? static_cast<wire::Transport&>(*retrying_transport_)
               : transport_;
  }
  // Resilience chain (null unless options.resilience.enable).
  util::FaultInjector* fault_injector() { return fault_injector_.get(); }
  wire::FaultyTransport* faulty_transport() { return faulty_transport_.get(); }
  wire::RetryingTransport* retrying_transport() {
    return retrying_transport_.get();
  }
  store::FaultyTable* faulty_table() { return faulty_table_.get(); }
  /// Observability sinks; null when options.metrics is false.
  obs::Registry* metrics() { return options_.metrics ? &metrics_ : nullptr; }
  obs::Tracer* tracer() { return options_.metrics ? &tracer_ : nullptr; }
  util::SimulatedClock& clock() { return clock_; }
  util::RandomSource& rng() { return rng_; }
  WorkloadGenerator& workload() { return workload_; }
  const Options& options() const { return options_; }

  std::vector<client::SmartDevice>& devices() { return devices_; }
  client::ReceivingClient& company(const std::string& name);
  const std::vector<std::string>& company_names() const {
    return company_names_;
  }

 private:
  explicit UtilityScenario(const Options& options)
      : options_(options),
        clock_(/*start_micros=*/1'267'401'600'000'000),  // 2010-03-01
        rng_(options.seed),
        workload_({.seed = options.seed}),
        tracer_(&clock_, /*capacity=*/256),
        transport_(options.network) {}

  Options options_;
  util::SimulatedClock clock_;
  util::DeterministicRandom rng_;
  WorkloadGenerator workload_;
  // Declared before every component that borrows them.
  obs::Registry metrics_;
  obs::Tracer tracer_;
  wire::InProcessTransport transport_;
  // Resilience chain, wrapped objects declared before their wrappers so
  // raw borrows outlive the borrowers.
  std::unique_ptr<util::FaultInjector> fault_injector_;
  std::unique_ptr<wire::FaultyTransport> faulty_transport_;
  std::unique_ptr<wire::RetryingTransport> retrying_transport_;
  std::unique_ptr<store::KvStore> storage_;
  std::unique_ptr<store::FaultyTable> faulty_table_;
  std::unique_ptr<mws::MwsService> mws_;
  std::unique_ptr<pkg::PkgService> pkg_;
  std::vector<client::SmartDevice> devices_;
  std::map<std::string, std::unique_ptr<client::ReceivingClient>> companies_;
  std::vector<std::string> company_names_;
};

}  // namespace mws::sim

#endif  // MWSIBE_SIM_SCENARIO_H_
