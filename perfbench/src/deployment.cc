#include "perfbench/src/deployment.h"

#include <filesystem>

#include "src/math/params.h"
#include "src/wire/auth.h"
#include "src/wire/stats.h"

namespace perfbench {
namespace {

const std::vector<std::string> kMwsEndpoints = {
    "mws.deposit",       "mws.auth",           "mws.retrieve",
    "mws.deposit_batch", "mws.retrieve_chunk", "obs.stats"};
const std::vector<std::string> kPkgEndpoints = {"pkg.auth", "pkg.extract",
                                                "pkg.extract_batch",
                                                "obs.stats"};

}  // namespace

std::string AttributeFor(mws::sim::MeterClass klass) {
  switch (klass) {
    case mws::sim::MeterClass::kElectric:
      return "ELECTRIC-BAYTOWER-SV-CA";
    case mws::sim::MeterClass::kWater:
      return "WATER-BAYTOWER-SV-CA";
    case mws::sim::MeterClass::kGas:
      return "GAS-BAYTOWER-SV-CA";
  }
  return "";
}

Connection::Connection(uint16_t mws_port, uint16_t pkg_port, Ledger* ledger)
    : mws_("127.0.0.1", mws_port),
      pkg_("127.0.0.1", pkg_port),
      mux_(&mws_, &pkg_) {
  if (ledger != nullptr) {
    timing_ = std::make_unique<TimingTransport>(&mux_, ledger);
  }
}

mws::util::Result<mws::util::Bytes> Connection::Mux::Call(
    const std::string& endpoint, const mws::util::Bytes& request) {
  if (endpoint.rfind("pkg.", 0) == 0) return pkg_->Call(endpoint, request);
  return mws_->Call(endpoint, request);
}

const mws::crypto::RsaKeyPair& Deployment::RcKeys() {
  // The RC's key pair is provisioned once; a fixed seed keeps the prime
  // search (and so its cost) identical in every run.
  static const mws::crypto::RsaKeyPair keys = [] {
    mws::util::DeterministicRandom rng(0x5253);
    return mws::crypto::RsaGenerateKeyPair(kRsaBits, rng).value();
  }();
  return keys;
}

void Deployment::InitProcess() {
  mws::math::GetParams(kPreset);
  RcKeys();
}

const mws::util::Clock* Deployment::clock() const {
  return &mws::util::SystemClock::Instance();
}

mws::util::Result<std::unique_ptr<Deployment>> Deployment::Start(
    const Options& options) {
  std::unique_ptr<Deployment> d(new Deployment(options));
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) return mws::util::Status::IoError("cannot create " + options.dir);
  d->kv_path_ = options.dir + "/mws.kv";
  mws::store::KvStore::RemoveFiles(d->kv_path_);

  MWS_ASSIGN_OR_RETURN(
      d->kv_, mws::store::KvStore::Open(
                  {.path = d->kv_path_,
                   .metrics = &d->mws_registry_,
                   .compact_threshold_bytes = kCompactThresholdBytes}));
  mws::store::Table* table = d->kv_.get();
  if (options.ledger != nullptr) {
    d->timing_table_ = std::make_unique<TimingTable>(table, options.ledger);
    table = d->timing_table_.get();
  }

  const mws::util::Clock* clock = d->clock();
  mws::util::Bytes service_key = d->rng_.Generate(32);
  mws::mws::MwsOptions mws_options;
  mws_options.metrics = &d->mws_registry_;
  d->mws_ = std::make_unique<mws::mws::MwsService>(table, service_key, clock,
                                                   &d->rng_, mws_options);
  mws::pkg::PkgOptions pkg_options;
  pkg_options.metrics = &d->pkg_registry_;
  d->pkg_ = std::make_unique<mws::pkg::PkgService>(
      mws::math::GetParams(kPreset), service_key, clock, &d->rng_,
      pkg_options);

  d->mws_->RegisterEndpoints(&d->mws_backend_);
  d->pkg_->RegisterEndpoints(&d->pkg_backend_);
  mws::wire::RegisterStatsEndpoint(&d->mws_backend_, &d->mws_registry_);
  mws::wire::RegisterStatsEndpoint(&d->pkg_backend_, &d->pkg_registry_);
  mws::wire::InProcessTransport* mws_served = &d->mws_backend_;
  mws::wire::InProcessTransport* pkg_served = &d->pkg_backend_;
  if (options.ledger != nullptr) {
    RegisterTimingHandlers(&d->mws_backend_, kMwsEndpoints, &d->mws_timed_,
                           options.ledger);
    RegisterTimingHandlers(&d->pkg_backend_, kPkgEndpoints, &d->pkg_timed_,
                           options.ledger);
    mws_served = &d->mws_timed_;
    pkg_served = &d->pkg_timed_;
  }

  // The Fig. 1 world: meters of every class, and C-Services granted all
  // three attributes.
  for (size_t i = 0; i < options.meters; ++i) {
    Meter meter;
    meter.klass = static_cast<mws::sim::MeterClass>(i % 3);
    meter.id = mws::sim::DeviceId(meter.klass, i / 3);
    meter.attribute = AttributeFor(meter.klass);
    meter.mac_key = d->rng_.Generate(32);
    MWS_RETURN_IF_ERROR(d->mws_->RegisterDevice(meter.id, meter.mac_key));
    d->meters_.push_back(std::move(meter));
  }
  MWS_RETURN_IF_ERROR(d->mws_->RegisterReceivingClient(
      kCServices, mws::wire::HashPassword(kCServicesPassword),
      mws::crypto::SerializeRsaPublicKey(RcKeys().public_key)));
  for (auto klass : {mws::sim::MeterClass::kElectric,
                     mws::sim::MeterClass::kWater, mws::sim::MeterClass::kGas}) {
    MWS_RETURN_IF_ERROR(
        d->mws_->GrantAttribute(kCServices, AttributeFor(klass)).status());
  }

  mws::wire::TcpServer::Options mws_server_options;
  mws_server_options.metrics = &d->mws_registry_;
  MWS_ASSIGN_OR_RETURN(d->mws_server_, mws::wire::TcpServer::Start(
                                           mws_served, 0, mws_server_options));
  mws::wire::TcpServer::Options pkg_server_options;
  pkg_server_options.metrics = &d->pkg_registry_;
  MWS_ASSIGN_OR_RETURN(d->pkg_server_, mws::wire::TcpServer::Start(
                                           pkg_served, 0, pkg_server_options));
  return d;
}

Deployment::~Deployment() {
  if (mws_server_) mws_server_->Shutdown();
  if (pkg_server_) pkg_server_->Shutdown();
  mws_server_.reset();
  pkg_server_.reset();
  pkg_.reset();
  mws_.reset();
  timing_table_.reset();
  kv_.reset();
  std::error_code ec;
  std::filesystem::remove_all(options_.dir, ec);
}

std::unique_ptr<Connection> Deployment::Connect() const {
  return std::make_unique<Connection>(mws_server_->port(), pkg_server_->port(),
                                      options_.ledger);
}

uint64_t Deployment::DiskBytes() {
  kv_->Flush();
  uint64_t total = 0;
  for (const std::string& path :
       {kv_path_, mws::store::KvStore::CheckpointPath(kv_path_)}) {
    std::error_code ec;
    uint64_t size = std::filesystem::file_size(path, ec);
    if (!ec) total += size;
  }
  return total;
}

uint64_t Deployment::ShedRequests() const {
  return mws_server_->shed_requests() + pkg_server_->shed_requests();
}

}  // namespace perfbench
