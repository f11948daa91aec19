#include "src/store/policy_db.h"

#include <cinttypes>
#include <cstdio>

#include "src/util/serde.h"

namespace mws::store {

namespace {

constexpr char kNextAidKey[] = "p.next";
constexpr char kNextExprKey[] = "e.next";

std::string GrantKey(const std::string& identity,
                     const std::string& attribute) {
  return "p/" + identity + "/" + attribute;
}

std::string AidKey(uint64_t aid) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "a/%016" PRIx64, aid);
  return buf;
}

util::Bytes EncodeRow(const PolicyRow& row) {
  util::Writer w;
  w.PutString(row.identity);
  w.PutString(row.attribute);
  w.PutU64(row.aid);
  w.PutU64(row.origin);
  return w.Take();
}

std::string ExprKey(const std::string& identity, uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/%016" PRIx64, seq);
  return "e/" + identity + buf;
}

util::Result<PolicyRow> DecodeRow(const util::Bytes& data) {
  util::Reader r(data);
  PolicyRow row;
  r.GetString(&row.identity);
  r.GetString(&row.attribute);
  r.GetU64(&row.aid);
  r.GetU64(&row.origin);
  if (!r.Done()) return util::Status::Corruption("malformed policy row");
  return row;
}

}  // namespace

PolicyDb::PolicyDb(Table* table) : table_(table) { HydrateIndex(); }

void PolicyDb::HydrateIndex() {
  std::unique_lock<std::shared_mutex> index_lock(index_mutex_);
  grants_.clear();
  exprs_.clear();
  for (const auto& [key, value] : table_->Scan("p/")) {
    auto row = DecodeRow(value);
    if (!row.ok()) continue;  // a corrupt row is never served
    grants_[{row->identity, row->attribute}] =
        IndexEntry{row->aid, row->origin};
  }
  for (const auto& [key, value] : table_->Scan("e/")) {
    // Key layout: "e/" + identity + "/" + 16-hex-digit sequence.
    size_t slash = key.rfind('/');
    if (slash == std::string::npos || slash < 2) continue;
    uint64_t seq = std::strtoull(key.substr(slash + 1).c_str(), nullptr, 16);
    std::string identity = key.substr(2, slash - 2);
    exprs_[{std::move(identity), seq}] = util::StringFromBytes(value);
  }
}

// --- Mutations ---

util::Result<uint64_t> PolicyDb::Grant(const std::string& identity,
                                       const std::string& attribute,
                                       uint64_t origin) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  const std::string key = GrantKey(identity, attribute);
  if (table_->Contains(key)) {
    return util::Status::AlreadyExists("grant already present");
  }
  uint64_t aid = 1;
  auto counter = table_->Get(kNextAidKey);
  if (counter.ok()) {
    util::Reader r(counter.value());
    if (!r.GetU64(&aid) || !r.Done()) {
      return util::Status::Corruption("bad AID counter");
    }
  }
  PolicyRow row{identity, attribute, aid, origin};
  MWS_RETURN_IF_ERROR(table_->Put(key, EncodeRow(row)));
  // Index right after the grant row lands so a failure of the remaining
  // writes leaves index and table agreeing on row visibility.
  {
    std::unique_lock<std::shared_mutex> index_lock(index_mutex_);
    grants_[{identity, attribute}] = IndexEntry{aid, origin};
  }
  MWS_RETURN_IF_ERROR(table_->Put(AidKey(aid), EncodeRow(row)));
  util::Writer w;
  w.PutU64(aid + 1);
  MWS_RETURN_IF_ERROR(table_->Put(kNextAidKey, w.Take()));
  return aid;
}

util::Status PolicyDb::Revoke(const std::string& identity,
                              const std::string& attribute) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  return RevokeLocked(identity, attribute);
}

util::Status PolicyDb::RevokeLocked(const std::string& identity,
                                    const std::string& attribute) {
  const std::string key = GrantKey(identity, attribute);
  auto raw = table_->Get(key);
  if (!raw.ok()) return util::Status::NotFound("grant not present");
  MWS_ASSIGN_OR_RETURN(PolicyRow row, DecodeRow(raw.value()));
  MWS_RETURN_IF_ERROR(table_->Delete(key));
  // Fail-closed alongside the grant row: even if the AID-row delete
  // below fails, the index may not keep serving the grant — the PKG
  // would otherwise keep issuing keys for a revoked AID.
  {
    std::unique_lock<std::shared_mutex> index_lock(index_mutex_);
    grants_.erase({identity, attribute});
  }
  return table_->Delete(AidKey(row.aid));
}

// --- Reads ---

bool PolicyDb::HasAccess(const std::string& identity,
                         const std::string& attribute) const {
  return table_->Contains(GrantKey(identity, attribute));
}

util::Result<std::vector<PolicyRow>> PolicyDb::RowsForIdentity(
    const std::string& identity) const {
  std::vector<PolicyRow> out;
  std::shared_lock<std::shared_mutex> index_lock(index_mutex_);
  for (auto it = grants_.lower_bound({identity, std::string()});
       it != grants_.end() && it->first.first == identity; ++it) {
    out.push_back(PolicyRow{identity, it->first.second, it->second.aid,
                            it->second.origin});
  }
  return out;
}

util::Result<std::vector<PolicyRow>> PolicyDb::RowsForIdentityScan(
    const std::string& identity) const {
  std::vector<PolicyRow> out;
  for (const auto& [key, value] : table_->Scan("p/" + identity + "/")) {
    MWS_ASSIGN_OR_RETURN(PolicyRow row, DecodeRow(value));
    out.push_back(std::move(row));
  }
  return out;
}

util::Result<PolicyRow> PolicyDb::RowForAid(uint64_t aid) const {
  MWS_ASSIGN_OR_RETURN(util::Bytes raw, table_->Get(AidKey(aid)));
  return DecodeRow(raw);
}

util::Result<PolicyRow> PolicyDb::RowFor(const std::string& identity,
                                         const std::string& attribute) const {
  MWS_ASSIGN_OR_RETURN(util::Bytes raw,
                       table_->Get(GrantKey(identity, attribute)));
  return DecodeRow(raw);
}

util::Result<std::vector<PolicyRow>> PolicyDb::AllRows() const {
  std::vector<PolicyRow> out;
  std::shared_lock<std::shared_mutex> index_lock(index_mutex_);
  out.reserve(grants_.size());
  for (const auto& [key, entry] : grants_) {
    out.push_back(PolicyRow{key.first, key.second, entry.aid, entry.origin});
  }
  return out;
}

util::Result<std::vector<PolicyRow>> PolicyDb::AllRowsScan() const {
  std::vector<PolicyRow> out;
  for (const auto& [key, value] : table_->Scan("p/")) {
    MWS_ASSIGN_OR_RETURN(PolicyRow row, DecodeRow(value));
    out.push_back(std::move(row));
  }
  return out;
}

// --- Policy expressions ---

util::Result<uint64_t> PolicyDb::GrantExpression(
    const std::string& identity, const std::string& expression) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  uint64_t seq = 1;
  auto counter = table_->Get(kNextExprKey);
  if (counter.ok()) {
    util::Reader r(counter.value());
    if (!r.GetU64(&seq) || !r.Done()) {
      return util::Status::Corruption("bad expression counter");
    }
  }
  MWS_RETURN_IF_ERROR(table_->Put(ExprKey(identity, seq),
                                  util::BytesFromString(expression)));
  util::Writer w;
  w.PutU64(seq + 1);
  MWS_RETURN_IF_ERROR(table_->Put(kNextExprKey, w.Take()));
  std::unique_lock<std::shared_mutex> index_lock(index_mutex_);
  exprs_[{identity, seq}] = expression;
  return seq;
}

util::Status PolicyDb::RevokeExpression(const std::string& identity,
                                        uint64_t seq) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  const std::string key = ExprKey(identity, seq);
  if (!table_->Contains(key)) {
    return util::Status::NotFound("expression not present");
  }
  MWS_RETURN_IF_ERROR(table_->Delete(key));
  {
    std::unique_lock<std::shared_mutex> index_lock(index_mutex_);
    exprs_.erase({identity, seq});
  }
  // Revoke every row this expression materialized.
  MWS_ASSIGN_OR_RETURN(std::vector<PolicyRow> rows,
                       RowsForIdentity(identity));
  for (const PolicyRow& row : rows) {
    if (row.origin == seq) {
      MWS_RETURN_IF_ERROR(RevokeLocked(identity, row.attribute));
    }
  }
  return util::Status::Ok();
}

util::Result<std::vector<std::pair<uint64_t, std::string>>>
PolicyDb::ExpressionsForIdentity(const std::string& identity) const {
  std::vector<std::pair<uint64_t, std::string>> out;
  std::shared_lock<std::shared_mutex> index_lock(index_mutex_);
  for (auto it = exprs_.lower_bound({identity, 0});
       it != exprs_.end() && it->first.first == identity; ++it) {
    out.emplace_back(it->first.second, it->second);
  }
  return out;
}

util::Result<std::vector<std::pair<uint64_t, std::string>>>
PolicyDb::ExpressionsForIdentityScan(const std::string& identity) const {
  std::vector<std::pair<uint64_t, std::string>> out;
  const std::string prefix = "e/" + identity + "/";
  for (const auto& [key, value] : table_->Scan(prefix)) {
    uint64_t seq =
        std::strtoull(key.substr(prefix.size()).c_str(), nullptr, 16);
    out.emplace_back(seq, util::StringFromBytes(value));
  }
  return out;
}

}  // namespace mws::store
