#include "src/mws/mms.h"

#include <algorithm>
#include <set>

#include "src/mws/policy_expr.h"

namespace mws::mws {

util::Result<std::vector<store::PolicyRow>> MessageManagementSystem::GrantsFor(
    const std::string& rc_identity) const {
  MWS_ASSIGN_OR_RETURN(std::vector<store::PolicyRow> rows,
                       policies_->RowsForIdentity(rc_identity));
  MWS_ASSIGN_OR_RETURN(auto expressions,
                       policies_->ExpressionsForIdentity(rc_identity));
  if (expressions.empty()) return rows;

  // Materialize expression matches against the attributes actually in
  // the warehouse that have no concrete row yet.
  std::set<std::string> granted;
  for (const store::PolicyRow& row : rows) granted.insert(row.attribute);
  for (const std::string& attribute : messages_->DistinctAttributes()) {
    if (granted.count(attribute)) continue;
    for (const auto& [seq, text] : expressions) {
      auto expr = PolicyExpression::Parse(text);
      if (!expr.ok()) continue;  // stored text validated at grant time
      if (!expr->Matches(attribute)) continue;
      auto aid = policies_->Grant(rc_identity, attribute, seq);
      if (aid.ok()) {
        rows.push_back(store::PolicyRow{rc_identity, attribute,
                                        aid.value(), seq});
      } else if (aid.status().IsAlreadyExists()) {
        // A concurrent retrieval materialized the same match first; use
        // the row it created.
        MWS_ASSIGN_OR_RETURN(store::PolicyRow row,
                             policies_->RowFor(rc_identity, attribute));
        rows.push_back(std::move(row));
      } else {
        return aid.status();
      }
      granted.insert(attribute);
      break;
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const store::PolicyRow& a, const store::PolicyRow& b) {
              return a.attribute < b.attribute;
            });
  return rows;
}

util::Result<MessageManagementSystem::Chunk>
MessageManagementSystem::FetchChunkFor(const std::string& rc_identity,
                                       uint64_t after_id, int64_t from_micros,
                                       int64_t to_micros,
                                       uint32_t max_messages) const {
  // Read the watermark before listing any index (GrantsFor lists the
  // attributes): every id at or below it finished writing before the
  // listings began, so none can be missing from them. Ids above it wait
  // for a later poll, so the cursor never passes an id still in flight.
  const uint64_t visible = messages_->visible_through();
  MWS_ASSIGN_OR_RETURN(std::vector<store::PolicyRow> grants,
                       GrantsFor(rc_identity));
  const bool time_filtered = from_micros != 0 || to_micros != 0;

  // Rank ids across every grant before touching any message value. A
  // message has exactly one attribute and grants are unique per
  // attribute, so each id maps to exactly one AID.
  std::vector<std::pair<uint64_t, size_t>> ids;  // (message id, grant index)
  for (size_t g = 0; g < grants.size(); ++g) {
    std::vector<uint64_t> batch =
        time_filtered
            ? messages_->IdsByAttributeInTimeRange(grants[g].attribute,
                                                   from_micros, to_micros)
            : messages_->IdsByAttributeAfter(grants[g].attribute, after_id);
    for (uint64_t id : batch) {
      if (id > after_id && id <= visible) ids.emplace_back(id, g);
    }
  }
  std::sort(ids.begin(), ids.end());

  Chunk chunk;
  chunk.next_after_id = after_id;
  const size_t take = std::min<size_t>(ids.size(), max_messages);
  chunk.has_more = ids.size() > take;
  chunk.messages.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    MWS_ASSIGN_OR_RETURN(store::StoredMessage m,
                         messages_->Get(ids[i].first));
    wire::RetrievedMessage r;
    r.message_id = m.id;
    r.u = std::move(m.u);
    r.ciphertext = std::move(m.ciphertext);
    r.aid = grants[ids[i].second].aid;
    r.nonce = std::move(m.nonce);
    chunk.messages.push_back(std::move(r));
    chunk.next_after_id = ids[i].first;
  }
  return chunk;
}

}  // namespace mws::mws
