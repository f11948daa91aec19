#ifndef MWSIBE_MWS_MMS_H_
#define MWSIBE_MWS_MMS_H_

#include <string>
#include <vector>

#include "src/store/message_db.h"
#include "src/store/policy_db.h"
#include "src/wire/messages.h"

namespace mws::mws {

/// Message Management System (Fig. 3): "the core of the MWS-RC as it has
/// access to the Policy and Message Databases." Resolves an RC's grants
/// to attributes, fetches matching records, and rewrites attributes to
/// AIDs before anything leaves the warehouse. FetchChunkFor is its one
/// fetch: it serves both mws.retrieve (unbounded) and
/// mws.retrieve_chunk.
///
/// Grants come from two sources: concrete operator grants (Table 1 rows)
/// and policy expressions (§VIII XACML-style enhancement). Expression
/// matches are materialized into concrete rows on first use, so the AID
/// indirection and the PKG ticket path are identical for both.
class MessageManagementSystem {
 public:
  MessageManagementSystem(const store::MessageDb* messages,
                          store::PolicyDb* policies)
      : messages_(messages), policies_(policies) {}

  /// Grants currently held by `rc_identity` — concrete rows plus rows
  /// freshly materialized from the RC's policy expressions. Consulted
  /// per retrieval so revocation applies to the very next fetch.
  util::Result<std::vector<store::PolicyRow>> GrantsFor(
      const std::string& rc_identity) const;

  /// At most `max_messages` records visible to `rc_identity`.
  struct Chunk {
    std::vector<wire::RetrievedMessage> messages;
    /// More matching records exist beyond this chunk.
    bool has_more = false;
    /// Pass as `after_id` to fetch the next chunk; equals the request's
    /// after_id when the chunk is empty. Never passes the watermark.
    uint64_t next_after_id = 0;
  };

  /// The one fetch: records visible to `rc_identity` with id > after_id
  /// and at most MessageDb::visible_through() (read first), in id order,
  /// attribute field replaced by the RC's AID for that attribute. A
  /// non-empty [from_micros, to_micros) window additionally restricts
  /// results to deposit timestamps in that range (billing-period
  /// queries). Ranks the *ids* matching the RC's grants
  /// first (a key-only index walk — no ciphertext is materialized for
  /// messages beyond the chunk), then fetches only the `max_messages`
  /// smallest; UINT32_MAX serves the whole backlog in one chunk.
  /// Iterating until !has_more with `after_id` threaded through yields
  /// exactly the records of one unbounded call, in the same order. Pre:
  /// max_messages > 0.
  util::Result<Chunk> FetchChunkFor(const std::string& rc_identity,
                                    uint64_t after_id, int64_t from_micros,
                                    int64_t to_micros,
                                    uint32_t max_messages) const;

 private:
  const store::MessageDb* messages_;
  store::PolicyDb* policies_;
};

}  // namespace mws::mws

#endif  // MWSIBE_MWS_MMS_H_
