#ifndef MWSIBE_STORE_POLICY_DB_H_
#define MWSIBE_STORE_POLICY_DB_H_

#include <map>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/store/table.h"

namespace mws::store {

/// One row of the paper's Table 1: Identity – Attribute – Attribute ID.
/// Each grant gets a unique AID even when the same attribute is granted
/// to several identities (IDRC1/A1 -> 1 but IDRC2/A1 -> 3 in the paper).
struct PolicyRow {
  std::string identity;
  std::string attribute;
  uint64_t aid = 0;
  /// 0 for operator-created grants; otherwise the sequence number of the
  /// policy expression that materialized this row (see GrantExpression).
  uint64_t origin = 0;

  friend bool operator==(const PolicyRow& a, const PolicyRow& b) {
    return a.identity == b.identity && a.attribute == b.attribute &&
           a.aid == b.aid && a.origin == b.origin;
  }
};

/// The Policy Database (PD component, Fig. 3): identity<->attribute
/// mappings plus the AID indirection that hides attribute strings from
/// receiving clients.
///
/// Thread-safe on top of a thread-safe Table: mutations (Grant/Revoke
/// and the expression variants) serialize behind one mutex so the AID
/// and expression counters never hand out duplicates; range reads go
/// through the in-memory ordered index under a shared lock (one
/// O(log n + k) walk, not a prefix scan over every KvStore shard), point
/// reads straight to the table. Concurrent Grant calls for the same
/// (identity, attribute) are resolved to exactly one row — losers get
/// AlreadyExists, same as the sequential API.
///
/// The table stays the source of truth: the index holds no data the
/// table doesn't, is rebuilt from it on construction, and is only
/// updated after the table mutation succeeded.
class PolicyDb {
 public:
  /// Borrows `table`; the table must outlive the PolicyDb. Hydrates the
  /// index from existing rows.
  explicit PolicyDb(Table* table);

  /// Grants `identity` access to `attribute`; returns the fresh AID.
  /// AlreadyExists if the grant is present. `origin` tags rows
  /// materialized from a policy expression (0 = manual grant).
  util::Result<uint64_t> Grant(const std::string& identity,
                               const std::string& attribute,
                               uint64_t origin = 0);

  /// Removes a grant (and its AID row). NotFound if absent.
  util::Status Revoke(const std::string& identity,
                      const std::string& attribute);

  /// True if the grant exists.
  bool HasAccess(const std::string& identity,
                 const std::string& attribute) const;

  /// All grants for one identity, in attribute order.
  util::Result<std::vector<PolicyRow>> RowsForIdentity(
      const std::string& identity) const;

  /// The row for one (identity, attribute) grant. NotFound if absent.
  util::Result<PolicyRow> RowFor(const std::string& identity,
                                 const std::string& attribute) const;

  /// Resolves an AID back to its row: one table point lookup. NotFound
  /// for revoked/unknown AIDs. (The PKG never calls this: it resolves
  /// AIDs from the MWS-issued ticket.)
  util::Result<PolicyRow> RowForAid(uint64_t aid) const;

  /// The full table, ordered by identity then attribute — exactly the
  /// paper's Table 1.
  util::Result<std::vector<PolicyRow>> AllRows() const;

  // --- Policy expressions (§VIII XACML-style enhancement) ---

  /// Attaches a policy expression (already validated by the caller) to
  /// `identity`; returns its sequence number.
  util::Result<uint64_t> GrantExpression(const std::string& identity,
                                         const std::string& expression);

  /// Removes an expression and every grant it materialized.
  /// NotFound if the expression does not exist.
  util::Status RevokeExpression(const std::string& identity, uint64_t seq);

  /// All (seq, expression) pairs attached to `identity`.
  util::Result<std::vector<std::pair<uint64_t, std::string>>>
  ExpressionsForIdentity(const std::string& identity) const;

  // --- Retained reference paths (equivalence tests, E20 baseline) ---

  /// RowsForIdentity via a table prefix scan, the pre-index read path.
  util::Result<std::vector<PolicyRow>> RowsForIdentityScan(
      const std::string& identity) const;
  /// AllRows via a table prefix scan.
  util::Result<std::vector<PolicyRow>> AllRowsScan() const;
  /// ExpressionsForIdentity via a table prefix scan.
  util::Result<std::vector<std::pair<uint64_t, std::string>>>
  ExpressionsForIdentityScan(const std::string& identity) const;

 private:
  /// Core of Revoke: deletes the grant row, drops the index entry, then
  /// deletes the AID row. Pre: write_mutex_ held.
  util::Status RevokeLocked(const std::string& identity,
                            const std::string& attribute);

  /// Compact index payload; identity/attribute live in the map key.
  struct IndexEntry {
    uint64_t aid = 0;
    uint64_t origin = 0;
  };

  /// Scans the table and (re)builds grants_/exprs_. A row that fails to
  /// decode is skipped, so the index never serves it; production reads
  /// never run the scan paths, so nothing else reports it.
  void HydrateIndex();

  Table* table_;
  /// Serializes mutations (counter read-modify-write + row writes).
  std::mutex write_mutex_;

  /// Ordered secondary indexes; shared lock for readers, exclusive for
  /// the (already write_mutex_-serialized) mutators.
  mutable std::shared_mutex index_mutex_;
  std::map<std::pair<std::string, std::string>, IndexEntry> grants_;
  std::map<std::pair<std::string, uint64_t>, std::string> exprs_;
};

}  // namespace mws::store

#endif  // MWSIBE_STORE_POLICY_DB_H_
