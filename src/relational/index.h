/// \file index.h
/// Persistent secondary indexes on stored relations.
///
/// A TupleIndex groups a relation's tuples by their projection onto a fixed
/// subset of argument positions (the "key"). Compiled update plans register
/// one index per (relation, bound-position-set) they probe, for proper,
/// non-empty position sets only: a key over every position is answered by
/// the tuple store (Relation::Contains), which is already a hash set, and an
/// empty key by a scan, so neither would gain from a duplicate. The owning
/// Relation maintains every registered index incrementally — O(1) expected
/// per Insert/Erase — so a join's build side is never reconstructed per
/// update. This is what turns the per-update cost of the hot Apply path from
/// "rehash the whole relation" into "probe the rows the request touches",
/// matching the paper's promise that each update is answered by a fixed
/// FO-definable delta.
///
/// Buckets are small vectors: key sets are chosen by the planner to be
/// selective (request parameters pin them), so the per-key fan-out is the
/// relation's local degree. Removal does a linear scan of the bucket and a
/// swap-pop, which is O(degree) worst case and O(1) in practice.

#ifndef DYNFO_RELATIONAL_INDEX_H_
#define DYNFO_RELATIONAL_INDEX_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "relational/tuple.h"

namespace dynfo::relational {

class TupleIndex {
 public:
  /// `positions` are distinct argument positions, sorted ascending; keys are
  /// projections of tuples onto these positions in this order.
  explicit TupleIndex(std::vector<int> positions);

  const std::vector<int>& positions() const { return positions_; }

  /// Projects a stored tuple onto the key positions.
  Tuple KeyFor(const Tuple& t) const;

  /// The tuples whose projection equals `key`, or nullptr when none.
  const std::vector<Tuple>* Find(const Tuple& key) const {
    auto it = buckets_.find(key);
    return it == buckets_.end() ? nullptr : &it->second;
  }

  /// Incremental maintenance, driven by the owning Relation.
  void Add(const Tuple& t);
  void Remove(const Tuple& t);
  void Clear();

  size_t num_keys() const { return buckets_.size(); }
  size_t num_entries() const { return entries_; }

  /// Deliberately damages the index — removes, duplicates, or mutates one
  /// entry chosen by `rng` — so consistency checks can be tested against
  /// realistic corruption (pair with core::FaultInjector::rng()). Returns a
  /// description of the damage, or "" if the index is empty.
  std::string CorruptForTest(core::Rng* rng);

 private:
  std::vector<int> positions_;
  std::unordered_map<Tuple, std::vector<Tuple>, TupleHash> buckets_;
  size_t entries_ = 0;
};

}  // namespace dynfo::relational

#endif  // DYNFO_RELATIONAL_INDEX_H_
