// ClauseDb: the paper's external "clauseDB" store of strengthening clauses
// (Section 7-B). Runs for individual properties append the clauses of
// their inductive strengthenings; later runs seed IC3 with the accumulated
// set (which re-validates them against its own assumption set).
//
// Thread-safe, so the tasks of a multi-threaded scheduler run (parallel
// JA, Section 11) can share one database. Clauses are stored as cubes:
// the clause is the negation.
#ifndef JAVER_MP_CLAUSE_DB_H
#define JAVER_MP_CLAUSE_DB_H

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "base/sync.h"
#include "ts/transition_system.h"

namespace javer::mp {

class ClauseDb {
 public:
  ClauseDb() = default;
  ClauseDb(const ClauseDb& other);
  ClauseDb& operator=(const ClauseDb&) = delete;

  // Adds cubes (duplicates are ignored). Returns how many were new.
  std::size_t add(const std::vector<ts::Cube>& cubes);

  std::vector<ts::Cube> snapshot() const;
  // Immutable view of the current cube set, materialized at most once per
  // change: concurrent seed snapshots of an unchanged database share one
  // vector instead of each deep-copying the set under the mutex.
  std::shared_ptr<const std::vector<ts::Cube>> shared_snapshot() const;
  std::size_t size() const;
  void clear();

  // Text persistence, one cube per line: "+3 -7" means l3=1 ∧ l7=0.
  void save(const std::string& path) const;
  static ClauseDb load(const std::string& path);
  // Appends the file's cubes to this database; returns how many were new.
  // Throws std::runtime_error, adding nothing, if the file cannot be
  // opened, a token is not a sign and a decimal int, or a latch index is
  // not below `num_latches` (pass the design's count for untrusted files).
  std::size_t load_file(const std::string& path,
                        std::size_t num_latches = SIZE_MAX);

 private:
  mutable base::Mutex mutex_;
  std::set<ts::Cube> cubes_ GUARDED_BY(mutex_);
  // Cache of the current cube set's snapshot; invalidated on mutation.
  mutable std::shared_ptr<const std::vector<ts::Cube>> cache_
      GUARDED_BY(mutex_);
};

// ShardedClauseDb: one independent ClauseDb per cluster shard (the
// sharded scheduler's layout). Shards never contend with each other —
// each cluster's tasks seed from and publish into their own shard only —
// while seed_all/merged_snapshot bridge to the caller's single database
// (the CLI's --clause-db persistence). A one-partition run (the
// sched::Scheduler entry) works in the caller's database directly.
class ShardedClauseDb {
 public:
  explicit ShardedClauseDb(std::size_t num_shards);

  std::size_t num_shards() const { return shards_.size(); }
  ClauseDb& shard(std::size_t i) { return *shards_[i]; }
  const ClauseDb& shard(std::size_t i) const { return *shards_[i]; }

  // Adds the cubes to every shard (global seeding); returns the total
  // number of insertions across shards.
  std::size_t seed_all(const std::vector<ts::Cube>& cubes);

  // Union of all shards' cubes.
  std::vector<ts::Cube> merged_snapshot() const;
  std::size_t total_size() const;

 private:
  // No lock of its own: built once at construction and never resized;
  // all mutable state lives in the per-shard ClauseDbs, each behind its
  // own mutex.
  std::vector<std::unique_ptr<ClauseDb>> shards_;
};

}  // namespace javer::mp

#endif  // JAVER_MP_CLAUSE_DB_H
