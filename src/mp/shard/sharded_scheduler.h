// ShardedScheduler: the one task loop. Every RunToCompletion and
// HybridBmcIc3 run goes through it — sched::Scheduler hands it a single
// partition (every property in verification order, lemma exchange off),
// and the sharded entry points below cluster the properties first.
//
// `cluster_properties` partitions the properties by cone similarity;
// every cluster becomes a *shard* owning its own PropertyTask pool, its
// own ClauseDb shard, and (for the hybrid policy) its own shared-unrolling
// BmcSweep, so structurally related properties share work and unrelated
// ones never contend for it. Shards are load-balanced across the
// work-stealing WorkerPool in rounds: first one pool pass runs every live
// shard's BMC sweep, then a second pass slices every open IC3 task —
// tasks of a slow shard never hold up the rest.
//
// Within a shard, proven strengthenings travel through the shard's
// ClauseDb, and the LemmaBus (mp/exchange) carries one more thing: the
// sweep's learned prefix units, offered to the shard's IC3 tasks as F_inf
// candidates. Each shard has its own channel, so units never cross
// cluster boundaries, and every engine re-validates each unit in its own
// context, so exchange can never flip a verdict (tests/test_shard.cpp
// checks this against exchange-off and oracle runs).
#ifndef JAVER_MP_SHARD_SHARDED_SCHEDULER_H
#define JAVER_MP_SHARD_SHARDED_SCHEDULER_H

#include <cstddef>
#include <vector>

#include "mp/clause_db.h"
#include "mp/clustering.h"
#include "mp/exchange/lemma_bus.h"
#include "mp/report.h"
#include "mp/sched/scheduler.h"
#include "ts/transition_system.h"

namespace javer::mp::shard {

struct ShardedOptions {
  // `base.dispatch` selects the within-shard policy: HybridBmcIc3
  // (default here: shared BMC sweep + IC3 slices per shard) or
  // RunToCompletion. `base.num_threads` sizes the worker pool the shards'
  // work items are balanced across; the hybrid knobs apply per shard.
  sched::SchedulerOptions base;
  ClusterOptions clustering;
  exchange::ExchangeMode exchange = exchange::ExchangeMode::Units;
};

class ShardedScheduler {
 public:
  ShardedScheduler(const ts::TransitionSystem& ts, ShardedOptions opts);

  MultiResult run();
  // Seeds every shard's ClauseDb from `db` and merges the shards'
  // accumulated strengthenings back into it after the run.
  MultiResult run(ClauseDb& db);

  // Post-run introspection (bench / CLI metrics).
  const exchange::ExchangeStats& exchange_stats() const {
    return exchange_stats_;
  }
  std::size_t num_shards() const { return num_shards_; }

 private:
  // Scheduler::run drives its task policies through run_tasks.
  friend class sched::Scheduler;

  // The task loop (RunToCompletion + HybridBmcIc3). With `partition` null
  // the properties are clustered into tagged shards whose ClauseDbs are
  // seeded from `external` and merged back into it. Otherwise
  // `*partition` is the one untagged shard (trace, profile and progress
  // shard -1, no exchange_per_shard) and `external`, which must be
  // non-null, serves as its ClauseDb directly. Throws
  // std::invalid_argument if the engine order names a property index
  // that is out of range or repeated (a subset order is fine).
  MultiResult run_tasks(ClauseDb* external,
                        const std::vector<std::size_t>* partition = nullptr);
  // Cluster partition under `copts` (the caller may have added simulation
  // signatures to the configured options) with each cluster's members
  // ordered by the engine order option (design order by default), which
  // run_tasks has already validated.
  std::vector<std::vector<std::size_t>> make_clusters(
      const ClusterOptions& copts, std::size_t* signature_merges) const;

  const ts::TransitionSystem& ts_;
  ShardedOptions opts_;
  std::size_t num_shards_ = 0;
  exchange::ExchangeStats exchange_stats_;
};

}  // namespace javer::mp::shard

#endif  // JAVER_MP_SHARD_SHARDED_SCHEDULER_H
