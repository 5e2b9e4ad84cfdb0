#include "mp/shard/sharded_scheduler.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "aig/aig.h"
#include "base/log.h"
#include "base/timer.h"
#include "fault/fault.h"
#include "mp/sched/bmc_sweep.h"
#include "mp/sched/property_task.h"
#include "mp/sched/worker_pool.h"
#include "mp/simfilter/sim_filter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/persist.h"

namespace javer::mp::shard {

ShardedScheduler::ShardedScheduler(const ts::TransitionSystem& ts,
                                   ShardedOptions opts)
    : ts_(ts), opts_(std::move(opts)) {}

std::vector<std::vector<std::size_t>> ShardedScheduler::make_clusters(
    const ClusterOptions& copts, std::size_t* signature_merges) const {
  auto clusters = cluster_properties(ts_, copts, signature_merges);
  const std::vector<std::size_t>& order = opts_.base.engine.order;
  if (!order.empty()) {
    // Honor the verification order within each cluster (properties absent
    // from the order keep design order, after the ordered ones).
    std::vector<std::size_t> rank(ts_.num_properties(), order.size());
    for (std::size_t i = 0; i < order.size(); ++i) rank[order[i]] = i;
    for (auto& cluster : clusters) {
      std::sort(cluster.begin(), cluster.end(),
                [&](std::size_t a, std::size_t b) {
                  return rank[a] != rank[b] ? rank[a] < rank[b] : a < b;
                });
    }
  }
  return clusters;
}

MultiResult ShardedScheduler::run() { return run_tasks(nullptr); }

MultiResult ShardedScheduler::run(ClauseDb& db) { return run_tasks(&db); }

MultiResult ShardedScheduler::run_tasks(
    ClauseDb* external, const std::vector<std::size_t>* partition) {
  // A malformed order is a config error, rejected before any work: an
  // index past the last property would address a result slot that does
  // not exist, and a repeated one would verify its property twice.
  std::vector<bool> ordered(ts_.num_properties(), false);
  for (std::size_t p : opts_.base.engine.order) {
    if (p >= ordered.size() || ordered[p]) {
      throw std::invalid_argument(
          "engine order: property " + std::to_string(p) +
          (p >= ordered.size() ? " out of range" : " repeated"));
    }
    ordered[p] = true;
  }

  Timer total;
  MultiResult result;
  result.per_property.resize(ts_.num_properties());

  exchange_stats_ = {};
  const obs::TraceSink sink(opts_.base.engine.tracer);
  obs::MetricsRegistry* metrics = opts_.base.engine.metrics;

  // Fault injection (src/fault): one injector for the whole run,
  // installed before any pool/task/sweep exists so the scope outlives
  // every instrumented call path. A malformed plan throws here (config
  // error, not a fault to isolate). First-wins semantics make a nested
  // scheduler under an injected outer run a no-op.
  std::unique_ptr<fault::FaultInjector> injector;
  if (!opts_.base.engine.fault_plan.empty()) {
    injector = std::make_unique<fault::FaultInjector>(
        fault::FaultPlan::parse(opts_.base.engine.fault_plan));
    injector->set_observability(opts_.base.engine.tracer, metrics);
  }
  fault::ScopedInjection injection(injector.get());

  const bool local = opts_.base.proof_mode == sched::ProofMode::Local;
  const bool hybrid =
      opts_.base.dispatch == sched::DispatchPolicy::HybridBmcIc3;
  const bool sharded = partition == nullptr;

  sched::WorkerPool pool(sched::resolve_worker_count(opts_.base.num_threads,
                                                    ts_.num_properties()));
  pool.set_observability(sink, metrics);

  // Simulation prefilter (mp/simfilter) runs before clustering: its kills
  // close tasks with oracle-certified counterexamples, its near-miss
  // seeds feed the shard sweeps, and its behavior signatures join the
  // clustering similarity — properties that behaved identically on every
  // simulated pattern are candidate-equivalent and share a shard.
  std::unique_ptr<simfilter::SimFilter> filter;
  std::vector<simfilter::NearMissSeed> seeds;
  ClusterOptions copts = opts_.clustering;
  if (opts_.base.engine.sim_filter.mode != simfilter::SimFilterMode::Off) {
    filter = std::make_unique<simfilter::SimFilter>(
        ts_, opts_.base.engine.sim_filter, local, opts_.base.engine.tracer,
        metrics);
    std::vector<std::size_t> all(ts_.num_properties());
    std::iota(all.begin(), all.end(), std::size_t{0});
    filter->run(sharded ? all : *partition, &pool);
    seeds = filter->take_seeds();
    result.sim_stats = filter->stats();
    copts.signatures = filter->signatures();
  }

  std::vector<std::vector<std::size_t>> clusters;
  if (sharded) {
    std::size_t sig_merges = 0;
    clusters = make_clusters(copts, &sig_merges);
    result.sim_stats.signature_merges = sig_merges;
    if (metrics != nullptr && sig_merges > 0) {
      metrics->add("sim.signature_merges", sig_merges);
    }
  } else {
    clusters.push_back(*partition);
  }
  num_shards_ = clusters.size();

  exchange::LemmaBus bus(clusters.size(), opts_.exchange);
  bus.set_trace(sink);
  // Clustered shards each own a ClauseDb, seeded from the caller's and
  // merged back into it after the run; one partition works in the
  // caller's database directly.
  ShardedClauseDb dbs(sharded ? clusters.size() : 0);
  if (sharded && external != nullptr && opts_.base.engine.clause_reuse) {
    dbs.seed_all(external->snapshot());
  }
  // One template memo for the whole run, shared by every shard's tasks:
  // templates are keyed by (design fingerprint, {target} ∪ assumed) —
  // which in local mode is the same property set for every non-ETF target
  // design-wide, regardless of cluster — so sibling tasks within a shard
  // and across shards stop re-encoding the transition relation.
  // Thread-safe; the work-stealing pool hits it concurrently.
  cnf::TemplateCache templates(ts_);

  // One shard per cluster: its own task pool, ClauseDb, and (for the
  // hybrid policy) its own shared-unrolling BMC sweep. `tag` is the
  // shard id on trace events, profile slots and progress cells, -1 for
  // the one untagged partition.
  struct Shard {
    std::size_t id = 0;
    int tag = -1;
    ClauseDb* db = nullptr;
    std::uint64_t persist_key = 0;
    std::vector<std::unique_ptr<sched::PropertyTask>> tasks;
    std::unique_ptr<sched::BmcSweep> sweep;
  };
  std::vector<Shard> shards(clusters.size());
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    Shard& s = shards[i];
    s.id = i;
    s.tag = sharded ? static_cast<int>(i) : -1;
    s.db = sharded ? &dbs.shard(i) : external;
    for (std::size_t p : clusters[i]) {
      auto task = std::make_unique<sched::PropertyTask>(
          ts_, p,
          local ? sched::local_assumptions(ts_, p)
                : std::vector<std::size_t>{},
          opts_.base.engine, local);
      if (bus.enabled()) task->attach_exchange(&bus, i);
      task->attach_templates(&templates);
      task->set_shard_tag(s.tag);
      s.tasks.push_back(std::move(task));
    }
    if (hybrid) {
      s.sweep = std::make_unique<sched::BmcSweep>(ts_, opts_.base, local);
      s.sweep->set_trace_shard(s.tag);
    }
  }

  // Warm-start persistence (EngineOptions::cache_dir): the shared
  // template replays from disk, and every shard's ClauseDb is seeded from
  // the previous run's snapshot for the same (design, member-set) key, so
  // an unchanged design with unchanged clustering starts each shard from
  // its proven invariants. Engines re-validate every seeded cube, so
  // cache corruption can only cost warmth, never soundness.
  std::unique_ptr<persist::PersistCache> cache;
  std::uint64_t fp = 0;
  if (!opts_.base.engine.cache_dir.empty()) {
    try {
      cache =
          std::make_unique<persist::PersistCache>(opts_.base.engine.cache_dir);
    } catch (const std::exception& e) {
      JAVER_LOG(Info) << "shard: warm-start cache unusable, running cold: "
                      << e.what();
    }
  }
  if (cache) {
    cache->set_trace(sink);
    cache->set_profile(obs::ProfileSink(opts_.base.engine.profiler));
    templates.attach_store(cache.get());
    if (opts_.base.engine.clause_reuse) {
      fp = aig::fingerprint(ts_.aig());
      for (Shard& s : shards) {
        s.persist_key = persist::index_set_signature(clusters[s.id]);
        if (auto cubes = cache->load_clause_db(ts_, fp, s.persist_key)) {
          s.db->add(*cubes);
        }
      }
    }
  }

  // Prefilter results: close every killed task (the cex is already
  // oracle-certified) and route each near-miss seed to its property's
  // owning shard sweep.
  if (filter != nullptr) {
    for (const simfilter::SimKill& k : filter->kills()) {
      for (Shard& s : shards) {
        for (auto& t : s.tasks) {
          if (t->prop() == k.prop && t->open()) {
            t->resolve_fails(k.cex, k.depth);
          }
        }
      }
    }
    if (hybrid && !seeds.empty()) {
      std::vector<int> shard_of(ts_.num_properties(), -1);
      for (std::size_t i = 0; i < clusters.size(); ++i) {
        for (std::size_t p : clusters[i]) shard_of[p] = static_cast<int>(i);
      }
      std::vector<std::vector<simfilter::NearMissSeed>> per_shard(
          shards.size());
      for (simfilter::NearMissSeed& sd : seeds) {
        if (shard_of[sd.prop] >= 0) {
          per_shard[shard_of[sd.prop]].push_back(std::move(sd));
        }
      }
      for (std::size_t i = 0; i < shards.size(); ++i) {
        if (!per_shard[i].empty()) {
          shards[i].sweep->add_near_miss_seeds(std::move(per_shard[i]));
        }
      }
    }
  }

  const double total_limit = opts_.base.engine.total_time_limit;
  auto out_of_time = [&] {
    return total_limit > 0 && total.seconds() >= total_limit;
  };
  auto open_in = [](Shard& s) {
    std::vector<sched::PropertyTask*> open;
    for (auto& t : s.tasks) {
      if (t->open()) open.push_back(t.get());
    }
    return open;
  };
  if (!hybrid) {
    // RunToCompletion: every task drains on the pool. With one thread the
    // pool drains on the caller in item order, so one partition is the
    // classic sequential separate/JA loop.
    std::vector<std::pair<Shard*, sched::PropertyTask*>> items;
    for (Shard& s : shards) {
      for (auto& t : s.tasks) items.emplace_back(&s, t.get());
    }
    pool.run(items.size(), [&](std::size_t i) {
      if (out_of_time()) return;  // closed as Unknown below
      auto [s, t] = items[i];
      while (t->open()) t->run_slice(ic3::Ic3Budget{}, s->db);
    });
  } else {  // HybridBmcIc3 rounds, two pool passes per round
    const ic3::Ic3Budget slice{opts_.base.ic3_slice_seconds};
    int round = 0;
    while (!out_of_time()) {
      const std::uint64_t round_begin = sink.begin();
      std::vector<Shard*> live;
      for (Shard& s : shards) {
        if (!open_in(s).empty()) live.push_back(&s);
      }
      if (live.empty()) break;

      // Pass 1: per-shard BMC sweeps, each publishing its prefix units.
      pool.run(live.size(), [&](std::size_t i) {
        Shard& s = *live[i];
        // Recompute the remaining budget per item: with fewer workers
        // than shards the sweeps serialize, and each must only get what
        // is actually left, not the round's opening balance.
        if (out_of_time()) return;
        double remaining =
            total_limit > 0 ? total_limit - total.seconds() : 0.0;
        try {
          s.sweep->sweep(open_in(s), remaining);
          if (bus.enabled()) {
            bus.publish(s.id, s.sweep->harvest_unit_candidates());
          }
        } catch (const std::exception& e) {
          // A sweep failure is quarantined to its shard: mark the sweep
          // exhausted and let the shard's IC3 tasks finish on their own.
          JAVER_LOG(Info) << "shard " << s.id
                          << ": BMC sweep failed, disabling: " << e.what();
          s.sweep->disable();
          if (metrics != nullptr) metrics->add("fault.caught");
          sink.with_shard(s.tag).instant("fault", "sweep_failure", round);
        }
      });

      // Pass 2: one IC3 slice for every still-open task, shard-agnostic
      // on the pool (this is where shard load-balancing happens).
      std::vector<std::pair<Shard*, sched::PropertyTask*>> open;
      for (Shard& s : shards) {
        for (sched::PropertyTask* t : open_in(s)) open.emplace_back(&s, t);
      }
      if (open.empty()) break;
      if (out_of_time()) break;
      pool.run(open.size(), [&](std::size_t i) {
        open[i].second->run_slice(slice, open[i].first->db);
      });
      if (metrics != nullptr) {
        metrics->add("sched.rounds");
        metrics->heartbeat(total.seconds());
      }
      if (sink.enabled()) {
        sink.complete("sched", "round", round_begin, -1,
                      "\"round\":" + std::to_string(round) + ",\"shards\":" +
                          std::to_string(live.size()) + ",\"open\":" +
                          std::to_string(open.size()));
      }
      round++;
    }
  }

  for (Shard& s : shards) {
    for (auto& t : s.tasks) {
      if (t->open()) t->close_unknown();
      result.per_property[t->prop()] = std::move(t->result());
    }
    if (s.sweep != nullptr) {
      result.sim_stats.seed_hits += s.sweep->seed_hits();
      result.sim_stats.seed_discarded += s.sweep->seed_discarded();
    }
  }

  if (sharded && external != nullptr && opts_.base.engine.clause_reuse) {
    external->add(dbs.merged_snapshot());
  }
  if (cache) {
    if (opts_.base.engine.clause_reuse) {
      for (const Shard& s : shards) {
        std::vector<ts::Cube> snap = s.db->snapshot();
        if (!snap.empty()) cache->store_clause_db(fp, s.persist_key, snap);
      }
    }
    result.cache_stats = cache->stats();
    if (metrics != nullptr) {
      persist::fold_stats(*metrics, result.cache_stats);
    }
  }
  exchange_stats_ = bus.stats();
  if (sharded) {
    result.exchange_per_shard.reserve(bus.num_shards());
    for (std::size_t i = 0; i < bus.num_shards(); ++i) {
      result.exchange_per_shard.push_back(bus.channel_stats(i));
    }
  }
  // Zero deltas register no key, so a run without exchange adds none.
  if (metrics != nullptr) {
    metrics->add("exchange.published", exchange_stats_.published);
    metrics->add("exchange.delivered", exchange_stats_.delivered);
    metrics->add("exchange.imported", exchange_stats_.imported);
    metrics->add("exchange.rejected", exchange_stats_.rejected);
    metrics->add("exchange.redundant", exchange_stats_.redundant);
  }
  result.total_seconds = total.seconds();
  if (metrics != nullptr) {
    // raise(): nested schedulers folding the same tracer's cumulative
    // drop counter stay idempotent instead of double-counting.
    if (opts_.base.engine.tracer != nullptr &&
        opts_.base.engine.tracer->dropped_events() > 0) {
      metrics->raise("obs.trace_dropped",
                     opts_.base.engine.tracer->dropped_events());
    }
    result.metrics = metrics->snapshot(result.total_seconds);
  }
  return result;
}

}  // namespace javer::mp::shard
