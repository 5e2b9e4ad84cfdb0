#include "mp/sched/scheduler.h"

#include <algorithm>
#include <utility>

#include "aig/sim.h"
#include "base/log.h"
#include "base/timer.h"
#include "mp/joint_verifier.h"
#include "mp/shard/sharded_scheduler.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace javer::mp::sched {

Scheduler::Scheduler(const ts::TransitionSystem& ts, SchedulerOptions opts)
    : ts_(ts), opts_(std::move(opts)) {}

std::vector<std::size_t> Scheduler::assumptions_for(std::size_t prop) const {
  if (opts_.proof_mode != ProofMode::Local) return {};
  return local_assumptions(ts_, prop);
}

std::vector<std::size_t> Scheduler::resolve_order() const {
  if (!opts_.engine.order.empty()) return opts_.engine.order;
  std::vector<std::size_t> order(ts_.num_properties());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  return order;
}

MultiResult Scheduler::run() {
  ClauseDb db;
  return run(db);
}

MultiResult Scheduler::run(ClauseDb& db) {
  if (opts_.dispatch == DispatchPolicy::JointAggregate) return run_joint();
  // The task policies run the sharded task loop on one partition: every
  // property in verification order, lemma exchange off, and `db` as the
  // partition's clause database.
  shard::ShardedOptions so;
  so.base = opts_;
  so.exchange = exchange::ExchangeMode::Off;
  const std::vector<std::size_t> order = resolve_order();
  return shard::ShardedScheduler(ts_, std::move(so)).run_tasks(&db, &order);
}

MultiResult Scheduler::run_joint() {
  Timer total;
  MultiResult result;
  result.per_property.resize(ts_.num_properties());

  const obs::TraceSink sink(opts_.engine.tracer);
  obs::MetricsRegistry* metrics = opts_.engine.metrics;
  std::vector<std::size_t> unsolved;
  for (std::size_t i = 0; i < ts_.num_properties(); ++i) unsolved.push_back(i);

  while (!unsolved.empty()) {
    double remaining = 0.0;
    if (opts_.engine.total_time_limit > 0) {
      remaining = opts_.engine.total_time_limit - total.seconds();
      if (remaining <= 0) break;
    }
    double iteration_limit = opts_.time_limit_per_iteration;
    if (remaining > 0 &&
        (iteration_limit <= 0 || iteration_limit > remaining)) {
      iteration_limit = remaining;
    }

    auto [agg_aig, agg_index] = make_aggregate(ts_.aig(), unsolved);
    ts::TransitionSystem agg_ts(agg_aig);

    ic3::Ic3Options engine_opts;
    engine_opts.time_limit_seconds = iteration_limit;
    engine_opts.conflict_budget_per_query =
        opts_.engine.conflict_budget_per_query;
    engine_opts.lifting_respects_constraints =
        opts_.engine.lifting_respects_constraints;
    engine_opts.simplify = opts_.engine.simplify;
    engine_opts.solver_mode = opts_.engine.ic3_solver;
    engine_opts.use_template = opts_.engine.ic3_use_template;
    engine_opts.rebuild_threshold = opts_.engine.ic3_rebuild_threshold;
    engine_opts.trace = sink;
    // No shared cache: each iteration checks a fresh aggregate TS, but the
    // engine's private template still collapses its per-frame encodings.

    const std::uint64_t iter_begin = sink.begin();
    Timer iteration;
    ic3::Ic3 engine(agg_ts, agg_index, engine_opts);
    ic3::Ic3Result er = engine.run();
    double spent = iteration.seconds();
    if (sink.enabled()) {
      sink.complete("sched", "joint_iteration", iter_begin, -1,
                    "\"unsolved\":" + std::to_string(unsolved.size()));
    }
    if (metrics != nullptr) metrics->heartbeat(total.seconds());

    if (er.status == CheckStatus::Holds) {
      for (std::size_t p : unsolved) {
        PropertyResult& pr = result.per_property[p];
        pr.verdict = PropertyVerdict::HoldsGlobally;
        pr.seconds = spent;
        pr.frames = er.frames;
      }
      // The iteration's engine stats go to one property only, so summing
      // engine_stats over per_property counts each IC3 run once. The fold
      // mirrors that, which keeps the registry totals equal to the sum.
      result.per_property[unsolved.front()].engine_stats = er.stats;
      if (metrics != nullptr) ic3::fold_stats(*metrics, er.stats);
      unsolved.clear();
      break;
    }
    if (er.status != CheckStatus::Fails) break;  // budget exhausted

    // The aggregate failed: every unsolved property false at the final
    // step of the CEX is refuted by it (the prefix satisfied all of them,
    // so these are exactly the first-failing ones of this trace).
    aig::Simulator sim(ts_.aig());
    const ts::Step& last = er.cex.steps.back();
    sim.eval(last.state, last.inputs);
    std::vector<std::size_t> refuted;
    for (std::size_t p : unsolved) {
      if (!sim.value(ts_.property_lit(p))) refuted.push_back(p);
    }
    if (refuted.empty()) {
      // Should be impossible for a genuine aggregate CEX; avoid looping.
      JAVER_LOG(Info) << "sched: aggregate cex refutes no property; stopping";
      break;
    }
    for (std::size_t p : refuted) {
      PropertyResult& pr = result.per_property[p];
      pr.verdict = PropertyVerdict::FailsGlobally;
      pr.seconds = spent;
      pr.frames = er.frames;
      pr.cex = er.cex;
    }
    result.per_property[refuted.front()].engine_stats = er.stats;
    if (metrics != nullptr) ic3::fold_stats(*metrics, er.stats);
    std::vector<std::size_t> next;
    for (std::size_t p : unsolved) {
      if (std::find(refuted.begin(), refuted.end(), p) == refuted.end()) {
        next.push_back(p);
      }
    }
    unsolved = std::move(next);
    JAVER_LOG(Verbose) << "sched: joint iteration refuted " << refuted.size()
                       << ", " << unsolved.size() << " remaining";
  }

  result.total_seconds = total.seconds();
  if (metrics != nullptr) {
    result.metrics = metrics->snapshot(result.total_seconds);
  }
  return result;
}

}  // namespace javer::mp::sched
