#include "mp/sched/scheduler.h"

#include <utility>

#include "mp/shard/sharded_scheduler.h"

namespace javer::mp::sched {

Scheduler::Scheduler(const ts::TransitionSystem& ts, SchedulerOptions opts)
    : ts_(ts), opts_(std::move(opts)) {}

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
  // Both policies run the sharded task loop on one partition: every
  // property in verification order, lemma exchange off, and `db` as the
  // partition's clause database.
  shard::ShardedOptions so;
  so.base = opts_;
  so.exchange = exchange::ExchangeMode::Off;
  const std::vector<std::size_t> order = resolve_order();
  return shard::ShardedScheduler(ts_, std::move(so)).run_tasks(&db, &order);
}

}  // namespace javer::mp::sched
