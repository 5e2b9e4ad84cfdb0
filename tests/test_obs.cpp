// Observability tests (src/obs): the Tracer's multithreaded recording and
// Chrome-trace/JSONL exports (parsed back with a minimal in-test JSON
// reader), the MetricsRegistry's counter/gauge/heartbeat semantics, the
// disabled-sink zero-cost contract, and the end-to-end accounting
// guarantees — every consumed scheduler slice appears as a tagged span,
// heartbeat counters are monotonic across rounds, and the final registry
// totals reconcile *exactly* with the summed per-property Ic3Stats.
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/synthetic.h"
#include "mp/sched/scheduler.h"
#include "mp/shard/sharded_scheduler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util_json.h"
#include "ts/transition_system.h"

namespace javer {
namespace {

using testjson::Json;
using testjson::parse_json_or_die;

// --- Tracer / TraceSink unit tests -----------------------------------------

TEST(Tracer, MultithreadedSpansExportValidChromeTrace) {
  obs::Tracer tracer;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      obs::TraceSink sink(&tracer, /*shard=*/t, /*property=*/t * 10);
      for (int i = 0; i < kSpansPerThread; ++i) {
        std::uint64_t begin = sink.begin();
        sink.complete("test", "work", begin, /*slice=*/i,
                      "\"iteration\":" + std::to_string(i));
      }
      sink.instant("test", "done");
    });
  }
  for (auto& th : threads) th.join();

  constexpr std::size_t kExpected = kThreads * (kSpansPerThread + 1);
  EXPECT_EQ(tracer.event_count(), kExpected);

  // events() is merged across threads and time-sorted.
  std::vector<obs::TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), kExpected);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_us, events[i].ts_us);
  }
  std::map<std::uint32_t, int> per_tid;
  for (const auto& ev : events) per_tid[ev.tid]++;
  EXPECT_EQ(per_tid.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [tid, count] : per_tid) {
    EXPECT_EQ(count, kSpansPerThread + 1) << "tid " << tid;
  }

  // The Chrome export parses back as one object with a traceEvents array
  // holding every event, each with the trace-event-format required keys
  // and our (shard, property, slice) tags inside args.
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  Json doc = parse_json_or_die(out.str());
  ASSERT_EQ(doc.kind, Json::Kind::Object);
  ASSERT_TRUE(doc.has("traceEvents"));
  const Json& list = doc.at("traceEvents");
  ASSERT_EQ(list.kind, Json::Kind::Array);
  ASSERT_EQ(list.array.size(), kExpected);
  std::size_t spans = 0;
  for (const Json& ev : list.array) {
    ASSERT_EQ(ev.kind, Json::Kind::Object);
    for (const char* key : {"name", "cat", "ph", "ts", "pid", "tid"}) {
      EXPECT_TRUE(ev.has(key)) << "missing " << key;
    }
    ASSERT_TRUE(ev.has("args"));
    const Json& args = ev.at("args");
    EXPECT_TRUE(args.has("shard"));
    EXPECT_TRUE(args.has("property"));
    if (ev.at("ph").string == "X") {
      spans++;
      EXPECT_TRUE(ev.has("dur"));
      EXPECT_TRUE(args.has("slice"));
      EXPECT_TRUE(args.has("iteration"));
    } else {
      EXPECT_EQ(ev.at("ph").string, "i");
    }
  }
  EXPECT_EQ(spans, static_cast<std::size_t>(kThreads * kSpansPerThread));

  // The JSONL export carries the same events, one valid object per line.
  std::ostringstream jsonl;
  tracer.write_jsonl(jsonl);
  std::istringstream lines(jsonl.str());
  std::string line;
  std::size_t line_count = 0;
  while (std::getline(lines, line)) {
    Json obj = parse_json_or_die(line);
    EXPECT_EQ(obj.kind, Json::Kind::Object);
    EXPECT_TRUE(obj.has("name"));
    line_count++;
  }
  EXPECT_EQ(line_count, kExpected);
}

TEST(Tracer, ArgsAreJsonEscaped) {
  std::string escaped;
  obs::detail::append_json_escaped(escaped, "a\"b\\c\n\t\x01");
  EXPECT_EQ(escaped, "a\\\"b\\\\c\\n\\t\\u0001");
}

TEST(TraceSink, DisabledSinkIsAFreeNoOp) {
  // The default sink is the "tracing off" path every instrumentation site
  // takes in ordinary runs: one branch, no allocation, no recording.
  obs::TraceSink off;
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.begin(), 0u);
  off.complete("cat", "name", 0, 3, "\"k\":1");
  off.instant("cat", "name");
  { obs::TraceSpan span(off, "cat", "scoped"); }
  obs::TraceSink still_off = off.with_shard(2).with_property(5);
  EXPECT_FALSE(still_off.enabled());
  still_off.instant("cat", "name");
  // Nothing above had a tracer to write to; a real tracer that no sink
  // points at stays empty through a whole engine run (see the
  // DisabledRunRecordsNoEventsAndNoMetrics end-to-end test).
}

TEST(Tracer, BufferCapDropsAndSurfacesTheCount) {
  // Bounded per-thread buffers: once a thread's buffer hits the cap,
  // further events are dropped and counted — never an unbounded
  // allocation on a runaway run.
  obs::Tracer tracer;
  tracer.set_buffer_cap(5);
  obs::TraceSink sink(&tracer, /*shard=*/0, /*property=*/0);
  for (int i = 0; i < 12; ++i) sink.instant("test", "tick");
  EXPECT_EQ(tracer.event_count(), 5u);
  EXPECT_EQ(tracer.dropped_events(), 7u);

  // Both exports surface the drop count so a truncated trace is never
  // mistaken for a complete one: the Chrome export in its header object,
  // the JSONL export as a leading header record.
  std::ostringstream chrome;
  tracer.write_chrome_trace(chrome);
  Json doc = parse_json_or_die(chrome.str());
  ASSERT_TRUE(doc.has("droppedEvents"));
  EXPECT_DOUBLE_EQ(doc.at("droppedEvents").number, 7.0);
  EXPECT_EQ(doc.at("traceEvents").array.size(), 5u);

  std::ostringstream jsonl;
  tracer.write_jsonl(jsonl);
  std::istringstream lines(jsonl.str());
  std::string first;
  ASSERT_TRUE(std::getline(lines, first));
  Json header = parse_json_or_die(first);
  EXPECT_EQ(header.at("type").string, "header");
  EXPECT_DOUBLE_EQ(header.at("droppedEvents").number, 7.0);

  // An uncapped tracer emits no drop header at all.
  obs::Tracer clean;
  obs::TraceSink clean_sink(&clean, 0, 0);
  clean_sink.instant("test", "tick");
  std::ostringstream clean_out;
  clean.write_chrome_trace(clean_out);
  EXPECT_FALSE(parse_json_or_die(clean_out.str()).has("droppedEvents"));
}

// --- MetricsRegistry unit tests --------------------------------------------

TEST(Metrics, CountersAccumulateAndGaugesFollowTheirMode) {
  obs::MetricsRegistry m;
  m.add("a.count");
  m.add("a.count", 4);
  m.add("a.count", 0);  // no-op, must not create churn
  EXPECT_EQ(m.counter("a.count"), 5u);
  EXPECT_EQ(m.counter("never.touched"), 0u);

  m.add_gauge("g.sum", 1.5);
  m.add_gauge("g.sum", 2.0);
  m.set_gauge("g.set", 7.0);
  m.set_gauge("g.set", 3.0);
  m.max_gauge("g.max", 2.0);
  m.max_gauge("g.max", 5.0);
  m.max_gauge("g.max", 4.0);
  EXPECT_DOUBLE_EQ(m.gauge("g.sum"), 3.5);
  EXPECT_DOUBLE_EQ(m.gauge("g.set"), 3.0);
  EXPECT_DOUBLE_EQ(m.gauge("g.max"), 5.0);

  obs::MetricsSnapshot snap = m.snapshot(1.25);
  EXPECT_DOUBLE_EQ(snap.elapsed_seconds, 1.25);
  EXPECT_EQ(snap.counter("a.count"), 5u);
  EXPECT_EQ(snap.counter("never.touched"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauge("g.max"), 5.0);
  EXPECT_FALSE(snap.empty());
  EXPECT_TRUE(obs::MetricsSnapshot{}.empty());
}

TEST(Metrics, HeartbeatsFreezeMonotonicHistory) {
  obs::MetricsRegistry m;
  m.add("work", 10);
  m.heartbeat(0.5);
  m.add("work", 5);
  m.heartbeat(1.0);
  m.add("work", 1);

  std::vector<obs::MetricsSnapshot> beats = m.heartbeats();
  ASSERT_EQ(beats.size(), 2u);
  EXPECT_EQ(beats[0].counter("work"), 10u);
  EXPECT_EQ(beats[1].counter("work"), 15u);
  EXPECT_LT(beats[0].elapsed_seconds, beats[1].elapsed_seconds);
  EXPECT_EQ(m.counter("work"), 16u);

  // JSONL export: one heartbeat record per tick plus a final record, each
  // line a valid JSON object carrying the counter table.
  std::ostringstream out;
  m.write_jsonl(out);
  std::istringstream lines(out.str());
  std::string line;
  std::vector<Json> records;
  while (std::getline(lines, line)) records.push_back(parse_json_or_die(line));
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].at("type").string, "heartbeat");
  EXPECT_EQ(records[1].at("type").string, "heartbeat");
  EXPECT_EQ(records[2].at("type").string, "final");
  EXPECT_DOUBLE_EQ(records[0].at("counters").at("work").number, 10.0);
  EXPECT_DOUBLE_EQ(records[1].at("counters").at("work").number, 15.0);
  EXPECT_DOUBLE_EQ(records[2].at("counters").at("work").number, 16.0);
}

TEST(Metrics, RaiseKeepsTheMaxSoRefoldingIsIdempotent) {
  // raise() feeds a monotonic counter from an external cumulative total
  // (e.g. Tracer::dropped_events()): folding the same source twice — the
  // sharded scheduler and its nested per-shard schedulers both see the
  // run's tracer — must not double-count.
  obs::MetricsRegistry m;
  m.raise("obs.trace_dropped", 7);
  m.raise("obs.trace_dropped", 7);
  EXPECT_EQ(m.counter("obs.trace_dropped"), 7u);
  m.raise("obs.trace_dropped", 12);
  m.raise("obs.trace_dropped", 3);  // stale lower total: no rollback
  EXPECT_EQ(m.counter("obs.trace_dropped"), 12u);
}

TEST(Metrics, HeartbeatsShareNameTablesAndStayCheap) {
  // heartbeat() must not copy the full name->value maps under the mutex.
  // Structural pin: all heartbeats between two name insertions reference
  // the *same* copy-on-write name table, so the per-beat work is the raw
  // value arrays only — O(live metrics), independent of history length.
  obs::MetricsRegistry m;
  m.add("a", 1);
  m.add_gauge("g", 0.5);
  for (int i = 0; i < 500; ++i) {
    m.add("a");
    m.heartbeat(static_cast<double>(i));
  }
  EXPECT_EQ(m.heartbeat_name_tables(), 1u);

  // A new name forces exactly one fresh table for subsequent beats.
  m.add("b", 2);
  m.heartbeat(500.0);
  EXPECT_EQ(m.heartbeat_name_tables(), 2u);

  // The stored records still materialize correctly at export time.
  std::vector<obs::MetricsSnapshot> beats = m.heartbeats();
  ASSERT_EQ(beats.size(), 501u);
  EXPECT_EQ(beats[0].counter("a"), 2u);
  EXPECT_EQ(beats[499].counter("a"), 501u);
  EXPECT_EQ(beats[499].counter("b"), 0u);
  EXPECT_EQ(beats[500].counter("b"), 2u);
  EXPECT_DOUBLE_EQ(beats[500].gauge("g"), 0.5);

  // Generous wall-clock guard for the same property: 1000 beats over a
  // 400-beat-deep history must stay far from quadratic. This is a smoke
  // bound (seconds of headroom), not a benchmark — the structural check
  // above is the real pin.
  obs::MetricsRegistry big;
  for (int i = 0; i < 64; ++i) big.add("counter." + std::to_string(i), i);
  for (int i = 0; i < 400; ++i) big.heartbeat(static_cast<double>(i));
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 1000; ++i) big.heartbeat(1000.0 + i);
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  EXPECT_EQ(big.heartbeat_name_tables(), 1u);
  EXPECT_LT(seconds, 2.0);
}

// --- end-to-end: schedulers under observation ------------------------------

gen::SyntheticSpec small_multi_cone() {
  // Two rings plus shallow failures: several shards, BMC traffic, and IC3
  // work, but still fast enough for a unit test.
  gen::SyntheticSpec spec;
  spec.seed = 181;
  spec.wrap_counter_bits = 8;
  spec.rings = 2;
  spec.ring_size = 4;
  spec.ring_props = 4;
  spec.pair_props = 2;
  spec.unreachable_props = 2;
  spec.det_fail_props = 1;
  spec.input_fail_props = 1;
  return spec;
}

// Sums one Ic3Stats field over every per-property result.
template <typename Field>
std::uint64_t summed(const mp::MultiResult& r, Field field) {
  std::uint64_t total = 0;
  for (const mp::PropertyResult& pr : r.per_property) total += pr.engine_stats.*field;
  return total;
}

void expect_exact_reconciliation(const mp::MultiResult& r) {
  const obs::MetricsSnapshot& m = r.metrics;
  EXPECT_EQ(m.counter("ic3.obligations"), summed(r, &ic3::Ic3Stats::obligations));
  EXPECT_EQ(m.counter("ic3.clauses_added"),
            summed(r, &ic3::Ic3Stats::clauses_added));
  EXPECT_EQ(m.counter("ic3.consecution_queries"),
            summed(r, &ic3::Ic3Stats::consecution_queries));
  EXPECT_EQ(m.counter("ic3.mic_queries"), summed(r, &ic3::Ic3Stats::mic_queries));
  EXPECT_EQ(m.counter("ic3.bad_queries"), summed(r, &ic3::Ic3Stats::bad_queries));
  EXPECT_EQ(m.counter("ic3.lift_queries"),
            summed(r, &ic3::Ic3Stats::lift_queries));
  EXPECT_EQ(m.counter("ic3.seed_clauses_kept"),
            summed(r, &ic3::Ic3Stats::seed_clauses_kept));
  EXPECT_EQ(m.counter("ic3.seed_clauses_dropped"),
            summed(r, &ic3::Ic3Stats::seed_clauses_dropped));
  EXPECT_EQ(m.counter("ic3.solver_rebuilds"),
            summed(r, &ic3::Ic3Stats::solver_rebuilds));
  EXPECT_EQ(m.counter("ic3.mined_invariants"),
            summed(r, &ic3::Ic3Stats::mined_invariants));
  EXPECT_EQ(m.counter("ic3.solver_contexts_created"),
            summed(r, &ic3::Ic3Stats::solver_contexts_created));
  EXPECT_EQ(m.counter("ic3.template_builds"),
            summed(r, &ic3::Ic3Stats::template_builds));
  EXPECT_EQ(m.counter("ic3.template_instantiations"),
            summed(r, &ic3::Ic3Stats::template_instantiations));
  EXPECT_EQ(m.counter("ic3.lemmas_imported"),
            summed(r, &ic3::Ic3Stats::lemmas_imported));
  EXPECT_EQ(m.counter("ic3.lemmas_rejected"),
            summed(r, &ic3::Ic3Stats::lemmas_rejected));
  EXPECT_EQ(m.counter("ic3.lemmas_known"),
            summed(r, &ic3::Ic3Stats::lemmas_known));
  EXPECT_EQ(m.counter("sat.propagations"),
            summed(r, &ic3::Ic3Stats::sat_propagations));
  EXPECT_EQ(m.counter("sat.conflicts"), summed(r, &ic3::Ic3Stats::sat_conflicts));
  EXPECT_EQ(m.counter("sat.decisions"), summed(r, &ic3::Ic3Stats::sat_decisions));
  EXPECT_EQ(m.counter("simp.vars_eliminated"),
            summed(r, &ic3::Ic3Stats::simp_vars_eliminated));
  EXPECT_EQ(m.counter("simp.clauses_in"),
            summed(r, &ic3::Ic3Stats::simp_clauses_in));
  EXPECT_EQ(m.counter("simp.clauses_out"),
            summed(r, &ic3::Ic3Stats::simp_clauses_out));
}

TEST(ObsEndToEnd, HybridSchedulerEmitsTaggedSliceSpansAndReconciles) {
  aig::Aig aig = gen::make_synthetic(small_multi_cone());
  ts::TransitionSystem ts(aig);

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  mp::sched::SchedulerOptions so;
  so.proof_mode = mp::sched::ProofMode::Local;
  so.dispatch = mp::sched::DispatchPolicy::HybridBmcIc3;
  so.ic3_slice_seconds = 0.05;
  so.bmc_depth_per_sweep = 4;
  so.bmc_max_depth = 32;
  so.engine.tracer = &tracer;
  so.engine.metrics = &metrics;
  mp::MultiResult r = mp::sched::Scheduler(ts, so).run();

  std::uint64_t total_slices = 0;
  for (const mp::PropertyResult& pr : r.per_property) {
    total_slices += static_cast<std::uint64_t>(pr.slices);
  }

  // Every consumed budget slice appears as a "task/slice" span carrying
  // its property tag, a non-negative slice index, and an outcome arg.
  std::uint64_t slice_spans = 0;
  std::uint64_t rounds_spans = 0;
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (std::string_view(ev.category) == "task" &&
        std::string_view(ev.name) == "slice") {
      slice_spans++;
      EXPECT_EQ(ev.phase, 'X');
      EXPECT_GE(ev.property, 0);
      EXPECT_GE(ev.slice, 0);
      EXPECT_NE(ev.args.find("\"outcome\":"), std::string::npos);
    }
    if (std::string_view(ev.category) == "sched" &&
        std::string_view(ev.name) == "round") {
      rounds_spans++;
    }
  }
  EXPECT_GE(slice_spans, total_slices);
  EXPECT_GT(total_slices, 0u);
  EXPECT_EQ(r.metrics.counter("task.slices"), slice_spans);
  EXPECT_EQ(r.metrics.counter("sched.rounds"), rounds_spans);
  EXPECT_EQ(r.metrics.counter("task.closed"),
            static_cast<std::uint64_t>(ts.num_properties()));

  // One heartbeat per round, counters monotonic across the history.
  std::vector<obs::MetricsSnapshot> beats = metrics.heartbeats();
  EXPECT_EQ(beats.size(), static_cast<std::size_t>(rounds_spans));
  for (std::size_t i = 1; i < beats.size(); ++i) {
    EXPECT_GE(beats[i].elapsed_seconds, beats[i - 1].elapsed_seconds);
    for (const auto& [name, value] : beats[i - 1].counters) {
      EXPECT_GE(beats[i].counter(name), value) << name << " went backwards";
    }
  }
  // ... and the final result snapshot dominates the last heartbeat.
  if (!beats.empty()) {
    for (const auto& [name, value] : beats.back().counters) {
      EXPECT_GE(r.metrics.counter(name), value) << name << " went backwards";
    }
  }

  expect_exact_reconciliation(r);

  // The whole trace exports as parseable Chrome JSON.
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  Json doc = parse_json_or_die(out.str());
  EXPECT_EQ(doc.at("traceEvents").array.size(), tracer.event_count());
}

TEST(ObsEndToEnd, ShardedRunTagsSpansPerShardAndReconcilesExactly) {
  aig::Aig aig = gen::make_synthetic(small_multi_cone());
  ts::TransitionSystem ts(aig);

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  mp::shard::ShardedOptions so;
  so.base.proof_mode = mp::sched::ProofMode::Local;
  so.base.dispatch = mp::sched::DispatchPolicy::HybridBmcIc3;
  so.base.ic3_slice_seconds = 0.05;
  so.base.bmc_depth_per_sweep = 4;
  so.base.bmc_max_depth = 32;
  so.base.engine.tracer = &tracer;
  so.base.engine.metrics = &metrics;
  so.clustering.min_similarity = 0.3;
  so.clustering.max_cluster_size = 2;
  so.exchange = mp::exchange::ExchangeMode::Units;
  mp::shard::ShardedScheduler sched(ts, so);
  mp::MultiResult r = sched.run();
  ASSERT_GE(sched.num_shards(), 2u);

  // Slice spans carry (shard, property) tags; at least one span exists
  // per consumed slice.
  std::uint64_t total_slices = 0;
  for (const mp::PropertyResult& pr : r.per_property) {
    total_slices += static_cast<std::uint64_t>(pr.slices);
  }
  std::uint64_t slice_spans = 0;
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (std::string_view(ev.category) == "task" &&
        std::string_view(ev.name) == "slice") {
      slice_spans++;
      EXPECT_GE(ev.shard, 0);
      EXPECT_LT(ev.shard, static_cast<int>(sched.num_shards()));
      EXPECT_GE(ev.property, 0);
      EXPECT_LT(ev.property, static_cast<long long>(ts.num_properties()));
    }
  }
  EXPECT_GT(total_slices, 0u);
  EXPECT_GE(slice_spans, total_slices);

  // Registry totals reconcile exactly with the summed per-property
  // engine stats — the acceptance contract for the whole fold design.
  expect_exact_reconciliation(r);

  // Per-shard exchange stats cover every shard and sum to the bus-wide
  // aggregate the scheduler reports.
  ASSERT_EQ(r.exchange_per_shard.size(), sched.num_shards());
  mp::exchange::ExchangeStats sum;
  for (const mp::exchange::ExchangeStats& xs : r.exchange_per_shard) {
    sum.published += xs.published;
    sum.delivered += xs.delivered;
    sum.imported += xs.imported;
    sum.rejected += xs.rejected;
    sum.redundant += xs.redundant;
  }
  const mp::exchange::ExchangeStats& global = sched.exchange_stats();
  EXPECT_EQ(sum.published, global.published);
  EXPECT_EQ(sum.delivered, global.delivered);
  EXPECT_EQ(sum.imported, global.imported);
  EXPECT_EQ(sum.rejected, global.rejected);
  EXPECT_EQ(sum.redundant, global.redundant);
  EXPECT_EQ(r.metrics.counter("exchange.published"), global.published);
  EXPECT_EQ(r.metrics.counter("exchange.delivered"), global.delivered);
  EXPECT_EQ(r.metrics.counter("exchange.imported"), global.imported);
}

TEST(ObsEndToEnd, DisabledRunRecordsNoEventsAndNoMetrics) {
  // Observability off (the default): a full sharded run must record
  // nothing into a bystander tracer/registry and return empty metrics —
  // the disabled path really is one branch, not "fewer events".
  aig::Aig aig = gen::make_synthetic(small_multi_cone());
  ts::TransitionSystem ts(aig);

  obs::Tracer bystander_tracer;
  obs::MetricsRegistry bystander_metrics;
  mp::shard::ShardedOptions so;
  so.base.proof_mode = mp::sched::ProofMode::Local;
  so.base.dispatch = mp::sched::DispatchPolicy::HybridBmcIc3;
  so.base.ic3_slice_seconds = 0.05;
  so.base.bmc_depth_per_sweep = 4;
  so.base.bmc_max_depth = 32;
  so.clustering.min_similarity = 0.3;
  so.clustering.max_cluster_size = 2;
  mp::MultiResult r = mp::shard::ShardedScheduler(ts, so).run();

  EXPECT_EQ(bystander_tracer.event_count(), 0u);
  EXPECT_TRUE(bystander_metrics.snapshot().empty());
  EXPECT_TRUE(bystander_metrics.heartbeats().empty());
  EXPECT_TRUE(r.metrics.empty());
  EXPECT_EQ(r.metrics.counter("task.slices"), 0u);
}

}  // namespace
}  // namespace javer
