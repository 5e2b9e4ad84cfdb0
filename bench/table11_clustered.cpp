// Table XI (extension, not from the paper): cluster-sharded scheduling
// with the cross-engine lemma exchange vs. plain JA-verification, on a
// multi-cone synthetic family (several independent rings + filler + a
// failing debugging set — the shape where structure-aware clustering has
// real partitions to find).
// Shapes checked:
//  * the sharded engine reproduces its own exchange-off verdicts exactly
//    with the units exchange on (the soundness contract — BMC prefix
//    units are re-validated by the consuming engines, so they can prune
//    work but never flip a verdict);
//  * sharded verdicts match plain JA verdict-for-verdict;
//  * the exchange reports non-trivial traffic (hit-rate metrics).
#include <cstdio>
#include <fstream>
#include <string>

#include "bench_util.h"
#include "mp/exchange/lemma_bus.h"
#include "mp/sched/scheduler.h"
#include "mp/shard/sharded_scheduler.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "ts/transition_system.h"

using namespace javer;

namespace {

std::vector<bench::NamedDesign> multi_cone_family() {
  // Several independent cones per design (rings + pair/unreachable
  // filler) so cluster_properties finds genuine partitions; a shallow
  // debugging set keeps the BMC sweeps busy producing prefix units.
  double s = bench::scale();
  auto scaled = [&](std::size_t v) {
    return static_cast<std::size_t>(v * s);
  };
  std::vector<bench::NamedDesign> family;
  auto add = [&](const std::string& name, std::uint64_t seed,
                 std::size_t rings, std::size_t ring_size, std::size_t pairs,
                 std::size_t unreach, std::size_t gated,
                 std::size_t masked) {
    gen::SyntheticSpec spec;
    spec.seed = seed;
    spec.wrap_counter_bits = 11;
    spec.sat_counter_bits = 7;
    spec.rings = rings;
    spec.ring_size = ring_size;
    spec.ring_props = rings * ring_size;
    spec.pair_props = scaled(pairs);
    spec.unreachable_props = scaled(unreach);
    spec.det_fail_props = 1;
    spec.input_fail_props = gated;
    spec.masked_fail_props = masked;
    family.push_back({name, spec});
  };
  // name           seed rings rsz pairs unreach gated masked
  add("mc-r3x5",     71,    3,  5,    4,      4,    1,     1);
  add("mc-r4x6",     72,    4,  6,    2,      6,    2,     1);
  add("mc-r2x8",     73,    2,  8,    6,      2,    1,     2);
  add("mc-r5x4",     74,    5,  4,    3,      5,    2,     1);
  return family;
}

}  // namespace

int main(int argc, char** argv) {
  // --trace-out FILE records every sharded run into one Chrome trace (CI
  // smokes the observability layer through this; tools/check_trace.py
  // validates the artifact). --profile-out/--profile-folded do the same
  // for the phase profiler: every sharded run folds into one latency
  // histogram set, exported as JSON / flamegraph folded stacks.
  std::string trace_out;
  std::string profile_out;
  std::string profile_folded;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (arg == "--profile-out" && i + 1 < argc) {
      profile_out = argv[++i];
    } else if (arg == "--profile-folded" && i + 1 < argc) {
      profile_folded = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace-out FILE] [--profile-out FILE] "
                   "[--profile-folded FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  obs::Tracer tracer;
  obs::Tracer* tracer_ptr = trace_out.empty() ? nullptr : &tracer;
  obs::PhaseProfiler profiler;
  obs::PhaseProfiler* profiler_ptr =
      (profile_out.empty() && profile_folded.empty()) ? nullptr : &profiler;

  bench::BenchJson json("table11");
  bench::print_title(
      "Table XI",
      "Cluster-sharded scheduling with cross-engine lemma exchange vs. "
      "JA-verification on multi-cone designs. #false(#true) counts solved "
      "properties.");

  double prop_limit = bench::budget(2.0);

  std::printf("%9s %5s %5s %4s | %-21s | %-21s | %-21s\n", "", "", "", "",
              "JA (reference)", "sharded (exch off)", "sharded (exch units)");
  std::printf("%9s %5s %5s %4s | %9s %11s | %9s %11s | %9s %11s\n", "name",
              "#lat", "#prop", "#shd", "#f(#t)", "time", "#f(#t)", "time",
              "#f(#t)", "time");
  std::printf("----------------------------+----------------------+---------"
              "-------------+---------------------\n");

  bool exchange_matches_off = true;
  bool sharded_matches_ja = true;
  bool exchange_traffic = false;
  double ja_total = 0, sharded_total = 0;
  std::uint64_t delivered_total = 0, imported_total = 0;
  std::uint64_t redundant_total = 0;

  for (const auto& d : multi_cone_family()) {
    aig::Aig design = gen::make_synthetic(d.spec);
    ts::TransitionSystem ts(design);

    // JA-verification with clause re-use (the reference engine).
    mp::sched::SchedulerOptions ja_opts;
    ja_opts.proof_mode = mp::sched::ProofMode::Local;
    ja_opts.engine.time_limit_per_property = prop_limit;
    mp::MultiResult ja_result = mp::sched::Scheduler(ts, ja_opts).run();
    bench::Summary ja = bench::summarize(ja_result);
    bench::record_row(d.name, "ja-reference", ja);

    // Sharded hybrid, exchange off / units.
    auto run_sharded = [&](mp::exchange::ExchangeMode mode,
                           mp::MultiResult& out,
                           mp::exchange::ExchangeStats& xs,
                           std::size_t& shards) {
      mp::shard::ShardedOptions so;
      so.base.proof_mode = mp::sched::ProofMode::Local;
      so.base.dispatch = mp::sched::DispatchPolicy::HybridBmcIc3;
      so.base.engine.time_limit_per_property = prop_limit;
      so.base.engine.tracer = tracer_ptr;
      so.base.engine.profiler = profiler_ptr;
      so.clustering.min_similarity = 0.5;
      so.exchange = mode;
      mp::shard::ShardedScheduler sched(ts, so);
      out = sched.run();
      xs = sched.exchange_stats();
      shards = sched.num_shards();
    };

    mp::MultiResult r_off, r_units;
    mp::exchange::ExchangeStats xs_off, xs_units;
    std::size_t shards = 0;
    run_sharded(mp::exchange::ExchangeMode::Off, r_off, xs_off, shards);
    run_sharded(mp::exchange::ExchangeMode::Units, r_units, xs_units, shards);
    bench::Summary s_off = bench::summarize(r_off);
    bench::Summary s_units = bench::summarize(r_units);
    bench::record_row(d.name, "sharded-off", s_off);
    bench::record_row(d.name, "sharded-units", s_units);

    for (std::size_t p = 0; p < ts.num_properties(); ++p) {
      if (r_units.per_property[p].verdict != r_off.per_property[p].verdict) {
        exchange_matches_off = false;
      }
      if (r_units.per_property[p].verdict !=
          ja_result.per_property[p].verdict) {
        sharded_matches_ja = false;
      }
    }
    if (xs_units.delivered > 0) exchange_traffic = true;
    delivered_total += xs_units.delivered;
    imported_total += xs_units.imported;
    redundant_total += xs_units.redundant;

    auto ft = [](const bench::Summary& s) {
      return std::to_string(s.num_false) + "(" + std::to_string(s.num_true) +
             ")";
    };
    std::printf("%9s %5zu %5zu %4zu | %9s %11s | %9s %11s | %9s %11s\n",
                d.name.c_str(), design.num_latches(), design.num_properties(),
                shards, ft(ja).c_str(), bench::fmt_time(ja.seconds).c_str(),
                ft(s_off).c_str(), bench::fmt_time(s_off.seconds).c_str(),
                ft(s_units).c_str(), bench::fmt_time(s_units.seconds).c_str());

    ja_total += ja.seconds;
    sharded_total += s_units.seconds;
  }

  std::printf("\ntotals: JA %s, sharded(units) %s; exchange delivered %llu, "
              "imported %llu, redundant %llu\n",
              bench::fmt_time(ja_total).c_str(),
              bench::fmt_time(sharded_total).c_str(),
              static_cast<unsigned long long>(delivered_total),
              static_cast<unsigned long long>(imported_total),
              static_cast<unsigned long long>(redundant_total));
  bench::record_metric("ja_total_seconds", ja_total);
  bench::record_metric("sharded_units_total_seconds", sharded_total);
  bench::record_metric("exchange_delivered", static_cast<double>(delivered_total));
  bench::record_metric("exchange_imported", static_cast<double>(imported_total));
  bench::record_metric("exchange_redundant", static_cast<double>(redundant_total));

  bench::print_shape(
      "lemma exchange reproduces the exchange-off verdicts exactly "
      "(units mode)",
      exchange_matches_off);
  bench::print_shape("sharded scheduling matches JA verdict-for-verdict",
                     sharded_matches_ja);
  bench::print_shape("the lemma exchange carries traffic (delivered > 0)",
                     exchange_traffic);

  if (tracer_ptr != nullptr) {
    std::ofstream out(trace_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "error: cannot write trace file '%s'\n",
                   trace_out.c_str());
      return 2;
    }
    tracer.write_chrome_trace(out);
    std::printf("trace: %zu event(s) -> %s\n", tracer.event_count(),
                trace_out.c_str());
  }
  if (!profile_out.empty()) {
    std::ofstream out(profile_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "error: cannot write profile file '%s'\n",
                   profile_out.c_str());
      return 2;
    }
    profiler.write_json(out);
    std::printf("profile: %zu slot(s) -> %s\n", profiler.slots().size(),
                profile_out.c_str());
  }
  if (!profile_folded.empty()) {
    std::ofstream out(profile_folded, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "error: cannot write profile file '%s'\n",
                   profile_folded.c_str());
      return 2;
    }
    profiler.write_folded(out);
  }
  return 0;
}
