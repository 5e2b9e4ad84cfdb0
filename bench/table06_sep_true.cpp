// Table VI reproduction: separate verification with global vs local
// proofs on the all-true designs. Paper shape: the two are comparable
// here (the effect of local proofs shows mainly on failing designs),
// with local never substantially worse.
#include <cstdio>

#include "bench_util.h"
#include "mp/ja_verifier.h"
#include "mp/sched/scheduler.h"
#include "ts/transition_system.h"

using namespace javer;

int main() {
  bench::BenchJson json("table06");
  bench::print_title(
      "Table VI",
      "Separate verification with global vs local proofs, all-true "
      "designs (clause re-use on in both).");

  double prop_limit = bench::budget(3.0);

  std::printf("%9s %6s | %10s %10s | %10s %10s\n", "name", "#prop",
              "glob #un", "time", "loc #un", "time");
  std::printf("-----------------+-----------------------+------------------"
              "-----\n");

  double global_total = 0, local_total = 0;
  bool all_solved = true;

  for (const auto& d : bench::all_true_family()) {
    aig::Aig design = gen::make_synthetic(d.spec);
    ts::TransitionSystem ts(design);

    mp::sched::SchedulerOptions global_opts;
    global_opts.proof_mode = mp::sched::ProofMode::Global;
    global_opts.engine.clause_reuse = true;
    global_opts.engine.time_limit_per_property = prop_limit;
    bench::Summary glob =
        bench::summarize(mp::sched::Scheduler(ts, global_opts).run());
    bench::record_row(d.name, "separate-global", glob);

    // Separate verification with local proofs is the JA run.
    mp::JaOptions local_opts;
    local_opts.clause_reuse = true;
    local_opts.time_limit_per_property = prop_limit;
    bench::Summary loc = bench::summarize(mp::JaVerifier(ts, local_opts).run());
    bench::record_row(d.name, "separate-local", loc);

    std::printf("%9s %6zu | %10zu %10s | %10zu %10s\n", d.name.c_str(),
                design.num_properties(), glob.num_unsolved,
                bench::fmt_time(glob.seconds).c_str(), loc.num_unsolved,
                bench::fmt_time(loc.seconds).c_str());

    global_total += glob.seconds;
    local_total += loc.seconds;
    all_solved &= (glob.num_unsolved == 0 && loc.num_unsolved == 0);
  }

  std::printf("\ntotals: global %s, local %s\n",
              bench::fmt_time(global_total).c_str(),
              bench::fmt_time(local_total).c_str());
  bench::print_shape("both modes solve everything on all-true designs",
                     all_solved);
  bench::print_shape(
      "global and local proofs are comparable on all-true designs "
      "(local within 0.3x-3x of global overall)",
      local_total < 3.0 * global_total &&
          global_total < 3.0 * std::max(local_total, 1e-3));
  return 0;
}
