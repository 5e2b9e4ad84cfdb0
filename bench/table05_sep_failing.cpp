// Table V reproduction: separate verification with global vs local proofs
// on the failing designs (both with clause re-use). Paper shape: local
// proofs dramatically outperform global ones here — global verification
// must compute a deep CEX per masked property, local verification proves
// them true locally instead.
#include <cstdio>

#include "bench_util.h"
#include "mp/ja_verifier.h"
#include "mp/sched/scheduler.h"
#include "ts/transition_system.h"

using namespace javer;

int main() {
  bench::BenchJson json("table05");
  bench::print_title(
      "Table V",
      "Separate verification with global vs local proofs, designs with "
      "failing properties (clause re-use on in both).");

  double prop_limit = bench::budget(1.5);

  std::printf("%9s %6s | %10s %10s | %10s %10s\n", "name", "#prop",
              "glob #un", "time", "loc #un", "time");
  std::printf("-----------------+-----------------------+------------------"
              "-----\n");

  bool local_never_worse = true;
  bool local_dramatically_better = false;
  double global_total = 0, local_total = 0;

  for (const auto& d : bench::failing_family()) {
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

    local_never_worse &= (loc.num_unsolved <= glob.num_unsolved);
    if (glob.num_unsolved > 0 && loc.num_unsolved == 0) {
      local_dramatically_better = true;
    }
    if (glob.seconds > 5.0 * std::max(loc.seconds, 1e-3)) {
      local_dramatically_better = true;
    }
    global_total += glob.seconds;
    local_total += loc.seconds;
  }

  bench::record_metric("global_total_seconds", global_total);
  bench::record_metric("local_total_seconds", local_total);
  std::printf("\ntotals: global %s, local %s\n",
              bench::fmt_time(global_total).c_str(),
              bench::fmt_time(local_total).c_str());
  bench::print_shape("local proofs never leave more unsolved than global",
                     local_never_worse);
  bench::print_shape(
      "local proofs dramatically outperform global on failing designs",
      local_dramatically_better && local_total < global_total);
  return 0;
}
