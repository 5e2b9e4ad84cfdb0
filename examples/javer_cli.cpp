// javer_cli: a command-line multi-property model checker over AIGER files
// exposing every verification mode of the library, including the
// scheduler's hybrid BMC+IC3 policy. Run with --help for the full option
// reference.
//
// Exit code: 0 all properties hold, 1 some property fails, 2 unsolved
// properties remain, 3 usage/input error or failed certification.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "aig/aiger_io.h"
#include "base/log.h"
#include "base/timer.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "ic3/certify.h"
#include "persist/persist.h"
#include "mp/joint_verifier.h"
#include "mp/ordering.h"
#include "mp/exchange/lemma_bus.h"
#include "mp/report.h"
#include "mp/sched/scheduler.h"
#include "mp/shard/sharded_scheduler.h"
#include "mp/simfilter/options.h"
#include "ts/witness.h"

namespace {

struct CliOptions {
  std::string engine = "ja";
  std::string path;
  std::string order = "design";
  std::string clause_db_path;
  std::string cache_dir;
  std::string trace_out;
  std::string metrics_out;
  std::string profile_out;
  std::string profile_folded;
  std::string sim_prefilter = "off";  // off | falsify | full
  std::string fault_inject;           // fault::FaultPlan spec; empty = off
  javer::LogLevel log_level = javer::LogLevel::Silent;
  double time_limit = 60.0;
  unsigned threads = 0;  // 0 = hardware concurrency (parallel/hybrid)
  int bmc_depth = 64;    // hybrid/sharded: cap on the shared BMC unrolling
  int sim_depth = 32;        // prefilter: steps per pattern batch
  int sim_patterns = 256;    // prefilter: total patterns (rounded to 64s)
  unsigned long seed = 1;    // base/rng seed (prefilter, --order shuffle)
  bool cache_gc = false;     // run cache eviction instead of verifying
  unsigned long cache_max_bytes = 0;    // --cache-gc size cap; 0 = none
  double cache_max_age_days = 0.0;      // --cache-gc age cap; 0 = none
  double cluster_threshold = 0.5;     // sharded: min similarity
  std::size_t max_cluster_size = 64;  // sharded: shard size cap
  javer::mp::exchange::ExchangeMode lemma_exchange =
      javer::mp::exchange::ExchangeMode::Units;  // sharded only
  bool reuse = true;
  bool strict_lifting = false;
  bool simplify = false;
  bool witness = false;
  bool certify = false;
  bool quiet = false;
  bool help = false;
  bool progress = false;
  bool progress_verbose = false;
  double progress_interval = 5.0;
  bool watchdog = false;  // --watchdog-sec given
  double watchdog_sec = 30.0;
  std::vector<std::size_t> etf;
};

void usage(std::FILE* out) {
  std::fprintf(out,
"usage: javer_cli [options] <design.aig|aag>\n"
"\n"
"A multi-property model checker implementing the paper's JA-verification\n"
"(\"just assume\") framework: every mode but joint is a policy preset of\n"
"one property scheduler (src/mp/sched/).\n"
"\n"
"engine selection:\n"
"  --engine NAME        separate | ja | joint | parallel | hybrid |\n"
"                       sharded               (default: ja)\n"
"                         separate  global proofs, one property at a time\n"
"                         ja        local proofs + clause re-use (paper's\n"
"                                   headline algorithm)\n"
"                         joint     one IC3 run on the conjunction,\n"
"                                   CEX-refine loop\n"
"                         parallel  JA on a work-stealing worker pool\n"
"                         hybrid    shared BMC falsification sweeps\n"
"                                   interleaved with IC3 proof slices\n"
"                         sharded   one hybrid BMC+IC3 shard per cluster\n"
"                                   (own task pool + clause-db shard),\n"
"                                   shards balanced across the worker\n"
"                                   pool, lemmas exchanged per shard\n"
"  --mode NAME          deprecated alias for --engine (also accepts\n"
"                       separate-global)\n"
"\n"
"resource limits:\n"
"  --time-limit SEC     per property (separate/ja/parallel/hybrid/\n"
"                       sharded) or total (joint)     (default: 60)\n"
"  --threads N          worker threads for parallel/hybrid/sharded;\n"
"                       0 = all hardware threads      (default: 0)\n"
"  --bmc-depth N        hybrid/sharded: cap on the shared BMC unrolling\n"
"                       depth                         (default: 64)\n"
"\n"
"simulation prefilter (not for joint):\n"
"  --sim-prefilter M    off | falsify | full          (default: off)\n"
"                         falsify  batched 64-wide random simulation\n"
"                                  before any SAT work; every hit is\n"
"                                  replayed and certified through the\n"
"                                  witness checker before it may close a\n"
"                                  property, and behavior signatures feed\n"
"                                  the sharded engine's clustering\n"
"                         full     falsify + near-miss \"just assume\"\n"
"                                  prefix seeds into the BMC sweeps\n"
"                                  (hybrid/sharded)\n"
"  --sim-depth N        prefilter: steps simulated per pattern\n"
"                       (default: 32)\n"
"  --sim-patterns N     prefilter: total patterns, rounded up to a\n"
"                       multiple of 64                (default: 256)\n"
"  --seed N             base RNG seed for the prefilter and --order\n"
"                       shuffle; identical seeds reproduce identical\n"
"                       sweeps                        (default: 1)\n"
"\n"
"cache maintenance:\n"
"  --cache-gc           garbage-collect --cache-dir instead of verifying\n"
"                       (no design file needed): removes corrupt entries\n"
"                       and abandoned staging files, then applies the age\n"
"                       and size caps below (oldest first, by last use)\n"
"  --cache-max-bytes N    --cache-gc: size cap on the cache (0 = none)\n"
"  --cache-max-age-days D --cache-gc: evict entries unused for more than\n"
"                         D days (0 = none)\n"
"\n"
"sharded knobs:\n"
"  --cluster-threshold F  minimum Jaccard cone similarity for two\n"
"                         properties to share a cluster, in [0,1]\n"
"                         (default: 0.5)\n"
"  --max-cluster-size N   cap on properties per cluster; oversized\n"
"                         would-be clusters split    (default: 64)\n"
"  --lemma-exchange M     off | units\n"
"                           off    no cross-engine traffic\n"
"                           units  BMC prefix units seed the shard's IC3\n"
"                                  tasks' F_inf (re-validated in-engine)\n"
"                         (default: units)\n"
"\n"
"strategy knobs:\n"
"  --order KIND         design | cone | shuffle       (default: design)\n"
"  --no-reuse           disable strengthening-clause re-use\n"
"  --strict-lifting     lifting respects property constraints (paper 7-A)\n"
"  --simplify           simplify the CNF (subsumption + bounded variable\n"
"                       elimination, sat/simp/) once per IC3 template\n"
"  --etf I              mark property I Expected-To-Fail; repeatable\n"
"                       (ETF properties are never assumed)\n"
"\n"
"fault injection (resilience testing; not for joint):\n"
"  --fault-inject SPEC  deterministic fault plan, ';'-separated entries:\n"
"                         seed=N            plan RNG seed (default: 1)\n"
"                         SITE[@N][+][:OPTS] inject at SITE's Nth hit\n"
"                                           (default: 1st); trailing '+'\n"
"                                           = every hit from the Nth on\n"
"                       sites: sat.alloc ic3.consecution ic3.mic\n"
"                         bmc.solve persist.store persist.load\n"
"                         persist.store.crash task.stall\n"
"                       opts (','-separated): prop=K (only property K),\n"
"                         stall=SECS (task.stall length), p=PROB\n"
"                         (seeded coin per hit instead of @N)\n"
"                       failed tasks are quarantined and retried on a\n"
"                       degrade ladder; post-retry verdicts re-certified\n"
"                       (see README \"Resilience\")\n"
"\n"
"input/output:\n"
"  --clause-db FILE     load/save the clause database (the paper's\n"
"                       external clauseDB); a missing FILE starts empty,\n"
"                       a malformed one exits 3 and is left untouched\n"
"  --cache-dir DIR      warm-start cache (src/persist): persist the\n"
"                       design's CNF templates and per-shard clause-db\n"
"                       snapshots, keyed by design fingerprint, so a\n"
"                       re-run of an unchanged design skips the\n"
"                       encode+simplify pass and seeds shards from the\n"
"                       previous run's invariants (everything loaded is\n"
"                       re-validated; corrupt caches degrade to a cold\n"
"                       run). Not supported for the joint engine.\n"
"  --trace-out FILE     write a Chrome trace-event JSON timeline of the\n"
"                       run (scheduler rounds, per-slice IC3 spans, BMC\n"
"                       sweeps, lemma exchange, persist I/O) — load it in\n"
"                       chrome://tracing or https://ui.perfetto.dev\n"
"  --metrics-out FILE   write the run's counter registry as JSONL: one\n"
"                       \"heartbeat\" snapshot per scheduler round plus a\n"
"                       \"final\" line\n"
"  --profile-out FILE   write per-(phase, shard, property) latency\n"
"                       histograms (IC3 SAT queries by kind, BMC solves,\n"
"                       template replay, persist I/O) as JSON\n"
"  --profile-folded FILE  same data as folded-stack lines for\n"
"                       flamegraph.pl / speedscope\n"
"\n"
"run-health monitor:\n"
"  --progress[=SECS]    print a one-line progress report on stderr every\n"
"                       SECS seconds (default: 5) plus a final summary\n"
"  --progress-verbose   progress plus per-task rows, stalest first\n"
"  --watchdog-sec S     stall threshold: a running task with no activity\n"
"                       for S seconds emits a watchdog/stall trace\n"
"                       instant + obs.stalls metric   (default: 30); the\n"
"                       watchdog only observes, it never suspends a task;\n"
"                       without --progress it samples every S/2 seconds\n"
"  --log-level L        silent | info | verbose | debug (or 0..3): engine\n"
"                       logging on stderr           (default: silent)\n"
"  --witness            print AIGER witnesses for failed properties on\n"
"                       stdout (report moves to stderr)\n"
"  --certify            re-check every proof with independent SAT queries\n"
"                       (initiation/consecution/safety)\n"
"  --quiet              summary only\n"
"  --help, -h           this text\n"
"\n"
"exit code: 0 all properties hold, 1 some property fails, 2 unsolved\n"
"properties remain, 3 usage/input error or failed certification.\n");
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0' && out >= 0;
}

bool parse_number(const char* text, unsigned long& out) {
  // strtoul silently wraps negative input ("-1" -> ULONG_MAX) and clamps
  // input past ULONG_MAX (flagged by ERANGE); reject both.
  if (text[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoul(text, &end, 10);
  return end != text && *end == '\0' && errno != ERANGE;
}

bool parse_args(int argc, char** argv, CliOptions& opts) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "javer_cli: %s needs an argument\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    auto next_number = [&](const char* what, unsigned long& out) {
      const char* v = next(what);
      if (v == nullptr) return false;
      if (!parse_number(v, out)) {
        std::fprintf(stderr, "javer_cli: %s wants a number, got '%s'\n",
                     what, v);
        return false;
      }
      return true;
    };
    // A number for a field narrower than unsigned long: a value the field
    // cannot hold is a usage error, not a silent wrap.
    auto next_field = [&](const char* what, auto& field) {
      using Field = std::remove_reference_t<decltype(field)>;
      constexpr unsigned long kMax = std::numeric_limits<Field>::max();
      unsigned long n = 0;
      if (!next_number(what, n)) return false;
      if (n > kMax) {
        std::fprintf(stderr,
                     "javer_cli: %s wants a number in [0, %lu], got '%lu'\n",
                     what, kMax, n);
        return false;
      }
      field = static_cast<Field>(n);
      return true;
    };
    if (arg == "--engine" || arg == "--mode") {
      const char* v = next(arg.c_str());
      if (v == nullptr) return false;
      opts.engine = v;
    } else if (arg == "--time-limit") {
      const char* v = next("--time-limit");
      if (v == nullptr) return false;
      if (!parse_number(v, opts.time_limit)) {
        std::fprintf(stderr,
                     "javer_cli: --time-limit wants a non-negative number, "
                     "got '%s'\n", v);
        return false;
      }
    } else if (arg == "--threads") {
      if (!next_field("--threads", opts.threads)) return false;
    } else if (arg == "--bmc-depth") {
      if (!next_field("--bmc-depth", opts.bmc_depth)) return false;
    } else if (arg == "--sim-prefilter") {
      const char* v = next("--sim-prefilter");
      if (v == nullptr) return false;
      if (std::strcmp(v, "off") != 0 && std::strcmp(v, "falsify") != 0 &&
          std::strcmp(v, "full") != 0) {
        std::fprintf(stderr,
                     "javer_cli: --sim-prefilter wants off|falsify|full, "
                     "got '%s'\n", v);
        return false;
      }
      opts.sim_prefilter = v;
    } else if (arg == "--sim-depth") {
      if (!next_field("--sim-depth", opts.sim_depth)) return false;
    } else if (arg == "--sim-patterns") {
      if (!next_field("--sim-patterns", opts.sim_patterns)) return false;
    } else if (arg == "--seed") {
      if (!next_number("--seed", opts.seed)) return false;
    } else if (arg == "--fault-inject") {
      const char* v = next("--fault-inject");
      if (v == nullptr) return false;
      if (*v == '\0') {
        std::fprintf(stderr, "javer_cli: --fault-inject wants a plan\n");
        return false;
      }
      opts.fault_inject = v;
    } else if (arg == "--cache-gc") {
      opts.cache_gc = true;
    } else if (arg == "--cache-max-bytes") {
      if (!next_number("--cache-max-bytes", opts.cache_max_bytes)) {
        return false;
      }
    } else if (arg == "--cache-max-age-days") {
      const char* v = next("--cache-max-age-days");
      if (v == nullptr) return false;
      if (!parse_number(v, opts.cache_max_age_days)) {
        std::fprintf(stderr,
                     "javer_cli: --cache-max-age-days wants a non-negative "
                     "number, got '%s'\n", v);
        return false;
      }
    } else if (arg == "--cluster-threshold") {
      const char* v = next("--cluster-threshold");
      if (v == nullptr) return false;
      if (!parse_number(v, opts.cluster_threshold) ||
          opts.cluster_threshold > 1.0) {
        std::fprintf(stderr,
                     "javer_cli: --cluster-threshold wants a number in "
                     "[0,1], got '%s'\n", v);
        return false;
      }
    } else if (arg == "--max-cluster-size") {
      unsigned long n = 0;
      if (!next_number("--max-cluster-size", n)) return false;
      if (n == 0) {
        std::fprintf(stderr,
                     "javer_cli: --max-cluster-size wants a positive "
                     "integer\n");
        return false;
      }
      opts.max_cluster_size = static_cast<std::size_t>(n);
    } else if (arg == "--lemma-exchange") {
      const char* v = next("--lemma-exchange");
      if (v == nullptr) return false;
      auto mode = javer::mp::exchange::parse_exchange_mode(v);
      if (!mode) {
        std::fprintf(stderr,
                     "javer_cli: --lemma-exchange wants off|units, "
                     "got '%s'\n", v);
        return false;
      }
      opts.lemma_exchange = *mode;
    } else if (arg == "--order") {
      const char* v = next("--order");
      if (v == nullptr) return false;
      opts.order = v;
    } else if (arg == "--etf") {
      unsigned long n = 0;
      if (!next_number("--etf", n)) return false;
      opts.etf.push_back(n);
    } else if (arg == "--clause-db") {
      const char* v = next("--clause-db");
      if (v == nullptr) return false;
      opts.clause_db_path = v;
    } else if (arg == "--cache-dir") {
      const char* v = next("--cache-dir");
      if (v == nullptr) return false;
      if (*v == '\0') {
        std::fprintf(stderr, "javer_cli: --cache-dir wants a directory\n");
        return false;
      }
      opts.cache_dir = v;
    } else if (arg == "--trace-out") {
      const char* v = next("--trace-out");
      if (v == nullptr) return false;
      if (*v == '\0') {
        std::fprintf(stderr, "javer_cli: --trace-out wants a file name\n");
        return false;
      }
      opts.trace_out = v;
    } else if (arg == "--metrics-out") {
      const char* v = next("--metrics-out");
      if (v == nullptr) return false;
      if (*v == '\0') {
        std::fprintf(stderr, "javer_cli: --metrics-out wants a file name\n");
        return false;
      }
      opts.metrics_out = v;
    } else if (arg == "--profile-out") {
      const char* v = next("--profile-out");
      if (v == nullptr) return false;
      if (*v == '\0') {
        std::fprintf(stderr, "javer_cli: --profile-out wants a file name\n");
        return false;
      }
      opts.profile_out = v;
    } else if (arg == "--profile-folded") {
      const char* v = next("--profile-folded");
      if (v == nullptr) return false;
      if (*v == '\0') {
        std::fprintf(stderr,
                     "javer_cli: --profile-folded wants a file name\n");
        return false;
      }
      opts.profile_folded = v;
    } else if (arg == "--progress" || arg.rfind("--progress=", 0) == 0) {
      opts.progress = true;
      if (arg.size() > std::strlen("--progress")) {
        const std::string v = arg.substr(std::strlen("--progress="));
        if (!parse_number(v.c_str(), opts.progress_interval) ||
            opts.progress_interval <= 0) {
          std::fprintf(stderr,
                       "javer_cli: --progress wants a positive number of "
                       "seconds, got '%s'\n", v.c_str());
          return false;
        }
      }
    } else if (arg == "--progress-verbose") {
      opts.progress = true;
      opts.progress_verbose = true;
    } else if (arg == "--watchdog-sec") {
      const char* v = next("--watchdog-sec");
      if (v == nullptr) return false;
      if (!parse_number(v, opts.watchdog_sec) || opts.watchdog_sec <= 0) {
        std::fprintf(stderr,
                     "javer_cli: --watchdog-sec wants a positive number, "
                     "got '%s'\n", v);
        return false;
      }
      opts.watchdog = true;
    } else if (arg == "--log-level") {
      const char* v = next("--log-level");
      if (v == nullptr) return false;
      auto level = javer::parse_log_level(v);
      if (!level) {
        std::fprintf(stderr,
                     "javer_cli: --log-level wants silent|info|verbose|debug "
                     "(or 0..3), got '%s'\n", v);
        return false;
      }
      opts.log_level = *level;
    } else if (arg == "--no-reuse") {
      opts.reuse = false;
    } else if (arg == "--strict-lifting") {
      opts.strict_lifting = true;
    } else if (arg == "--simplify") {
      opts.simplify = true;
    } else if (arg == "--witness") {
      opts.witness = true;
    } else if (arg == "--certify") {
      opts.certify = true;
    } else if (arg == "--quiet") {
      opts.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      opts.help = true;
      return true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "javer_cli: unknown option '%s'\n", arg.c_str());
      return false;
    } else if (!opts.path.empty()) {
      std::fprintf(stderr, "javer_cli: unexpected extra argument '%s'\n",
                   arg.c_str());
      return false;
    } else {
      opts.path = arg;
    }
  }
  if (opts.path.empty() && !opts.cache_gc) {
    std::fprintf(stderr, "javer_cli: no design file given\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace javer;
  CliOptions cli;
  if (!parse_args(argc, argv, cli)) {
    usage(stderr);
    return 3;
  }
  if (cli.help) {
    usage(stdout);
    return 0;
  }
  set_log_level(cli.log_level);

  if (cli.cache_gc) {
    // Maintenance mode: one eviction pass over the warm-start cache, no
    // verification. A GC pass only costs warmth, never soundness.
    if (cli.cache_dir.empty()) {
      std::fprintf(stderr, "javer_cli: --cache-gc needs --cache-dir\n");
      return 3;
    }
    persist::GcOptions gc_opts;
    gc_opts.max_bytes = cli.cache_max_bytes;
    gc_opts.max_age_days = cli.cache_max_age_days;
    persist::GcStats gc;
    try {
      gc = persist::collect_garbage(cli.cache_dir, gc_opts);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "javer_cli: %s\n", e.what());
      return 3;
    }
    std::printf(
        "cache-gc: %s: %llu entr%s scanned, %llu kept "
        "(%llu -> %llu bytes); removed: %llu by age, %llu by size, "
        "%llu corrupt, %llu stale tmp\n",
        cli.cache_dir.c_str(), static_cast<unsigned long long>(gc.scanned),
        gc.scanned == 1 ? "y" : "ies",
        static_cast<unsigned long long>(gc.kept),
        static_cast<unsigned long long>(gc.bytes_before),
        static_cast<unsigned long long>(gc.bytes_after),
        static_cast<unsigned long long>(gc.removed_age),
        static_cast<unsigned long long>(gc.removed_size),
        static_cast<unsigned long long>(gc.removed_corrupt),
        static_cast<unsigned long long>(gc.removed_stale_tmp));
    return 0;
  }

  aig::Aig design;
  try {
    design = aig::read_aiger_file(cli.path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "javer_cli: %s\n", e.what());
    return 3;
  }
  for (std::size_t i : cli.etf) {
    if (i >= design.num_properties()) {
      std::fprintf(stderr, "javer_cli: --etf %zu out of range\n", i);
      return 3;
    }
    design.properties()[i].expected_to_fail = true;
  }
  if (design.num_properties() == 0) {
    std::fprintf(stderr, "javer_cli: design has no properties\n");
    return 3;
  }

  if (cli.sim_prefilter != "off" && cli.engine == "joint") {
    // The aggregate engine has no per-property tasks for the filter's
    // kills/seeds to land on.
    std::fprintf(stderr,
                 "javer_cli: --sim-prefilter is not supported with --engine "
                 "%s\n", cli.engine.c_str());
    return 3;
  }

  if (!cli.fault_inject.empty()) {
    if (cli.engine == "joint") {
      // The aggregate engine has no per-property tasks to quarantine and
      // retry; a fault there still aborts the whole conjunction.
      std::fprintf(stderr,
                   "javer_cli: --fault-inject is not supported with --engine "
                   "%s\n", cli.engine.c_str());
      return 3;
    }
    try {
      // Validate now so a malformed plan is a loud usage error instead of
      // an engine-time exception.
      fault::FaultPlan::parse(cli.fault_inject);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "javer_cli: %s\n", e.what());
      return 3;
    }
  }

  if (!cli.cache_dir.empty()) {
    if (cli.engine == "joint") {
      // The aggregate engine builds a fresh per-iteration TS and exports
      // no per-property invariants, so there is nothing to persist.
      std::fprintf(stderr,
                   "javer_cli: --cache-dir is not supported with --engine "
                   "%s\n", cli.engine.c_str());
      return 3;
    }
    try {
      // Probe now (creates the directory) so an unusable cache is a loud
      // usage error instead of a silently cold run.
      persist::PersistCache probe(cli.cache_dir);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "javer_cli: %s\n", e.what());
      return 3;
    }
  }

  ts::TransitionSystem ts(design);
  if (!cli.quiet) {
    std::printf("%s: %zu inputs, %zu latches, %zu ands, %zu properties\n",
                cli.path.c_str(), design.num_inputs(), design.num_latches(),
                design.num_ands(), design.num_properties());
  }

  std::vector<std::size_t> order;
  if (cli.order == "cone") {
    order = mp::order_by_cone_size(ts);
  } else if (cli.order == "shuffle") {
    order = mp::shuffled_order(ts, cli.seed);
  } else if (cli.order != "design") {
    std::fprintf(stderr, "javer_cli: unknown order '%s'\n",
                 cli.order.c_str());
    return 3;
  }

  mp::ClauseDb db;
  if (!cli.clause_db_path.empty()) {
    // A missing file starts empty and is written on exit; one that does
    // not load for this design is an input error and is left untouched.
    try {
      if (std::filesystem::exists(cli.clause_db_path)) {
        db.load_file(cli.clause_db_path, ts.num_latches());
        if (!cli.quiet) {
          std::printf("loaded %zu clauses from %s\n", db.size(),
                      cli.clause_db_path.c_str());
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "javer_cli: %s\n", e.what());
      return 3;
    }
  }

  // Observability handles (src/obs); the engines only record into them
  // when the pointers are set, i.e. when an output file was requested.
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::Tracer* tracer_ptr = cli.trace_out.empty() ? nullptr : &tracer;
  // The watchdog wants the stall counter even without --metrics-out, and
  // the "fault:" summary line wants the fault.*/retry.* counters.
  const bool monitor_on = cli.progress || cli.watchdog;
  const bool fault_on = !cli.fault_inject.empty();
  obs::MetricsRegistry* metrics_ptr =
      (cli.metrics_out.empty() && !monitor_on && !fault_on) ? nullptr
                                                            : &metrics;
  obs::PhaseProfiler profiler;
  obs::PhaseProfiler* profiler_ptr =
      (cli.profile_out.empty() && cli.profile_folded.empty()) ? nullptr
                                                              : &profiler;
  obs::ProgressBoard board;
  obs::ProgressBoard* board_ptr = monitor_on ? &board : nullptr;
  std::unique_ptr<obs::ProgressMonitor> monitor;
  if (monitor_on) {
    obs::MonitorOptions mon_opts;
    // Without --progress the monitor runs only for the watchdog: sample
    // often enough to see a stall of the given length.
    mon_opts.interval_seconds =
        cli.progress ? cli.progress_interval : cli.watchdog_sec / 2;
    mon_opts.verbose = cli.progress_verbose;
    mon_opts.stall_seconds = cli.watchdog_sec;
    // Progress lines go to stderr: stdout carries the report (or, with
    // --witness, pure witness data).
    mon_opts.out = cli.progress ? &std::cerr : nullptr;
    monitor = std::make_unique<obs::ProgressMonitor>(&board, mon_opts,
                                                     tracer_ptr, metrics_ptr);
  }

  mp::simfilter::SimFilterOptions sim_opts;
  sim_opts.mode = cli.sim_prefilter == "full"
                      ? mp::simfilter::SimFilterMode::Full
                  : cli.sim_prefilter == "falsify"
                      ? mp::simfilter::SimFilterMode::Falsify
                      : mp::simfilter::SimFilterMode::Off;
  sim_opts.depth = cli.sim_depth;
  sim_opts.patterns = cli.sim_patterns;
  sim_opts.seed = cli.seed;

  // One engine configuration for every engine branch. The aggregate
  // engine reads only the fields that apply to it (the up-front checks
  // reject the flags it cannot honor).
  mp::sched::EngineOptions engine;
  engine.time_limit_per_property = cli.time_limit;
  engine.clause_reuse = cli.reuse;
  engine.lifting_respects_constraints = cli.strict_lifting;
  engine.simplify = cli.simplify;
  engine.cache_dir = cli.cache_dir;
  engine.order = std::move(order);
  engine.sim_filter = sim_opts;
  engine.fault_plan = cli.fault_inject;
  engine.tracer = tracer_ptr;
  engine.metrics = metrics_ptr;
  engine.progress = board_ptr;
  engine.profiler = profiler_ptr;
  // Every engine but joint is one scheduler run; the name only picks its
  // proof mode, dispatch policy and thread count.
  const bool global =
      cli.engine == "separate" || cli.engine == "separate-global";
  const bool hybrid = cli.engine == "hybrid" || cli.engine == "sharded";
  const bool threaded = hybrid || cli.engine == "parallel";
  mp::sched::SchedulerOptions so;
  so.engine = engine;
  so.proof_mode =
      global ? mp::sched::ProofMode::Global : mp::sched::ProofMode::Local;
  so.dispatch = hybrid ? mp::sched::DispatchPolicy::HybridBmcIc3
                       : mp::sched::DispatchPolicy::RunToCompletion;
  so.num_threads = threaded ? cli.threads : 1;
  so.bmc_max_depth = cli.bmc_depth;

  Timer timer;
  if (monitor) monitor->start();
  mp::MultiResult result;
  if (cli.engine == "joint") {
    mp::JointOptions opts = engine;
    opts.total_time_limit = cli.time_limit;  // bounds the whole run
    result = mp::JointVerifier(ts, opts).run();
  } else if (cli.engine == "sharded") {
    mp::shard::ShardedOptions opts;
    opts.base = so;
    opts.clustering.min_similarity = cli.cluster_threshold;
    opts.clustering.max_cluster_size = cli.max_cluster_size;
    opts.exchange = cli.lemma_exchange;
    mp::shard::ShardedScheduler sharded(ts, opts);
    result = sharded.run(db);
    if (!cli.quiet) {
      // With --witness, stdout is reserved for witness data (see below).
      std::FILE* out = cli.witness ? stderr : stdout;
      const mp::exchange::ExchangeStats& xs = sharded.exchange_stats();
      std::fprintf(out,
          "sharded: %zu shard(s), lemma exchange %s: %llu published, "
          "%llu delivered, %llu imported, %llu rejected (hit rate %.2f)\n",
          sharded.num_shards(),
          mp::exchange::to_string(opts.exchange),
          static_cast<unsigned long long>(xs.published),
          static_cast<unsigned long long>(xs.delivered),
          static_cast<unsigned long long>(xs.imported),
          static_cast<unsigned long long>(xs.rejected), xs.hit_rate());
    }
  } else if (global || threaded || cli.engine == "ja") {
    result = mp::sched::Scheduler(ts, so).run(db);
  } else {
    std::fprintf(stderr, "javer_cli: unknown engine '%s'\n",
                 cli.engine.c_str());
    return 3;
  }

  // Joins the monitor thread and renders the final progress summary
  // before any exports, so trace/metrics files see the full watchdog
  // history and the progress totals match the report's verdict counts.
  if (monitor) monitor->stop();

  // With --witness, stdout carries pure witness data (pipeable into
  // witness_check); everything human-readable moves to stderr.
  std::FILE* info = cli.witness ? stderr : stdout;
  if (!cli.quiet) {
    std::ostringstream report;
    mp::print_report(report, ts, result);
    std::fputs(report.str().c_str(), info);
  }
  std::fprintf(info,
               "verified %zu properties in %s: %zu proved, %zu failed, %zu "
               "unsolved\n",
               ts.num_properties(),
               mp::format_duration(timer.seconds()).c_str(),
               result.num_proved(), result.num_failed(),
               result.num_unsolved());
  {
    // Encode-reuse accounting across every engine of the run.
    double encode_seconds = 0.0;
    unsigned long long contexts = 0, builds = 0, replays = 0, rebuilds = 0;
    unsigned long long peak = 0;
    for (const mp::PropertyResult& pr : result.per_property) {
      const ic3::Ic3Stats& es = pr.engine_stats;
      encode_seconds += es.encode_seconds;
      contexts += es.solver_contexts_created;
      builds += es.template_builds;
      replays += es.template_instantiations;
      rebuilds += es.solver_rebuilds;
      peak = std::max<unsigned long long>(peak, es.peak_live_solvers);
    }
    std::fprintf(info,
                 "encode: %s (%llu context(s), %llu template build(s), "
                 "%llu replay(s), %llu rebuild(s), peak %llu live "
                 "solver(s))\n",
                 mp::format_duration(encode_seconds).c_str(), contexts,
                 builds, replays, rebuilds, peak);
  }
  if (!cli.cache_dir.empty()) {
    const persist::PersistStats& cs = result.cache_stats;
    std::fprintf(info,
                 "cache: %s: %llu template(s) loaded, %llu stored, %llu "
                 "clause-db(s) loaded (%llu cube(s)), %llu stored, %llu "
                 "ignored entr%s, %llu store error(s)\n",
                 cli.cache_dir.c_str(),
                 static_cast<unsigned long long>(cs.templates_loaded),
                 static_cast<unsigned long long>(cs.templates_stored),
                 static_cast<unsigned long long>(cs.dbs_loaded),
                 static_cast<unsigned long long>(cs.cubes_loaded),
                 static_cast<unsigned long long>(cs.dbs_stored),
                 static_cast<unsigned long long>(cs.load_errors),
                 cs.load_errors == 1 ? "y" : "ies",
                 static_cast<unsigned long long>(cs.store_errors));
  }
  if (fault_on) {
    // Run-level resilience accounting; per-property detail (failure
    // chains, final rung) is in the report above.
    const obs::MetricsSnapshot& ms = result.metrics;
    std::fprintf(info,
                 "fault: %llu injected, %llu caught; %llu retr%s "
                 "(%llu recovered, %llu exhausted)\n",
                 static_cast<unsigned long long>(ms.counter("fault.injected")),
                 static_cast<unsigned long long>(ms.counter("fault.caught")),
                 static_cast<unsigned long long>(ms.counter("retry.attempts")),
                 ms.counter("retry.attempts") == 1 ? "y" : "ies",
                 static_cast<unsigned long long>(ms.counter("retry.recovered")),
                 static_cast<unsigned long long>(
                     ms.counter("retry.exhausted")));
  }

  if (!cli.trace_out.empty()) {
    std::ofstream out(cli.trace_out, std::ios::trunc);
    tracer.write_chrome_trace(out);
    out.flush();
    if (!out) {
      std::fprintf(stderr, "javer_cli: writing trace to %s failed\n",
                   cli.trace_out.c_str());
    } else {
      std::fprintf(info, "trace: %zu event(s) -> %s\n", tracer.event_count(),
                   cli.trace_out.c_str());
    }
  }
  if (!cli.metrics_out.empty()) {
    std::ofstream out(cli.metrics_out, std::ios::trunc);
    metrics.write_jsonl(out);
    out.flush();
    if (!out) {
      std::fprintf(stderr, "javer_cli: writing metrics to %s failed\n",
                   cli.metrics_out.c_str());
    } else {
      std::fprintf(info, "metrics: %zu counter(s), %zu heartbeat(s) -> %s\n",
                   result.metrics.counters.size(),
                   metrics.heartbeats().size(), cli.metrics_out.c_str());
    }
  }
  if (!cli.profile_out.empty()) {
    std::ofstream out(cli.profile_out, std::ios::trunc);
    profiler.write_json(out);
    out.flush();
    if (!out) {
      std::fprintf(stderr, "javer_cli: writing profile to %s failed\n",
                   cli.profile_out.c_str());
    } else {
      std::fprintf(info, "profile: %zu slot(s) -> %s\n",
                   profiler.slots().size(), cli.profile_out.c_str());
    }
  }
  if (!cli.profile_folded.empty()) {
    std::ofstream out(cli.profile_folded, std::ios::trunc);
    profiler.write_folded(out);
    out.flush();
    if (!out) {
      std::fprintf(stderr, "javer_cli: writing folded profile to %s failed\n",
                   cli.profile_folded.c_str());
    }
  }

  if (cli.witness) {
    for (std::size_t p = 0; p < result.per_property.size(); ++p) {
      const mp::PropertyResult& pr = result.per_property[p];
      if (pr.verdict == mp::PropertyVerdict::FailsLocally ||
          pr.verdict == mp::PropertyVerdict::FailsGlobally) {
        ts::write_witness(std::cout, ts, pr.cex, p);
      }
    }
  }
  bool certified_ok = true;
  if (cli.certify) {
    std::size_t checked = 0;
    for (std::size_t p = 0; p < result.per_property.size(); ++p) {
      const mp::PropertyResult& pr = result.per_property[p];
      if (pr.verdict != mp::PropertyVerdict::HoldsLocally &&
          pr.verdict != mp::PropertyVerdict::HoldsGlobally) {
        continue;
      }
      if (pr.invariant.empty() &&
          pr.verdict == mp::PropertyVerdict::HoldsGlobally &&
          cli.engine == "joint") {
        continue;  // joint mode does not export per-property certificates
      }
      const std::vector<std::size_t> assumed =
          pr.verdict == mp::PropertyVerdict::HoldsLocally
              ? mp::sched::local_assumptions(ts, p)
              : std::vector<std::size_t>{};
      ic3::CertificateCheck check =
          ic3::certify_strengthening(ts, p, assumed, pr.invariant);
      checked++;
      if (!check.ok()) {
        certified_ok = false;
        std::fprintf(stderr, "certification FAILED for P%zu: %s\n", p,
                     check.failure.c_str());
      }
    }
    std::fprintf(info, "certified %zu proofs: %s\n", checked,
                 certified_ok ? "all valid" : "FAILURES FOUND");
  }
  if (!cli.clause_db_path.empty() && db.size() > 0) {
    try {
      db.save(cli.clause_db_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "javer_cli: saving clause db failed: %s\n",
                   e.what());
    }
  }

  if (!certified_ok) return 3;
  if (result.num_unsolved() > 0) return 2;
  return result.num_failed() > 0 ? 1 : 0;
}
