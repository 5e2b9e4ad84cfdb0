// javer_cli: a command-line multi-property model checker over AIGER files
// exposing every verification mode of the library, including the
// scheduler's hybrid BMC+IC3 policy. Run with --help for the full option
// reference.
//
// Exit code: 0 all properties hold, 1 some property fails, 2 unsolved
// properties remain, 3 usage/input error or failed certification.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
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

using namespace javer;

namespace {

// --- engines and orders ----------------------------------------------------

// Runs one engine; `summary`, when set, takes the engine's own report line.
using Runner = mp::MultiResult (*)(const mp::shard::ShardedOptions& opts,
                                   const ts::TransitionSystem& ts,
                                   mp::ClauseDb& db, std::FILE* summary);

mp::MultiResult run_joint(const mp::shard::ShardedOptions& opts,
                          const ts::TransitionSystem& ts, mp::ClauseDb&,
                          std::FILE*) {
  mp::JointOptions joint = opts.base.engine;
  joint.total_time_limit = joint.time_limit_per_property;  // the whole run
  return mp::JointVerifier(ts, joint).run();
}

mp::MultiResult run_scheduler(const mp::shard::ShardedOptions& opts,
                              const ts::TransitionSystem& ts,
                              mp::ClauseDb& db, std::FILE*) {
  return mp::sched::Scheduler(ts, opts.base).run(db);
}

mp::MultiResult run_sharded(const mp::shard::ShardedOptions& opts,
                            const ts::TransitionSystem& ts, mp::ClauseDb& db,
                            std::FILE* summary) {
  mp::shard::ShardedScheduler sharded(ts, opts);
  mp::MultiResult result = sharded.run(db);
  if (summary != nullptr) {
    const mp::exchange::ExchangeStats& xs = sharded.exchange_stats();
    std::fprintf(summary,
        "sharded: %zu shard(s), lemma exchange %s: %llu published, "
        "%llu delivered, %llu imported, %llu rejected (hit rate %.2f)\n",
        sharded.num_shards(), mp::exchange::to_string(opts.exchange),
        static_cast<unsigned long long>(xs.published),
        static_cast<unsigned long long>(xs.delivered),
        static_cast<unsigned long long>(xs.imported),
        static_cast<unsigned long long>(xs.rejected), xs.hit_rate());
  }
  return result;
}

// Every engine but joint is one scheduler run: the name picks its proof
// mode, dispatch policy and whether --threads applies. The first entry is
// the default.
struct Engine {
  const char* name;
  mp::sched::ProofMode proof_mode;
  mp::sched::DispatchPolicy dispatch;
  bool threaded;
  Runner run;
};

using enum mp::sched::ProofMode;
using enum mp::sched::DispatchPolicy;
constexpr Engine kEngines[] = {
    {"ja", Local, RunToCompletion, false, run_scheduler},
    {"separate", Global, RunToCompletion, false, run_scheduler},
    {"joint", Local, RunToCompletion, false, run_joint},
    {"parallel", Local, RunToCompletion, true, run_scheduler},
    {"hybrid", Local, HybridBmcIc3, true, run_scheduler},
    {"sharded", Local, HybridBmcIc3, true, run_sharded},
};

// Verification orders; the first entry (design order) is the default.
struct Order {
  const char* name;
  std::vector<std::size_t> (*make)(const ts::TransitionSystem& ts,
                                   std::uint64_t seed);
};

const Order kOrders[] = {
    {"design", [](auto&, auto) { return std::vector<std::size_t>(); }},
    {"cone", [](auto& ts, auto) { return mp::order_by_cone_size(ts); }},
    {"shuffle", mp::shuffled_order},
};

// --- the command line ------------------------------------------------------

// What the command line sets. A flag that sets one library field writes
// it straight into the option structs the run uses.
struct Cli {
  Cli() {
    opts.base.engine.time_limit_per_property = 60.0;
    opts.base.num_threads = 0;  // all hardware threads
  }

  const Engine* engine = kEngines;
  const Order* order = kOrders;
  mp::shard::ShardedOptions opts;  // `base` configures every engine
  persist::GcOptions gc;
  obs::MonitorOptions monitor;
  LogLevel log_level = LogLevel::Silent;
  std::string path;
  std::string clause_db;
  std::string trace_out;
  std::string metrics_out;
  std::string profile_out;
  std::string profile_folded;
  std::vector<std::size_t> etf;
  bool cache_gc = false;  // run cache eviction instead of verifying
  bool progress = false;  // --progress or --progress-verbose given
  bool watchdog = false;  // --watchdog-sec given
  bool witness = false;
  bool certify = false;
  bool quiet = false;
  bool help = false;
};

// Parses a flag's value (null for a switch, or an optional value left
// out) into its field. Returns the usage error, empty on success.
using Set = std::function<std::string(const char* flag, const char* value)>;

Set on(bool& field, bool value = true) {
  return [&field, value](auto, auto) {
    field = value;
    return std::string();
  };
}

// A finite real, non-negative (positive when `positive`) and at most
// `max`; `want` words the range for the error.
Set real(double& field, const char* want, bool positive = false,
         double max = std::numeric_limits<double>::max()) {
  return [&field, want, positive, max](auto flag, auto value) -> std::string {
    if (value == nullptr) return {};
    char* end = nullptr;
    const double x = std::strtod(value, &end);
    if (end == value || *end != '\0' || !std::isfinite(x) || x < 0 ||
        (positive && x == 0) || x > max) {
      return std::string(flag) + " wants " + want + ", got '" + value + "'";
    }
    field = x;
    return {};
  };
}

// A decimal number the field can hold (not 0 when `positive`): a value
// it cannot is a usage error, not a silent wrap. strtoul wraps negative
// input ("-1" -> ULONG_MAX) and clamps input past ULONG_MAX (flagged by
// ERANGE); both are rejected.
template <class T>
Set count(T& field, bool positive = false) {
  return [&field, positive](auto flag, auto value) -> std::string {
    char* end = nullptr;
    errno = 0;
    const unsigned long n = std::strtoul(value, &end, 10);
    if (value[0] == '-' || end == value || *end != '\0' || errno == ERANGE) {
      return std::string(flag) + " wants a number, got '" + value + "'";
    }
    constexpr unsigned long kMax = std::numeric_limits<T>::max();
    if (n > kMax) {
      return std::string(flag) + " wants a number in [0, " +
             std::to_string(kMax) + "], got '" + std::to_string(n) + "'";
    }
    if (positive && n == 0) {
      return std::string(flag) + " wants a positive integer";
    }
    field = static_cast<T>(n);
    return {};
  };
}

// A string; a non-empty one when `want` names what it must be.
Set text(std::string& field, const char* want = nullptr) {
  return [&field, want](auto flag, auto value) -> std::string {
    if (want != nullptr && *value == '\0') {
      return std::string(flag) + " wants " + want;
    }
    field = value;
    return {};
  };
}

// One word of a fixed list, read by `parse`; `want` lists the words.
template <class T>
Set word(T& field, const char* want,
         std::optional<T> (*parse)(const std::string&)) {
  return [&field, want, parse](auto flag, auto value) -> std::string {
    const std::optional<T> parsed = parse(value);
    if (!parsed) {
      return std::string(flag) + " wants " + want + ", got '" + value + "'";
    }
    field = *parsed;
    return {};
  };
}

// The entry of `table` named `value`; `what` names the table.
template <class T, std::size_t N>
Set entry(const T*& field, const T (&table)[N], const char* what) {
  return [&field, &table, what](auto, auto value) -> std::string {
    for (const T& e : table) {
      if (std::strcmp(e.name, value) == 0) {
        field = &e;
        return {};
      }
    }
    return std::string("unknown ") + what + " '" + value + "'";
  };
}

// `set`, and the flag counts as given.
Set also(bool& given, Set set) {
  return [&given, set = std::move(set)](auto flag, auto value) {
    given = true;
    return set(flag, value);
  };
}

std::optional<mp::simfilter::SimFilterMode> parse_sim_mode(
    const std::string& text) {
  using mp::simfilter::SimFilterMode;
  for (SimFilterMode m :
       {SimFilterMode::Off, SimFilterMode::Falsify, SimFilterMode::Full}) {
    if (text == mp::simfilter::to_string(m)) return m;
  }
  return std::nullopt;
}

struct Flag {
  const char* section;  // help heading this flag opens, or null
  const char* names;    // its spellings, ", "-separated
  // The value's name: null for a switch, "[=NAME]" for a value that may
  // only follow '=' and may be left out.
  const char* arg;
  Set set;
  const char* help;  // lines after the first are indented under it
  // Null when --engine joint takes the flag; otherwise whether the parsed
  // value needs the per-property tasks the aggregate engine does not
  // have (prefilter kills, quarantine and retry, persisted invariants).
  std::function<bool()> joint_rejects = nullptr;
};

std::vector<Flag> flag_table(Cli& c) {
  mp::sched::SchedulerOptions& so = c.opts.base;
  mp::sched::EngineOptions& eo = so.engine;
  mp::simfilter::SimFilterOptions& sim = eo.sim_filter;
  obs::MonitorOptions& mon = c.monitor;
  return {
      {"engine selection:", "--engine", "NAME",
       entry(c.engine, kEngines, "engine"),
       "separate | ja | joint | parallel | hybrid |\n"
       "sharded               (default: ja)\n"
       "  separate  global proofs, one property at a time\n"
       "  ja        local proofs + clause re-use (paper's\n"
       "            headline algorithm)\n"
       "  joint     one IC3 run on the conjunction,\n"
       "            CEX-refine loop\n"
       "  parallel  JA on a work-stealing worker pool\n"
       "  hybrid    shared BMC falsification sweeps\n"
       "            interleaved with IC3 proof slices\n"
       "  sharded   one hybrid BMC+IC3 shard per cluster\n"
       "            (own task pool + clause-db shard),\n"
       "            shards balanced across the worker\n"
       "            pool, lemmas exchanged per shard"},
      {"resource limits:", "--time-limit", "SEC",
       real(eo.time_limit_per_property, "a non-negative number"),
       "per property (separate/ja/parallel/hybrid/\n"
       "sharded) or total (joint)     (default: 60)"},
      {nullptr, "--threads", "N", count(so.num_threads),
       "worker threads for parallel/hybrid/sharded;\n"
       "0 = all hardware threads      (default: 0)"},
      {nullptr, "--bmc-depth", "N", count(so.bmc_max_depth),
       "hybrid/sharded: cap on the shared BMC unrolling\n"
       "depth                         (default: 64)"},
      {"simulation prefilter (not for joint):", "--sim-prefilter", "M",
       word(sim.mode, "off|falsify|full", parse_sim_mode),
       "off | falsify | full          (default: off)\n"
       "  falsify  batched 64-wide random simulation\n"
       "           before any SAT work; every hit is\n"
       "           replayed and certified through the\n"
       "           witness checker before it may close a\n"
       "           property, and behavior signatures feed\n"
       "           the sharded engine's clustering\n"
       "  full     falsify + near-miss \"just assume\"\n"
       "           prefix seeds into the BMC sweeps\n"
       "           (hybrid/sharded)",
       [&sim] { return sim.mode != mp::simfilter::SimFilterMode::Off; }},
      {nullptr, "--sim-depth", "N", count(sim.depth),
       "prefilter: steps simulated per pattern\n"
       "(default: 32)"},
      {nullptr, "--sim-patterns", "N", count(sim.patterns),
       "prefilter: total patterns, rounded up to a\n"
       "multiple of 64                (default: 256)"},
      {nullptr, "--seed", "N", count(sim.seed),
       "base RNG seed for the prefilter and --order\n"
       "shuffle; identical seeds reproduce identical\n"
       "sweeps                        (default: 1)"},
      {"cache maintenance:", "--cache-gc", nullptr, on(c.cache_gc),
       "garbage-collect --cache-dir instead of verifying\n"
       "(no design file needed): removes corrupt entries\n"
       "and abandoned staging files, then applies the age\n"
       "and size caps below (oldest first, by last use)"},
      {nullptr, "--cache-max-bytes", "N", count(c.gc.max_bytes),
       "--cache-gc: size cap on the cache (0 = none)"},
      {nullptr, "--cache-max-age-days", "D",
       real(c.gc.max_age_days, "a non-negative number"),
       "--cache-gc: evict entries unused for more than\n"
       "D days (0 = none)"},
      {"sharded knobs:", "--cluster-threshold", "F",
       real(c.opts.clustering.min_similarity, "a number in [0,1]", false,
            1.0),
       "minimum Jaccard cone similarity for two\n"
       "properties to share a cluster, in [0,1]\n"
       "(default: 0.5)"},
      {nullptr, "--max-cluster-size", "N",
       count(c.opts.clustering.max_cluster_size, /*positive=*/true),
       "cap on properties per cluster; oversized\n"
       "would-be clusters split    (default: 64)"},
      {nullptr, "--lemma-exchange", "M",
       word(c.opts.exchange, "off|units", mp::exchange::parse_exchange_mode),
       "off | units\n"
       "  off    no cross-engine traffic\n"
       "  units  BMC prefix units seed the shard's IC3\n"
       "         tasks' F_inf (re-validated in-engine)\n"
       "(default: units)"},
      {"strategy knobs:", "--order", "KIND", entry(c.order, kOrders, "order"),
       "design | cone | shuffle       (default: design)"},
      {nullptr, "--no-reuse", nullptr, on(eo.clause_reuse, false),
       "disable strengthening-clause re-use"},
      {nullptr, "--strict-lifting", nullptr,
       on(eo.lifting_respects_constraints),
       "lifting respects property constraints (paper 7-A)"},
      {nullptr, "--simplify", nullptr, on(eo.simplify),
       "simplify the CNF (subsumption + bounded variable\n"
       "elimination, sat/simp/) once per IC3 template"},
      {nullptr, "--etf", "I",
       [&c](const char* flag, const char* value) {
         std::size_t p = 0;
         std::string error = count(p)(flag, value);
         if (error.empty()) c.etf.push_back(p);
         return error;
       },
       "mark property I Expected-To-Fail; repeatable\n"
       "(ETF properties are never assumed)"},
      {"fault injection (resilience testing; not for joint):",
       "--fault-inject", "SPEC", text(eo.fault_plan, "a plan"),
       "deterministic fault plan, ';'-separated entries:\n"
       "  seed=N            plan RNG seed (default: 1)\n"
       "  SITE[@N][+][:OPTS] inject at SITE's Nth hit\n"
       "                    (default: 1st); trailing '+'\n"
       "                    = every hit from the Nth on\n"
       "sites: sat.alloc ic3.consecution ic3.mic\n"
       "  bmc.solve persist.store persist.load\n"
       "  persist.store.crash task.stall\n"
       "opts (','-separated): prop=K (only property K),\n"
       "  stall=SECS (task.stall length), p=PROB\n"
       "  (seeded coin per hit instead of @N)\n"
       "failed tasks are quarantined and retried on a\n"
       "degrade ladder; post-retry verdicts re-certified\n"
       "(see README \"Resilience\")",
       [&eo] { return !eo.fault_plan.empty(); }},
      {"input/output:", "--clause-db", "FILE", text(c.clause_db),
       "load/save the clause database (the paper's\n"
       "external clauseDB); a missing FILE starts empty,\n"
       "a malformed one exits 3 and is left untouched"},
      {nullptr, "--cache-dir", "DIR", text(eo.cache_dir, "a directory"),
       "warm-start cache (src/persist): persist the\n"
       "design's CNF templates and per-shard clause-db\n"
       "snapshots, keyed by design fingerprint, so a\n"
       "re-run of an unchanged design skips the\n"
       "encode+simplify pass and seeds shards from the\n"
       "previous run's invariants (everything loaded is\n"
       "re-validated; corrupt caches degrade to a cold\n"
       "run). Not supported for the joint engine.",
       [&eo] { return !eo.cache_dir.empty(); }},
      {nullptr, "--trace-out", "FILE", text(c.trace_out, "a file name"),
       "write a Chrome trace-event JSON timeline of the\n"
       "run (scheduler rounds, per-slice IC3 spans, BMC\n"
       "sweeps, lemma exchange, persist I/O) — load it in\n"
       "chrome://tracing or https://ui.perfetto.dev"},
      {nullptr, "--metrics-out", "FILE", text(c.metrics_out, "a file name"),
       "write the run's counter registry as JSONL: one\n"
       "\"heartbeat\" snapshot per scheduler round plus a\n"
       "\"final\" line"},
      {nullptr, "--profile-out", "FILE", text(c.profile_out, "a file name"),
       "write per-(phase, shard, property) latency\n"
       "histograms (IC3 SAT queries by kind, BMC solves,\n"
       "template replay, persist I/O) as JSON"},
      {nullptr, "--profile-folded", "FILE",
       text(c.profile_folded, "a file name"),
       "same data as folded-stack lines for\n"
       "flamegraph.pl / speedscope"},
      {"run-health monitor:", "--progress", "[=SECS]",
       also(c.progress, real(mon.interval_seconds,
                             "a positive number of seconds", true)),
       "print a one-line progress report on stderr every\n"
       "SECS seconds (default: 5) plus a final summary"},
      {nullptr, "--progress-verbose", nullptr,
       also(c.progress, on(mon.verbose)),
       "progress plus per-task rows, stalest first"},
      {nullptr, "--watchdog-sec", "S",
       also(c.watchdog, real(mon.stall_seconds, "a positive number", true)),
       "stall threshold: a running task with no activity\n"
       "for S seconds emits a watchdog/stall trace\n"
       "instant + obs.stalls metric   (default: 30); the\n"
       "watchdog only observes, it never suspends a task;\n"
       "without --progress it samples every S/2 seconds"},
      {nullptr, "--log-level", "L",
       word(c.log_level, "silent|info|verbose|debug (or 0..3)",
            parse_log_level),
       "silent | info | verbose | debug (or 0..3): engine\n"
       "logging on stderr           (default: silent)"},
      {nullptr, "--witness", nullptr, on(c.witness),
       "print AIGER witnesses for failed properties on\n"
       "stdout (report moves to stderr)"},
      {nullptr, "--certify", nullptr, on(c.certify),
       "re-check every proof with independent SAT queries\n"
       "(initiation/consecution/safety)"},
      {nullptr, "--quiet", nullptr, on(c.quiet), "summary only"},
      {nullptr, "--help, -h", nullptr, on(c.help), "this text"},
  };
}

void usage(const std::vector<Flag>& flags, std::FILE* out) {
  std::fputs(
      "usage: javer_cli [options] <design.aig|aag>\n"
      "\n"
      "A multi-property model checker implementing the paper's "
      "JA-verification\n"
      "(\"just assume\") framework: every mode but joint is a policy "
      "preset of\n"
      "one property scheduler (src/mp/sched/).\n",
      out);
  // Help text starts in column 23, or on the next line after a flag too
  // long to leave two spaces before it.
  const std::string indent(23, ' ');
  for (const Flag& f : flags) {
    if (f.section != nullptr) std::fprintf(out, "\n%s\n", f.section);
    std::string line = "  ";
    line += f.names;
    if (f.arg != nullptr) {
      if (f.arg[0] != '[') line += ' ';
      line += f.arg;
    }
    if (line.size() + 2 > indent.size()) {
      std::fprintf(out, "%s\n", line.c_str());
      line.clear();
    }
    line.resize(indent.size(), ' ');
    for (const char* h = f.help; *h != '\0'; ++h) {
      line += *h;
      if (*h == '\n') line += indent;
    }
    std::fprintf(out, "%s\n", line.c_str());
  }
  std::fputs(
      "\n"
      "exit code: 0 all properties hold, 1 some property fails, 2 unsolved\n"
      "properties remain, 3 usage/input error or failed certification.\n",
      out);
}

// Whether `arg` is one of the ", "-separated `names`.
bool spells(std::string_view names, std::string_view arg) {
  for (;;) {
    const std::size_t comma = names.find(", ");
    if (names.substr(0, comma) == arg) return true;
    if (comma == std::string_view::npos) return false;
    names.remove_prefix(comma + 2);
  }
}

// Reads the command line into `c`; returns the usage error, empty on
// success. Parsing stops at --help.
std::string parse_args(const std::vector<Flag>& flags, int argc,
                       char** argv, Cli& c) {
  for (int i = 1; i < argc && !c.help; ++i) {
    const std::string_view arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      if (!c.path.empty()) {
        return std::string("unexpected extra argument '") + argv[i] + "'";
      }
      c.path = arg;
      continue;
    }
    const std::size_t eq = arg.find('=');
    const auto f = std::find_if(flags.begin(), flags.end(), [&](auto& e) {
      return spells(e.names, arg.substr(0, eq));
    });
    const bool optional =
        f != flags.end() && f->arg != nullptr && f->arg[0] == '[';
    if (f == flags.end() || (eq != std::string_view::npos && !optional)) {
      return std::string("unknown option '") + argv[i] + "'";
    }
    const char* value =
        eq != std::string_view::npos ? argv[i] + eq + 1 : nullptr;
    if (f->arg != nullptr && !optional) {
      if (i + 1 == argc) return std::string(argv[i]) + " needs an argument";
      value = argv[++i];
    }
    if (std::string error = f->set(f->names, value); !error.empty()) {
      return error;
    }
  }
  if (c.path.empty() && !c.cache_gc && !c.help) return "no design file given";
  return {};
}

// Writes one export file unless `path` is empty; on success, says on
// `info` (when set) what went where.
void write_file(const std::string& path, const char* what,
                const std::function<void(std::ostream&)>& write,
                std::FILE* info = nullptr, const std::string& done = "") {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  write(out);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "javer_cli: writing %s to %s failed\n", what,
                 path.c_str());
  } else if (info != nullptr) {
    std::fprintf(info, "%s: %s -> %s\n", what, done.c_str(), path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  const std::vector<Flag> flags = flag_table(cli);
  if (const std::string error = parse_args(flags, argc, argv, cli);
      !error.empty()) {
    std::fprintf(stderr, "javer_cli: %s\n", error.c_str());
    usage(flags, stderr);
    return 3;
  }
  if (cli.help) {
    usage(flags, stdout);
    return 0;
  }
  set_log_level(cli.log_level);
  mp::sched::SchedulerOptions& so = cli.opts.base;
  mp::sched::EngineOptions& engine = so.engine;

  // Set-up: an exception from any step is an input error.
  aig::Aig design;
  mp::ClauseDb db;
  const bool joint = cli.engine->run == run_joint;
  const bool fault_on = !engine.fault_plan.empty();
  try {
    if (cli.cache_gc) {
      // Maintenance mode: one eviction pass over the warm-start cache, no
      // verification. A GC pass only costs warmth, never soundness.
      if (engine.cache_dir.empty()) {
        std::fprintf(stderr, "javer_cli: --cache-gc needs --cache-dir\n");
        return 3;
      }
      const persist::GcStats gc =
          persist::collect_garbage(engine.cache_dir, cli.gc);
      std::printf(
          "cache-gc: %s: %llu entr%s scanned, %llu kept "
          "(%llu -> %llu bytes); removed: %llu by age, %llu by size, "
          "%llu corrupt, %llu stale tmp\n",
          engine.cache_dir.c_str(),
          static_cast<unsigned long long>(gc.scanned),
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

    design = aig::read_aiger_file(cli.path);
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
    for (const Flag& f : flags) {
      if (joint && f.joint_rejects && f.joint_rejects()) {
        std::fprintf(stderr,
                     "javer_cli: %s is not supported with --engine joint\n",
                     f.names);
        return 3;
      }
    }
    // Validate the fault plan and probe the cache (which creates its
    // directory) now, so either is a loud usage error instead of an
    // engine-time exception or a silently cold run.
    if (fault_on) fault::FaultPlan::parse(engine.fault_plan);
    if (!engine.cache_dir.empty()) {
      persist::PersistCache probe(engine.cache_dir);
    }

    if (!cli.quiet) {
      std::printf("%s: %zu inputs, %zu latches, %zu ands, %zu properties\n",
                  cli.path.c_str(), design.num_inputs(), design.num_latches(),
                  design.num_ands(), design.num_properties());
    }
    // A missing clause-db file starts empty and is written on exit; one
    // that does not load for this design is left untouched.
    if (!cli.clause_db.empty() && std::filesystem::exists(cli.clause_db)) {
      db.load_file(cli.clause_db, design.num_latches());
      if (!cli.quiet) {
        std::printf("loaded %zu clauses from %s\n", db.size(),
                    cli.clause_db.c_str());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "javer_cli: %s\n", e.what());
    return 3;
  }
  ts::TransitionSystem ts(design);

  // Observability handles (src/obs); the engines only record into them
  // when the pointers are set, i.e. when an output file was requested.
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::PhaseProfiler profiler;
  obs::ProgressBoard board;
  const bool monitor_on = cli.progress || cli.watchdog;
  engine.tracer = cli.trace_out.empty() ? nullptr : &tracer;
  // The watchdog wants the stall counter even without --metrics-out, and
  // the "fault:" summary line wants the fault.*/retry.* counters.
  engine.metrics =
      (cli.metrics_out.empty() && !monitor_on && !fault_on) ? nullptr
                                                            : &metrics;
  engine.profiler =
      (cli.profile_out.empty() && cli.profile_folded.empty()) ? nullptr
                                                              : &profiler;
  engine.progress = monitor_on ? &board : nullptr;
  std::unique_ptr<obs::ProgressMonitor> monitor;
  if (monitor_on) {
    // Without --progress the monitor runs only for the watchdog: sample
    // often enough to see a stall of the given length.
    if (!cli.progress) {
      cli.monitor.interval_seconds = cli.monitor.stall_seconds / 2;
    }
    // Progress lines go to stderr: stdout carries the report (or, with
    // --witness, pure witness data).
    cli.monitor.out = cli.progress ? &std::cerr : nullptr;
    monitor = std::make_unique<obs::ProgressMonitor>(
        &board, cli.monitor, engine.tracer, engine.metrics);
  }

  engine.order = cli.order->make(ts, engine.sim_filter.seed);
  so.proof_mode = cli.engine->proof_mode;
  so.dispatch = cli.engine->dispatch;
  if (!cli.engine->threaded) so.num_threads = 1;

  // With --witness, stdout carries pure witness data (pipeable into
  // witness_check); everything human-readable moves to stderr.
  std::FILE* info = cli.witness ? stderr : stdout;
  Timer timer;
  if (monitor) monitor->start();
  mp::MultiResult result =
      cli.engine->run(cli.opts, ts, db, cli.quiet ? nullptr : info);

  // Joins the monitor thread and renders the final progress summary
  // before any exports, so trace/metrics files see the full watchdog
  // history and the progress totals match the report's verdict counts.
  if (monitor) monitor->stop();

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
  if (!engine.cache_dir.empty()) {
    const persist::PersistStats& cs = result.cache_stats;
    std::fprintf(info,
                 "cache: %s: %llu template(s) loaded, %llu stored, %llu "
                 "clause-db(s) loaded (%llu cube(s)), %llu stored, %llu "
                 "ignored entr%s, %llu store error(s)\n",
                 engine.cache_dir.c_str(),
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

  write_file(cli.trace_out, "trace",
             [&](std::ostream& out) { tracer.write_chrome_trace(out); }, info,
             std::to_string(tracer.event_count()) + " event(s)");
  write_file(cli.metrics_out, "metrics",
             [&](std::ostream& out) { metrics.write_jsonl(out); }, info,
             std::to_string(result.metrics.counters.size()) + " counter(s), " +
                 std::to_string(metrics.heartbeats().size()) +
                 " heartbeat(s)");
  write_file(cli.profile_out, "profile",
             [&](std::ostream& out) { profiler.write_json(out); }, info,
             std::to_string(profiler.slots().size()) + " slot(s)");
  write_file(cli.profile_folded, "folded profile",
             [&](std::ostream& out) { profiler.write_folded(out); });

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
          pr.verdict == mp::PropertyVerdict::HoldsGlobally && joint) {
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
  if (!cli.clause_db.empty() && db.size() > 0) {
    try {
      db.save(cli.clause_db);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "javer_cli: saving clause db failed: %s\n",
                   e.what());
    }
  }

  if (!certified_ok) return 3;
  if (result.num_unsolved() > 0) return 2;
  return result.num_failed() > 0 ? 1 : 0;
}
