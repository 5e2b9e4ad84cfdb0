// javer_bench: one (workload, rep) of the end-to-end benchmark per process.
//
//   javer_bench --workload W --seed N --out FILE --tmp DIR
//               [--seconds S] [--designs K] [--traced DIR]
//   javer_bench --provenance
//
// A run has four steps, and only the last two are measured as verification:
//  1. generate the workload's designs from the seed and write them as
//     AIGER into DIR (untimed; the verifier only ever sees these files);
//  2. set-up: read every file back and build its TransitionSystem; on
//     warm-rerun also verify the design cold into a fresh cache directory
//     (persist stores). Set-up is repeated for every design in every pass
//     and reported as the sum over designs of the per-design median;
//  3. verify the designs in a closed loop with one caller: a design starts
//     only after the previous design's MultiResult returned (on warm-rerun
//     the measured run is the warm one, on the cache its cold run left).
//     Passes over the designs repeat until S seconds have passed (at least
//     one pass);
//  4. check every verdict outside the verify window: the expected class,
//     an independent certificate check of every proof, a witness check of
//     every counterexample, and warm == cold on warm-rerun.
//
// With --traced DIR the run attaches obs::Tracer, obs::PhaseProfiler and
// obs::MetricsRegistry through EngineOptions to every other pass (the
// passes between are the untraced reference for the tracing overhead),
// records its own bench/* spans, writes DIR/<workload>.trace.json and
// adds the counters and profiled phases to the result. End-to-end numbers
// never come from a traced run.
//
// The result is one JSON object in FILE. Exit status: 0 when every
// verdict passed its check, 1 when some did not, 2 on usage or I/O errors.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "aig/aiger_io.h"
#include "gen/synthetic.h"
#include "ic3/certify.h"
#include "mp/ja_verifier.h"
#include "mp/sched/property_task.h"
#include "mp/shard/sharded_scheduler.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "ts/trace.h"
#include "ts/transition_system.h"
#include "workloads.h"

using namespace javer;
using bench::e2e::Workload;

namespace {

namespace fs = std::filesystem;

// Set-up samples per design taken before the first pass (every pass adds
// one more).
constexpr int kSetupRepeats = 5;
// Never binds on a healthy run: hitting it leaves a property Unknown,
// which the check counts as a failure.
constexpr double kPropertyLimitSeconds = 60.0;

#ifdef NDEBUG
constexpr bool kAsserts = false;
#else
constexpr bool kAsserts = true;
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- minimal JSON output -----------------------------------------------------

std::string num(double v) {
  char buf[32];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string num(std::uint64_t v) { return std::to_string(v); }

std::string str(const std::string& s) {
  std::string out = "\"";
  obs::detail::append_json_escaped(out, s);
  return out + "\"";
}

// Builds one JSON object member by member.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ',';
    body_ += str(key) + ":" + value;
    return *this;
  }
  JsonObject& add(const std::string& key, double v) { return raw(key, num(v)); }
  JsonObject& add(const std::string& key, std::uint64_t v) {
    return raw(key, num(v));
  }
  JsonObject& add(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& add(const std::string& key, const std::string& v) {
    return raw(key, str(v));
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string provenance_json() {
  return JsonObject()
      .add("build_type", std::string(JAVER_BENCH_BUILD_TYPE))
      .add("compiler", std::string(JAVER_BENCH_COMPILER))
      .add("asserts", kAsserts)
      .add("sanitizers", kSanitized)
      .text();
}

// --- the verifier call under test -------------------------------------------

struct Observers {
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  obs::PhaseProfiler* profiler = nullptr;
};

// The workload's one public entry point, configured like javer_cli's
// defaults for that mode.
mp::MultiResult verify(Workload w, const ts::TransitionSystem& ts,
                       const std::string& cache_dir, const Observers& o) {
  if (w == Workload::ShardedMixed) {
    mp::shard::ShardedOptions so;
    so.base.proof_mode = mp::sched::ProofMode::Local;
    so.base.dispatch = mp::sched::DispatchPolicy::HybridBmcIc3;
    so.base.num_threads = bench::e2e::workload_threads(w);
    so.base.engine.time_limit_per_property = kPropertyLimitSeconds;
    so.base.engine.sim_filter.mode = mp::simfilter::SimFilterMode::Full;
    so.base.engine.tracer = o.tracer;
    so.base.engine.metrics = o.metrics;
    so.base.engine.profiler = o.profiler;
    so.exchange = mp::exchange::ExchangeMode::Units;
    return mp::shard::ShardedScheduler(ts, so).run();
  }
  mp::JaOptions opts;
  opts.time_limit_per_property = kPropertyLimitSeconds;
  opts.cache_dir = cache_dir;
  opts.tracer = o.tracer;
  opts.metrics = o.metrics;
  opts.profiler = o.profiler;
  return mp::JaVerifier(ts, opts).run();
}

// --- the correctness gate ---------------------------------------------------

struct CheckTotals {
  double certify_s = 0.0;
  double cex_s = 0.0;
  std::uint64_t proofs = 0;
  std::uint64_t cex = 0;
  std::vector<std::string> notes;  // one line per failed property
};

bool holds(mp::PropertyVerdict v) {
  return v == mp::PropertyVerdict::HoldsLocally ||
         v == mp::PropertyVerdict::HoldsGlobally;
}

// Checks every verdict of one design; returns the number of properties
// that failed a check (each property counts at most once).
std::uint64_t check_design(const std::string& design,
                           const ts::TransitionSystem& ts,
                           const mp::MultiResult& r,
                           const mp::MultiResult* cold, std::size_t index,
                           const obs::TraceSink& sink, CheckTotals& totals) {
  const std::vector<int> expected = gen::synthetic_expected_classes(ts.aig());
  std::vector<std::string> why(ts.num_properties());
  for (std::size_t p = 0; p < ts.num_properties(); ++p) {
    const mp::PropertyVerdict v = r.per_property[p].verdict;
    const bool want_fail = expected[p] == 1;
    if (v == mp::PropertyVerdict::Unknown) {
      why[p] = "unknown";
    } else if (want_fail ? v != mp::PropertyVerdict::FailsLocally
                         : !holds(v)) {
      why[p] = std::string("wrong class ") + mp::to_string(v);
    } else if (cold != nullptr && cold->per_property[p].verdict != v) {
      why[p] = std::string("warm ") + mp::to_string(v) + " != cold " +
               mp::to_string(cold->per_property[p].verdict);
    }
  }
  if (cold != nullptr && r.cache_stats.templates_loaded == 0) {
    for (std::string& w : why) {
      if (w.empty()) w = "warm run loaded no template";
    }
  }
  const std::string args = "\"design\":" + std::to_string(index);
  {
    obs::TraceSpan span(sink, "bench", "certify");
    span.set_args(args);
    const auto t0 = std::chrono::steady_clock::now();
    cnf::TemplateCache certifier_templates(ts);
    for (std::size_t p = 0; p < ts.num_properties(); ++p) {
      const mp::PropertyResult& pr = r.per_property[p];
      if (!holds(pr.verdict)) continue;
      const std::vector<std::size_t> assumed =
          pr.verdict == mp::PropertyVerdict::HoldsLocally
              ? mp::sched::local_assumptions(ts, p)
              : std::vector<std::size_t>{};
      const ic3::CertificateCheck check = ic3::certify_strengthening(
          ts, p, assumed, pr.invariant, &certifier_templates);
      totals.proofs++;
      if (!check.ok() && why[p].empty()) {
        why[p] = "certificate rejected: " + check.failure;
      }
    }
    totals.certify_s += seconds_since(t0);
  }
  {
    obs::TraceSpan span(sink, "bench", "cex_check");
    span.set_args(args);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t p = 0; p < ts.num_properties(); ++p) {
      const mp::PropertyResult& pr = r.per_property[p];
      if (pr.verdict != mp::PropertyVerdict::FailsLocally) continue;
      totals.cex++;
      if (!ts::is_local_cex(ts, pr.cex, p,
                            mp::sched::local_assumptions(ts, p)) &&
          why[p].empty()) {
        why[p] = "counterexample rejected";
      }
    }
    totals.cex_s += seconds_since(t0);
  }
  std::uint64_t failed = 0;
  for (std::size_t p = 0; p < why.size(); ++p) {
    if (why[p].empty()) continue;
    failed++;
    totals.notes.push_back(design + " P" + std::to_string(p) + " (" +
                           ts.property_name(p) + "): " + why[p]);
  }
  return failed;
}

// --- one process = one rep --------------------------------------------------

struct Design {
  explicit Design(aig::Aig a) : graph(std::move(a)), ts(graph) {}
  aig::Aig graph;
  ts::TransitionSystem ts;
};

struct Options {
  Workload workload = Workload::JaFailing;
  std::uint64_t seed = 1;
  std::string out;
  std::string tmp;
  std::string traced;
  std::size_t designs = 0;  // 0 = the workload's full list
  double seconds = 0.0;     // measure for this long; 0 = one pass
};

std::string counters_json(const obs::MetricsSnapshot& snap) {
  JsonObject o;
  for (const auto& [name, value] : snap.counters) o.add(name, value);
  for (const auto& [name, value] : snap.gauges) o.add(name, value);
  return o.text();
}

std::string phases_json(const obs::PhaseProfiler& profiler) {
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> by_phase;
  for (const obs::PhaseProfiler::SlotView& s : profiler.slots()) {
    auto& [count, total_us] = by_phase[s.phase];
    count += s.histo->count();
    total_us += s.histo->total_us();
  }
  JsonObject o;
  for (const auto& [phase, ct] : by_phase) {
    o.raw(phase, JsonObject()
                     .add("n", ct.first)
                     .add("s", static_cast<double>(ct.second) * 1e-6)
                     .text());
  }
  return o.text();
}

// One verifier call on one design, checked outside its timed window.
struct Sample {
  std::size_t design = 0;
  int pass = 0;
  double wall = 0.0;
  double cpu = 0.0;
  std::uint64_t failed = 0;
};

std::string samples_json(const std::vector<Sample>& samples,
                         const std::vector<bench::e2e::DesignSpec>& specs,
                         const std::vector<std::unique_ptr<Design>>& designs) {
  std::string out;
  for (const Sample& s : samples) {
    if (!out.empty()) out += ',';
    const std::uint64_t props = designs[s.design]->ts.num_properties();
    out += JsonObject()
               .add("design", specs[s.design].name)
               .add("pass", static_cast<std::uint64_t>(s.pass))
               .add("props", props)
               .add("verify_s", s.wall)
               .add("cpu_s", s.cpu)
               .add("failed", s.failed)
               .text();
  }
  return "[" + out + "]";
}

std::string check_json(const CheckTotals& t) {
  return JsonObject()
      .add("certify_s", t.certify_s)
      .add("cex_s", t.cex_s)
      .add("proofs", t.proofs)
      .add("cex", t.cex)
      .text();
}

int run(const Options& opt) {
  const Workload w = opt.workload;
  const bool traced = !opt.traced.empty();
  const bool warm = w == Workload::WarmRerun;
  fs::create_directories(opt.tmp);

  // 1. Generate (untimed).
  std::vector<bench::e2e::DesignSpec> specs =
      bench::e2e::workload_designs(w, opt.seed);
  if (opt.designs > 0 && opt.designs < specs.size()) specs.resize(opt.designs);
  std::vector<std::string> files;
  for (const bench::e2e::DesignSpec& d : specs) {
    files.push_back((fs::path(opt.tmp) / (d.name + ".aig")).string());
    aig::write_aiger_file(files.back(), gen::make_synthetic(d.spec), true);
  }

  obs::Tracer tracer;
  obs::MetricsRegistry metrics, setup_metrics;
  obs::PhaseProfiler profiler, setup_profiler;
  const obs::TraceSink sink(traced ? &tracer : nullptr);
  const Observers measured_obs =
      traced ? Observers{&tracer, &metrics, &profiler} : Observers{};
  const Observers setup_obs =
      traced ? Observers{&tracer, &setup_metrics, &setup_profiler}
             : Observers{};

  // 2. Set-up: per design, the AIGER read, the TransitionSystem build, and
  // on warm-rerun the cold run that populates the cache. It is sampled
  // kSetupRepeats times up front and once more per design in every pass,
  // so its median covers the whole run rather than one moment of it. The
  // designs verified are the first ones built.
  struct SetupSamples {
    std::vector<double> read, build, cold;
  };
  std::vector<SetupSamples> setup(files.size());
  auto set_up = [&](std::size_t i, const obs::TraceSink& span_sink) {
    const std::string args = "\"design\":" + std::to_string(i);
    auto t0 = std::chrono::steady_clock::now();
    aig::Aig a;
    {
      obs::TraceSpan span(span_sink, "bench", "read_aiger");
      span.set_args(args);
      a = aig::read_aiger_file(files[i]);
    }
    setup[i].read.push_back(seconds_since(t0));
    t0 = std::chrono::steady_clock::now();
    std::unique_ptr<Design> d;
    {
      obs::TraceSpan span(span_sink, "bench", "ts_build");
      span.set_args(args);
      d = std::make_unique<Design>(std::move(a));
    }
    setup[i].build.push_back(seconds_since(t0));
    return d;
  };
  std::vector<std::unique_ptr<Design>> designs;
  for (std::size_t i = 0; i < files.size(); ++i) {
    designs.push_back(set_up(i, sink));
  }
  for (int rep = 1; rep < kSetupRepeats; ++rep) {
    for (std::size_t i = 0; i < files.size(); ++i) set_up(i, sink);
  }

  // 3 + 4. Verify (closed loop, one caller), then check outside the window.
  // On warm-rerun every measured run follows a cold run of the same design
  // into a fresh cache directory.
  const std::string cache_dir = (fs::path(opt.tmp) / "cache").string();
  std::uint64_t attempted = 0, failed = 0;
  auto verify_one = [&](std::size_t i, int pass, bool traced_pass,
                        CheckTotals& totals) {
    const obs::TraceSink span_sink = traced_pass ? sink : obs::TraceSink{};
    set_up(i, span_sink);
    const ts::TransitionSystem& ts = designs[i]->ts;
    const std::string args = "\"design\":" + std::to_string(i);
    obs::TraceSpan design_span(span_sink, "bench", "design");
    design_span.set_args(args);
    mp::MultiResult cold;
    if (warm) {
      fs::remove_all(cache_dir);
      obs::TraceSpan span(span_sink, "bench", "cold_verify");
      span.set_args(args);
      const auto t0 = std::chrono::steady_clock::now();
      cold = verify(w, ts, cache_dir, traced_pass ? setup_obs : Observers{});
      setup[i].cold.push_back(seconds_since(t0));
    }
    Sample s{i, pass};
    mp::MultiResult r;
    {
      obs::TraceSpan span(span_sink, "bench", "verify");
      span.set_args(args);
      const double cpu0 = cpu_seconds();
      const auto t0 = std::chrono::steady_clock::now();
      r = verify(w, ts, warm ? cache_dir : std::string(),
                 traced_pass ? measured_obs : Observers{});
      s.wall = seconds_since(t0);
      s.cpu = cpu_seconds() - cpu0;
    }
    s.failed = check_design(specs[i].name, ts, r, warm ? &cold : nullptr, i,
                            span_sink, totals);
    attempted += ts.num_properties();
    failed += s.failed;
    return s;
  };

  // Untraced: passes until `seconds` elapsed, stopping between designs
  // once the first pass is complete. Traced: whole passes alternating
  // untraced (the reference for the tracing overhead) and traced, until
  // `seconds` elapsed after a traced pass. `passes` counts the passes
  // that fed `samples`.
  CheckTotals totals, untraced_totals;
  std::vector<Sample> samples, untraced;
  int passes = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int pass = 0;; ++pass) {
    const bool reference = traced && pass % 2 == 0;
    std::size_t i = 0;
    for (; i < designs.size(); ++i) {
      if (!traced && pass > 0 && seconds_since(start) >= opt.seconds) break;
      if (reference) {
        untraced.push_back(verify_one(i, pass, false, untraced_totals));
      } else {
        samples.push_back(verify_one(i, pass, traced, totals));
      }
    }
    if (!reference && i > 0) ++passes;
    if (i < designs.size() ||
        (!reference && seconds_since(start) >= opt.seconds)) {
      break;
    }
  }

  auto sum_of_medians = [&](std::vector<double> SetupSamples::*part) {
    double sum = 0.0;
    for (const SetupSamples& d : setup) sum += median(d.*part);
    return sum;
  };
  const double read_s = sum_of_medians(&SetupSamples::read);
  const double build_s = sum_of_medians(&SetupSamples::build);
  const double cold_s = sum_of_medians(&SetupSamples::cold);
  double verify_s = 0.0, cpu_s = 0.0;
  for (const Sample& s : samples) {
    verify_s += s.wall;
    cpu_s += s.cpu;
  }
  JsonObject result;
  result.add("workload", std::string(bench::e2e::to_string(w)))
      .add("seed", opt.seed)
      .add("threads", std::uint64_t{bench::e2e::workload_threads(w)})
      .raw("provenance", provenance_json())
      .add("attempted", attempted)
      .add("failed", failed)
      .add("setup_s", read_s + build_s + cold_s)
      .add("aig_read_s", read_s)
      .add("ts_build_s", build_s)
      .add("cold_s", cold_s)
      .add("passes", static_cast<std::uint64_t>(passes))
      .add("verify_s", verify_s)
      .add("cpu_s", cpu_s)
      .add("peak_rss_mb", peak_rss_mb())
      .raw("check", check_json(totals))
      .raw("samples", samples_json(samples, specs, designs));
  std::vector<std::string> notes = untraced_totals.notes;
  notes.insert(notes.end(), totals.notes.begin(), totals.notes.end());
  std::string notes_json;
  for (std::size_t i = 0; i < notes.size() && i < 20; ++i) {
    if (i > 0) notes_json += ',';
    notes_json += str(notes[i]);
  }
  result.raw("notes", "[" + notes_json + "]");
  if (traced) {
    result.raw("untraced_samples", samples_json(untraced, specs, designs))
        .raw("counters", counters_json(metrics.snapshot()))
        .raw("phases", phases_json(profiler))
        .raw("setup_counters", counters_json(setup_metrics.snapshot()))
        .raw("setup_phases", phases_json(setup_profiler));
    fs::create_directories(opt.traced);
    const fs::path trace_path =
        fs::path(opt.traced) / (std::string(bench::e2e::to_string(w)) +
                                ".trace.json");
    std::ofstream trace_out(trace_path, std::ios::binary);
    tracer.write_chrome_trace(trace_out);
    if (!trace_out) {
      std::fprintf(stderr, "javer_bench: cannot write %s\n",
                   trace_path.string().c_str());
      return 2;
    }
  }

  std::ofstream out(opt.out, std::ios::binary);
  out << result.text() << "\n";
  if (!out) {
    std::fprintf(stderr, "javer_bench: cannot write %s\n", opt.out.c_str());
    return 2;
  }
  for (const std::string& note : notes) {
    std::fprintf(stderr, "javer_bench: check failed: %s\n", note.c_str());
  }
  return failed == 0 ? 0 : 1;
}

// Parses all of `text` as a number; false on anything else.
template <typename T>
bool parse_number(const std::string& text, T& value) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return ec == std::errc() && ptr == end;
}

int usage() {
  std::fprintf(stderr,
               "usage: javer_bench --workload W --seed N --out FILE --tmp DIR "
               "[--seconds S] [--designs K] [--traced DIR]\n"
               "       javer_bench --provenance\n"
               "workloads: ja-failing ja-alltrue sharded-mixed warm-rerun\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--provenance") {
      std::printf("%s\n", provenance_json().c_str());
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      auto w = bench::e2e::parse_workload(value);
      if (!w) return usage();
      opt.workload = *w;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!parse_number(value, opt.seed)) return usage();
    } else if (arg == "--out") {
      opt.out = value;
    } else if (arg == "--tmp") {
      opt.tmp = value;
    } else if (arg == "--traced") {
      opt.traced = value;
    } else if (arg == "--seconds") {
      if (!parse_number(value, opt.seconds) || opt.seconds < 0) {
        return usage();
      }
    } else if (arg == "--designs") {
      if (!parse_number(value, opt.designs)) return usage();
    } else {
      return usage();
    }
  }
  if (!have_workload || opt.out.empty() || opt.tmp.empty()) return usage();
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "javer_bench: %s\n", e.what());
    return 2;
  }
}
