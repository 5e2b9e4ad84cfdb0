#include "mp/sched/property_task.h"

#include <algorithm>
#include <utility>

#include "base/log.h"
#include "base/timer.h"
#include "fault/fault.h"
#include "ic3/certify.h"
#include "obs/monitor.h"
#include "ts/trace.h"

namespace javer::mp::sched {

namespace {

// The retry budget of the degrade ladder (fail_slice).
constexpr int kMaxTaskRetries = 4;

obs::ProgressState to_progress(TaskState s) {
  switch (s) {
    case TaskState::Pending: return obs::ProgressState::kPending;
    case TaskState::Running: return obs::ProgressState::kRunning;
    case TaskState::Holds: return obs::ProgressState::kHolds;
    case TaskState::Fails: return obs::ProgressState::kFails;
    case TaskState::Unknown: return obs::ProgressState::kUnknown;
  }
  return obs::ProgressState::kUnknown;
}

}  // namespace

const char* to_string(TaskState s) {
  switch (s) {
    case TaskState::Pending: return "pending";
    case TaskState::Running: return "running";
    case TaskState::Holds: return "holds";
    case TaskState::Fails: return "fails";
    default: return "unknown";
  }
}

std::vector<std::size_t> local_assumptions(const ts::TransitionSystem& ts,
                                           std::size_t prop) {
  std::vector<std::size_t> assumed;
  for (std::size_t j = 0; j < ts.num_properties(); ++j) {
    if (j != prop && !ts.expected_to_fail(j)) assumed.push_back(j);
  }
  return assumed;
}

int num_ladder_rungs() { return 2; }

const char* rung_name(int rung) {
  switch (rung) {
    case 0: return "default";
    case 1: return "simplify-off";
    case 2: return "isolated";
  }
  return "?";
}

EngineOptions degrade_for_rung(EngineOptions opts, int rung) {
  // Cumulative: rung N keeps every downgrade of rung N-1, so re-applying
  // the ladder to already-degraded options is idempotent.
  if (rung >= 1) opts.simplify = false;
  if (rung >= 2) {
    opts.clause_reuse = false;
    opts.sim_filter.mode = simfilter::SimFilterMode::Off;
  }
  return opts;
}

PropertyTask::PropertyTask(const ts::TransitionSystem& ts, std::size_t prop,
                           std::vector<std::size_t> assumed,
                           const EngineOptions& engine, bool local_mode)
    : ts_(ts),
      prop_(prop),
      assumed_(std::move(assumed)),
      engine_opts_(engine),
      local_mode_(local_mode),
      strict_lifting_(engine.lifting_respects_constraints) {
  if (engine_opts_.progress != nullptr) {
    progress_ = engine_opts_.progress->register_task(
        static_cast<long long>(prop_), obs_shard_);
  }
}

PropertyTask::~PropertyTask() = default;

void PropertyTask::set_shard_tag(int shard) {
  obs_shard_ = shard;
  if (progress_ != nullptr) progress_->set_shard(shard);
}

void PropertyTask::publish_state() {
  if (progress_ != nullptr) progress_->set_state(to_progress(state_));
}

void PropertyTask::ensure_engine(ClauseDb* db) {
  if (engine_) return;
  ic3::Ic3Options opts;
  opts.assumed = assumed_;
  opts.lifting_respects_constraints = strict_lifting_;
  opts.simplify = engine_opts_.simplify;
  opts.template_cache = templates_;
  opts.trace = obs::TraceSink(engine_opts_.tracer, obs_shard_,
                              static_cast<long long>(prop_));
  opts.profile = obs::ProfileSink(engine_opts_.profiler, obs_shard_,
                                  static_cast<long long>(prop_));
  opts.progress = progress_;
  // Time budgeting is the task's job: the internal engine deadline would
  // tick in wall-clock while *other* tasks hold the engine pool.
  opts.time_limit_seconds = 0.0;
  if (engine_opts_.clause_reuse && db != nullptr && !seeds_) {
    seeds_ = db->shared_snapshot();
  }
  // The "isolated" retry config keeps the snapshot around but stops
  // feeding it: a poisoned seed set must not follow the task up the
  // ladder.
  if (seeds_ && engine_opts_.clause_reuse) opts.seed_clauses = *seeds_;
  engine_ = std::make_unique<ic3::Ic3>(ts_, prop_, std::move(opts));
}

void PropertyTask::close_holds(std::vector<ts::Cube> invariant,
                               ClauseDb* db) {
  state_ = TaskState::Holds;
  result_.verdict = local_mode_ ? PropertyVerdict::HoldsLocally
                                : PropertyVerdict::HoldsGlobally;
  result_.invariant = std::move(invariant);
  if (db != nullptr && engine_opts_.clause_reuse &&
      !result_.invariant.empty()) {
    db->add(result_.invariant);
  }
  fold_final_metrics();
  publish_state();
}

void PropertyTask::finish_fails(ts::Trace cex) {
  state_ = TaskState::Fails;
  result_.verdict = local_mode_ ? PropertyVerdict::FailsLocally
                                : PropertyVerdict::FailsGlobally;
  result_.cex = std::move(cex);
  fold_final_metrics();
  publish_state();
}

void PropertyTask::fold_final_metrics() {
  if (metrics_folded_) return;
  metrics_folded_ = true;
  if (engine_opts_.metrics == nullptr) return;
  ic3::fold_stats(*engine_opts_.metrics, result_.engine_stats);
  engine_opts_.metrics->add("task.closed");
  engine_opts_.metrics->add(
      "task.spurious_restarts",
      static_cast<std::uint64_t>(result_.spurious_restarts));
  // Every close path funnels through here *after* the verdict is set, so
  // this is the one place the retry outcome is known: a retried task
  // either recovered to a (re-validated) verdict or exhausted the ladder
  // into Unknown. retry.attempts is counted live in fail_slice.
  if (result_.retries > 0) {
    engine_opts_.metrics->add(result_.verdict == PropertyVerdict::Unknown
                                  ? "retry.exhausted"
                                  : "retry.recovered");
  }
}

void PropertyTask::attach_exchange(exchange::LemmaBus* bus,
                                   std::size_t shard) {
  bus_ = bus;
  shard_ = shard;
}

void PropertyTask::attach_templates(cnf::TemplateCache* templates) {
  templates_ = templates;
}

void PropertyTask::resolve_fails(ts::Trace cex, int frames) {
  if (!open()) return;
  result_.frames = frames;
  finish_fails(std::move(cex));
}

void PropertyTask::close_unknown() {
  if (!open()) return;
  state_ = TaskState::Unknown;
  result_.verdict = PropertyVerdict::Unknown;
  fold_final_metrics();
  publish_state();
}

void PropertyTask::run_slice(const ic3::Ic3Budget& budget, ClauseDb* db) {
  if (!open()) return;
  // Tag the thread with this property so deep fault sites (a SAT
  // allocation five frames down, a persist write) match prop= filters.
  fault::TaskScope fault_scope(static_cast<long long>(prop_));
  try {
    run_slice_impl(budget, db);
  } catch (const std::exception& e) {
    fail_slice(e.what());
  } catch (...) {
    fail_slice("unknown exception");
  }
}

void PropertyTask::fail_slice(const std::string& reason) {
  const obs::TraceSink sink(engine_opts_.tracer, obs_shard_,
                            static_cast<long long>(prop_));
  result_.failure_chain.push_back(std::string(rung_name(rung_)) + ": " +
                                  reason);
  JAVER_LOG(Info) << "sched: P" << prop_ << " slice failed on rung '"
                  << rung_name(rung_) << "': " << reason;
  if (engine_opts_.metrics != nullptr) engine_opts_.metrics->add("fault.caught");
  if (sink.enabled()) {
    std::string args = "\"rung\":\"";
    args += rung_name(rung_);
    args += "\",\"reason\":\"";
    obs::detail::append_json_escaped(args, reason);
    args += '"';
    sink.instant("fault", "task_failure", result_.slices, std::move(args));
  }

  // Discard everything the failed engine touched, as the §7-A
  // strict-lifting retry does.
  reset_engine();

  if (result_.retries >= kMaxTaskRetries) {
    JAVER_LOG(Info) << "sched: P" << prop_
                    << " exhausted the retry ladder; closing Unknown";
    close_unknown();
    return;
  }
  result_.retries++;
  rung_ = std::min(result_.retries, num_ladder_rungs());
  result_.final_rung = rung_;
  engine_opts_ = degrade_for_rung(std::move(engine_opts_), rung_);
  if (rung_ >= num_ladder_rungs()) {
    // "isolated": detach the lemma exchange along with seeds/prefilter.
    bus_ = nullptr;
  }
  if (engine_opts_.metrics != nullptr) {
    engine_opts_.metrics->add("retry.attempts");
  }
  if (sink.enabled()) {
    std::string args = "\"rung\":\"";
    args += rung_name(rung_);
    args += '"';
    sink.instant("fault", "retry", result_.slices, std::move(args));
  }
  publish_state();  // still open; the next slice runs the safer config
}

void PropertyTask::reset_engine() {
  engine_.reset();
  engine_seconds_ = 0.0;
  reported_imported_ = reported_rejected_ = reported_known_ = 0;
  bus_cursor_ = {};
}

void PropertyTask::run_slice_impl(const ic3::Ic3Budget& budget, ClauseDb* db) {
  double per_prop = engine_opts_.time_limit_per_property;
  double remaining = per_prop > 0 ? per_prop - engine_seconds_ : 0.0;
  if (per_prop > 0 && remaining <= 0) {
    close_unknown();
    return;
  }

  const obs::TraceSink sink(engine_opts_.tracer, obs_shard_,
                            static_cast<long long>(prop_));
  const int slice_index = result_.slices;  // ordinal of the slice we run now
  const std::uint64_t span_begin = sink.begin();

  if (progress_ != nullptr) {
    progress_->set_slices(static_cast<std::uint64_t>(result_.slices));
    state_ = TaskState::Running;
    publish_state();
  }
  // Injected stall (fault plan site "task.stall"): burn wall-clock before
  // the engine runs, without publishing any activity, so the watchdog
  // sees a genuinely wedged slice.
  if (double stall = fault::inject_stall("task.stall"); stall > 0) {
    Timer stall_timer;
    while (stall_timer.seconds() < stall) {
    }
  }

  ensure_engine(db);

  // Incoming lemma traffic: every unit the shard's sweep published since
  // the last poll becomes a candidate the engine re-validates at slice
  // start.
  if (bus_ != nullptr && bus_->enabled()) {
    std::vector<ts::Cube> lemmas = bus_->poll(shard_, bus_cursor_);
    if (!lemmas.empty()) engine_->add_lemma_candidates(std::move(lemmas));
  }

  ic3::Ic3Budget slice = budget;
  if (per_prop > 0 &&
      (slice.time_slice_seconds <= 0 || remaining < slice.time_slice_seconds)) {
    slice.time_slice_seconds = remaining;
  }

  Timer timer;
  ic3::Ic3Result er = engine_->run(slice);
  double spent = timer.seconds();
  engine_seconds_ += spent;
  result_.seconds += spent;
  result_.frames = er.frames;
  // Per-slice stats are cumulative for this engine; a strict-lifting retry
  // resets them along with the engine (matching the one-shot verifiers,
  // which report the final engine's stats).
  result_.engine_stats = er.stats;
  result_.slices++;
  state_ = TaskState::Running;
  if (progress_ != nullptr) {
    progress_->set_frames(er.frames);
    progress_->set_obligations(er.stats.obligations);
    progress_->set_slices(static_cast<std::uint64_t>(result_.slices));
    progress_->touch();
  }

  // Import accounting for the bus hit rate.
  if (bus_ != nullptr && bus_->enabled()) {
    bus_->record_import(shard_, er.stats.lemmas_imported - reported_imported_,
                        er.stats.lemmas_rejected - reported_rejected_,
                        er.stats.lemmas_known - reported_known_);
    reported_imported_ = er.stats.lemmas_imported;
    reported_rejected_ = er.stats.lemmas_rejected;
    reported_known_ = er.stats.lemmas_known;
  }

  const char* outcome = nullptr;
  switch (er.status) {
    case CheckStatus::Holds:
      // A proof from a post-retry engine only counts once an independent
      // certifier accepts it: a failing check is one more task failure
      // (the wrapper catches the throw), never a wrong verdict.
      if (result_.retries > 0) {
        ic3::CertificateCheck check = ic3::certify_strengthening(
            ts_, prop_, assumed_, er.invariant);
        if (!check.ok()) {
          throw std::runtime_error("post-retry certification failed: " +
                                   check.failure);
        }
      }
      close_holds(std::move(er.invariant), db);
      outcome = "holds";
      break;
    case CheckStatus::Fails:
      if (local_mode_ && !strict_lifting_ && !assumed_.empty() &&
          !ts::is_local_cex(ts_, er.cex, prop_, assumed_)) {
        // §7-A: relaxed lifting produced a spurious local CEX. Restart
        // with strict lifting and a fresh per-property budget, like the
        // one-shot path.
        JAVER_LOG(Verbose) << "sched: spurious local cex for P" << prop_
                           << "; strict-lifting retry";
        strict_lifting_ = true;
        reset_engine();
        result_.spurious_restarts++;
        sink.instant("task", "spurious_restart", slice_index);
        outcome = "spurious_restart";  // still open; next slice is strict
        break;
      }
      // Same oracle discipline for counterexamples from a post-retry
      // engine: the witness checker must accept the trace.
      if (result_.retries > 0) {
        bool cex_ok = local_mode_
                          ? ts::is_local_cex(ts_, er.cex, prop_, assumed_)
                          : ts::is_global_cex(ts_, er.cex, prop_);
        if (!cex_ok) {
          throw std::runtime_error(
              "post-retry counterexample failed the witness oracle");
        }
      }
      finish_fails(std::move(er.cex));
      outcome = "fails";
      break;
    default:
      if (!er.resumable ||
          (per_prop > 0 && engine_seconds_ >= per_prop)) {
        close_unknown();
        outcome = "unknown";
      } else {
        outcome = "suspended";
      }
      break;
  }

  if (engine_opts_.metrics != nullptr) {
    engine_opts_.metrics->add("task.slices");
  }
  if (sink.enabled()) {
    std::string args = "\"outcome\":\"";
    args += outcome;
    args += '"';
    sink.complete("task", "slice", span_begin, slice_index, std::move(args));
  }
}

}  // namespace javer::mp::sched
