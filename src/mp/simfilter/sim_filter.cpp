#include "mp/simfilter/sim_filter.h"

#include <algorithm>
#include <bit>
#include <string>
#include <unordered_set>

#include "aig/sim.h"
#include "base/log.h"
#include "base/rng.h"
#include "base/timer.h"
#include "mp/sched/property_task.h"
#include "mp/sched/worker_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace javer::mp::simfilter {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv_word(std::uint64_t h, std::uint64_t w) {
  for (int i = 0; i < 8; ++i) {
    h ^= (w >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

// Decorrelates the per-round RNG streams (splitmix64 finalizer).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// The conjunct leaves of `bad`'s top AND-tree (the "distance-to-bad"
// decomposition): a state where all leaves hold violates the property,
// one where all but one hold is a near miss. Non-complemented AND
// literals are expanded recursively up to `cap` leaves.
std::vector<aig::Lit> bad_conjuncts(const aig::Aig& aig, aig::Lit bad,
                                    std::size_t cap) {
  std::vector<aig::Lit> out;
  std::vector<aig::Lit> stack{bad};
  while (!stack.empty()) {
    aig::Lit l = stack.back();
    stack.pop_back();
    if (!l.complemented() && aig.node(l.var()).type == aig::NodeType::And &&
        out.size() + stack.size() + 1 < cap) {
      stack.push_back(aig.node(l.var()).fanin0);
      stack.push_back(aig.node(l.var()).fanin1);
    } else {
      out.push_back(l);
    }
  }
  return out;
}

}  // namespace

const char* to_string(SimFilterMode m) {
  switch (m) {
    case SimFilterMode::Falsify: return "falsify";
    case SimFilterMode::Full: return "full";
    default: return "off";
  }
}

SimFilter::SimFilter(const ts::TransitionSystem& ts,
                     const SimFilterOptions& opts, bool local_mode,
                     obs::Tracer* tracer, obs::MetricsRegistry* metrics)
    : ts_(ts),
      opts_(opts),
      local_mode_(local_mode),
      tracer_(tracer),
      metrics_(metrics) {}

void SimFilter::run(const std::vector<std::size_t>& targets,
                    sched::WorkerPool* pool) {
  signatures_.assign(ts_.num_properties(), 0);
  if (opts_.mode == SimFilterMode::Off || targets.empty() ||
      opts_.depth <= 0 || opts_.patterns <= 0) {
    return;
  }
  Timer timer;
  const obs::TraceSink sink(tracer_);
  const std::uint64_t span_begin = sink.begin();

  targets_ = targets;
  std::sort(targets_.begin(), targets_.end());
  targets_.erase(std::unique(targets_.begin(), targets_.end()),
                 targets_.end());

  conjuncts_.assign(targets_.size(), {});
  if (opts_.mode == SimFilterMode::Full) {
    for (std::size_t ti = 0; ti < targets_.size(); ++ti) {
      conjuncts_[ti] =
          bad_conjuncts(ts_.aig(), ~ts_.property_lit(targets_[ti]), 32);
    }
  }

  const std::size_t rounds = (static_cast<std::size_t>(opts_.patterns) + 63) / 64;
  rounds_.assign(rounds, Round{});
  if (pool != nullptr && rounds > 1) {
    pool->run(rounds, [&](std::size_t r) { run_round(r); });
  } else {
    for (std::size_t r = 0; r < rounds; ++r) run_round(r);
  }

  // Everything below combines the rounds in index order, so the kills,
  // signatures and seeds are identical across thread counts.
  stats_.rounds = rounds;
  stats_.patterns = rounds * 64;
  for (const Round& rd : rounds_) {
    stats_.steps += rd.steps;
    stats_.candidates += rd.candidates;
  }

  for (std::size_t ti = 0; ti < targets_.size(); ++ti) {
    std::uint64_t h = kFnvOffset;
    for (const Round& rd : rounds_) h = fnv_word(h, rd.digest[ti]);
    signatures_[targets_[ti]] = h == 0 ? 1 : h;
  }
  {
    std::unordered_set<std::uint64_t> groups;
    for (std::size_t p : targets_) groups.insert(signatures_[p]);
    stats_.signature_groups = groups.size();
  }

  // Kills: first validated candidate per property, in (round, target)
  // order. Validation is the oracle — a replay the witness checker
  // rejects is discarded, never a kill.
  std::vector<char> killed(ts_.num_properties(), 0);
  for (const Round& rd : rounds_) {
    for (std::size_t ti = 0; ti < targets_.size(); ++ti) {
      const std::size_t p = targets_[ti];
      const Round::Hit& hit = rd.cand[ti];
      if (hit.step < 0 || killed[p]) continue;
      ts::Trace cex = replay(rd, hit.pattern, hit.step);
      if (!validate(cex, p)) {
        stats_.discarded++;
        continue;
      }
      killed[p] = 1;
      stats_.kills++;
      stats_.max_kill_depth =
          std::max(stats_.max_kill_depth, static_cast<int>(cex.length()));
      kills_.push_back(SimKill{p, static_cast<int>(cex.length()),
                               std::move(cex)});
    }
  }

  // Near-miss seeds (Full): best prefix per still-open property, capped
  // at kMaxSeeds total. The prefix is a plain simulation replay — no
  // failure involved — so it needs no oracle here; BmcSweep re-validates
  // whatever it derives from it.
  if (opts_.mode == SimFilterMode::Full) {
    std::vector<char> seeded(ts_.num_properties(), 0);
    for (const Round& rd : rounds_) {
      if (static_cast<int>(seeds_.size()) >= kMaxSeeds) break;
      for (std::size_t ti = 0; ti < targets_.size(); ++ti) {
        if (static_cast<int>(seeds_.size()) >= kMaxSeeds) break;
        const std::size_t p = targets_[ti];
        const Round::Hit& hit = rd.near[ti];
        if (hit.step < 0 || killed[p] || seeded[p]) continue;
        seeded[p] = 1;
        seeds_.push_back(NearMissSeed{p, rd.near_score[ti],
                                      replay(rd, hit.pattern, hit.step)});
      }
    }
    stats_.seeds_exported = seeds_.size();
  }

  stats_.seconds = timer.seconds();
  if (metrics_ != nullptr) {
    metrics_->add("sim.sweeps");
    metrics_->add("sim.rounds", stats_.rounds);
    metrics_->add("sim.patterns", stats_.patterns);
    metrics_->add("sim.steps", stats_.steps);
    metrics_->add("sim.candidates", stats_.candidates);
    metrics_->add("sim.kills", stats_.kills);
    metrics_->add("sim.discarded", stats_.discarded);
    metrics_->add("sim.seeds", stats_.seeds_exported);
    metrics_->add("sim.signature_groups", stats_.signature_groups);
    metrics_->add_gauge("sim.seconds", stats_.seconds);
  }
  if (sink.enabled()) {
    std::string args =
        "\"mode\":\"" + std::string(to_string(opts_.mode)) +
        "\",\"patterns\":" + std::to_string(stats_.patterns) +
        ",\"kills\":" + std::to_string(stats_.kills) +
        ",\"candidates\":" + std::to_string(stats_.candidates) +
        ",\"seeds\":" + std::to_string(stats_.seeds_exported);
    sink.complete("sim", "sweep", span_begin, -1, std::move(args));
  }
  JAVER_LOG(Info) << "simfilter: " << stats_.kills << " kill(s) from "
                  << stats_.candidates << " candidate(s), "
                  << stats_.seeds_exported << " seed(s), "
                  << stats_.signature_groups << " signature group(s)";
}

void SimFilter::run_round(std::size_t r) {
  Round& rd = rounds_[r];
  const aig::Aig& aig = ts_.aig();
  const std::size_t num_props = ts_.num_properties();
  const obs::TraceSink sink(tracer_);
  const std::uint64_t span_begin = sink.begin();

  Rng rng(mix(opts_.seed ^ (r * 0x100000001b3ULL)));
  rd.init.resize(ts_.num_latches());
  for (std::size_t i = 0; i < ts_.num_latches(); ++i) {
    switch (aig.latches()[i].reset) {
      case Ternary::True: rd.init[i] = ~0ULL; break;
      case Ternary::False: rd.init[i] = 0; break;
      case Ternary::X: rd.init[i] = rng.next(); break;
    }
  }
  rd.inputs.assign(opts_.depth,
                   std::vector<std::uint64_t>(ts_.num_inputs()));
  rd.digest.assign(targets_.size(), kFnvOffset);
  rd.cand.assign(targets_.size(), Round::Hit{});
  rd.near.assign(targets_.size(), Round::Hit{});
  rd.near_score.assign(targets_.size(), -1);

  // Non-ETF properties kill a pattern for *later* steps in local mode —
  // the paper's "no assumed property fails strictly earlier" rule.
  std::vector<std::size_t> non_etf;
  if (local_mode_) {
    for (std::size_t p = 0; p < num_props; ++p) {
      if (!ts_.expected_to_fail(p)) non_etf.push_back(p);
    }
  }

  aig::Simulator64 sim(aig);
  std::vector<std::uint64_t> state = rd.init;
  // already_failed[target]: patterns where the target failed at some
  // earlier-or-current step (first-failure dedup, per round).
  std::vector<std::uint64_t> already_failed(targets_.size(), 0);
  std::uint64_t alive = ~0ULL;

  for (int step = 0; step < opts_.depth && alive != 0; ++step) {
    std::vector<std::uint64_t>& in = rd.inputs[step];
    for (std::size_t j = 0; j < in.size(); ++j) in[j] = rng.next();
    sim.eval(state, in);
    rd.steps++;

    // A constraint violation invalidates the pattern from this step on,
    // including this step — constraints bind every step of a trace.
    for (aig::Lit c : aig.constraints()) alive &= sim.value(c);
    if (alive == 0) break;

    // Candidates see the pre-death mask: a property failing at the same
    // step as another one still fails *first* (strictly-earlier rule).
    std::uint64_t died = 0;
    for (std::size_t ti = 0; ti < targets_.size(); ++ti) {
      const std::uint64_t holds = sim.value(ts_.property_lit(targets_[ti]));
      const std::uint64_t fail = ~holds & alive & ~already_failed[ti];
      if (fail != 0) {
        rd.candidates += std::popcount(fail);
        if (rd.cand[ti].step < 0) {
          rd.cand[ti] = Round::Hit{step, std::countr_zero(fail)};
        }
        already_failed[ti] |= fail;
      }
      rd.digest[ti] = fnv_word(rd.digest[ti], holds & alive);
    }
    for (std::size_t p : non_etf) {
      died |= ~sim.value(ts_.property_lit(p)) & alive;
    }
    alive &= ~died;

    // Near-miss harvest (Full mode) on the post-death mask: the recorded
    // state must have a clean assumed prefix through this step, or every
    // seeded counterexample would fail the oracle.
    if (opts_.mode == SimFilterMode::Full) {
      for (std::size_t ti = 0; ti < targets_.size(); ++ti) {
        const std::vector<aig::Lit>& cj = conjuncts_[ti];
        if (cj.size() < 2 || rd.near[ti].step >= 0) continue;
        std::uint64_t all_true = ~0ULL;
        std::uint64_t one_false = 0;
        for (aig::Lit l : cj) {
          const std::uint64_t w = sim.value(l);
          one_false = (one_false & w) | (all_true & ~w);
          all_true &= w;
        }
        const std::uint64_t near =
            one_false & alive & ~already_failed[ti];
        if (near != 0) {
          rd.near[ti] = Round::Hit{step, std::countr_zero(near)};
          rd.near_score[ti] = static_cast<int>(cj.size()) - 1;
        }
      }
    }

    sim.step_state(state);
  }

  if (sink.enabled()) {
    sink.complete("sim", "round", span_begin, static_cast<int>(r),
                  "\"round\":" + std::to_string(r) +
                      ",\"steps\":" + std::to_string(rd.steps));
  }
}

ts::Trace SimFilter::replay(const Round& rd, int pattern,
                            int last_step) const {
  ts::Trace trace;
  std::vector<bool> state(ts_.num_latches());
  for (std::size_t i = 0; i < state.size(); ++i) {
    state[i] = (rd.init[i] >> pattern) & 1;
  }
  aig::Simulator sim(ts_.aig());
  std::vector<bool> inputs(ts_.num_inputs());
  for (int t = 0; t <= last_step; ++t) {
    for (std::size_t j = 0; j < inputs.size(); ++j) {
      inputs[j] = (rd.inputs[t][j] >> pattern) & 1;
    }
    trace.steps.push_back(ts::Step{state, inputs});
    if (t < last_step) {
      sim.eval(state, inputs);
      sim.step_state(state);
    }
  }
  return trace;
}

bool SimFilter::validate(const ts::Trace& trace, std::size_t prop) const {
  if (local_mode_) {
    return ts::is_local_cex(ts_, trace, prop,
                            sched::local_assumptions(ts_, prop));
  }
  return ts::is_global_cex(ts_, trace, prop);
}

}  // namespace javer::mp::simfilter
