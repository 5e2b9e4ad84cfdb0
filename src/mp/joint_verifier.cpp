#include "mp/joint_verifier.h"

#include <algorithm>
#include <string>

#include "aig/aig.h"
#include "aig/sim.h"
#include "base/log.h"
#include "base/timer.h"
#include "ic3/ic3.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace javer::mp {

std::pair<aig::Aig, std::size_t> make_aggregate(
    const aig::Aig& aig, const std::vector<std::size_t>& props) {
  aig::Aig copy = aig;
  aig::Lit agg = aig::Lit::true_lit();
  for (std::size_t p : props) {
    agg = copy.add_and(agg, copy.properties()[p].lit);
  }
  std::size_t index = copy.add_property(agg, "aggregate");
  return {std::move(copy), index};
}

JointVerifier::JointVerifier(const ts::TransitionSystem& ts,
                             JointOptions opts)
    : ts_(ts), opts_(std::move(opts)) {}

MultiResult JointVerifier::run() {
  Timer total;
  MultiResult result;
  result.per_property.resize(ts_.num_properties());

  const obs::TraceSink sink(opts_.tracer);
  obs::MetricsRegistry* metrics = opts_.metrics;
  std::vector<std::size_t> unsolved;
  for (std::size_t i = 0; i < ts_.num_properties(); ++i) unsolved.push_back(i);

  while (!unsolved.empty()) {
    // Each iteration gets whatever is left of the total budget (0 =
    // unlimited).
    double remaining = 0.0;
    if (opts_.total_time_limit > 0) {
      remaining = opts_.total_time_limit - total.seconds();
      if (remaining <= 0) break;
    }

    auto [agg_aig, agg_index] = make_aggregate(ts_.aig(), unsolved);
    ts::TransitionSystem agg_ts(agg_aig);

    ic3::Ic3Options engine_opts;
    engine_opts.time_limit_seconds = remaining;
    engine_opts.lifting_respects_constraints =
        opts_.lifting_respects_constraints;
    engine_opts.simplify = opts_.simplify;
    engine_opts.trace = sink;
    // No shared cache: each iteration checks a fresh aggregate TS, but the
    // engine's private template still serves all of its contexts.

    const std::uint64_t iter_begin = sink.begin();
    Timer iteration;
    ic3::Ic3 engine(agg_ts, agg_index, engine_opts);
    ic3::Ic3Result er = engine.run();
    double spent = iteration.seconds();
    if (sink.enabled()) {
      sink.complete("sched", "joint_iteration", iter_begin, -1,
                    "\"unsolved\":" + std::to_string(unsolved.size()));
    }
    if (metrics != nullptr) metrics->heartbeat(total.seconds());

    if (er.status == CheckStatus::Holds) {
      for (std::size_t p : unsolved) {
        PropertyResult& pr = result.per_property[p];
        pr.verdict = PropertyVerdict::HoldsGlobally;
        pr.seconds = spent;
        pr.frames = er.frames;
      }
      // The iteration's engine stats go to one property only, so summing
      // engine_stats over per_property counts each IC3 run once. The fold
      // mirrors that, which keeps the registry totals equal to the sum.
      result.per_property[unsolved.front()].engine_stats = er.stats;
      if (metrics != nullptr) ic3::fold_stats(*metrics, er.stats);
      unsolved.clear();
      break;
    }
    if (er.status != CheckStatus::Fails) break;  // budget exhausted

    // The aggregate failed: every unsolved property false at the final
    // step of the CEX is refuted by it (the prefix satisfied all of them,
    // so these are exactly the first-failing ones of this trace).
    aig::Simulator sim(ts_.aig());
    const ts::Step& last = er.cex.steps.back();
    sim.eval(last.state, last.inputs);
    std::vector<std::size_t> refuted;
    for (std::size_t p : unsolved) {
      if (!sim.value(ts_.property_lit(p))) refuted.push_back(p);
    }
    if (refuted.empty()) {
      // Should be impossible for a genuine aggregate CEX; avoid looping.
      JAVER_LOG(Info) << "joint: aggregate cex refutes no property; stopping";
      break;
    }
    for (std::size_t p : refuted) {
      PropertyResult& pr = result.per_property[p];
      pr.verdict = PropertyVerdict::FailsGlobally;
      pr.seconds = spent;
      pr.frames = er.frames;
      pr.cex = er.cex;
    }
    result.per_property[refuted.front()].engine_stats = er.stats;
    if (metrics != nullptr) ic3::fold_stats(*metrics, er.stats);
    std::vector<std::size_t> next;
    for (std::size_t p : unsolved) {
      if (std::find(refuted.begin(), refuted.end(), p) == refuted.end()) {
        next.push_back(p);
      }
    }
    unsolved = std::move(next);
    JAVER_LOG(Verbose) << "joint: iteration refuted " << refuted.size()
                       << ", " << unsolved.size() << " remaining";
  }

  result.total_seconds = total.seconds();
  if (metrics != nullptr) {
    result.metrics = metrics->snapshot(result.total_seconds);
  }
  return result;
}

}  // namespace javer::mp
