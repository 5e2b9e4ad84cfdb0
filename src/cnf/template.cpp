#include "cnf/template.h"

#include <algorithm>
#include <future>
#include <stdexcept>

#include "aig/aig.h"
#include "base/timer.h"
#include "cnf/tseitin.h"
#include "sat/clause_sink.h"
#include "sat/cnf.h"

namespace javer::cnf {

namespace {

// Encoder target that accumulates into a plain sat::Cnf instead of a
// solver, so the result can be simplified and stored as data.
class CnfBuildSink : public sat::ClauseSink {
 public:
  explicit CnfBuildSink(sat::Cnf& cnf) : cnf_(cnf) {}
  sat::Var new_var() override { return cnf_.new_var(); }
  bool add_clause(std::span<const sat::Lit> lits) override {
    cnf_.add_clause(lits);
    return true;
  }

 private:
  sat::Cnf& cnf_;
};

}  // namespace

CnfTemplate::CnfTemplate(const ts::TransitionSystem& ts, Spec spec)
    : spec_(std::move(spec)) {
  std::sort(spec_.props.begin(), spec_.props.end());
  spec_.props.erase(std::unique(spec_.props.begin(), spec_.props.end()),
                    spec_.props.end());
  Timer timer;
  const aig::Aig& aig = ts.aig();

  sat::Cnf cnf;
  CnfBuildSink sink(cnf);
  Encoder encoder(aig, sink);
  Encoder::Frame frame = encoder.make_frame();
  true_lit_ = encoder.true_lit();

  // Present-state and input variables first, so their template variables
  // are dense and easy to map back from assumption cores (same ordering
  // contract as the direct FrameSolver encoding).
  latch_lits_.reserve(aig.num_latches());
  for (const aig::Latch& l : aig.latches()) {
    latch_lits_.push_back(encoder.lit(frame, aig::Lit::make(l.var)));
  }
  input_lits_.reserve(aig.num_inputs());
  for (aig::Var v : aig.inputs()) {
    input_lits_.push_back(encoder.lit(frame, aig::Lit::make(v)));
  }
  next_lits_.reserve(aig.num_latches());
  for (const aig::Latch& l : aig.latches()) {
    next_lits_.push_back(encoder.lit(frame, l.next));
  }
  prop_lits_.reserve(spec_.props.size());
  for (std::size_t p : spec_.props) {
    if (p >= ts.num_properties()) {
      throw std::invalid_argument("cnf template: property out of range");
    }
    prop_lits_.push_back(encoder.lit(frame, ts.property_lit(p)));
  }
  for (aig::Lit c : ts.design_constraints()) {
    constraint_lits_.push_back(encoder.lit(frame, c));
  }

  if (spec_.simplify) {
    sat::simp::Simplifier simp;
    simp.freeze(true_lit_);
    for (sat::Lit l : latch_lits_) simp.freeze(l);
    for (sat::Lit l : input_lits_) simp.freeze(l);
    for (sat::Lit l : next_lits_) simp.freeze(l);
    for (sat::Lit l : prop_lits_) simp.freeze(l);
    for (sat::Lit l : constraint_lits_) simp.freeze(l);
    // A one-step transition cone is always satisfiable (pick any state and
    // inputs), so simplify() cannot fail here; assert via the return.
    if (!simp.simplify(cnf)) {
      throw std::logic_error("cnf template: transition relation unsat");
    }
    eliminated_ = simp.eliminated_vars();
    simp_stats_ = simp.stats();
  }

  num_vars_ = cnf.num_vars;
  clauses_ = std::move(cnf.clauses);
  num_literals_ = 0;
  for (const auto& c : clauses_) num_literals_ += c.size();
  encode_seconds_ = timer.seconds();
}

CnfTemplate::CnfTemplate(Spec spec, Restored parts)
    : spec_(std::move(spec)),
      true_lit_(parts.true_lit),
      latch_lits_(std::move(parts.latch_lits)),
      input_lits_(std::move(parts.input_lits)),
      next_lits_(std::move(parts.next_lits)),
      prop_lits_(std::move(parts.prop_lits)),
      constraint_lits_(std::move(parts.constraint_lits)),
      num_vars_(parts.num_vars),
      clauses_(std::move(parts.clauses)),
      eliminated_(std::move(parts.eliminated)) {
  std::sort(spec_.props.begin(), spec_.props.end());
  spec_.props.erase(std::unique(spec_.props.begin(), spec_.props.end()),
                    spec_.props.end());
  if (prop_lits_.size() != spec_.props.size()) {
    throw std::invalid_argument(
        "cnf template: restored pivot table does not match the spec");
  }
  num_literals_ = 0;
  for (const auto& c : clauses_) num_literals_ += c.size();
}

sat::Lit CnfTemplate::property_lit(std::size_t prop) const {
  auto it = std::lower_bound(spec_.props.begin(), spec_.props.end(), prop);
  if (it == spec_.props.end() || *it != prop) {
    throw std::out_of_range("cnf template: property not encoded");
  }
  return prop_lits_[static_cast<std::size_t>(it - spec_.props.begin())];
}

bool CnfTemplate::instantiate(sat::Solver& solver) const {
  // The replay assumes the template's dense variable space maps onto the
  // solver's 1:1; a non-fresh solver would shift every literal.
  if (solver.num_vars() != 0) {
    throw std::logic_error("cnf template: instantiate needs a fresh solver");
  }
  solver.reserve(num_vars_, clauses_.size(), num_literals_);
  for (int i = 0; i < num_vars_; ++i) solver.new_var();
  for (const auto& clause : clauses_) {
    if (!solver.add_clause(clause)) break;
  }
  // Eliminated variables occur in no clause; branching on them is waste.
  for (sat::Var v : eliminated_) solver.set_decision_var(v, false);
  return solver.ok();
}

TemplateCache::TemplateCache(const ts::TransitionSystem& ts)
    : ts_(ts), fingerprint_(aig::fingerprint(ts.aig())) {}

std::shared_ptr<const CnfTemplate> TemplateCache::get_or_build(
    CnfTemplate::Spec spec, bool* built) {
  return get_or_build(ts_, std::move(spec), built);
}

std::shared_ptr<const CnfTemplate> TemplateCache::get_or_build(
    const ts::TransitionSystem& ts, CnfTemplate::Spec spec, bool* built) {
  std::sort(spec.props.begin(), spec.props.end());
  spec.props.erase(std::unique(spec.props.begin(), spec.props.end()),
                   spec.props.end());
  // The cache's own design gets the precomputed fingerprint; a foreign TS
  // (JointVerifier's per-iteration aggregate, a caller sharing one cache
  // across designs) is hashed per call — trivial next to an encode.
  const std::uint64_t fp =
      (&ts == &ts_) ? fingerprint_ : aig::fingerprint(ts.aig());
  auto key = std::make_tuple(fp, spec.props, spec.simplify);

  // Per-entry future so that (a) concurrent first requests for the same
  // spec build it exactly once (waiters block on the entry, not on the
  // cache), and (b) builds of *different* specs run concurrently — the
  // encoding is the expensive part, so holding the cache-wide mutex
  // across it would serialize exactly the parallel workloads the
  // schedulers hand this cache to.
  std::promise<std::shared_ptr<const CnfTemplate>> promise;
  std::shared_future<std::shared_ptr<const CnfTemplate>> future;
  bool builder = false;
  {
    base::MutexLock lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      stats_.hits++;
      future = it->second;
    } else {
      future = promise.get_future().share();
      map_.emplace(key, future);
      builder = true;
    }
  }
  if (built != nullptr) *built = false;
  if (!builder) return future.get();

  std::shared_ptr<const CnfTemplate> tmpl;
  bool loaded = false;
  try {
    // A store hit is as good as a memo hit: the caller is not charged a
    // build (built stays false) and encode_seconds stays untouched.
    if (store_ != nullptr) tmpl = store_->load_template(ts, fp, spec);
    loaded = tmpl != nullptr;
    if (!loaded) {
      tmpl = std::make_shared<const CnfTemplate>(ts, std::move(spec));
    }
    {
      base::MutexLock lock(mu_);
      if (loaded) {
        stats_.store_loads++;
      } else {
        stats_.builds++;
        stats_.encode_seconds += tmpl->encode_seconds();
      }
    }
    promise.set_value(tmpl);
  } catch (...) {
    // Drop the poisoned entry so a later request retries the build;
    // current waiters observe the exception through the future.
    {
      base::MutexLock lock(mu_);
      map_.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  // Past this point the promise is satisfied, so nothing may re-enter the
  // catch above. The store offer is best-effort by contract: a failure to
  // persist must not disturb the successfully built (and already
  // published) template.
  if (!loaded && store_ != nullptr) {
    try {
      store_->store_template(fp, *tmpl);
    } catch (...) {
    }
  }
  if (built != nullptr) *built = !loaded;
  return tmpl;
}

TemplateCacheStats TemplateCache::stats() const {
  base::MutexLock lock(mu_);
  return stats_;
}

}  // namespace javer::cnf
