// CnfTemplate: the one-step transition-relation CNF of a transition
// system, encoded (and optionally simplified) exactly once and replayed
// into any number of SAT solvers afterwards.
//
// IC3 historically paid the most expensive part of a run — Tseitin-encoding
// the full transition cone and simplifying it — once per frame, per
// property, per shard: every FrameSolver re-ran the encoder. A template
// makes encoding a one-time cost: the clause list is immutable, lives in a
// dense variable space starting at 0, and instantiating it into a fresh
// sat::Solver is a straight bulk replay (no re-Tseitin, no
// re-simplification) with the solver's storage pre-reserved.
//
// The pivot table exposes the interface literals every consumer needs:
// present-state latches, inputs, next-state functions, the holds-literal
// of each encoded property, and the design constraints. A template is
// keyed by the *set* of property cones it encodes, so a local-proof run
// (target P, assume all other non-ETF properties) and its sibling runs —
// whose {target} ∪ assumed sets coincide — share one template; the
// TemplateCache below memoizes that sharing thread-safely.
#ifndef JAVER_CNF_TEMPLATE_H
#define JAVER_CNF_TEMPLATE_H

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "aig/aig.h"
#include "base/sync.h"
#include "sat/simp/simplifier.h"
#include "sat/solver.h"
#include "sat/types.h"
#include "ts/transition_system.h"

namespace javer::cnf {

class CnfTemplate {
 public:
  struct Spec {
    // Property indices whose holds-cones are encoded (kept sorted). A
    // consumer may use any subset as target/assumed literals.
    std::vector<std::size_t> props;
    // Run the sat/simp/ Simplifier over the encoding once at build time
    // (interface literals frozen, Tseitin auxiliaries eliminable).
    bool simplify = false;
  };

  CnfTemplate(const ts::TransitionSystem& ts, Spec spec);

  // Everything the encoding constructor computes, as plain data — the
  // persist layer's deserialization target. The caller is responsible for
  // the parts matching the design they will be replayed against (the
  // persist layer keys by design fingerprint and checksums the payload).
  struct Restored {
    sat::Lit true_lit;
    std::vector<sat::Lit> latch_lits;
    std::vector<sat::Lit> input_lits;
    std::vector<sat::Lit> next_lits;
    std::vector<sat::Lit> prop_lits;  // parallel to the (sorted) spec props
    std::vector<sat::Lit> constraint_lits;
    int num_vars = 0;
    std::vector<std::vector<sat::Lit>> clauses;
    std::vector<sat::Var> eliminated;
  };
  // Reconstructs a previously serialized template without re-encoding;
  // encode_seconds() is zero (a restored template cost nothing to build).
  CnfTemplate(Spec spec, Restored parts);

  // --- pivot table (template variable space, dense from 0) ---
  sat::Lit true_lit() const { return true_lit_; }
  const std::vector<sat::Lit>& latch_lits() const { return latch_lits_; }
  const std::vector<sat::Lit>& input_lits() const { return input_lits_; }
  const std::vector<sat::Lit>& next_lits() const { return next_lits_; }
  const std::vector<sat::Lit>& constraint_lits() const {
    return constraint_lits_;
  }
  // Holds-literal of a property in spec().props; throws std::out_of_range
  // for properties the template does not encode.
  sat::Lit property_lit(std::size_t prop) const;

  int num_vars() const { return num_vars_; }
  std::size_t num_clauses() const { return clauses_.size(); }
  std::size_t num_literals() const { return num_literals_; }
  const std::vector<std::vector<sat::Lit>>& clauses() const {
    return clauses_;
  }

  // Replays the template into `solver`, which must be fresh (no variables
  // yet): pre-reserves the solver's storage, creates num_vars() variables,
  // bulk-loads the clause list, and marks simplifier-eliminated variables
  // non-decision. Afterwards the pivot literals above are valid in the
  // solver. Returns solver.ok().
  bool instantiate(sat::Solver& solver) const;

  const Spec& spec() const { return spec_; }
  // Simplifier-eliminated variables (empty unless spec().simplify); they
  // occur in no clause and are marked non-decision on instantiate.
  const std::vector<sat::Var>& eliminated_vars() const { return eliminated_; }
  // Wall-clock cost of building this template (encode + simplify).
  double encode_seconds() const { return encode_seconds_; }
  // Zero unless spec().simplify.
  const sat::simp::SimpStats& simp_stats() const { return simp_stats_; }

 private:
  Spec spec_;
  sat::Lit true_lit_;
  std::vector<sat::Lit> latch_lits_;
  std::vector<sat::Lit> input_lits_;
  std::vector<sat::Lit> next_lits_;
  std::vector<sat::Lit> prop_lits_;  // parallel to spec_.props
  std::vector<sat::Lit> constraint_lits_;

  int num_vars_ = 0;
  std::size_t num_literals_ = 0;
  std::vector<std::vector<sat::Lit>> clauses_;
  std::vector<sat::Var> eliminated_;  // simplifier-removed variables
  sat::simp::SimpStats simp_stats_;
  double encode_seconds_ = 0.0;
};

// Persistent backing store for built templates (implemented by
// persist::PersistCache). A TemplateCache with a store attached consults
// it before encoding and offers every fresh build back, so a warm process
// skips even the single encode+simplify pass of a cold one. Loaded
// templates must only ever be served for a design whose fingerprint
// matches (`aig::fingerprint`); implementations are expected to validate
// structurally as well and return null for anything unusable — a failed
// load degrades to a cold build, never to a wrong template.
class TemplateStore {
 public:
  virtual ~TemplateStore() = default;
  // The stored template for (`fingerprint`, `spec`), or null. `ts` is the
  // design the template will be replayed against (for validation).
  virtual std::shared_ptr<const CnfTemplate> load_template(
      const ts::TransitionSystem& ts, std::uint64_t fingerprint,
      const CnfTemplate::Spec& spec) = 0;
  // Offers a freshly encoded template for persistence under
  // (`fingerprint`, tmpl.spec()). Failures must be swallowed (a cache that
  // cannot be written is a cold cache, not an error).
  virtual void store_template(std::uint64_t fingerprint,
                              const CnfTemplate& tmpl) = 0;
};

struct TemplateCacheStats {
  std::uint64_t builds = 0;       // templates encoded from scratch
  std::uint64_t hits = 0;         // get_or_build calls served from the memo
  std::uint64_t store_loads = 0;  // misses served by the attached store
  double encode_seconds = 0.0;    // total build time
};

// Thread-safe memo of built templates, keyed by (design fingerprint,
// property-set, simplify). The schedulers own one per run and hand it to
// every engine, so sibling property tasks whose {target} ∪ assumed sets
// coincide (all non-ETF local-proof targets) encode the transition
// relation once per process instead of once per frame per property. The
// fingerprint in the key means a cache handed to engines checking a
// *different* design (e.g. JointVerifier's per-iteration aggregate TS)
// can never replay the wrong template: each design gets its own entries.
class TemplateCache {
 public:
  // `ts` is the cache's default design, used by the one-argument
  // get_or_build overload. It must outlive the cache.
  explicit TemplateCache(const ts::TransitionSystem& ts);
  TemplateCache(const TemplateCache&) = delete;
  TemplateCache& operator=(const TemplateCache&) = delete;

  // Attaches a persistent backing store consulted on memo misses (null
  // detaches). Call before handing the cache to concurrent consumers; the
  // store must outlive the cache.
  void attach_store(TemplateStore* store) { store_ = store; }

  // Returns the memoized template for `spec` over the cache's default
  // design, building it on first use. `built` (optional) reports whether
  // this call did the encoding work (false for memo hits *and* for
  // templates served by the attached store).
  std::shared_ptr<const CnfTemplate> get_or_build(CnfTemplate::Spec spec,
                                                  bool* built = nullptr);
  // Design-aware lookup: `ts` may differ from the cache's default
  // transition system; the design fingerprint in the cache key keeps the
  // entries apart. Engines pass their own TS here (ic3::Ic3 does), so a
  // shared cache is safe across heterogeneous runs.
  std::shared_ptr<const CnfTemplate> get_or_build(
      const ts::TransitionSystem& ts, CnfTemplate::Spec spec,
      bool* built = nullptr);

  TemplateCacheStats stats() const;

 private:
  const ts::TransitionSystem& ts_;
  const std::uint64_t fingerprint_;  // of ts_, precomputed
  // Written by attach_store before concurrent use only (see above);
  // read by builders without the mutex.
  TemplateStore* store_ = nullptr;
  mutable base::Mutex mu_;
  // Each entry is a future so one thread builds while same-spec waiters
  // block on the entry and different-spec builds proceed concurrently.
  std::map<std::tuple<std::uint64_t, std::vector<std::size_t>, bool>,
           std::shared_future<std::shared_ptr<const CnfTemplate>>>
      map_ GUARDED_BY(mu_);
  TemplateCacheStats stats_ GUARDED_BY(mu_);
};

}  // namespace javer::cnf

#endif  // JAVER_CNF_TEMPLATE_H
